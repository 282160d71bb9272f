"""Representations: axioms, builders, duals, and semidirect products."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import support
from support import push_product
from homalg import (
    DUAL_VARIANTS,
    ActionRole,
    NotMultiplicative,
    ProductRole,
    Representation,
    RoleMismatch,
    StructureClass,
    adjoint_rep,
    check,
    check_rep,
    dual_malcev_rep,
    dual_pre_malcev_rep,
    make_structure,
    regular_alternative_rep,
    regular_pre_alternative_rep,
    regular_pre_malcev_rep,
    semidirect,
)
from homalg.exact import (
    DimensionMismatch,
    mat_fractions,
    mat_identity,
    mat_kernel_vector,
    mat_lincomb,
    matrix,
    tensor_grid,
)

F = Fraction
A = ActionRole
R = ProductRole
C = StructureClass


def premalcev_sl2():
    return support.load_fixture_bundle("premalcev_sl2").structure


def prealt_t2():
    return support.load_fixture_bundle("prealt_t2").structure


# ---------------------------------------------------------------------------
# representation container
# ---------------------------------------------------------------------------

def test_representation_validation():
    s = support.lie2()
    with pytest.raises(DimensionMismatch):
        Representation(
            base=s,
            module_dim=2,
            module_twist=((F(1),),),  # wrong shape
            actions={A.RHO: {(0, 1): {1: F(1)}}},
        )
    # the base index lies below the base dimension 2, the module index and the
    # output index below the module dimension, here 1 and 3
    for m, fine, bad in ((1, {(1, 0): {0: 1}}, ({(2, 0): {0: 1}}, {(0, 1): {0: 1}},
                                                {(0, 0): {1: 1}}, {(-1, 0): {0: 1}})),
                         (3, {(1, 2): {2: 1}}, ({(2, 2): {0: 1}}, {(0, 3): {0: 1}},
                                                {(1, 0): {3: 1}}, {(0, 0): {-1: 1}}))):
        Representation(base=s, module_dim=m, module_twist=mat_identity(m),
                       actions={A.RHO: fine})
        for action in bad:
            with pytest.raises(DimensionMismatch):
                Representation(base=s, module_dim=m, module_twist=mat_identity(m),
                               actions={A.RHO: action})
    # a key that is not an action role
    for key in (R.BRACKET, "rho", None):
        with pytest.raises(RoleMismatch):
            Representation(base=s, module_dim=2, module_twist=mat_identity(2),
                           actions={key: {(0, 1): {1: F(1)}}})


def test_representation_normalizes_and_copies_its_actions():
    """Int and string values become Fractions, zero entries and empty cells
    are dropped, and the rep keeps no dict of its input."""
    raw = {(0, 1): {1: 2, 0: 0}, (1, 0): {1: "-1/2"}, (1, 1): {0: F(0)}}
    rep = Representation(base=support.lie2(), module_dim=2, module_twist=mat_identity(2),
                         actions={A.RHO: raw})
    want = {(0, 1): {1: F(2)}, (1, 0): {1: F(-1, 2)}}
    assert rep.actions == {A.RHO: want}
    assert all(type(v) is Fraction for cell in rep.actions[A.RHO].values()
               for v in cell.values())
    raw[0, 1][1] = 5
    raw[0, 0] = {0: 1}
    del raw[1, 0]
    assert rep.actions == {A.RHO: want}


def test_check_rep_class_gates():
    ad = support.lie2_adjoint()
    with pytest.raises(RoleMismatch):
        check_rep(ad, C.HOM_LIE)  # no representation axioms wired for this class
    with pytest.raises(RoleMismatch):
        check_rep(ad, C.HOM_PRE_MALCEV)  # wrong action roles


# ---------------------------------------------------------------------------
# bracket representations
# ---------------------------------------------------------------------------

def test_adjoint_rep_passes():
    ad = support.lie2_adjoint()
    assert ad.roles() == frozenset({A.RHO})
    report = check_rep(ad, C.HOM_MALCEV)
    assert report.passed
    assert report.target == "rep:hom-malcev"
    # (MREP-EQ args + MREP-4T args) x module columns
    assert report.tuples_checked == (2 + 2 ** 3) * 2


def test_adjoint_rep_of_twisted_base_passes():
    ad = adjoint_rep(support.lie2_yau())
    assert check_rep(ad, C.HOM_MALCEV).passed


def test_semidirect_malcev():
    s = support.lie2()
    ad = support.lie2_adjoint()
    sd = semidirect(s, ad)
    assert sd.dim == 4
    assert sd.basis == ("e0", "e1", "v0", "v1")
    assert sd.meta.get("construction") == "semidirect"
    assert check(sd, C.HOM_LIE).passed
    assert check(sd, C.HOM_MALCEV).passed
    # mixed products follow the action: [x, b] = rho(x) b, [a, y] = -rho(y) a
    grid = tensor_grid(sd.products[R.BRACKET], 4)
    rho = support.tensor_slices(ad.actions[A.RHO], 2, 2)
    for i in range(2):
        for b in range(2):
            got = grid[i][2 + b] or {}
            want = {2 + r: rho[i][r][b] for r in range(2) if rho[i][r][b]}
            assert got == want
            got_rev = grid[2 + b][i] or {}
            want_rev = {k: -v for k, v in want.items()}
            assert got_rev == want_rev
    # module-module products vanish
    for a in range(2, 4):
        for b in range(2, 4):
            assert not (grid[a][b] or {})


def test_perturbed_rep_fails_axioms_and_semidirect():
    s = support.lie2()
    ad = support.lie2_adjoint()
    rho = [list(map(list, m)) for m in support.tensor_slices(ad.actions[A.RHO], 2, 2)]
    rho[0][0][0] = F(rho[0][0][0]) + 1
    bad = Representation(
        base=s,
        module_dim=2,
        module_twist=mat_identity(2),
        actions={A.RHO: support.slice_tensor(tuple(map(tuple, m)) for m in rho)},
    )
    direct = check_rep(bad, C.HOM_MALCEV)
    assert not direct.passed
    via_semidirect = check(semidirect(s, bad), C.HOM_MALCEV)
    assert not via_semidirect.passed


def test_semidirect_passes_without_equivariance():
    """The Yau-twisted adjoint rep with the identity as module twist breaks
    only MREP-EQ; the semidirect product still satisfies the Malcev laws, and
    fails only once multiplicativity is checked too."""
    s = support.lie2_yau()
    ad = adjoint_rep(s)
    rep = Representation(base=s, module_dim=2, module_twist=mat_identity(2),
                         actions=ad.actions)
    direct = check_rep(rep, C.HOM_MALCEV)
    assert {v.identity for v in direct.violations} == {"MREP-EQ"}
    sd = semidirect(s, rep)
    assert check(sd, C.HOM_MALCEV).passed
    assert not check(sd, C.HOM_MALCEV, multiplicativity=True).passed


#: (fixture, rep builder, class, equivariance flag): the adjoint or regular
#: rep of a multiplicative base
REP_BASES = [
    ("sl2_malcev", adjoint_rep, C.HOM_MALCEV, False),
    ("lie_dim2_yau", adjoint_rep, C.HOM_MALCEV, False),
    ("premalcev_dim2", regular_pre_malcev_rep, C.HOM_PRE_MALCEV, False),
    ("premalcev_dim2_yau", regular_pre_malcev_rep, C.HOM_PRE_MALCEV, False),
    ("prealt_t2", regular_pre_alternative_rep, C.HOM_PRE_ALTERNATIVE, True),
    ("m2_pre_malcev", regular_pre_malcev_rep, C.HOM_PRE_MALCEV, False),
]

#: the bases of REP_BASES that are no fixture, by their builders in ``support``
BUILT_BASES = {"m2_pre_malcev": support.m2_pre_malcev}


@st.composite
def perturbed_rep_st(draw, base, build):
    """The rep ``build(base)`` as it is, with every action zero, with one
    action entry moved, or with one module twist entry moved."""
    rep = build(base)
    m = rep.module_dim
    actions = {role: [list(map(list, sl)) for sl in support.tensor_slices(t, base.dim, m)]
               for role, t in rep.actions.items()}
    twist = list(map(list, rep.module_twist))
    kind = draw(st.sampled_from(["none", "zero", "action", "module-twist"]))
    delta = draw(st.builds(F, st.sampled_from([-2, -1, 1, 2]), st.integers(1, 2)))
    r, c = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    if kind == "zero":
        actions = {role: [[[F(0)] * m for _ in range(m)] for _ in slices]
                   for role, slices in actions.items()}
    elif kind == "action":
        role = draw(st.sampled_from(sorted(actions, key=lambda a: a.value)))
        actions[role][draw(st.integers(0, base.dim - 1))][r][c] += delta
    elif kind == "module-twist":
        twist[r][c] += delta
    return Representation(base=base, module_dim=m, module_twist=twist,
                          actions={role: support.slice_tensor(s) for role, s in actions.items()})


# without the shrink phase, a failure reports the first example it draws
@settings(max_examples=100, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(st.sampled_from(REP_BASES), st.data())
def test_check_rep_passes_iff_multiplicative_semidirect_passes(rep_base, data):
    """On a multiplicative base, the rep axioms (equivariance included) hold
    exactly when the semidirect product is of the base's class with a
    multiplicative twist.  A zero action leaves the semidirect product split
    into the base and the module's twist blocks."""
    name, build, cls, equivariance = rep_base
    base = (BUILT_BASES[name]() if name in BUILT_BASES
            else support.load_fixture_bundle(name).structure)
    assert check(base, cls, multiplicativity=True).passed
    rep = data.draw(perturbed_rep_st(base, build))
    direct = check_rep(rep, cls, equivariance=equivariance)
    via_semidirect = check(semidirect(base, rep), cls, multiplicativity=True)
    assert direct.passed == via_semidirect.passed


def test_regular_and_dual_pre_malcev_reps_of_an_induced_m2_structure_pass():
    """PMREP-2 is HPM with the module vector first.  Written by hand with the
    sign of its ``l([e_j,e_k]) r(e_i)`` term flipped, it failed the regular rep
    of this structure at 4 tuples, first (2, 2, 3, 2), and its dual, while
    the semidirect product passed."""
    pm = support.m2_pre_malcev()
    assert pm.dim == 4 and check(pm, C.HOM_PRE_MALCEV).passed
    reg = regular_pre_malcev_rep(pm)
    assert check(semidirect(pm, reg), C.HOM_PRE_MALCEV, multiplicativity=True).passed
    assert check_rep(reg, C.HOM_PRE_MALCEV).passed
    assert check_rep(dual_pre_malcev_rep(reg), C.HOM_PRE_MALCEV).passed


def test_malcev_dual_variants_pass_and_bidualize():
    ad_t = adjoint_rep(support.lie2_yau())
    for variant in ("alpha", "alpha-inverse"):
        d = dual_malcev_rep(ad_t, variant=variant)
        assert check_rep(d, C.HOM_MALCEV).passed, variant
        d2 = dual_malcev_rep(d, variant=variant)
        assert d2.actions[A.RHO] == ad_t.actions[A.RHO]
        assert d2.module_twist == ad_t.module_twist


def test_malcev_dual_unknown_variant():
    with pytest.raises(ValueError):
        dual_malcev_rep(support.lie2_adjoint(), variant="bogus")


small_st = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


def dense_st(rows, cols):
    return st.lists(st.lists(small_st, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def invertible_st(draw, n):
    mat = draw(dense_st(n, n))
    assume(mat_kernel_vector(matrix(mat)) is None)
    return mat


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_duals_match_the_dense_slice_formulas(n, m, data):
    """Both variants of the Malcev dual, and the pre-Malcev dual, of random
    actions with random invertible twists equal the matrix formulas on dense
    slices in ``support``."""
    base = make_structure(n, twist=data.draw(invertible_st(n)))
    beta = data.draw(invertible_st(m))

    def action():
        return support.slice_tensor(data.draw(st.lists(dense_st(m, m), min_size=n,
                                                       max_size=n)))
    rep = Representation(base=base, module_dim=m, module_twist=beta, actions={A.RHO: action()})
    for variant in DUAL_VARIANTS:
        assert dual_malcev_rep(rep, variant) == support.dual_malcev_rep(rep, variant)
    rep = Representation(base=base, module_dim=m, module_twist=beta,
                         actions={A.LEFT: action(), A.RIGHT: action()})
    assert dual_pre_malcev_rep(rep) == support.dual_pre_malcev_rep(rep)


# ---------------------------------------------------------------------------
# pre-Malcev representations
# ---------------------------------------------------------------------------

def test_regular_pre_malcev_rep_passes():
    pm = premalcev_sl2()
    reg = regular_pre_malcev_rep(pm)
    assert reg.roles() == frozenset({A.LEFT, A.RIGHT})
    report = check_rep(reg, C.HOM_PRE_MALCEV)
    assert report.passed
    assert report.target == "rep:hom-pre-malcev"


def test_semidirect_pre_malcev():
    pm = premalcev_sl2()
    reg = regular_pre_malcev_rep(pm)
    sd = semidirect(pm, reg)
    assert sd.dim == 6
    assert check(sd, C.HOM_PRE_MALCEV).passed


def test_left_minus_right_is_malcev_rep_over_commutator():
    pm = premalcev_sl2()
    reg = regular_pre_malcev_rep(pm)
    ell = support.tensor_slices(reg.actions[A.LEFT], pm.dim, pm.dim)
    arr = support.tensor_slices(reg.actions[A.RIGHT], pm.dim, pm.dim)
    rho = tuple(mat_fractions(mat_lincomb({0: 1, 1: -1}, (ell[i], arr[i]), pm.dim, pm.dim))
                for i in range(pm.dim))
    rep = Representation(
        base=pm, module_dim=pm.dim, module_twist=pm.twist,
        actions={A.RHO: support.slice_tensor(rho)}
    )
    assert check_rep(rep, C.HOM_MALCEV).passed


def test_pre_malcev_dual_round_trip_untwisted():
    reg = regular_pre_malcev_rep(premalcev_sl2())
    dual1 = dual_pre_malcev_rep(reg)
    assert check_rep(dual1, C.HOM_PRE_MALCEV).passed
    dual2 = dual_pre_malcev_rep(dual1)
    assert dual2.actions == reg.actions
    assert dual2.module_twist == reg.module_twist


def test_pre_malcev_dual_round_trip_twisted():
    pm = premalcev_sl2()
    # diag(1, 1, c) is an automorphism of this product; push it through
    c = F(3)
    gam = ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), c))
    pm_t = make_structure(
        3, twist=gam, products={R.DOT: push_product(pm.products[R.DOT], gam)}
    )
    assert check(pm_t, C.HOM_PRE_MALCEV).passed
    reg_t = regular_pre_malcev_rep(pm_t)
    assert check_rep(reg_t, C.HOM_PRE_MALCEV).passed
    dual_t = dual_pre_malcev_rep(reg_t)
    assert check_rep(dual_t, C.HOM_PRE_MALCEV).passed
    dual_t2 = dual_pre_malcev_rep(dual_t)
    assert dual_t2.actions == reg_t.actions
    assert dual_t2.module_twist == reg_t.module_twist


# ---------------------------------------------------------------------------
# pre-alternative representations
# ---------------------------------------------------------------------------

def test_regular_pre_alternative_rep_passes():
    pa = prealt_t2()
    assert check(pa, C.HOM_PRE_ALTERNATIVE).passed
    reg = regular_pre_alternative_rep(pa)
    assert reg.roles() == frozenset(
        {A.LEFT_PREC, A.RIGHT_PREC, A.LEFT_SUCC, A.RIGHT_SUCC}
    )
    assert check_rep(reg, C.HOM_PRE_ALTERNATIVE).passed
    assert check_rep(reg, C.HOM_PRE_ALTERNATIVE, equivariance=True).passed


def test_semidirect_pre_alternative():
    pa = prealt_t2()
    reg = regular_pre_alternative_rep(pa)
    sd = semidirect(pa, reg)
    assert sd.dim == 6
    assert check(sd, C.HOM_PRE_ALTERNATIVE).passed


@pytest.mark.parametrize("copied", [False, True], ids=["zero", "copy"])
@pytest.mark.parametrize("name, cls, roles, source", [
    ("premalcev_dim2", C.HOM_PRE_MALCEV, (R.TRI_LEFT, R.TRI_RIGHT, R.BRACKET), R.DOT),
    ("prealt_t2", C.HOM_PRE_ALTERNATIVE, (R.STAR,), R.PREC),
], ids=["pre-malcev", "pre-alternative"])
def test_rep_check_reads_only_its_base_roles(name, cls, roles, source, copied):
    """A base that also stores a product under a derived role's name, zero
    or a copy of another, gives the rep axioms of its plain base: they
    derive the commutator or the sum from the dot, or prec and succ, alone."""
    rep, = support.load_fixture_bundle(name).reps
    base = support.with_extra(rep.base, roles, source if copied else None)
    regular = (regular_pre_malcev_rep if cls is C.HOM_PRE_MALCEV
               else regular_pre_alternative_rep)(rep.base)
    for r in (rep, regular):
        moved = Representation(base=base, module_dim=r.module_dim,
                               module_twist=r.module_twist, actions=r.actions)
        plain, report = check_rep(r, cls), check_rep(moved, cls)
        assert plain.passed
        assert (report.passed, report.violations, report.tuples_checked) == (
            plain.passed, plain.violations, plain.tuples_checked)


def test_regular_alternative_rep_roles():
    reg = regular_alternative_rep(support.t2())
    assert reg.roles() == frozenset({A.LEFT, A.RIGHT})


# ---------------------------------------------------------------------------
# twist powers and multiplicativity guard
# ---------------------------------------------------------------------------

def test_twist_power_trivial_for_identity_twist():
    s = support.lie2()
    assert adjoint_rep(s, 0).actions == adjoint_rep(s, 1).actions


def test_twist_power_negative_rejected():
    with pytest.raises(ValueError):
        adjoint_rep(support.lie2(), -1)


def test_not_multiplicative_guard():
    nonmult = make_structure(
        2,
        twist=((F(1), F(1)), (F(0), F(1))),
        products={R.DOT: support.tensor((0, 0, 1, 1))},
    )
    with pytest.raises(NotMultiplicative,
                       match=r"^twist is not a morphism of product 'dot' at basis pair \(0, 0\)$"):
        regular_pre_malcev_rep(nonmult, s=1)
    # s=0 never needs multiplicativity
    regular_pre_malcev_rep(nonmult, s=0)
    # the message names the first failing product and pair
    split = make_structure(
        2,
        twist=((F(1), F(1)), (F(0), F(1))),
        products={R.PREC: {}, R.SUCC: support.tensor((0, 1, 1, 1))},
    )
    with pytest.raises(NotMultiplicative, match=r"product 'succ' at basis pair \(0, 1\)$"):
        regular_pre_alternative_rep(split, s=2)


def test_builder_role_guards():
    with pytest.raises(RoleMismatch):
        adjoint_rep(support.t2())
    with pytest.raises(RoleMismatch, match="^regular representation needs the dot product role$"):
        regular_pre_malcev_rep(support.lie2())
    with pytest.raises(RoleMismatch, match="^regular representation needs the star product role$"):
        regular_alternative_rep(support.lie2())
    with pytest.raises(RoleMismatch,
                       match="^regular representation needs the prec and succ roles$"):
        regular_pre_alternative_rep(support.t2())


def test_semidirect_refuses_a_rep_of_another_base_dimension():
    sl2 = support.load_fixture_bundle("sl2_malcev").structure
    lie2 = support.load_fixture_bundle("lie_dim2")
    for structure, rep in ((sl2, lie2.reps[0]), (lie2.structure, adjoint_rep(sl2))):
        with pytest.raises(DimensionMismatch, match="representation base has dimension"):
            semidirect(structure, rep)


def test_semidirect_role_guards():
    ad = support.lie2_adjoint()
    # a rho action needs a bracket on the base
    mismatched = Representation(
        base=support.t2(),
        module_dim=3,
        module_twist=mat_identity(3),
        actions={A.RHO: support.slice_tensor((mat_identity(3),) * 3)},
    )
    with pytest.raises(RoleMismatch):
        semidirect(support.t2(), mismatched)
    # sanity: the good pairing still works
    assert semidirect(support.lie2(), ad).dim == 4
