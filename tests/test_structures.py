"""Structure construction, class sweeps, derived products, and morphisms."""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

import oracles
import support
from homalg import (
    CLASS_ROLES,
    DimensionMismatch,
    ProductRole,
    RoleMismatch,
    StructureClass,
    check,
    check_morphism,
    derived_product,
    make_structure,
)
from homalg.exact import (
    mat_identity,
    tensor_grid,
)
from support import (
    densify,
    sparse,
    tensor_add,
    tensor_commutator,
    tensor_flip,
    tensor_sub,
    vector,
)

F = Fraction
R = ProductRole
C = StructureClass


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_make_structure_defaults():
    s = support.lie2()
    assert s.dim == 2
    assert s.twist == mat_identity(2)
    assert s.basis == ("e0", "e1")
    assert s.roles() == frozenset({R.BRACKET})


def test_make_structure_normalizes_zero_entries():
    s = make_structure(2, products={R.BRACKET: {(0, 1): {1: F(0)}}})
    assert s.products[R.BRACKET] == {}


def test_make_structure_guards():
    with pytest.raises(DimensionMismatch):
        make_structure(0)
    with pytest.raises(DimensionMismatch):
        make_structure(2, twist=((F(1),),))
    with pytest.raises(DimensionMismatch):
        make_structure(2, products={R.BRACKET: support.tensor((0, 2, 1, 1))})
    with pytest.raises(DimensionMismatch):
        make_structure(2, products={R.BRACKET: support.tensor((0, 1, 5, 1))})
    with pytest.raises(DimensionMismatch):
        make_structure(2, basis=("a",))


def test_structures_hashable_and_frozen():
    s = support.lie2()
    assert s == support.lie2()
    with pytest.raises(TypeError):  # products and meta are dicts
        hash(s)
    w = support.lie2_rb_op()
    assert w == support.lie2_rb_op() and hash(w) == hash(support.lie2_rb_op())
    assert w in {support.lie2_rb_op()}
    with pytest.raises(AttributeError):
        s.dim = 3  # type: ignore[misc]


# ---------------------------------------------------------------------------
# class sweeps on reference structures
# ---------------------------------------------------------------------------

def test_lie2_is_hom_lie_and_hom_malcev():
    s = support.lie2()
    lie = check(s, C.HOM_LIE)
    assert lie.passed and lie.target == "hom-lie"
    assert lie.tuples_checked == 2 * 2 + 2 ** 3  # SKEW pairs + JACOBI triples
    malcev = check(s, C.HOM_MALCEV)
    assert malcev.passed
    assert malcev.tuples_checked == 4 + 8 + 16  # SKEW + HM-JAC + HM-EXP


def test_sl2_is_hom_lie():
    assert check(support.sl2(), C.HOM_LIE).passed
    assert check(support.sl2(), C.HOM_MALCEV).passed


def test_yau_twisted_lie2_is_hom_lie():
    s = support.lie2_yau()
    assert s.twist != mat_identity(2)
    assert check(s, C.HOM_LIE).passed


def test_broken_bracket_fails_skew_and_jacobi_ordered():
    # e0*e1 = e1 without the skew partner, plus a junk diagonal entry
    s = make_structure(
        2, products={R.BRACKET: support.tensor((0, 1, 1, 1), (0, 0, 0, 1))}
    )
    report = check(s, C.HOM_LIE)
    assert not report.passed
    labels = [v.identity for v in report.violations]
    assert "SKEW" in labels and "JACOBI" in labels
    assert labels == sorted(labels)
    key = [(v.identity, v.args) for v in report.violations]
    assert key == sorted(key)
    # residuals are exact fractions
    first = report.violations[0]
    assert all(isinstance(x, Fraction) for x in first.residual.values())


def test_octonions_alternative_not_associative():
    s = support.octonions()
    alt = check(s, C.HOM_ALTERNATIVE)
    assert alt.passed
    assert alt.tuples_checked == 2 * 8 ** 3
    assoc = check(s, C.HOM_ASSOCIATIVE)
    assert not assoc.passed
    assert assoc.tuples_checked == 8 ** 3
    assert all(v.identity == "ASSOC" for v in assoc.violations)
    assert len(assoc.violations) == 168


def test_t2_is_associative_alternative_admissible():
    s = support.t2()
    assert check(s, C.HOM_ASSOCIATIVE).passed
    assert check(s, C.HOM_ALTERNATIVE).passed
    assert check(s, C.HOM_MALCEV_ADMISSIBLE).passed


def test_octonions_malcev_admissible():
    assert check(support.octonions(), C.HOM_MALCEV_ADMISSIBLE).passed


def test_class_role_gate():
    with pytest.raises(RoleMismatch):
        check(support.lie2(), C.HOM_PRE_MALCEV)
    with pytest.raises(RoleMismatch):
        check(support.t2(), C.HOM_LIE)
    # the plain associator needs a stored star, the split ones all four quarters
    with pytest.raises(RoleMismatch):
        check(support.load_fixture_bundle("mdendri_sl2").structure, C.HOM_ASSOCIATIVE)
    with pytest.raises(RoleMismatch):
        check(support.t2(), C.HOM_ALT_QUADRI)


def test_zero_products_pass_every_class():
    all_roles = frozenset().union(*CLASS_ROLES.values())
    s = make_structure(3, products={role: {} for role in all_roles})
    for cls in C:
        assert check(s, cls).passed, cls


# ---------------------------------------------------------------------------
# equivalent identity forms agree
# ---------------------------------------------------------------------------

def test_bracket_law_forms_agree_on_pass_and_fail():
    """HM-JAC and HM-EXP are equivalent formulations: they pass together on
    valid structures and fail together on a broken one."""
    good = check(support.sl2(), C.HOM_MALCEV)
    assert good.passed
    # skew-symmetric perturbation of the sl2 bracket: SKEW still holds, both
    # bracket-law forms break
    broken = make_structure(
        3,
        products={
            R.BRACKET: tensor_add(
                support.sl2().products[R.BRACKET],
                support.tensor((0, 1, 0, 1), (1, 0, 0, -1)),
            )
        },
    )
    report = check(broken, C.HOM_MALCEV)
    assert not report.passed
    labels = {v.identity for v in report.violations}
    assert "SKEW" not in labels
    assert "HM-JAC" in labels
    assert "HM-EXP" in labels


# ---------------------------------------------------------------------------
# multiplicativity opt-in
# ---------------------------------------------------------------------------

def test_multiplicativity_opt_in():
    bracket = support.lie2().products[R.BRACKET]
    shear = ((F(1), F(1)), (F(0), F(1)))
    s = make_structure(2, twist=shear, products={R.BRACKET: bracket})
    assert check(s, C.HOM_LIE).passed
    report = check(s, C.HOM_LIE, multiplicativity=True)
    assert not report.passed
    assert {v.identity for v in report.violations} == {"MULT-bracket"}


def test_multiplicative_twist_passes_opt_in():
    assert check(support.lie2_yau(), C.HOM_LIE, multiplicativity=True).passed
    assert check(support.premalcev2_yau(), C.HOM_PRE_MALCEV, multiplicativity=True).passed


# ---------------------------------------------------------------------------
# derived products
# ---------------------------------------------------------------------------

def test_derived_products_from_halves():
    bundle = support.load_fixture_bundle("mdendri_sl2")
    s = bundle.structure
    tl = s.products[R.TRI_LEFT]
    tr = s.products[R.TRI_RIGHT]
    assert derived_product(s, R.DOT) == tensor_add(tl, tr)
    assert derived_product(s, R.DIAMOND) == tensor_sub(tl, tensor_flip(tr))
    assert derived_product(s, R.BRACKET) == tensor_commutator(tensor_add(tl, tr))
    with pytest.raises(RoleMismatch):
        derived_product(s, R.STAR)
    # the grid of a derived role is built once per structure
    assert s.grid(R.DOT) == tensor_grid(tensor_add(tl, tr), s.dim)
    assert s.grid(R.DOT) is s.grid(R.DOT)
    assert s.grid(R.BRACKET) is s.grid(R.BRACKET)


def test_derived_products_from_quarters():
    bundle = support.load_fixture_bundle("quadri_trunc_poly")
    s = bundle.structure
    p = s.products
    assert derived_product(s, R.PREC) == tensor_add(p[R.NW], p[R.SW])
    assert derived_product(s, R.SUCC) == tensor_add(p[R.NE], p[R.SE])
    assert derived_product(s, R.VEE) == tensor_add(p[R.SE], p[R.SW])
    assert derived_product(s, R.WEDGE) == tensor_add(p[R.NE], p[R.NW])
    star = derived_product(s, R.STAR)
    assert star == tensor_add(tensor_add(p[R.NW], p[R.SW]), tensor_add(p[R.NE], p[R.SE]))
    assert derived_product(s, R.BRACKET) == tensor_commutator(star)


def test_derived_product_returns_stored_tensor():
    s = support.lie2()
    assert derived_product(s, R.BRACKET) is s.products[R.BRACKET]
    with pytest.raises(RoleMismatch):
        derived_product(s, R.DOT)


def test_dendriform_halves_derive_star():
    s = make_structure(
        2,
        products={
            R.PREC: support.tensor((0, 0, 1, 1)),
            R.SUCC: support.tensor((0, 0, 1, 2)),
        },
    )
    assert derived_product(s, R.STAR) == support.tensor((0, 0, 1, 3))
    assert derived_product(s, R.BRACKET) == {}


#: a fixture, its class, derived roles stored beside its sources, and the
#: stored product copied under them
EXTRA_ROLES = [
    ("quadri_trunc_poly", C.HOM_ALT_QUADRI, (R.PREC,), R.NW),
    ("mdendri_sl2", C.HOM_M_DENDRIFORM, (R.DOT,), R.TRI_LEFT),
    ("premalcev_dim2", C.HOM_PRE_MALCEV, (R.TRI_LEFT, R.TRI_RIGHT, R.BRACKET), R.DOT),
    ("prealt_t2", C.HOM_PRE_ALTERNATIVE, (R.STAR,), R.PREC),
]


@pytest.mark.parametrize("copied", [False, True], ids=["zero", "copy"])
@pytest.mark.parametrize("name, cls, roles, source", EXTRA_ROLES,
                         ids=[case[0] for case in EXTRA_ROLES])
def test_class_check_reads_only_its_roles(name, cls, roles, source, copied):
    """A product stored under a derived role's name, zero or a copy of
    another, changes no class check: the class derives it from its own
    roles.  The multiplicativity laws still cover every stored product."""
    s = support.load_fixture_bundle(name).structure
    extra = support.with_extra(s, roles, source if copied else None)
    for mult, added in ((False, 0), (True, len(roles) * s.dim ** 2)):
        plain = check(s, cls, multiplicativity=mult)
        report = check(extra, cls, multiplicativity=mult)
        assert plain.passed and report.passed
        assert report.violations == plain.violations
        assert report.tuples_checked == plain.tuples_checked + added


# ---------------------------------------------------------------------------
# associator residuals against the oracle tables
# ---------------------------------------------------------------------------

def oracle_associators(table, dim):
    """The nonzero ``(e_i e_j) e_k - e_i (e_j e_k)`` of an oracle table, by
    ``(i, j, k)``."""
    out = {}
    for i, j, k in itertools.product(range(dim), repeat=3):
        ei, ej, ek = {i: F(1)}, {j: F(1)}, {k: F(1)}
        lhs = oracles.sv_mul(table, oracles.sv_mul(table, ei, ej), ek)
        rhs = oracles.sv_mul(table, ei, oracles.sv_mul(table, ej, ek))
        if res := oracles.sv_add(lhs, {m: -v for m, v in rhs.items()}):
            out[(i, j, k)] = res
    return out


def test_plain_associator_matches_oracle_on_octonions():
    report = check(support.octonions(), C.HOM_ASSOCIATIVE)
    assert {v.identity for v in report.violations} == {"ASSOC"}
    got = {v.args: v.residual for v in report.violations}
    assert len(got) == 168
    assert got == oracle_associators(oracles.octonion_table(), 8)
    assert report.tuples_checked == 8 ** 3


def test_plain_associator_zero_on_associative():
    assert oracle_associators(oracles.t2_table(), 3) == {}
    report = check(support.t2(), C.HOM_ASSOCIATIVE)
    assert report.passed and report.tuples_checked == 3 ** 3


def test_split_associator_kinds_run_on_quadri():
    """QA1-QA9 read each of the nine split associator kinds at every triple."""
    s = support.load_fixture_bundle("quadri_trunc_poly").structure
    report = check(s, C.HOM_ALT_QUADRI)
    assert report.passed
    assert report.tuples_checked == 9 * s.dim ** 3
    with pytest.raises(RoleMismatch):
        check(s, C.HOM_ASSOCIATIVE)


# ---------------------------------------------------------------------------
# morphism checks
# ---------------------------------------------------------------------------

def test_diagonal_automorphism_is_morphism():
    s = support.lie2()
    f = ((F(1), F(0)), (F(0), F(2)))
    report = check_morphism(f, s, s)
    assert report.passed and report.target == "morphism"
    assert report.tuples_checked == 4 + 2


def test_shear_is_not_morphism():
    s = support.lie2()
    f = ((F(1), F(1)), (F(0), F(1)))
    report = check_morphism(f, s, s)
    assert not report.passed
    assert all(v.identity == "MORPH-bracket" for v in report.violations)


def test_weak_morphism_skips_twist_compatibility():
    src = support.lie2()
    tgt = make_structure(
        2,
        twist=((F(1), F(0)), (F(0), F(2))),
        products={R.BRACKET: src.products[R.BRACKET]},
    )
    f = mat_identity(2)
    strict = check_morphism(f, src, tgt)
    assert not strict.passed
    assert {v.identity for v in strict.violations} == {"MORPH-TWIST"}
    weak = check_morphism(f, src, tgt, weak=True)
    assert weak.passed
    assert weak.tuples_checked == 4


def test_morphism_shape_and_role_guards():
    with pytest.raises(DimensionMismatch):
        check_morphism(((F(1),),), support.lie2(), support.lie2())
    with pytest.raises(RoleMismatch):
        check_morphism(mat_identity(2), support.lie2(), support.premalcev2())


def test_morphism_between_different_dims():
    # embed the 2-dim Lie algebra into sl2 via e0 -> h/2, e1 -> e
    src = support.lie2()
    tgt = support.sl2()
    f = ((F(1, 2), F(0)), (F(0), F(1)), (F(0), F(0)))
    report = check_morphism(f, src, tgt)
    assert report.passed


def test_morphism_twist_law_between_wide_structures_without_products():
    """Two dim-64 structures with no products whose twists differ only at
    entry (0, 1): the identity map breaks the twist law in one column."""
    n = 64
    twist = [[F(int(r == c)) for c in range(n)] for r in range(n)]
    source = make_structure(n, twist=twist)
    twist[0][1] = F(1)
    report = check_morphism(mat_identity(n), source, make_structure(n, twist=twist))
    assert [(v.identity, v.args, v.residual) for v in report.violations] == [
        ("MORPH-TWIST", (1,), {0: F(-1)})]
    assert report.tuples_checked == n


def test_product_eval_matches_table():
    s = support.lie2()
    t = s.products[R.BRACKET]
    assert support.product_eval(t, vector([1, 0]), vector([0, 1])) == (F(0), F(1))
    assert support.product_eval(t, vector([0, 1]), vector([1, 0])) == (F(0), F(-1))
    assert densify(sparse(support.product_eval(t, vector([1, 1]), vector([1, 1]))), 2) == (
        F(0),
        F(0),
    )


# ---------------------------------------------------------------------------
# subterm tables: products on fewer indices are computed once per check
# ---------------------------------------------------------------------------

def diagonal_copies(name: str, copies: int, dim: int):
    """``copies`` diagonal copies of an untwisted fixture, padded with inert
    coordinates to ``dim``."""
    s = support.load_fixture_bundle(name).structure
    return make_structure(dim, products={role: support.tensor(*[
        (i + off, j + off, k + off, v)
        for off in range(0, copies * s.dim, s.dim)
        for (i, j), col in tensor.items()
        for k, v in col.items()]) for role, tensor in s.products.items()})


def mdendri_dim10():
    """Three diagonal copies of mdendri_sl2 plus one inert coordinate."""
    return diagonal_copies("mdendri_sl2", 3, 10)


@pytest.mark.parametrize("build, cls, bound", [
    (mdendri_dim10, C.HOM_M_DENDRIFORM, 5.5),
    (lambda: support.load_fixture_bundle("octonions_im").structure, C.HOM_MALCEV, 5.5),
    (lambda: support.load_fixture_bundle("quadri_trunc_poly").structure,
     C.HOM_ALT_QUADRI, 2),
    (lambda: support.load_fixture_bundle("prealt_t2").structure,
     C.HOM_PRE_ALTERNATIVE, 1.5),
    # on a block-diagonal sum almost every tuple has a zero factor in every
    # term and is skipped, so the tables cost more than the sweep
    (mdendri_dim10, C.HOM_M_DENDRIFORM, 0.5),
    # each direct-sum block is swept on its own tables: the five copies of
    # mdendri_sl2 make 470 calls over 16^4 tuples, against 41,010 when the
    # tables span the whole basis
    (lambda: diagonal_copies("mdendri_sl2", 5, 16), C.HOM_M_DENDRIFORM, 0.01),
    (lambda: diagonal_copies("octonions_im", 2, 14), C.HOM_MALCEV, 0.6),
], ids=["mdendri_dim10", "octonions_im", "quadri_trunc_poly", "prealt_t2",
        "mdendri_dim10-pruned", "mdendri_dim16-split", "octonions_im_x2-split"])
def test_grid_mul_calls_per_tuple(monkeypatch, build, cls, bound):
    """Each sweep multiplies only its full-arity products per tuple; every
    product on fewer indices comes from a table built once per check."""
    import homalg.structures as structures

    calls = [0]
    real = structures.grid_mul

    def counted(*args):
        calls[0] += 1
        return real(*args)

    structure = build()
    monkeypatch.setattr(structures, "grid_mul", counted)
    report = check(structure, cls)
    assert report.passed
    assert calls[0] / report.tuples_checked <= bound


@pytest.mark.parametrize("build, cls, calls", [
    # 470 calls before empty operands were skipped, 410 of them on an empty
    # operand; the 50 left multiply two nonzero operands to zero
    (lambda: diagonal_copies("mdendri_sl2", 5, 16), C.HOM_M_DENDRIFORM, 50),
    # 6,750 calls, 5,130 on an empty operand; the associator tables are now
    # packed products, built without grid_mul
    (lambda: diagonal_copies("quadri_trunc_poly", 3, 15), C.HOM_ALT_QUADRI, 0),
    (mdendri_dim10, C.HOM_M_DENDRIFORM, 30),
    (lambda: support.load_fixture_bundle("octonions_im").structure, C.HOM_MALCEV, 637),
], ids=["mdendri_dim16-split", "quadri_trunc_poly_x3", "mdendri_dim10", "octonions_im"])
def test_table_builds_skip_empty_operands(monkeypatch, build, cls, calls):
    """A table entry with an empty operand is stored empty without a
    ``grid_mul`` call, and the packed sweep itself makes none: the calls left
    are the table entries of two nonzero operands, exactly."""
    import homalg.structures as structures

    seen = []
    real = structures.grid_mul

    def counted(grid, u, v):
        seen.append(bool(u and v))
        return real(grid, u, v)

    structure = build()
    monkeypatch.setattr(structures, "grid_mul", counted)
    assert check(structure, cls).passed
    assert all(seen)
    assert len(seen) == calls


def test_sweep_packs_each_grid_it_reads_once(monkeypatch):
    """On the G7 dim-16 sum, each block's sweep packs exactly the grids of
    its product terms of nonzero norm, each once."""
    import homalg.structures as structures

    packed, sums = [], []
    real_pack, real_stacks = structures.grid_pack, structures._Stacks

    def grid_pack(cells, w):
        packed.append(cells)
        return real_pack(cells, w)

    def stacks(terms):
        sums.extend(terms)
        return real_stacks(terms)

    monkeypatch.setattr(structures, "grid_pack", grid_pack)
    monkeypatch.setattr(structures, "_Stacks", stacks)
    assert check(diagonal_copies("mdendri_sl2", 5, 16), C.HOM_M_DENDRIFORM).passed
    want = {id(grid.ints) for terms in sums
            for norm, (_, grid, *_) in zip(terms.norms, terms) if grid is not None and norm}
    assert len(packed) == len(want) == len({id(cells) for cells in packed})
    assert {id(cells) for cells in packed} == want



def test_compiler_refuses_a_table_of_four_indices():
    """Every table the sweep reads holds at most three indices (a quaternary
    law's factors split its four), so a law whose subtree reads four, here
    with a repeated index, is refused when it is compiled."""
    import homalg.structures as structures

    with pytest.raises(ValueError, match="at most three indices"):
        structures._compile((("DEEP", 3, "+star(star(star(i, j), star(i, j)), a.k)"),))
    assert structures._compile((("ASSOC", 3, "+star(star(star(i, j), a.i), a.k)"),))
