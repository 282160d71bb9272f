"""Passages between classes and the end-to-end diagram verifier."""
from __future__ import annotations

from fractions import Fraction

import pytest

import support
from support import mat_zero, slice_tensor, tensor_add, tensor_commutator
from homalg import (
    ActionRole,
    KIND_O_OPERATOR,
    KIND_ROTA_BAXTER,
    NotAMorphism,
    NotCommuting,
    OperatorInvalid,
    OperatorWitness,
    ProductRole,
    Representation,
    RoleMismatch,
    SPLIT_DIRECTIONS,
    StructureClass,
    UnknownDirection,
    check,
    check_commuting,
    check_operator,
    check_rep,
    commutator,
    derived_product,
    hessian_dendrify,
    horizontal,
    induce_pair,
    make_structure,
    quadri_split,
    transpose,
    verify_diagram,
    vertical,
    yau_twist,
)
from homalg.exact import (
    mat_fractions,
    mat_identity,
    mat_mul,
)

F = Fraction
A = ActionRole
R = ProductRole
C = StructureClass

DIAGRAM_NODES = [
    "alternative",
    "m-dendriform",
    "malcev",
    "pre-alternative",
    "pre-malcev",
    "quadri",
]

DIAGRAM_EDGES = [
    "alternative-r1-rota-baxter",
    "alternative-r2-rota-baxter",
    "operators-commute",
    "pre-alternative-r2-rota-baxter",
    "quadri-pair-route-equals-pre-alternative-r2-route",
    "pre-malcev-difference-route-equals-malcev-r1-route",
    "m-dendriform-split-route-equals-malcev-pair-route",
    "m-dendriform-split-route-equals-pre-malcev-r2-route",
    "m-dendriform-horizontal-equals-pre-malcev-node",
]


@pytest.fixture(scope="module")
def md_sl2():
    r1, r2 = support.sl2_rb_ops()
    return induce_pair(support.sl2(), r1, r2, "malcev-pair-to-mdendriform")


@pytest.fixture(scope="module")
def quad_t2():
    r1, r2 = support.t2_rb_ops()
    return induce_pair(support.t2(), r1, r2, "alternative-pair-to-quadri")


# ---------------------------------------------------------------------------
# commutator
# ---------------------------------------------------------------------------

def test_commutator_of_octonions_is_malcev():
    mal = commutator(support.octonions())
    assert check(mal, C.HOM_MALCEV).passed
    assert mal.meta["construction"] == "commutator-of-star"
    # but it is not a Lie algebra
    assert not check(mal, C.HOM_LIE).passed


def test_commutator_prefers_star_then_dot():
    s = make_structure(
        2,
        products={
            R.STAR: support.tensor((0, 1, 0, 1)),
            R.DOT: support.tensor((0, 1, 1, 1)),
        },
    )
    assert commutator(s).meta["construction"] == "commutator-of-star"
    assert commutator(s, R.DOT).meta["construction"] == "commutator-of-dot"


def test_commutator_of_symmetric_product_is_abelian():
    assert commutator(support.premalcev2()).products[R.BRACKET] == {}
    comm = make_structure(
        2, products={R.STAR: support.tensor((0, 1, 0, 1), (1, 0, 0, 1))}
    )
    assert commutator(comm).products[R.BRACKET] == {}


def test_commutator_role_guards():
    multi = make_structure(
        2,
        products={
            R.TRI_LEFT: support.tensor((0, 1, 0, 1)),
            R.TRI_RIGHT: support.tensor((0, 1, 1, 1)),
        },
    )
    with pytest.raises(RoleMismatch):
        commutator(multi)  # two products, no star/dot preference applies
    with pytest.raises(RoleMismatch):
        commutator(support.lie2(), R.DOT)


# ---------------------------------------------------------------------------
# horizontal / vertical / transpose
# ---------------------------------------------------------------------------

def test_horizontal_and_vertical_pass(md_sl2):
    hor = horizontal(md_sl2)
    ver = vertical(md_sl2)
    assert check(hor, C.HOM_PRE_MALCEV).passed
    assert check(ver, C.HOM_PRE_MALCEV).passed
    assert hor.meta["construction"] == "horizontal"
    assert ver.meta["construction"] == "vertical"
    # both recombinations share the same commutator bracket
    assert commutator(hor).products == commutator(ver).products
    assert check(commutator(hor), C.HOM_MALCEV).passed


def test_triangle_bimodule_on_horizontal(md_sl2):
    """Left action by the left triangle, right action by the right triangle,
    both over the horizontal recombination."""
    hor = horizontal(md_sl2)
    tl = md_sl2.products[R.TRI_LEFT]
    tr = md_sl2.products[R.TRI_RIGHT]
    n = md_sl2.dim
    left = tuple(
        tuple(tuple((tl.get((i, b)) or {}).get(r, F(0)) for b in range(n)) for r in range(n))
        for i in range(n)
    )
    right = tuple(
        tuple(tuple((tr.get((b, i)) or {}).get(r, F(0)) for b in range(n)) for r in range(n))
        for i in range(n)
    )
    bimod = Representation(
        base=hor,
        module_dim=n,
        module_twist=mat_identity(n),
        actions={A.LEFT: slice_tensor(left), A.RIGHT: slice_tensor(right)},
    )
    assert check_rep(bimod, C.HOM_PRE_MALCEV).passed


def test_transpose_involution_and_swap(md_sl2):
    tp = transpose(md_sl2)
    assert check(tp, C.HOM_M_DENDRIFORM).passed
    assert transpose(tp).products == md_sl2.products
    assert horizontal(tp).products == vertical(md_sl2).products
    assert vertical(tp).products == horizontal(md_sl2).products
    assert tensor_commutator(derived_product(tp, R.DOT)) == tensor_commutator(
        derived_product(md_sl2, R.DOT)
    )


def test_pair_functions_need_triangle_products():
    with pytest.raises(RoleMismatch):
        horizontal(support.lie2())
    with pytest.raises(RoleMismatch):
        vertical(support.lie2())
    with pytest.raises(RoleMismatch):
        transpose(support.lie2())


# ---------------------------------------------------------------------------
# Yau twist
# ---------------------------------------------------------------------------

def test_yau_twist_of_lie2():
    gam = support.dense(2, (0, 0, 1), (1, 1, 2))
    tw = yau_twist(support.lie2(), gam)
    assert tw.twist == gam
    assert tw.products[R.BRACKET].get((0, 1)) == {1: F(2)}
    assert check(tw, C.HOM_MALCEV).passed
    assert tw.meta["construction"] == "yau-twist"
    # matches the hand-built twisted fixture
    assert tw.products == support.lie2_yau().products


def test_yau_twist_identity_is_noop():
    s = support.lie2()
    tw = yau_twist(s, mat_identity(2))
    assert tw.products == s.products
    assert tw.twist == s.twist


def test_yau_twist_zero_map():
    s = support.lie2()
    tw = yau_twist(s, mat_zero(2, 2))
    assert tw.products[R.BRACKET] == {}
    assert tw.twist == mat_zero(2, 2)


def test_yau_twist_iterates():
    """Twisting twice by diag(1,2) equals twisting once by diag(1,4) on the
    products, with the twist accumulating."""
    s = support.lie2()
    gam = support.dense(2, (0, 0, 1), (1, 1, 2))
    twice = yau_twist(yau_twist(s, gam), gam)
    assert check(twice, C.HOM_MALCEV).passed
    assert twice.twist == mat_fractions(mat_mul(gam, gam))
    gam2 = support.dense(2, (0, 0, 1), (1, 1, 4))
    assert twice.products == yau_twist(s, gam2).products


def test_yau_twist_rejects_non_morphism():
    shear = ((F(1), F(1)), (F(0), F(1)))
    with pytest.raises(NotAMorphism):
        yau_twist(support.lie2(), shear)


def test_yau_twist_weak_mode_skips_twist_intertwining():
    nilpotent = ((F(0), F(1)), (F(0), F(0)))
    s = make_structure(2, twist=nilpotent, products={R.BRACKET: {}})
    gam = support.dense(2, (0, 0, 1), (1, 1, 2))
    with pytest.raises(NotAMorphism):
        yau_twist(s, gam)  # gam does not commute with the stored twist
    tw = yau_twist(s, gam, weak=True)
    assert tw.twist == mat_fractions(mat_mul(nilpotent, gam))


def test_yau_twist_preserves_other_classes():
    pm = support.premalcev2()
    # diag(1, c) is an automorphism of e0.e0 = -e1 only when c = 1; use the
    # structure's own automorphism diag(a, a^2)
    gam = support.dense(2, (0, 0, 2), (1, 1, 4))
    tw = yau_twist(pm, gam)
    assert check(tw, C.HOM_PRE_MALCEV).passed
    assert tw.products == support.premalcev2_yau().products
    assert tw.twist == support.premalcev2_yau().twist


# ---------------------------------------------------------------------------
# quadri splits
# ---------------------------------------------------------------------------

def test_quadri_split_directions(quad_t2):
    assert SPLIT_DIRECTIONS == ("mdendriform", "prealt-horizontal", "prealt-vertical")
    assert check(quad_t2, C.HOM_ALT_QUADRI).passed
    ph = quadri_split(quad_t2, "prealt-horizontal")
    pv = quadri_split(quad_t2, "prealt-vertical")
    md = quadri_split(quad_t2, "mdendriform")
    assert check(ph, C.HOM_PRE_ALTERNATIVE).passed
    assert check(pv, C.HOM_PRE_ALTERNATIVE).passed
    assert check(md, C.HOM_M_DENDRIFORM).passed
    assert ph.meta["construction"] == "quadri-split-prealt-horizontal"


def test_quadri_four_sum(quad_t2):
    p = quad_t2.products
    total = tensor_add(
        tensor_add(p[R.NW], p[R.SW]), tensor_add(p[R.NE], p[R.SE])
    )
    ph = quadri_split(quad_t2, "prealt-horizontal")
    assert total == tensor_add(ph.products[R.PREC], ph.products[R.SUCC])
    assert total == derived_product(quad_t2, R.STAR)
    alt = make_structure(3, products={R.STAR: total})
    assert check(alt, C.HOM_ALTERNATIVE).passed


def test_quadri_split_guards(quad_t2):
    with pytest.raises(UnknownDirection):
        quadri_split(quad_t2, "sideways")
    with pytest.raises(RoleMismatch):
        quadri_split(support.t2(), "mdendriform")


# ---------------------------------------------------------------------------
# constructions read only the roles they are defined over
# ---------------------------------------------------------------------------

def _hessian_dendrify(s):
    return hessian_dendrify(s, support.load_fixture_bundle("premalcev_dim2").forms[0])


#: each construction, the fixture it runs on, derived roles stored beside
#: its sources, and the stored product copied under them
EXTRA_ROLE_CONSTRUCTIONS = {
    "horizontal": ("md_sl2", horizontal, (R.DOT, R.DIAMOND), R.TRI_LEFT),
    "vertical": ("md_sl2", vertical, (R.DOT, R.DIAMOND), R.TRI_LEFT),
    **{f"quadri-split-{d}": ("quad_t2", lambda s, d=d: quadri_split(s, d),
                             (R.PREC, R.SUCC, R.VEE, R.WEDGE, R.STAR), R.NW)
       for d in SPLIT_DIRECTIONS},
    "hessian-dendrify": ("premalcev_dim2", _hessian_dendrify,
                         (R.TRI_LEFT, R.TRI_RIGHT, R.BRACKET), R.DOT),
}


@pytest.fixture(scope="module")
def premalcev_dim2():
    return support.load_fixture_bundle("premalcev_dim2").structure


@pytest.mark.parametrize("copied", [False, True], ids=["zero", "copy"])
@pytest.mark.parametrize("name", EXTRA_ROLE_CONSTRUCTIONS)
def test_construction_reads_only_its_roles(request, name, copied):
    """A product stored under a derived role's name beside the sources,
    zero or a copy of another, changes no construction's output."""
    fixture, build, roles, source = EXTRA_ROLE_CONSTRUCTIONS[name]
    s = request.getfixturevalue(fixture)
    out = build(support.with_extra(s, roles, source if copied else None))
    assert out.products == build(s).products


# ---------------------------------------------------------------------------
# the closing diagram
# ---------------------------------------------------------------------------

def test_diagram_octonions_zero_pair_commutes_everywhere():
    zero = OperatorWitness(kind=KIND_ROTA_BAXTER, matrix=mat_zero(8, 8))
    report = verify_diagram(support.octonions(), zero, zero)
    assert sorted(report.nodes) == DIAGRAM_NODES
    assert [label for label, _ in report.edges] == DIAGRAM_EDGES
    assert all(r.passed for r in report.nodes.values())
    assert all(flag for _, flag in report.edges)
    assert report.paths_equal
    assert report.elapsed > 0


def test_diagram_t2_pair_is_honest_negative():
    """With the nonzero commuting t2 pair every node still satisfies its
    class, the four tensor-identity edges hold, but the horizontal
    recombination differs from the difference-route node, so the diagram does
    not commute as drawn."""
    r1, r2 = support.t2_rb_ops()
    report = verify_diagram(support.t2(), r1, r2)
    assert all(r.passed for r in report.nodes.values())
    flags = dict(report.edges)
    assert flags["alternative-r1-rota-baxter"]
    assert flags["alternative-r2-rota-baxter"]
    assert flags["operators-commute"]
    assert flags["pre-alternative-r2-rota-baxter"]
    assert flags["quadri-pair-route-equals-pre-alternative-r2-route"]
    assert flags["pre-malcev-difference-route-equals-malcev-r1-route"]
    assert flags["m-dendriform-split-route-equals-malcev-pair-route"]
    assert flags["m-dendriform-split-route-equals-pre-malcev-r2-route"]
    assert not flags["m-dendriform-horizontal-equals-pre-malcev-node"]
    assert not report.paths_equal


def test_diagram_checks_each_operator_once_per_structure(monkeypatch):
    """The diagram checks its two witnesses on the alternative algebra and
    each recipe checks its witnesses on its input: six distinct (structure,
    witness) pairs, each swept once."""
    from homalg import operators

    seen, real = [], operators.check_operator

    def check_operator(structure, w):
        seen.append((id(structure), id(w)))
        return real(structure, w)

    monkeypatch.setattr(operators, "check_operator", check_operator)
    r1, r2 = support.t2_rb_ops()
    verify_diagram(support.t2(), r1, r2)
    assert len(seen) == len(set(seen)) == 6


def test_diagram_node_tuple_counts_scale_with_dim():
    zero = OperatorWitness(kind=KIND_ROTA_BAXTER, matrix=mat_zero(8, 8))
    report = verify_diagram(support.octonions(), zero, zero)
    assert report.nodes["alternative"].tuples_checked == 2 * 8 ** 3
    assert report.nodes["m-dendriform"].tuples_checked == 4 * 8 ** 4


def test_diagram_noncommuting_guard():
    r1, _ = support.t2_rb_ops()
    nc = OperatorWitness(kind=KIND_ROTA_BAXTER, matrix=support.dense(3, (0, 1, -1)))
    assert check_operator(support.t2(), nc).passed
    assert not check_commuting(r1, nc)
    with pytest.raises(NotCommuting):
        verify_diagram(support.t2(), r1, nc)


def test_diagram_witness_guards():
    r1, r2 = support.t2_rb_ops()
    bad = OperatorWitness(kind=KIND_ROTA_BAXTER, matrix=mat_identity(3))
    with pytest.raises(OperatorInvalid):
        verify_diagram(support.t2(), bad, r2)
    w = OperatorWitness(
        kind=KIND_O_OPERATOR,
        matrix=mat_identity(3),
        rep=Representation(
            base=support.t2(),
            module_dim=3,
            module_twist=mat_identity(3),
            actions={A.RHO: slice_tensor((mat_identity(3),) * 3)},
        ),
    )
    with pytest.raises(RoleMismatch):
        verify_diagram(support.t2(), w, r2)
    weighted = OperatorWitness(
        kind=KIND_ROTA_BAXTER, matrix=mat_zero(3, 3), weight=F(1)
    )
    with pytest.raises(OperatorInvalid):
        verify_diagram(support.t2(), weighted, r2)
