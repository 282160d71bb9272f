"""Rota-Baxter / relative operators, dendrification recipes, Hessian forms."""
from __future__ import annotations

from fractions import Fraction

import pytest

import oracles
import support
from support import mat_zero, slice_tensor, tensor_add, tensor_slices
from homalg import (
    ActionRole,
    BilinearForm,
    EndomorphismInvalid,
    HessianInvalid,
    INDUCE_RECIPES,
    KIND_O_OPERATOR,
    KIND_ROTA_BAXTER,
    NotCommuting,
    OPERATOR_KINDS,
    OperatorInvalid,
    OperatorWitness,
    PAIR_RECIPES,
    ProductRole,
    Representation,
    RoleMismatch,
    StructureClass,
    UnknownKind,
    adjoint_rep,
    check,
    check_commuting,
    check_hessian,
    check_oop_endomorphism,
    check_operator,
    check_rep,
    derived_product,
    hessian_dendrify,
    induce,
    induce_pair,
    make_structure,
    regular_alternative_rep,
    regular_pre_alternative_rep,
    regular_pre_malcev_rep,
    twist_oop_setup,
)
from homalg.exact import (
    DimensionMismatch,
    SingularMatrix,
    apply_cols,
    grid_mul,
    mat_cols,
    mat_identity,
    push_product,
    sv_fractions,
    tensor_from_entries,
    tensor_grid,
)

F = Fraction
A = ActionRole
R = ProductRole
C = StructureClass


def rb(matrix, weight=None):
    return OperatorWitness(kind=KIND_ROTA_BAXTER, matrix=matrix, weight=weight)


def oop(matrix, rep):
    return OperatorWitness(kind=KIND_O_OPERATOR, matrix=matrix, rep=rep)


@pytest.fixture(scope="module")
def sl2():
    return support.sl2()


@pytest.fixture(scope="module")
def sl2_ops():
    return support.sl2_rb_ops()


@pytest.fixture(scope="module")
def t2():
    return support.t2()


@pytest.fixture(scope="module")
def t2_ops():
    return support.t2_rb_ops()


@pytest.fixture(scope="module")
def pm_sl2(sl2, sl2_ops):
    return induce(sl2, sl2_ops[0], "malcev-to-premalcev-rb")


@pytest.fixture(scope="module")
def pa_t2(t2, t2_ops):
    return induce(t2, t2_ops[0], "alternative-to-prealt-rb")


# ---------------------------------------------------------------------------
# witness containers
# ---------------------------------------------------------------------------

def test_operator_kinds_tuple():
    assert OPERATOR_KINDS == (KIND_ROTA_BAXTER, KIND_O_OPERATOR)


def test_witness_constructor_guards():
    with pytest.raises(UnknownKind):
        OperatorWitness(kind="bogus", matrix=mat_identity(2))
    with pytest.raises(RoleMismatch):
        OperatorWitness(
            kind=KIND_ROTA_BAXTER, matrix=mat_identity(2), rep=support.lie2_adjoint()
        )
    with pytest.raises(DimensionMismatch):
        OperatorWitness(kind=KIND_ROTA_BAXTER, matrix=((F(1), F(0)),))
    with pytest.raises(RoleMismatch):
        OperatorWitness(
            kind=KIND_O_OPERATOR,
            matrix=mat_identity(2),
            rep=support.lie2_adjoint(),
            weight=F(1),
        )
    with pytest.raises(RoleMismatch):
        OperatorWitness(kind=KIND_O_OPERATOR, matrix=mat_identity(2))
    with pytest.raises(DimensionMismatch):
        OperatorWitness(
            kind=KIND_O_OPERATOR, matrix=mat_identity(3), rep=support.lie2_adjoint()
        )


def test_rb_weight_normalized_to_zero():
    w = rb(mat_identity(2))
    assert w.weight == F(0)


def test_bilinear_form_guard():
    with pytest.raises(DimensionMismatch):
        BilinearForm(matrix=((F(1), F(0)),))


# ---------------------------------------------------------------------------
# Rota-Baxter checks
# ---------------------------------------------------------------------------

def test_reference_rb_witnesses_pass(sl2, sl2_ops, t2, t2_ops):
    assert check_operator(support.lie2(), support.lie2_rb_op()).passed
    for w in sl2_ops:
        assert check_operator(sl2, w).passed
    for w in t2_ops:
        assert check_operator(t2, w).passed


def test_rb_report_shape(t2, t2_ops):
    report = check_operator(t2, t2_ops[0])
    assert report.target == "operator:rota-baxter"
    assert report.passed


def test_zero_rb_on_octonions():
    zero = rb(mat_zero(8, 8))
    assert check_operator(support.octonions(), zero).passed


def test_identity_is_not_rb_on_lie2():
    report = check_operator(support.lie2(), rb(mat_identity(2)))
    assert not report.passed
    assert all(v.identity == "RB-bracket" for v in report.violations)
    assert all(len(v.args) == 2 for v in report.violations)


def test_weighted_rb():
    # R = -id satisfies the weight-1 law on any associative algebra
    neg_id = support.mat_neg(mat_identity(3))
    assert check_operator(support.t2(), rb(neg_id, weight=F(1))).passed
    assert not check_operator(support.t2(), rb(neg_id)).passed


def test_rb_twist_compatibility_violation():
    s = support.lie2_yau()
    # e0 -> e1 intertwines diag(1,2) only up to scale; RB law may hold but the
    # twist-compatibility sweep must flag it
    w = rb(((F(0), F(0)), (F(1), F(0))))
    report = check_operator(s, w)
    assert any(v.identity == "RB-TWIST" for v in report.violations)


# ---------------------------------------------------------------------------
# commutation
# ---------------------------------------------------------------------------

def test_commuting_pairs(sl2_ops, t2_ops):
    r1, r2 = sl2_ops
    assert check_commuting(r1, r1)
    assert check_commuting(r1, r2)
    assert check_commuting(*t2_ops) is oracles.T2_PAIR_COMMUTES


def test_noncommuting_pair(t2, t2_ops):
    other = rb(support.dense(3, (0, 1, -1)))
    assert check_operator(t2, other).passed  # genuine RB witness
    assert not check_commuting(t2_ops[0], other)


def test_check_commuting_guards(sl2_ops):
    w = oop(support.dense(2, (0, 0, 1)), support.lie2_adjoint())
    with pytest.raises(RoleMismatch):
        check_commuting(sl2_ops[0], w)
    with pytest.raises(DimensionMismatch):
        check_commuting(sl2_ops[0], support.lie2_rb_op())


# ---------------------------------------------------------------------------
# O-operator checks
# ---------------------------------------------------------------------------

def test_rb_is_adjoint_o_operator(sl2, sl2_ops):
    w = oop(sl2_ops[0].matrix, adjoint_rep(sl2))
    report = check_operator(sl2, w)
    assert report.passed
    assert report.target == "operator:o-operator"


def test_bad_o_operator_fails(sl2):
    w = oop(mat_identity(3), adjoint_rep(sl2))
    report = check_operator(sl2, w)
    assert not report.passed
    assert all(v.identity in ("OOP-bracket", "OOP-TWIST") for v in report.violations)


# ---------------------------------------------------------------------------
# induce: bracket side
# ---------------------------------------------------------------------------

def test_induce_recipe_lists():
    assert set(INDUCE_RECIPES) == {
        "malcev-to-premalcev-oop",
        "malcev-to-premalcev-rb",
        "premalcev-to-mdendriform-oop",
        "premalcev-to-mdendriform-rb",
        "premalcev-compatible-dendriform",
        "alternative-to-prealt-oop",
        "alternative-to-prealt-rb",
        "prealt-to-quadri-oop",
        "prealt-to-quadri-rb",
    }
    assert set(PAIR_RECIPES) == {
        "malcev-pair-to-mdendriform",
        "alternative-pair-to-quadri",
    }


def test_malcev_to_premalcev_rb_worked_example():
    pm = induce(support.lie2(), support.lie2_rb_op(), "malcev-to-premalcev-rb")
    assert pm.products[R.DOT] == {(0, 0): {1: F(-1)}}
    assert check(pm, C.HOM_PRE_MALCEV).passed


def test_malcev_to_premalcev_rb_sl2(pm_sl2):
    assert check(pm_sl2, C.HOM_PRE_MALCEV).passed


def test_malcev_to_premalcev_oop_matches_rb(sl2, sl2_ops, pm_sl2):
    w = oop(sl2_ops[0].matrix, adjoint_rep(sl2))
    pm = induce(sl2, w, "malcev-to-premalcev-oop")
    assert pm.products[R.DOT] == pm_sl2.products[R.DOT]
    assert check(pm, C.HOM_PRE_MALCEV).passed


def test_second_operator_still_rb_on_induced_premalcev(pm_sl2, sl2_ops):
    assert check_operator(pm_sl2, sl2_ops[1]).passed


def test_premalcev_to_mdendriform_rb(pm_sl2, sl2_ops):
    md = induce(pm_sl2, sl2_ops[1], "premalcev-to-mdendriform-rb")
    assert check(md, C.HOM_M_DENDRIFORM).passed


def test_premalcev_to_mdendriform_oop_matches_rb(pm_sl2, sl2_ops):
    reg = regular_pre_malcev_rep(pm_sl2)
    w = oop(sl2_ops[1].matrix, reg)
    assert check_operator(pm_sl2, w).passed
    md_oop = induce(pm_sl2, w, "premalcev-to-mdendriform-oop")
    md_rb = induce(pm_sl2, sl2_ops[1], "premalcev-to-mdendriform-rb")
    assert md_oop.products[R.TRI_RIGHT] == md_rb.products[R.TRI_RIGHT]
    assert md_oop.products[R.TRI_LEFT] == md_rb.products[R.TRI_LEFT]


def test_mdendriform_splitting_invariant(pm_sl2, sl2_ops):
    """The two halves recombine to the operator-transported product:
    (x right y) + (x left y) = (Tx) . y + x . (Ty)."""
    md = induce(pm_sl2, sl2_ops[1], "premalcev-to-mdendriform-rb")
    recombined = tensor_add(md.products[R.TRI_RIGHT], md.products[R.TRI_LEFT])
    tcols = mat_cols(sl2_ops[1].matrix)
    dgrid = tensor_grid(pm_sl2.products[R.DOT], 3)
    ent = []
    for a in range(3):
        for b in range(3):
            for k, v in sv_fractions(grid_mul(dgrid, tcols[a], {b: F(1)})).items():
                ent.append((a, b, k, v))
            for k, v in sv_fractions(grid_mul(dgrid, {a: F(1)}, tcols[b])).items():
                ent.append((a, b, k, v))
    assert recombined == tensor_from_entries(ent)


def test_compatible_dendriform_round_trip(pm_sl2, sl2_ops):
    """An invertible relative operator (the identity, over the left/right
    bimodule of a splitting) reproduces the splitting it came from."""
    md = induce(pm_sl2, sl2_ops[1], "premalcev-to-mdendriform-rb")
    hdot = tensor_add(md.products[R.TRI_RIGHT], md.products[R.TRI_LEFT])
    horiz, bimod = support.splitting_bimodule(md)
    assert horiz.products[R.DOT] == hdot
    assert check_rep(bimod, C.HOM_PRE_MALCEV).passed
    ident = oop(mat_identity(3), bimod)
    assert check_operator(horiz, ident).passed
    back = induce(horiz, ident, "premalcev-compatible-dendriform")
    assert back.products[R.TRI_RIGHT] == md.products[R.TRI_RIGHT]
    assert back.products[R.TRI_LEFT] == md.products[R.TRI_LEFT]
    assert check(back, C.HOM_M_DENDRIFORM).passed
    assert tensor_add(back.products[R.TRI_RIGHT], back.products[R.TRI_LEFT]) == hdot


def test_compatible_dendriform_needs_invertible_map(pm_sl2, sl2_ops):
    reg = regular_pre_malcev_rep(pm_sl2)
    w = oop(sl2_ops[1].matrix, reg)  # singular matrix
    with pytest.raises(SingularMatrix):
        induce(pm_sl2, w, "premalcev-compatible-dendriform")


# ---------------------------------------------------------------------------
# induce: alternative side
# ---------------------------------------------------------------------------

def test_alternative_to_prealt_rb(pa_t2):
    assert check(pa_t2, C.HOM_PRE_ALTERNATIVE).passed


def test_alternative_to_prealt_oop_matches_rb(t2, t2_ops, pa_t2):
    w = oop(t2_ops[0].matrix, regular_alternative_rep(t2))
    assert check_operator(t2, w).passed
    pa = induce(t2, w, "alternative-to-prealt-oop")
    assert pa.products[R.PREC] == pa_t2.products[R.PREC]
    assert pa.products[R.SUCC] == pa_t2.products[R.SUCC]


def test_prealt_o_operator_with_summed_actions(t2_ops, pa_t2):
    """Summing the four split actions of a pre-alternative bimodule yields an
    alternative bimodule for the recombined product, and the same matrix is a
    relative operator for it."""
    reg = regular_pre_alternative_rep(pa_t2)

    def summed_slices(x, y):
        return tuple(tuple(tuple(p + q for p, q in zip(rp, rq)) for rp, rq in zip(a, b))
                     for a, b in zip(tensor_slices(reg.actions[x], 3, 3),
                                     tensor_slices(reg.actions[y], 3, 3)))

    star = derived_product(pa_t2, R.STAR)
    alt = make_structure(3, products={R.STAR: star})
    summed = Representation(
        base=alt,
        module_dim=3,
        module_twist=mat_identity(3),
        actions={
            A.LEFT: slice_tensor(summed_slices(A.LEFT_PREC, A.LEFT_SUCC)),
            A.RIGHT: slice_tensor(summed_slices(A.RIGHT_PREC, A.RIGHT_SUCC)),
        },
    )
    w = oop(t2_ops[1].matrix, summed)
    assert check_operator(alt, w).passed


def test_prealt_to_quadri_rb_and_oop(t2_ops, pa_t2):
    assert check_operator(pa_t2, t2_ops[1]).passed
    q_rb = induce(pa_t2, t2_ops[1], "prealt-to-quadri-rb")
    assert check(q_rb, C.HOM_ALT_QUADRI).passed
    w = oop(t2_ops[1].matrix, regular_pre_alternative_rep(pa_t2))
    assert check_operator(pa_t2, w).passed
    q_oop = induce(pa_t2, w, "prealt-to-quadri-oop")
    assert all(
        q_oop.products[r] == q_rb.products[r] for r in (R.NW, R.SW, R.NE, R.SE)
    )


# ---------------------------------------------------------------------------
# induce_pair
# ---------------------------------------------------------------------------

def test_malcev_pair_to_mdendriform(sl2, sl2_ops):
    md = induce_pair(sl2, sl2_ops[0], sl2_ops[1], "malcev-pair-to-mdendriform")
    assert check(md, C.HOM_M_DENDRIFORM).passed
    # spot: with R1(e)=h and R2(e)=f, e "right" e = [R1 e, R2 e] = [h,f] = -2f
    assert md.products[R.TRI_RIGHT].get((1, 1)) == {2: F(-2)}


def test_alternative_pair_to_quadri(t2, t2_ops):
    q = induce_pair(t2, t2_ops[0], t2_ops[1], "alternative-pair-to-quadri")
    assert check(q, C.HOM_ALT_QUADRI).passed
    # quadrant placement: se(x, y) = (R1 R2 x) * y at basis level
    r1c = mat_cols(t2_ops[0].matrix)
    r2c = mat_cols(t2_ops[1].matrix)
    sgrid = tensor_grid(t2.products[R.STAR], 3)
    ent = []
    for i in range(3):
        rx = apply_cols(r1c, apply_cols(r2c, {i: F(1)}))
        for j in range(3):
            for k, v in sv_fractions(grid_mul(sgrid, rx, {j: F(1)})).items():
                ent.append((i, j, k, v))
    assert q.products[R.SE] == tensor_from_entries(ent)


def oracle_pair_products(table, dim, r1, r2, rows):
    """``{out: tensor}`` with ``out(e_i, e_j) = (f e_i)(g e_j)`` on the oracle
    ``table`` for each row ``(out, f, g)``, f and g among "", "1", "2" and
    "12" (the identity, R1, R2 and R1 R2, as oracle columns)."""
    maps = {"1": r1, "2": r2}

    def image(f, i):
        u = {i: F(1)}
        for name in reversed(f):
            u = oracles.apply_cols(maps[name], u)
        return u

    out = {}
    for role, f, g in rows:
        cells = {(i, j): oracles.sv_mul(table, image(f, i), image(g, j))
                 for i in range(dim) for j in range(dim)}
        out[role] = {key: cell for key, cell in cells.items() if cell}
    return out


def test_alternative_pair_to_quadri_tells_ne_from_sw():
    """On M2 the pair gives R1x R2y != R2x R1y, so every quarter is pinned."""
    table = oracles.m2_table()
    r1, r2 = (oracles.entries_to_cols(e) for e in (oracles.M2_R1, oracles.M2_R2))
    assert oracles.is_rota_baxter(table, 4, r1) and oracles.is_rota_baxter(table, 4, r2)
    assert oracles.cols_commute(4, r1, r2)
    ops = support.m2_rb_ops()
    q = induce_pair(support.m2(), *ops, "alternative-pair-to-quadri")
    assert check(q, C.HOM_ALT_QUADRI).passed
    want = oracle_pair_products(table, 4, r1, r2, [
        (R.SE, "12", ""), (R.NE, "1", "2"), (R.SW, "2", "1"), (R.NW, "", "12")])
    assert {role: q.products[role] for role in want} == want
    assert want[R.SW] == {(1, 1): {2: F(1)}} and want[R.NE] == {}


def test_malcev_pair_to_mdendriform_on_m2_commutator():
    table = oracles.commutator_table(oracles.m2_table())
    r1, r2 = (oracles.entries_to_cols(e) for e in (oracles.M2_R1, oracles.M2_R2))
    assert oracles.is_rota_baxter(table, 4, r1) and oracles.is_rota_baxter(table, 4, r2)
    gl2 = make_structure(4, products={R.BRACKET: support.oracle_table_to_tensor(table)})
    assert check(gl2, C.HOM_MALCEV).passed
    md = induce_pair(gl2, *support.m2_rb_ops(), "malcev-pair-to-mdendriform")
    assert check(md, C.HOM_M_DENDRIFORM).passed
    want = oracle_pair_products(table, 4, r1, r2, [
        (R.TRI_RIGHT, "1", "2"), (R.TRI_LEFT, "12", "")])
    assert {role: md.products[role] for role in want} == want
    # [R1 E12, R2 E12] = [E11, E21] = -E21, while [R2 E12, R1 E12] = E21
    assert want[R.TRI_RIGHT][(1, 1)] == {2: F(-1)}


def test_pair_guards(t2, t2_ops):
    noncomm = rb(support.dense(3, (0, 1, -1)))
    assert not check_commuting(t2_ops[0], noncomm)
    with pytest.raises(NotCommuting):
        induce_pair(t2, t2_ops[0], noncomm, "alternative-pair-to-quadri")
    with pytest.raises(UnknownKind):
        induce_pair(t2, t2_ops[0], t2_ops[1], "no-such-recipe")


# ---------------------------------------------------------------------------
# induce guards
# ---------------------------------------------------------------------------

def test_induce_guards(sl2, sl2_ops):
    with pytest.raises(UnknownKind):
        induce(sl2, sl2_ops[0], "no-such-recipe")
    w = oop(sl2_ops[0].matrix, adjoint_rep(sl2))
    with pytest.raises(RoleMismatch):
        induce(sl2, w, "malcev-to-premalcev-rb")
    with pytest.raises(RoleMismatch):
        induce(sl2, sl2_ops[0], "malcev-to-premalcev-oop")
    with pytest.raises(OperatorInvalid):
        induce(support.lie2(), rb(mat_identity(2)), "malcev-to-premalcev-rb")
    with pytest.raises(OperatorInvalid):
        induce(sl2, rb(sl2_ops[0].matrix, weight=F(1)), "malcev-to-premalcev-rb")


# ---------------------------------------------------------------------------
# Hessian forms
# ---------------------------------------------------------------------------

def test_hessian_passes_on_reference():
    pm2 = support.premalcev2()
    form = BilinearForm(matrix=((F(0), F(1)), (F(1), F(0))))
    report = check_hessian(pm2, form)
    assert report.passed
    assert report.target == "hessian"


def test_hessian_dendrify_reference_tables():
    pm2 = support.premalcev2()
    form = BilinearForm(matrix=((F(0), F(1)), (F(1), F(0))))
    md = hessian_dendrify(pm2, form)
    assert check(md, C.HOM_M_DENDRIFORM).passed
    assert md.products[R.TRI_RIGHT] == {(0, 0): {1: F(-1)}}
    assert md.products[R.TRI_LEFT] == {}
    assert (
        tensor_add(md.products[R.TRI_RIGHT], md.products[R.TRI_LEFT])
        == pm2.products[R.DOT]
    )


def test_hessian_symmetry_violation():
    pm2 = support.premalcev2()
    asym = BilinearForm(matrix=((F(0), F(1)), (F(2), F(0))))
    report = check_hessian(pm2, asym)
    assert any(v.identity == "HESS-SYM" for v in report.violations)


def test_hessian_nondegeneracy_violation():
    pm2 = support.premalcev2()
    singular = BilinearForm(matrix=((F(1), F(0)), (F(0), F(0))))
    report = check_hessian(pm2, singular)
    nondeg = [v for v in report.violations if v.identity == "HESS-NONDEG"]
    assert nondeg and nondeg[0].residual  # kernel witness recorded
    with pytest.raises(HessianInvalid):
        hessian_dendrify(pm2, singular)


def test_hessian_invariance_violation():
    pm2t = support.premalcev2_yau()
    report = check_hessian(pm2t, BilinearForm(matrix=mat_identity(2)))
    assert any(v.identity == "HESS-INV" for v in report.violations)


def test_hessian_abelian_identity_form():
    ab = make_structure(2, products={R.DOT: {}})
    form = BilinearForm(matrix=mat_identity(2))
    assert check_hessian(ab, form).passed
    md = hessian_dendrify(ab, form)
    assert md.products[R.TRI_RIGHT] == {}
    assert md.products[R.TRI_LEFT] == {}


def test_hessian_dendrify_nonzero_both_halves():
    """A searched example where both halves of the splitting are nonzero."""
    st = make_structure(
        2,
        products={R.DOT: support.tensor((0, 0, 0, -1), (0, 0, 1, -1), (0, 1, 1, 1))},
    )
    assert check(st, C.HOM_PRE_MALCEV).passed
    form = BilinearForm(matrix=((F(0), F(-1)), (F(-1), F(0))))
    assert check_hessian(st, form).passed
    md = hessian_dendrify(st, form)
    assert md.products[R.TRI_LEFT] == support.tensor((0, 0, 0, -1), (1, 0, 1, 1))
    assert md.products[R.TRI_RIGHT] == support.tensor(
        (0, 0, 1, -1), (1, 0, 1, -1), (0, 1, 1, 1)
    )
    assert (
        tensor_add(md.products[R.TRI_RIGHT], md.products[R.TRI_LEFT])
        == st.products[R.DOT]
    )
    assert check(md, C.HOM_M_DENDRIFORM).passed


def test_hessian_guards():
    with pytest.raises(RoleMismatch):
        check_hessian(support.lie2(), BilinearForm(matrix=mat_identity(2)))


# ---------------------------------------------------------------------------
# operator-compatible endomorphism pairs
# ---------------------------------------------------------------------------

def test_endomorphism_pair_checks():
    pm2 = support.premalcev2()
    reg = regular_pre_malcev_rep(pm2)
    w = oop(support.dense(2, (1, 0, 1)), reg)
    assert check_operator(pm2, w).passed
    phi_a = ((F(2), F(0)), (F(0), F(2)))
    phi_v = ((F(2), F(0)), (F(0), F(4)))
    assert check_oop_endomorphism(w, phi_a, phi_v)
    assert not check_oop_endomorphism(w, phi_a, mat_identity(2))


def test_twist_setup_rejects_non_morphism():
    pm2 = support.premalcev2()
    reg = regular_pre_malcev_rep(pm2)
    w = oop(support.dense(2, (1, 0, 1)), reg)
    phi_a = ((F(2), F(0)), (F(0), F(2)))
    phi_v = ((F(2), F(0)), (F(0), F(4)))
    with pytest.raises(EndomorphismInvalid):
        twist_oop_setup(pm2, w, phi_a, phi_v)


def test_twist_setup_identity_pair_is_noop():
    pm2 = support.premalcev2()
    reg = regular_pre_malcev_rep(pm2)
    w = oop(support.dense(2, (1, 0, 1)), reg)
    s2, rep2, w2 = twist_oop_setup(pm2, w, mat_identity(2), mat_identity(2))
    assert s2.products == pm2.products
    assert s2.twist == pm2.twist
    assert rep2.actions == reg.actions
    assert w2.matrix == w.matrix
    assert check_operator(s2, w2).passed


def test_twist_setup_composed_twist_is_phi(pm_sl2):
    gam = support.dense(3, (0, 0, 1), (1, 1, 1), (2, 2, 3))
    pm_t = make_structure(
        3, twist=gam, products={R.DOT: push_product(pm_sl2.products[R.DOT], gam)}
    )
    reg_t = regular_pre_malcev_rep(pm_t)
    zero = oop(mat_zero(3, 3), reg_t)
    assert check_operator(pm_t, zero).passed
    s3, rep3, w3 = twist_oop_setup(pm_t, zero, gam, gam)
    assert s3.twist == gam
    assert rep3.module_twist == gam
    assert check_operator(s3, w3).passed


# ---------------------------------------------------------------------------
# refusal messages: each recipe's guards, in their order
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def env(sl2, sl2_ops, t2, t2_ops, pm_sl2, pa_t2):
    """The inputs of the refusal cases, by short name."""
    return {
        "sl2": sl2, "s1": sl2_ops[0], "s2": sl2_ops[1], "adj": adjoint_rep(sl2),
        "t2": t2, "t1": t2_ops[0], "u2": t2_ops[1], "ralt": regular_alternative_rep(t2),
        "pm": pm_sl2, "rpm": regular_pre_malcev_rep(pm_sl2),
        "pa": pa_t2, "rpa": regular_pre_alternative_rep(pa_t2),
        "lie2": support.lie2(), "lie2_rb": support.lie2_rb_op(),
        "I2": mat_identity(2), "I3": mat_identity(3),
        # every map is a weight-0 Rota-Baxter map of a zero product
        "zero_bracket": support.zero_structure(2),
        "zero_star": make_structure(2, products={R.STAR: {}}),
    }


def _needs_rb(recipe):
    return f"recipe {recipe!r} needs a Rota-Baxter witness"


def _needs_oop(recipe):
    return f"recipe {recipe!r} needs a relative operator witness"


def _weight(recipe):
    return f"recipe {recipe!r} needs weight zero, got 1"


def _roles(recipe, roles):
    return f"recipe {recipe!r} needs structure products {roles}"


def _actions(recipe, want, have):
    return f"recipe {recipe!r} needs actions {want}; witness representation has {have}"


def _invalid(recipe, label, args):
    return (f"operator fails its check; recipe {recipe!r} refused "
            f"(first violation {label} at {args})")


_LR = ["left", "right"]
_SPLIT = ["left-prec", "left-succ", "right-prec", "right-succ"]

# (recipe, case) -> (inputs, exception, message).  The inputs are
# (structure, witness) for induce and (structure, r1, r2) for induce_pair; a
# witness is a name in ``env``, ("rb", matrix[, weight]) or ("oop", matrix,
# rep), a matrix a name or a tuple of (row, col, value) entries.  Each case
# also breaks every later guard, so it pins the guard order: kind (and
# weight), then actions, then roles, then validity; for pairs kind, weight,
# validity, commutation, then roles.
_REFUSALS = {
    ("malcev-to-premalcev-oop", "kind"):
        (("t2", "s1"), RoleMismatch, _needs_oop("malcev-to-premalcev-oop")),
    ("malcev-to-premalcev-oop", "actions"):
        (("t2", ("oop", "I3", "rpm")), RoleMismatch,
         _actions("malcev-to-premalcev-oop", ["rho"], _LR)),
    ("malcev-to-premalcev-oop", "roles"):
        (("t2", ("oop", "I3", "adj")), RoleMismatch,
         _roles("malcev-to-premalcev-oop", ["bracket"])),
    ("malcev-to-premalcev-oop", "invalid"):
        (("sl2", ("oop", "I3", "adj")), OperatorInvalid,
         _invalid("malcev-to-premalcev-oop", "OOP-bracket", (0, 1))),
    ("malcev-to-premalcev-rb", "kind"):
        (("t2", ("oop", "I3", "adj")), RoleMismatch, _needs_rb("malcev-to-premalcev-rb")),
    ("malcev-to-premalcev-rb", "weight"):
        (("t2", ("rb", "I3", 1)), OperatorInvalid, _weight("malcev-to-premalcev-rb")),
    ("malcev-to-premalcev-rb", "roles"):
        (("t2", ("rb", "I3")), RoleMismatch, _roles("malcev-to-premalcev-rb", ["bracket"])),
    ("malcev-to-premalcev-rb", "invalid"):
        (("lie2", ("rb", "I2")), OperatorInvalid,
         _invalid("malcev-to-premalcev-rb", "RB-bracket", (0, 1))),
    ("premalcev-to-mdendriform-oop", "kind"):
        (("sl2", "s2"), RoleMismatch, _needs_oop("premalcev-to-mdendriform-oop")),
    ("premalcev-to-mdendriform-oop", "actions"):
        (("sl2", ("oop", "I3", "adj")), RoleMismatch,
         _actions("premalcev-to-mdendriform-oop", _LR, ["rho"])),
    ("premalcev-to-mdendriform-oop", "roles"):
        (("sl2", ("oop", "I3", "rpm")), RoleMismatch,
         _roles("premalcev-to-mdendriform-oop", ["dot"])),
    ("premalcev-to-mdendriform-oop", "invalid"):
        (("pm", ("oop", "I3", "rpm")), OperatorInvalid,
         _invalid("premalcev-to-mdendriform-oop", "OOP-dot", (1, 1))),
    ("premalcev-to-mdendriform-rb", "kind"):
        (("sl2", ("oop", "I3", "rpm")), RoleMismatch,
         _needs_rb("premalcev-to-mdendriform-rb")),
    ("premalcev-to-mdendriform-rb", "weight"):
        (("sl2", ("rb", "I3", 1)), OperatorInvalid, _weight("premalcev-to-mdendriform-rb")),
    ("premalcev-to-mdendriform-rb", "roles"):
        (("sl2", ("rb", "I3")), RoleMismatch, _roles("premalcev-to-mdendriform-rb", ["dot"])),
    ("premalcev-to-mdendriform-rb", "invalid"):
        (("pm", ("rb", "I3")), OperatorInvalid,
         _invalid("premalcev-to-mdendriform-rb", "RB-dot", (1, 1))),
    ("premalcev-compatible-dendriform", "kind"):
        (("sl2", "s2"), RoleMismatch, _needs_oop("premalcev-compatible-dendriform")),
    ("premalcev-compatible-dendriform", "actions"):
        (("sl2", ("oop", "I3", "adj")), RoleMismatch,
         _actions("premalcev-compatible-dendriform", _LR, ["rho"])),
    ("premalcev-compatible-dendriform", "roles"):
        (("sl2", ("oop", ((1, 1, 1),), "rpm")), RoleMismatch,
         _roles("premalcev-compatible-dendriform", ["dot"])),
    ("premalcev-compatible-dendriform", "dims"):
        (("premalcev2", ("oop", ((1, 1, 1),), "rpm")), DimensionMismatch,
         "an invertible operator needs the module and algebra dimensions equal"),
    ("premalcev-compatible-dendriform", "singular"):
        (("pm", ("oop", ((1, 1, 1),), "rpm")), SingularMatrix, "no pivot in column 0"),
    ("premalcev-compatible-dendriform", "invalid"):
        (("pm", ("oop", "I3", "rpm")), OperatorInvalid,
         _invalid("premalcev-compatible-dendriform", "OOP-dot", (1, 1))),
    ("alternative-to-prealt-oop", "kind"):
        (("sl2", "t1"), RoleMismatch, _needs_oop("alternative-to-prealt-oop")),
    ("alternative-to-prealt-oop", "actions"):
        (("sl2", ("oop", "I3", "rpa")), RoleMismatch,
         _actions("alternative-to-prealt-oop", _LR, _SPLIT)),
    ("alternative-to-prealt-oop", "roles"):
        (("sl2", ("oop", "I3", "ralt")), RoleMismatch,
         _roles("alternative-to-prealt-oop", ["star"])),
    ("alternative-to-prealt-oop", "invalid"):
        (("t2", ("oop", "I3", "ralt")), OperatorInvalid,
         _invalid("alternative-to-prealt-oop", "OOP-star", (0, 0))),
    ("alternative-to-prealt-rb", "kind"):
        (("sl2", ("oop", "I3", "ralt")), RoleMismatch, _needs_rb("alternative-to-prealt-rb")),
    ("alternative-to-prealt-rb", "weight"):
        (("sl2", ("rb", "I3", 1)), OperatorInvalid, _weight("alternative-to-prealt-rb")),
    ("alternative-to-prealt-rb", "roles"):
        (("sl2", ("rb", "I3")), RoleMismatch, _roles("alternative-to-prealt-rb", ["star"])),
    ("alternative-to-prealt-rb", "invalid"):
        (("t2", ("rb", "I3")), OperatorInvalid,
         _invalid("alternative-to-prealt-rb", "RB-star", (0, 0))),
    ("prealt-to-quadri-oop", "kind"):
        (("t2", "u2"), RoleMismatch, _needs_oop("prealt-to-quadri-oop")),
    ("prealt-to-quadri-oop", "actions"):
        (("t2", ("oop", "I3", "ralt")), RoleMismatch,
         _actions("prealt-to-quadri-oop", _SPLIT, _LR)),
    ("prealt-to-quadri-oop", "roles"):
        (("t2", ("oop", "I3", "rpa")), RoleMismatch,
         _roles("prealt-to-quadri-oop", ["prec", "succ"])),
    ("prealt-to-quadri-oop", "invalid"):
        (("pa", ("oop", "I3", "rpa")), OperatorInvalid,
         _invalid("prealt-to-quadri-oop", "OOP-prec", (0, 0))),
    ("prealt-to-quadri-rb", "kind"):
        (("t2", ("oop", "I3", "rpa")), RoleMismatch, _needs_rb("prealt-to-quadri-rb")),
    ("prealt-to-quadri-rb", "weight"):
        (("t2", ("rb", "I3", 1)), OperatorInvalid, _weight("prealt-to-quadri-rb")),
    ("prealt-to-quadri-rb", "roles"):
        (("t2", ("rb", "I3")), RoleMismatch, _roles("prealt-to-quadri-rb", ["prec", "succ"])),
    ("prealt-to-quadri-rb", "invalid"):
        (("pa", ("rb", "I3")), OperatorInvalid,
         _invalid("prealt-to-quadri-rb", "RB-prec", (0, 0))),
    ("malcev-pair-to-mdendriform", "kind"):
        (("t2", "s1", ("oop", "I3", "adj")), RoleMismatch,
         _needs_rb("malcev-pair-to-mdendriform")),
    ("malcev-pair-to-mdendriform", "weight"):
        (("t2", ("rb", "I3", 1), ("oop", "I3", "adj")), OperatorInvalid,
         _weight("malcev-pair-to-mdendriform")),
    ("malcev-pair-to-mdendriform", "invalid"):
        (("lie2", "lie2_rb", ("rb", ((1, 1, 1),))), OperatorInvalid,
         _invalid("malcev-pair-to-mdendriform", "RB-bracket", (0, 1))),
    ("malcev-pair-to-mdendriform", "commute"):
        (("zero_star", ("rb", ((0, 1, 1),)), ("rb", ((1, 0, 1),))), NotCommuting,
         "recipe 'malcev-pair-to-mdendriform' needs the two operators to commute"),
    ("malcev-pair-to-mdendriform", "roles"):
        (("t2", "t1", "u2"), RoleMismatch, _roles("malcev-pair-to-mdendriform", ["bracket"])),
    ("alternative-pair-to-quadri", "kind"):
        (("sl2", ("oop", "I3", "ralt"), "u2"), RoleMismatch,
         _needs_rb("alternative-pair-to-quadri")),
    ("alternative-pair-to-quadri", "weight"):
        (("sl2", "t1", ("rb", "I3", 1)), OperatorInvalid, _weight("alternative-pair-to-quadri")),
    ("alternative-pair-to-quadri", "invalid"):
        (("t2", "t1", ("rb", ((1, 1, 1),))), OperatorInvalid,
         _invalid("alternative-pair-to-quadri", "RB-star", (0, 1))),
    ("alternative-pair-to-quadri", "commute"):
        (("zero_bracket", ("rb", ((0, 1, 1),)), ("rb", ((1, 0, 1),))), NotCommuting,
         "recipe 'alternative-pair-to-quadri' needs the two operators to commute"),
    ("alternative-pair-to-quadri", "roles"):
        (("sl2", "s1", "s2"), RoleMismatch, _roles("alternative-pair-to-quadri", ["star"])),
    ("no-such-recipe", "induce"):
        (("sl2", "s1"), UnknownKind,
         f"unknown induce recipe 'no-such-recipe'; expected one of {INDUCE_RECIPES}"),
    ("no-such-recipe", "pair"):
        (("sl2", "s1", "s2"), UnknownKind,
         f"unknown pair recipe 'no-such-recipe'; expected one of {PAIR_RECIPES}"),
}


def _refusal_input(env, spec, dim):
    if isinstance(spec, str):
        return env.get(spec) or getattr(support, spec)()
    kind, mat, *rest = spec
    rep = env[rest[0]] if kind == "oop" else None
    mat = env[mat] if isinstance(mat, str) else support.dense(rep.base.dim if rep else dim, *mat)
    return rb(mat, *rest) if kind == "rb" else oop(mat, rep)


def test_refusal_cases_cover_every_recipe():
    assert {recipe for recipe, _ in _REFUSALS} == {
        *INDUCE_RECIPES, *PAIR_RECIPES, "no-such-recipe"}
    for recipe in (*INDUCE_RECIPES, *PAIR_RECIPES):
        cases = {case for r, case in _REFUSALS if r == recipe}
        assert {"kind", "roles", "invalid"} <= cases
        assert ("weight" in cases) == (recipe.endswith("-rb") or recipe in PAIR_RECIPES)
        assert ("commute" in cases) == (recipe in PAIR_RECIPES)


@pytest.mark.parametrize("recipe, case", sorted(_REFUSALS),
                         ids=[f"{r}-{c}" for r, c in sorted(_REFUSALS)])
def test_recipe_refusal_messages(env, recipe, case):
    inputs, exc, message = _REFUSALS[recipe, case]
    structure = _refusal_input(env, inputs[0], 0)
    ops = [_refusal_input(env, spec, structure.dim) for spec in inputs[1:]]
    build = induce if len(ops) == 1 else induce_pair
    with pytest.raises(exc) as info:
        build(structure, *ops, recipe)
    assert type(info.value) is exc
    assert str(info.value) == message


def _counting(monkeypatch, name):
    """Count the calls of the exact kernel ``name`` from the modules that
    build and sweep operator laws."""
    import homalg.operators as operators
    import homalg.structures as structures

    calls = [0]
    real = getattr(structures, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)
    for module in (structures, operators):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_operator_laws_are_products_on_composed_grids(monkeypatch):
    """R(R e_i * e_j), R(e_i * R e_j) and T(X(T e_x) e_y) are products on the
    grid of the operator after the product or action, built with one
    ``apply_cols`` per cell: no check makes more than n^2 ``grid_mul`` calls
    per product, and the residuals of a broken operator are still exact."""
    from test_differential import (
        assert_matches, dense_of, o_operator_residuals, rota_baxter_residuals)

    octonions = support.load_fixture_bundle("octonions")
    sl2 = support.load_fixture_bundle("premalcev_sl2")
    regular = regular_pre_malcev_rep(sl2.structure)
    cases = [(octonions.structure, w) for w in octonions.operators]
    cases.append((sl2.structure, oop(sl2.operators[0].matrix, regular)))
    # -1 is a Rota-Baxter map of weight 1 with every column nonzero
    cases.append((support.t2(), rb([[F(-(i == j)) for j in range(3)] for i in range(3)],
                                   weight=F(1))))
    for structure, w in cases:
        n, products = structure.dim, len(structure.products)
        structure = make_structure(n, twist=structure.twist, products=structure.products)
        grid_calls = _counting(monkeypatch, "grid_mul")
        apply_calls = _counting(monkeypatch, "apply_cols")
        assert check_operator(structure, w).passed
        assert grid_calls[0] <= n ** 2 * products
        assert apply_calls[0] <= 2 * n ** 2 * products
        monkeypatch.undo()

    # broken maps: a Rota-Baxter map of weight 1 on the octonions, and an
    # O-operator on the regular pre-Malcev representation of sl2
    s = octonions.structure
    r = [[F((3 * i + j) % 5 - 2, 1 + (i + j) % 3) for j in range(8)] for i in range(8)]
    c, a = dense_of(s, R.STAR)
    report = check_operator(s, rb(r, weight=F(1)))
    assert not report.passed
    assert_matches(report, rota_baxter_residuals({R.STAR: c}, r, F(1), a))
    t = [row[:3] for row in r[:3]]
    c, a = dense_of(sl2.structure, R.DOT)
    dense = [[list(row) for row in s] for s in (tensor_slices(regular.actions[role], 3, 3)
                                                for role in (A.LEFT, A.RIGHT))]
    report = check_operator(sl2.structure, oop(t, regular))
    assert not report.passed
    assert_matches(report, o_operator_residuals({R.DOT: c}, {R.DOT: dense}, t, a, a))
