"""End-to-end acceptance run.

Seven independent gates, all at exact zero tolerance (every residual is a
`Fraction` compared against literal zero):

1. the dim-8 doubled-quaternion table sits exactly on the class boundary
   (alternative and Malcev-admissible but not associative; its imaginary-part
   commutator is Malcev but not Lie) inside a 10 s budget;
2. every construction recipe is closed over the shipped fixture library —
   each output passes its target class check, dualization is an exact
   involution, and splittings recombine to what they split;
3. a representation is valid exactly when its semidirect product is;
4. the closing construction diagram commutes on the octonion fixture with its
   stored commuting operator pair;
5. the two literal triangle-product tables carry the relations they promise;
6. serialization and reports are deterministic over 100 seeded random bundles;
7. a full single-class identity sweep at dim 10 fits in a 60 s budget.
"""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

import oracles
import support
from homalg import (
    ActionRole,
    BilinearForm,
    Bundle,
    KIND_O_OPERATOR,
    KIND_ROTA_BAXTER,
    OperatorWitness,
    ProductRole,
    Representation,
    StructureClass,
    adjoint_rep,
    check,
    check_operator,
    check_rep,
    commutator,
    derived_product,
    dual_malcev_rep,
    dual_pre_malcev_rep,
    hessian_dendrify,
    horizontal,
    induce,
    induce_pair,
    make_structure,
    quadri_split,
    semidirect,
    transpose,
    verify_diagram,
    vertical,
    yau_twist,
)
from homalg.bundle import check_payload, dumps_bundle, loads_bundle
from homalg.cli import main
from homalg.exact import (
    mat_identity,
    tensor_grid,
)
from homalg.fixtures import fixture_names, load_fixture
from support import tensor_add, tensor_flip, tensor_neg

F = Fraction
A = ActionRole
R = ProductRole
C = StructureClass


# ---------------------------------------------------------------------------
# gate 1: octonion class boundaries, within the time budget
# ---------------------------------------------------------------------------

def test_g1_octonion_class_boundaries_within_10s():
    started = time.perf_counter()

    table = oracles.octonion_table()
    oct8 = load_fixture("octonions").structure
    # the shipped table must agree entry-for-entry with the independently
    # doubled table
    assert oct8.products[R.STAR] == support.oracle_table_to_tensor(table)

    alt = check(oct8, C.HOM_ALTERNATIVE)
    assert alt.passed
    assert alt.tuples_checked == 2 * 8 ** 3

    # the admissibility check sweeps the full 8^4 grid for its 4-ary identity
    adm = check(oct8, C.HOM_MALCEV_ADMISSIBLE)
    assert adm.passed
    assert adm.tuples_checked == 8 ** 2 + 8 ** 3 + 8 ** 4

    assoc = check(oct8, C.HOM_ASSOCIATIVE)
    assert not assoc.passed
    assert len(assoc.violations) >= 1
    assert len(assoc.violations) == 168
    assert all(v.identity == "ASSOC" for v in assoc.violations)
    assert all(v.residual for v in assoc.violations)

    # imaginary part: the stored bracket is exactly twice the off-diagonal
    # oracle table (xy - yx with yx = -xy there)
    im = load_fixture("octonions_im").structure
    expected = {}
    for i in range(7):
        for j in range(7):
            if i == j:
                continue
            ((k, sign),) = table[(i + 1, j + 1)].items()
            assert k >= 1   # imaginary times imaginary stays imaginary
            expected[(i, j)] = {k - 1: F(2) * sign}
    assert im.products[R.BRACKET] == expected

    malcev = check(im, C.HOM_MALCEV)
    assert malcev.passed
    assert malcev.tuples_checked == 7 ** 2 + 7 ** 3 + 7 ** 4

    lie = check(im, C.HOM_LIE)
    assert not lie.passed
    assert all(v.identity == "JACOBI" for v in lie.violations)
    assert len(lie.violations) == 168

    assert time.perf_counter() - started <= 10.0


# ---------------------------------------------------------------------------
# gate 2: construction closure over the fixture library
# ---------------------------------------------------------------------------

FIXTURE_LIBRARY = (
    "zero_dim2",        # zero products
    "lie_dim2",         # dim-2 Lie algebra
    "lie_dim2_yau",     # its twist by a diagonal automorphism
    "octonions",        # dim-8 alternative
    "premalcev_sl2",    # pre-Malcev induced by a Rota-Baxter operator
    "quadri_trunc_poly",  # quadri induced by a Rota-Baxter pair
)


def test_g2_fixture_library_passes_declared_classes():
    assert len(FIXTURE_LIBRARY) >= 6
    assert set(FIXTURE_LIBRARY) <= set(fixture_names())
    for name in fixture_names():
        bundle = load_fixture(name)
        if bundle.declared_class is None:
            continue
        assert check(bundle.structure, bundle.declared_class).passed, name


def test_g2_commutator_closure():
    oct8 = load_fixture("octonions").structure
    sub = commutator(oct8)
    assert check(sub, C.HOM_MALCEV).passed
    pm = load_fixture("premalcev_sl2").structure
    assert check(commutator(pm), C.HOM_MALCEV).passed
    zero = load_fixture("zero_dim2").structure
    assert check(zero, C.HOM_MALCEV).passed


def test_g2_yau_twist_closure():
    lie2 = load_fixture("lie_dim2").structure
    gamma = ((F(1), F(0)), (F(0), F(2)))
    twisted = yau_twist(lie2, gamma)
    assert check(twisted, C.HOM_LIE).passed
    stored = load_fixture("lie_dim2_yau").structure
    assert twisted.products == stored.products
    assert twisted.twist == stored.twist

    pm2 = load_fixture("premalcev_dim2").structure
    gamma2 = ((F(2), F(0)), (F(0), F(4)))
    twisted2 = yau_twist(pm2, gamma2)
    assert check(twisted2, C.HOM_PRE_MALCEV).passed
    stored2 = load_fixture("premalcev_dim2_yau").structure
    assert twisted2.products == stored2.products
    assert twisted2.twist == stored2.twist


def test_g2_dual_rep_biduality():
    for name in ("lie_dim2", "lie_dim2_yau"):
        rep = load_fixture(name).reps[0]
        assert check_rep(rep, C.HOM_MALCEV).passed
        for variant in ("alpha", "alpha-inverse"):
            dual = dual_malcev_rep(rep, variant=variant)
            assert check_rep(dual, C.HOM_MALCEV).passed
            bidual = dual_malcev_rep(dual, variant=variant)
            assert bidual.actions == rep.actions
            assert bidual.module_twist == rep.module_twist

    for name in ("premalcev_dim2", "premalcev_sl2"):
        rep = load_fixture(name).reps[0]
        assert check_rep(rep, C.HOM_PRE_MALCEV).passed
        dual = dual_pre_malcev_rep(rep)
        assert check_rep(dual, C.HOM_PRE_MALCEV).passed
        bidual = dual_pre_malcev_rep(dual)
        assert bidual.actions == rep.actions
        assert bidual.module_twist == rep.module_twist


def test_g2_semidirect_closure():
    lie2 = load_fixture("lie_dim2")
    sd = semidirect(lie2.structure, lie2.reps[0])
    assert sd.dim == 4
    assert check(sd, C.HOM_MALCEV).passed

    pm2 = load_fixture("premalcev_dim2")
    sd_pm = semidirect(pm2.structure, pm2.reps[0])
    assert check(sd_pm, C.HOM_PRE_MALCEV).passed

    pa = load_fixture("prealt_t2")
    sd_pa = semidirect(pa.structure, pa.reps[0])
    assert check(sd_pa, C.HOM_PRE_ALTERNATIVE).passed


def test_g2_triangle_product_constructions():
    md = load_fixture("mdendri_sl2").structure
    hor = horizontal(md)
    ver = vertical(md)
    assert check(hor, C.HOM_PRE_MALCEV).passed
    assert check(ver, C.HOM_PRE_MALCEV).passed
    assert check(transpose(md), C.HOM_M_DENDRIFORM).passed
    assert check(commutator(hor), C.HOM_MALCEV).passed

    # bimodule: left action by the left triangle, right action by the right
    # triangle, over the horizontal recombination
    n = md.dim
    tlg = tensor_grid(md.products[R.TRI_LEFT], n)
    trg = tensor_grid(md.products[R.TRI_RIGHT], n)
    left = tuple(
        tuple(tuple((tlg[i][b] or {}).get(r, F(0)) for b in range(n))
              for r in range(n))
        for i in range(n)
    )
    right = tuple(
        tuple(tuple((trg[b][i] or {}).get(r, F(0)) for b in range(n))
              for r in range(n))
        for i in range(n)
    )
    bimod = Representation(base=hor, module_dim=n,
                           module_twist=mat_identity(n),
                           actions={A.LEFT: support.slice_tensor(left),
                                    A.RIGHT: support.slice_tensor(right)})
    assert check_rep(bimod, C.HOM_PRE_MALCEV).passed


def test_g2_operator_dendrify_closure():
    sl2 = load_fixture("sl2_malcev")
    for witness in sl2.operators:
        pm = induce(sl2.structure, witness, "malcev-to-premalcev-rb")
        assert check(pm, C.HOM_PRE_MALCEV).passed

    pm_sl2 = load_fixture("premalcev_sl2")
    md = induce(pm_sl2.structure, pm_sl2.operators[0],
                "premalcev-to-mdendriform-rb")
    assert check(md, C.HOM_M_DENDRIFORM).passed

    t2 = load_fixture("assoc_t2")
    pa = induce(t2.structure, t2.operators[0], "alternative-to-prealt-rb")
    assert check(pa, C.HOM_PRE_ALTERNATIVE).passed
    quad = induce(pa, t2.operators[1], "prealt-to-quadri-rb")
    assert check(quad, C.HOM_ALT_QUADRI).passed

    tp = load_fixture("assoc_trunc_poly")
    pa_tp = induce(tp.structure, tp.operators[0], "alternative-to-prealt-rb")
    assert check(pa_tp, C.HOM_PRE_ALTERNATIVE).passed

    # the relative-operator routes agree with the Rota-Baxter routes
    reg = adjoint_rep(sl2.structure)
    w = OperatorWitness(kind=KIND_O_OPERATOR,
                        matrix=sl2.operators[0].matrix, rep=reg)
    pm_o = induce(sl2.structure, w, "malcev-to-premalcev-oop")
    pm_r = induce(sl2.structure, sl2.operators[0], "malcev-to-premalcev-rb")
    assert pm_o.products == pm_r.products


def test_g2_pair_induction_closure():
    sl2 = load_fixture("sl2_malcev")
    md = induce_pair(sl2.structure, sl2.operators[0], sl2.operators[1],
                     "malcev-pair-to-mdendriform")
    assert check(md, C.HOM_M_DENDRIFORM).passed
    assert md.products == load_fixture("mdendri_sl2").structure.products

    tp = load_fixture("assoc_trunc_poly")
    quad = induce_pair(tp.structure, tp.operators[0], tp.operators[0],
                       "alternative-pair-to-quadri")
    assert check(quad, C.HOM_ALT_QUADRI).passed
    assert quad.products == load_fixture("quadri_trunc_poly").structure.products

    t2 = load_fixture("assoc_t2")
    quad_t2 = induce_pair(t2.structure, t2.operators[0], t2.operators[1],
                          "alternative-pair-to-quadri")
    assert check(quad_t2, C.HOM_ALT_QUADRI).passed


def test_g2_quadri_split_closure():
    quad = load_fixture("quadri_trunc_poly").structure
    md = quadri_split(quad, "mdendriform")
    assert check(md, C.HOM_M_DENDRIFORM).passed
    hor = quadri_split(quad, "prealt-horizontal")
    ver = quadri_split(quad, "prealt-vertical")
    assert check(hor, C.HOM_PRE_ALTERNATIVE).passed
    assert check(ver, C.HOM_PRE_ALTERNATIVE).passed
    # both splittings recombine to the same total product
    total_h = tensor_add(hor.products[R.PREC], hor.products[R.SUCC])
    total_v = tensor_add(ver.products[R.PREC], ver.products[R.SUCC])
    assert total_h == total_v == derived_product(quad, R.STAR)
    assert check(make_structure(quad.dim, twist=quad.twist,
                                products={R.STAR: total_h}),
                 C.HOM_ALTERNATIVE).passed


def test_g2_invertible_operator_compatibility():
    """An invertible relative operator over the bimodule of a splitting
    reproduces that splitting, and the two halves recombine to the product
    they split."""
    pm_sl2 = load_fixture("premalcev_sl2")
    md = induce(pm_sl2.structure, pm_sl2.operators[0],
                "premalcev-to-mdendriform-rb")
    n = md.dim
    hdot = tensor_add(md.products[R.TRI_RIGHT], md.products[R.TRI_LEFT])
    horiz = make_structure(n, products={R.DOT: hdot})
    tlg = tensor_grid(md.products[R.TRI_LEFT], n)
    trg = tensor_grid(md.products[R.TRI_RIGHT], n)
    left = tuple(
        tuple(tuple((tlg[i][b] or {}).get(r, F(0)) for b in range(n))
              for r in range(n))
        for i in range(n)
    )
    right = tuple(
        tuple(tuple((trg[b][i] or {}).get(r, F(0)) for b in range(n))
              for r in range(n))
        for i in range(n)
    )
    bimod = Representation(base=horiz, module_dim=n,
                           module_twist=mat_identity(n),
                           actions={A.LEFT: support.slice_tensor(left),
                                    A.RIGHT: support.slice_tensor(right)})
    assert check_rep(bimod, C.HOM_PRE_MALCEV).passed
    ident = OperatorWitness(kind=KIND_O_OPERATOR, matrix=mat_identity(n),
                            rep=bimod)
    assert check_operator(horiz, ident).passed
    back = induce(horiz, ident, "premalcev-compatible-dendriform")
    assert check(back, C.HOM_M_DENDRIFORM).passed
    assert back.products[R.TRI_LEFT] == md.products[R.TRI_LEFT]
    assert back.products[R.TRI_RIGHT] == md.products[R.TRI_RIGHT]
    assert tensor_add(back.products[R.TRI_RIGHT],
                      back.products[R.TRI_LEFT]) == hdot


def test_g2_hessian_dendrify_closure():
    pm2 = load_fixture("premalcev_dim2")
    md = hessian_dendrify(pm2.structure, pm2.forms[0])
    assert check(md, C.HOM_M_DENDRIFORM).passed
    assert tensor_add(md.products[R.TRI_RIGHT], md.products[R.TRI_LEFT]) \
        == pm2.structure.products[R.DOT]


# ---------------------------------------------------------------------------
# gate 3: a representation is valid iff its semidirect product is
# ---------------------------------------------------------------------------

def test_g3_semidirect_validity_equivalence():
    lie2 = load_fixture("lie_dim2")
    rep = lie2.reps[0]
    assert rep.actions == adjoint_rep(lie2.structure).actions

    assert check_rep(rep, C.HOM_MALCEV).passed
    assert check(semidirect(lie2.structure, rep), C.HOM_MALCEV).passed

    # bump a single action entry by +1: both sides must fail together
    rho = support.tensor_slices(rep.actions[A.RHO], lie2.structure.dim, rep.module_dim)
    bumped = tuple(
        tuple(
            tuple(val + 1 if (i, r, b) == (0, 0, 0) else val
                  for b, val in enumerate(row))
            for r, row in enumerate(mat)
        )
        for i, mat in enumerate(rho)
    )
    bad = Representation(base=lie2.structure, module_dim=rep.module_dim,
                         module_twist=rep.module_twist,
                         actions={A.RHO: support.slice_tensor(bumped)})
    assert not check_rep(bad, C.HOM_MALCEV).passed
    assert not check(semidirect(lie2.structure, bad), C.HOM_MALCEV).passed


# ---------------------------------------------------------------------------
# gate 4: the construction diagram commutes on the octonions
# ---------------------------------------------------------------------------

def test_g4_diagram_commutes_on_octonions():
    bundle = load_fixture("octonions")
    first, second = bundle.operators
    # the pre-build sparse search found exactly one commuting pair: (0, 0)
    assert oracles.OCT_RB_PAIR == ((), ())
    zero = tuple(tuple(F(0) for _ in range(8)) for _ in range(8))
    assert first.matrix == zero and second.matrix == zero

    report = verify_diagram(bundle.structure, first, second)
    assert report.paths_equal is True
    assert sorted(report.nodes) == ["alternative", "m-dendriform", "malcev",
                                    "pre-alternative", "pre-malcev", "quadri"]
    assert all(node.passed for node in report.nodes.values())
    assert len(report.edges) == 9
    assert all(ok for _, ok in report.edges)


# ---------------------------------------------------------------------------
# gate 5: literal triangle-product tables
# ---------------------------------------------------------------------------

def test_g5_dim4_table_relations():
    bundle = load_fixture("table_dim4")
    s = bundle.structure
    assert bundle.declared_class is None
    assert s.basis == ("e1", "e2", "e3", "e4")
    assert s.twist == mat_identity(4)
    tr = s.products[R.TRI_RIGHT]
    tl = s.products[R.TRI_LEFT]
    assert tr == support.tensor((0, 1, 2, 1), (1, 0, 2, -1))
    assert tl == support.tensor((0, 0, 3, 1), (0, 1, 1, -1),
                                (0, 2, 2, 1), (0, 3, 3, -1))
    # the pointed product is skew: e1|>e2 = -(e2|>e1), and globally
    assert tr[(0, 1)] == {2: F(1)} and tr[(1, 0)] == {2: F(-1)}
    assert tensor_flip(tr) == tensor_neg(tr)
    # only the first basis element acts on the left of <|
    assert {i for (i, _) in tl} == {0}


def test_g5_dim5_table_relations():
    bundle = load_fixture("table_dim5")
    s = bundle.structure
    assert bundle.declared_class is None
    assert s.basis == ("e1", "e2", "e3", "e4", "e5")
    assert s.twist == mat_identity(5)
    tr = s.products[R.TRI_RIGHT]
    tl = s.products[R.TRI_LEFT]
    assert tr == support.tensor((0, 3, 2, 1), (3, 0, 2, -1))
    assert tl == support.tensor((0, 0, 1, -2), (0, 1, 2, -1),
                                (0, 3, 1, 1), (0, 4, 2, -2))
    # e1|>e4 = -(e4|>e1), and the pointed product is skew everywhere
    assert tr[(0, 3)] == {2: F(1)} and tr[(3, 0)] == {2: F(-1)}
    assert tensor_flip(tr) == tensor_neg(tr)
    assert {i for (i, _) in tl} == {0}


# ---------------------------------------------------------------------------
# gate 6: determinism over randomized bundles
# ---------------------------------------------------------------------------

ROLE_CLASS_CHOICES = (
    ((R.BRACKET,), C.HOM_MALCEV),
    ((R.DOT,), C.HOM_PRE_MALCEV),
    ((R.STAR,), C.HOM_ALTERNATIVE),
    ((R.TRI_LEFT, R.TRI_RIGHT), C.HOM_M_DENDRIFORM),
    ((R.PREC, R.SUCC), C.HOM_PRE_ALTERNATIVE),
    ((R.NW, R.NE, R.SW, R.SE), C.HOM_ALT_QUADRI),
)


def _rand_fraction(rng):
    return F(rng.randint(-4, 4), rng.choice((1, 2, 3)))


def _rand_matrix(rng, rows, cols):
    return tuple(tuple(_rand_fraction(rng) for _ in range(cols))
                 for _ in range(rows))


def _rand_tensor(rng, dim):
    tensor = {}
    for _ in range(rng.randint(0, 2 * dim)):
        i, j, k = (rng.randrange(dim) for _ in range(3))
        val = _rand_fraction(rng)
        if val:
            tensor.setdefault((i, j), {})[k] = val
    return tensor


def _rand_bundle(rng):
    roles, cls = rng.choice(ROLE_CLASS_CHOICES)
    dim = rng.randint(1, 3)
    structure = make_structure(
        dim,
        twist=_rand_matrix(rng, dim, dim),
        products={role: _rand_tensor(rng, dim) for role in roles},
        meta={"seeded": str(rng.randrange(10 ** 6))},
    )
    reps = ()
    operators = []
    if roles == (R.BRACKET,) and rng.random() < 0.5:
        m = rng.randint(1, 3)
        rep = Representation(
            base=structure, module_dim=m,
            module_twist=_rand_matrix(rng, m, m),
            actions={A.RHO: support.slice_tensor(_rand_matrix(rng, m, m)
                                                 for _ in range(dim))},
        )
        reps = (rep,)
        if rng.random() < 0.5:
            operators.append(OperatorWitness(
                kind=KIND_O_OPERATOR, matrix=_rand_matrix(rng, dim, m),
                rep=rep))
    if rng.random() < 0.5:
        operators.append(OperatorWitness(
            kind=KIND_ROTA_BAXTER, matrix=_rand_matrix(rng, dim, dim),
            weight=_rand_fraction(rng)))
    forms = ()
    if R.DOT in roles and rng.random() < 0.5:
        forms = (BilinearForm(matrix=_rand_matrix(rng, dim, dim)),)
    declared = cls if rng.random() < 0.7 else None
    return Bundle(structure=structure, declared_class=declared, reps=reps,
                  operators=tuple(operators), forms=forms), cls


def test_g6_serialization_round_trip_100_random_bundles():
    rng = random.Random(20260815)
    for _ in range(100):
        bundle, cls = _rand_bundle(rng)
        text = dumps_bundle(bundle)
        again = loads_bundle(text)
        assert dumps_bundle(again) == text
        # the identity report over the reloaded structure is byte-identical
        first = json.dumps(check_payload(check(bundle.structure, cls)))
        second = json.dumps(check_payload(check(again.structure, cls)))
        assert first == second


def test_g6_repeated_cli_checks_byte_identical(tmp_path, capsys):
    rng = random.Random(992)
    for n in range(5):
        bundle, cls = _rand_bundle(rng)
        path = tmp_path / f"rand{n}.json"
        path.write_text(dumps_bundle(bundle), encoding="utf-8")
        argv = ["check", str(path), "--class", cls.value, "--format", "json"]
        status1 = main(list(argv))
        out1 = capsys.readouterr().out
        status2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert status1 == status2
        assert out1 == out2
        assert json.loads(out1)["exit_status"] == status1


# ---------------------------------------------------------------------------
# gate 7: dim-10 single-class sweep within the time budget
# ---------------------------------------------------------------------------

def test_g7_dim10_full_sweep_within_60s():
    """Three diagonal copies of the dim-3 two-triangle fixture plus one inert
    coordinate: a nonzero dim-10 structure whose heaviest class check (four
    4-ary identities, 4 * 10^4 evaluations) must fit the budget."""
    md = load_fixture("mdendri_sl2").structure
    assert md.twist == mat_identity(3)
    entries = {R.TRI_LEFT: [], R.TRI_RIGHT: []}
    for offset in (0, 3, 6):
        for role, bucket in entries.items():
            for (i, j), col in md.products[role].items():
                for k, val in col.items():
                    bucket.append((i + offset, j + offset, k + offset, val))
    big = make_structure(
        10,
        products={role: support.tensor(*bucket)
                  for role, bucket in entries.items()},
    )
    assert any(big.products[role] for role in (R.TRI_LEFT, R.TRI_RIGHT))

    started = time.perf_counter()
    report = check(big, C.HOM_M_DENDRIFORM)
    elapsed = time.perf_counter() - started
    assert report.passed
    assert report.tuples_checked == 4 * 10 ** 4
    assert elapsed <= 60.0
