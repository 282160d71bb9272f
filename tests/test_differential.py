"""Differential tests of exact residuals: every violation ``check``,
``check_rep``, ``check_operator``, ``check_morphism`` and ``check_hessian``
report on random rational inputs is compared with a plain-``Fraction`` dense
evaluation written out here, entry by entry.

The evaluators below use only ``fractions.Fraction`` and dense lists; they
share no code with the engine's integer kernels.  The structures are drawn
so that checks fail almost always, so the residual values themselves, and
not only the verdicts, are tested.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import support
from homalg import (
    KIND_O_OPERATOR,
    KIND_ROTA_BAXTER,
    ActionRole,
    BilinearForm,
    OperatorWitness,
    ProductRole,
    Representation,
    StructureClass,
    check,
    check_hessian,
    check_morphism,
    check_operator,
    check_rep,
    load_bundle,
    make_structure,
    regular_pre_malcev_rep,
)
from homalg import structures
from homalg.fixtures import fixture_path
from homalg.structures import _CLASS_IDENTITIES
from support import slice_tensor, tensor_slices

F = Fraction

#: pairwise coprime denominators up to 2^40 (primes below 2^20, 2^31, 2^39
#: and 2^40), so sums of unrelated entries need the full product as their
#: common denominator
COPRIME_DENS = (1, 2, 3, 5, 7, 1048573, 2147483647, 549755813881,
                1099511627689)

#: every test here runs without hypothesis's shrink phase and reports the
#: first failing example it draws.  One evaluation of a dense oracle takes up
#: to 0.1 s, and shrinking an example of a hundred rationals takes thousands
#: of them, so a failure would stop only at hypothesis's five-minute cap.
#: The residuals are exact and the assertion names every differing
#: ``(identity, args)``, so an unshrunk example loses little.
UNSHRUNK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)

rational_st = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, 9), st.sampled_from(COPRIME_DENS)),
    st.builds(F, st.integers(-(2 ** 40), 2 ** 40), st.sampled_from(COPRIME_DENS)),
    st.builds(F, st.integers(-(2 ** 40), 2 ** 40), st.integers(1, 2 ** 40)),
)


def dense_st(rows: int, cols: int):
    return st.lists(st.lists(rational_st, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def table_st(n: int):
    """Structure constants ``c[i][j][k]``: the k-th coordinate of e_i e_j."""
    return st.lists(dense_st(n, n), min_size=n, max_size=n)


# ---------------------------------------------------------------------------
# plain-Fraction dense evaluation
# ---------------------------------------------------------------------------

def basis(n, i):
    return [F(int(j == i)) for j in range(n)]


def apply(a, x):
    """The matrix ``a`` (columns are images of basis vectors) applied to x."""
    return [sum((a[r][c] * x[c] for c in range(len(x))), F(0))
            for r in range(len(a))]


def mult(c, x, y):
    n = len(x)
    out = [F(0)] * n
    for i, j in itertools.product(range(n), repeat=2):
        if x[i] and y[j] and any(c[i][j]):
            xy = x[i] * y[j]
            out = [o + xy * v if v else o for o, v in zip(out, c[i][j])]
    return out


def plus(*vs):
    return [sum(col, F(0)) for col in zip(*vs)]


def minus(u, v):
    return [a - b for a, b in zip(u, v)]


def matmul(a, b):
    return [[sum((a[r][s] * b[s][t] for s in range(len(b))), F(0))
             for t in range(len(b[0]))] for r in range(len(a))]


def matsum(*ms, signs=None):
    signs = signs or [1] * len(ms)
    return [[sum((s * m[r][t] for s, m in zip(signs, ms)), F(0))
             for t in range(len(ms[0][0]))] for r in range(len(ms[0]))]


def lincomb(x, mats):
    """``rho(x)`` for slices ``mats``: the sum of x_s * mats[s]."""
    return matsum(*[[[x[s] * v for v in row] for row in mats[s]]
                    for s in range(len(x))])


def identity_residuals(cls, c, a):
    """{(label, args): dense residual} for every tuple of ``cls``."""
    n = len(a)
    e = [basis(n, i) for i in range(n)]
    al = [apply(a, e[i]) for i in range(n)]

    def asc(i, j, k):
        return minus(mult(c, mult(c, e[i], e[j]), al[k]),
                     mult(c, al[i], mult(c, e[j], e[k])))

    out = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        if cls == "hom-associative":
            out[("ASSOC", (i, j, k))] = asc(i, j, k)
        elif cls == "hom-alternative":
            out[("ALT-L", (i, j, k))] = plus(asc(i, j, k), asc(j, i, k))
            out[("ALT-R", (i, j, k))] = plus(asc(i, j, k), asc(i, k, j))
        else:
            br = [[mult(c, e[p], e[q]) for q in range(n)] for p in range(n)]
            out[("JACOBI", (i, j, k))] = plus(mult(c, br[i][j], al[k]),
                                             mult(c, br[j][k], al[i]),
                                             mult(c, br[k][i], al[j]))
            if k == 0:
                out[("SKEW", (i, j))] = plus(br[i][j], br[j][i])
    return out


def sparse(v):
    return {k: x for k, x in enumerate(v) if x}


def tensor_of(c):
    n = len(c)
    return {(i, j): {k: c[i][j][k] for k in range(n)}
            for i in range(n) for j in range(n)}


def structure_of(cls, c, a):
    role = ProductRole.BRACKET if cls == "hom-lie" else ProductRole.STAR
    return make_structure(len(a), twist=a, products={role: tensor_of(c)})


def assert_fraction_residuals(report):
    for v in report.violations:
        assert v.residual
        assert all(type(x) is Fraction and x for x in v.residual.values())


# ---------------------------------------------------------------------------
# class identities
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None, phases=UNSHRUNK)
@given(st.sampled_from(["hom-associative", "hom-alternative", "hom-lie"]),
       st.integers(2, 3).flatmap(lambda n: st.tuples(table_st(n), dense_st(n, n))))
def test_check_residuals_match_dense_fraction_evaluation(cls, data):
    c, a = data
    report = check(structure_of(cls, c, a), StructureClass(cls))
    want = {key: sparse(res) for key, res in identity_residuals(cls, c, a).items()}
    got = {(v.identity, v.args): v.residual for v in report.violations}
    assert got == {key: res for key, res in want.items() if res}
    assert report.tuples_checked == len(want)
    assert report.passed == (not got)
    assert_fraction_residuals(report)


# ---------------------------------------------------------------------------
# Malcev representation axioms
# ---------------------------------------------------------------------------

def malcev_rep_residuals(c, a, rho, beta):
    """{(label, args): dense m x m residual} of the Malcev action laws
    rho(a x) beta = beta rho(x) and, with the brackets in HM-EXP's order,
    -rho([[y,x],a z]) beta^2 = rho(a^2 x) rho(a y) rho(z)
        - rho(a^2 z) rho(a x) rho(y) - rho(a^2 y) rho([x,z]) beta
        - rho(a [y,z]) rho(a x) beta."""
    n = len(a)
    e = [basis(n, i) for i in range(n)]
    al = [apply(a, x) for x in e]
    al2 = [apply(a, x) for x in al]
    beta2 = matmul(beta, beta)

    def r(x):
        return lincomb(x, rho)

    def br(x, y):
        return mult(c, x, y)

    out = {}
    for i in range(n):
        out[("MREP-EQ", (i,))] = matsum(matmul(r(al[i]), beta),
                                        matmul(beta, rho[i]), signs=[1, -1])
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = matmul(r(br(br(e[j], e[i]), al[k])), beta2)
        rhs = matsum(
            matmul(matmul(r(al2[i]), r(al[j])), rho[k]),
            matmul(matmul(r(al2[k]), r(al[i])), rho[j]),
            matmul(matmul(r(al2[j]), r(br(e[i], e[k]))), beta),
            matmul(matmul(r(apply(a, br(e[j], e[k]))), r(al[i])), beta),
            signs=[1, -1, -1, -1],
        )
        out[("MREP-4T", (i, j, k))] = matsum(lhs, rhs, signs=[-1, -1])
    return out


@settings(max_examples=40, deadline=None, phases=UNSHRUNK)
@given(st.integers(1, 2), st.data())
def test_check_rep_residual_columns_match_dense_fraction_evaluation(m, data):
    n = 2
    c = data.draw(table_st(n))
    a = data.draw(dense_st(n, n))
    rho = data.draw(st.lists(dense_st(m, m), min_size=n, max_size=n))
    beta = data.draw(dense_st(m, m))
    base = structure_of("hom-lie", c, a)
    rep = Representation(base=base, module_dim=m, module_twist=beta,
                         actions={ActionRole.RHO: slice_tensor(rho)})
    report = check_rep(rep, StructureClass.HOM_MALCEV)
    want = {}
    for (label, args), res in malcev_rep_residuals(c, a, rho, beta).items():
        for b in range(m):
            col = sparse([res[r][b] for r in range(m)])
            if col:
                want[(label, args + (b,))] = col
    got = {(v.identity, v.args): v.residual for v in report.violations}
    assert got == want
    assert report.tuples_checked == (n + n ** 3) * m
    assert_fraction_residuals(report)


def assert_matches(report, want):
    got = {(v.identity, v.args): v.residual for v in report.violations}
    assert got == {key: sparse(res) for key, res in want.items() if any(res)}
    assert report.tuples_checked == len(want)
    assert report.passed == (not got)
    assert_fraction_residuals(report)


def twist_images(a):
    """Basis vectors, their images under a and their images under a^2."""
    n = len(a)
    e = [basis(n, i) for i in range(n)]
    al = [apply(a, x) for x in e]
    return e, al, [apply(a, x) for x in al]


def bracket_law_residuals(c, a):
    """SKEW, HM-JAC and HM-EXP of the bracket ``c``:
    J(x,y,z) = [[x,y],a z] + [[y,z],a x] + [[z,x],a y],
    HM-JAC(i,j,k) = J(a e_i, a e_j, [e_i,e_k]) - [J(e_i,e_j,e_k), a^2 e_i],
    HM-EXP(i,j,k,l) = [a[e_i,e_k], a[e_j,e_l]] - sum over the four rotations
    (i,j,k,l) -> (j,k,l,i) of [[[e_i,e_j],a e_k],a^2 e_l]."""
    n = len(a)
    e, al, al2 = twist_images(a)

    def br(x, y):
        return mult(c, x, y)

    def jac(x, y, z):
        return plus(br(br(x, y), apply(a, z)), br(br(y, z), apply(a, x)),
                    br(br(z, x), apply(a, y)))

    out = {}
    for i, j in itertools.product(range(n), repeat=2):
        out[("SKEW", (i, j))] = plus(br(e[i], e[j]), br(e[j], e[i]))
    for i, j, k in itertools.product(range(n), repeat=3):
        out[("HM-JAC", (i, j, k))] = minus(jac(al[i], al[j], br(e[i], e[k])),
                                           br(jac(e[i], e[j], e[k]), al2[i]))
    for i, j, k, l in itertools.product(range(n), repeat=4):
        t = (i, j, k, l)
        rot = [br(br(br(e[t[r]], e[t[(r + 1) % 4]]), al[t[(r + 2) % 4]]),
                  al2[t[(r + 3) % 4]]) for r in range(4)]
        out[("HM-EXP", t)] = minus(br(apply(a, br(e[i], e[k])),
                                      apply(a, br(e[j], e[l]))), plus(*rot))
    return out


def commutator_table(c):
    n = len(c)
    return [[[c[i][j][k] - c[j][i][k] for k in range(n)] for j in range(n)]
            for i in range(n)]


@settings(max_examples=25, deadline=None, phases=UNSHRUNK)
@given(st.sampled_from(["hom-malcev", "hom-malcev-admissible"]),
       st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(table_st(n), dense_st(n, n))))
def test_bracket_law_residuals_match_dense_fraction_evaluation(cls, data):
    """At dim 2 a commutator bracket makes HM-JAC's Jacobian term and
    HM-EXP's first term vanish identically, so dim 3 is drawn too."""
    c, a = data
    role = ProductRole.BRACKET if cls == "hom-malcev" else ProductRole.STAR
    structure = make_structure(len(a), twist=a, products={role: tensor_of(c)})
    bracket = c if cls == "hom-malcev" else commutator_table(c)
    assert_matches(check(structure, StructureClass(cls)),
                   bracket_law_residuals(bracket, a))


def pre_malcev_law_residuals(c, a):
    """HPM of the dot product ``c`` with commutator [x,y] = xy - yx:
    (a[e_j,e_k])(a(e_i e_l)) + [[e_i,e_j],a e_k](a^2 e_l)
    + (a^2 e_j)([e_i,e_k](a e_l)) - (a^2 e_i)((a e_j)(e_k e_l))
    + (a^2 e_k)((a e_i)(e_j e_l))."""
    n = len(a)
    e, al, al2 = twist_images(a)

    def d(x, y):
        return mult(c, x, y)

    def com(x, y):
        return minus(d(x, y), d(y, x))

    out = {}
    for i, j, k, l in itertools.product(range(n), repeat=4):
        out[("HPM", (i, j, k, l))] = plus(
            d(apply(a, com(e[j], e[k])), apply(a, d(e[i], e[l]))),
            d(com(com(e[i], e[j]), al[k]), al2[l]),
            d(al2[j], d(com(e[i], e[k]), al[l])),
            [-x for x in d(al2[i], d(al[j], d(e[k], e[l])))],
            d(al2[k], d(al[i], d(e[j], e[l]))),
        )
    return out


def pre_malcev_expanded_residuals(c, a):
    """HPM with every commutator of :func:`pre_malcev_law_residuals` written
    out, ten products of the dot product ``c`` alone:
    (a(e_j e_k))(a(e_i e_l)) - (a(e_k e_j))(a(e_i e_l))
    + ((e_i e_j)(a e_k))(a^2 e_l) - ((e_j e_i)(a e_k))(a^2 e_l)
    - ((a e_k)(e_i e_j))(a^2 e_l) + ((a e_k)(e_j e_i))(a^2 e_l)
    + (a^2 e_j)((e_i e_k)(a e_l)) - (a^2 e_j)((e_k e_i)(a e_l))
    - (a^2 e_i)((a e_j)(e_k e_l)) + (a^2 e_k)((a e_i)(e_j e_l))."""
    n = len(a)
    e, al, al2 = twist_images(a)

    def d(x, y):
        return mult(c, x, y)

    def neg(x):
        return [-v for v in x]

    out = {}
    for i, j, k, l in itertools.product(range(n), repeat=4):
        ail = apply(a, d(e[i], e[l]))
        out[("HPM", (i, j, k, l))] = plus(
            d(apply(a, d(e[j], e[k])), ail),
            neg(d(apply(a, d(e[k], e[j])), ail)),
            d(d(d(e[i], e[j]), al[k]), al2[l]),
            neg(d(d(d(e[j], e[i]), al[k]), al2[l])),
            neg(d(d(al[k], d(e[i], e[j])), al2[l])),
            d(d(al[k], d(e[j], e[i])), al2[l]),
            d(al2[j], d(d(e[i], e[k]), al[l])),
            neg(d(al2[j], d(d(e[k], e[i]), al[l]))),
            neg(d(al2[i], d(al[j], d(e[k], e[l])))),
            d(al2[k], d(al[i], d(e[j], e[l]))),
        )
    return out


@settings(max_examples=25, deadline=None, phases=UNSHRUNK)
@given(st.just(2).flatmap(lambda n: st.tuples(table_st(n), dense_st(n, n))))
def test_pre_malcev_residuals_match_dense_fraction_evaluation(data):
    c, a = data
    structure = make_structure(len(a), twist=a,
                               products={ProductRole.DOT: tensor_of(c)})
    report = check(structure, StructureClass.HOM_PRE_MALCEV)
    assert_matches(report, pre_malcev_law_residuals(c, a))
    assert_matches(report, pre_malcev_expanded_residuals(c, a))


def dense_of(structure, role):
    """The table ``c[i][j][k]`` of the product ``role`` and the twist of
    ``structure``, as dense lists."""
    n = structure.dim
    t = structure.products[role]
    c = [[[t.get((i, j), {}).get(k, F(0)) for k in range(n)] for j in range(n)]
         for i in range(n)]
    return c, [list(row) for row in structure.twist]


def test_pre_malcev_compact_and_expanded_residuals_agree():
    """On a passing fixture, the dim-2 pre-Malcev algebra, its Yau twist and
    a failing dot product, the HPM violations are the nonzero residuals of
    the ten-term expansion."""
    good = load_bundle(fixture_path("premalcev_sl2")).structure
    assert check(good, StructureClass.HOM_PRE_MALCEV).passed
    broken = make_structure(
        2, products={ProductRole.DOT: support.tensor((0, 0, 1, -1), (1, 1, 0, 1))})
    report = check(broken, StructureClass.HOM_PRE_MALCEV)
    assert not report.passed
    for structure in (good, support.premalcev2(), support.premalcev2_yau(), broken):
        assert_matches(check(structure, StructureClass.HOM_PRE_MALCEV),
                       pre_malcev_expanded_residuals(*dense_of(structure, ProductRole.DOT)))


def m_dendriform_residuals(cl, cr, a):
    """MD1-MD4 of the splitting (left ``cl``, right ``cr``) with
    x.y = L(x,y) + R(x,y), x<>y = L(x,y) - R(y,x) and [x,y] = x.y - y.x."""
    n = len(a)
    e, al, al2 = twist_images(a)

    def L(x, y):
        return mult(cl, x, y)

    def R(x, y):
        return mult(cr, x, y)

    def dot(x, y):
        return plus(L(x, y), R(x, y))

    def dia(x, y):
        return minus(L(x, y), R(y, x))

    def com(x, y):
        return minus(dot(x, y), dot(y, x))

    def ap(x):
        return apply(a, x)

    def neg(x):
        return [-v for v in x]

    out = {}
    for i, j, k, l in itertools.product(range(n), repeat=4):
        t = (i, j, k, l)
        out[("MD1", t)] = plus(
            R(dia(al[k], dia(e[j], e[i])), al2[l]),
            neg(R(al2[i], dot(al[j], dot(e[k], e[l])))),
            L(al2[k], R(al[i], dot(e[j], e[l]))),
            L(ap(com(e[j], e[k])), ap(R(e[i], e[l]))),
            neg(L(al2[j], R(dia(e[k], e[i]), al[l]))),
        )
        out[("MD2", t)] = plus(
            L(al2[k], L(al[i], R(e[j], e[l]))),
            neg(R(dia(al[k], dia(e[i], e[j])), al2[l])),
            neg(L(al2[i], R(al[j], dot(e[k], e[l])))),
            neg(R(ap(dia(e[k], e[j])), ap(dot(e[i], e[l])))),
            R(al2[j], dot(com(e[i], e[k]), al[l])),
        )
        out[("MD3", t)] = plus(
            R(al2[k], dot(al[i], dot(e[j], e[l]))),
            R(dia(com(e[i], e[j]), al[k]), al2[l]),
            neg(L(al2[i], L(al[j], R(e[k], e[l])))),
            R(ap(dia(e[j], e[k])), ap(dot(e[i], e[l]))),
            L(al2[j], R(dia(e[i], e[k]), al[l])),
        )
        out[("MD4", t)] = plus(
            L(com(com(e[i], e[j]), al[k]), al2[l]),
            neg(L(al2[i], L(al[j], L(e[k], e[l])))),
            L(al2[k], L(al[i], L(e[j], e[l]))),
            L(ap(com(e[j], e[k])), ap(L(e[i], e[l]))),
            L(al2[j], L(com(e[i], e[k]), al[l])),
        )
    return out


@settings(max_examples=25, deadline=None, phases=UNSHRUNK)
@given(st.just(2).flatmap(
    lambda n: st.tuples(table_st(n), table_st(n), dense_st(n, n))))
def test_m_dendriform_residuals_match_dense_fraction_evaluation(data):
    cl, cr, a = data
    structure = make_structure(len(a), twist=a, products={
        ProductRole.TRI_LEFT: tensor_of(cl), ProductRole.TRI_RIGHT: tensor_of(cr)})
    assert_matches(check(structure, StructureClass.HOM_M_DENDRIFORM),
                   m_dendriform_residuals(cl, cr, a))


def quadri_residuals(nw, sw, ne, se, a):
    """QA1-QA9 from the nine associator kinds
    (x, y, z) -> o1(i1(x, y), a z) - o2(a x, i2(y, z)) built from the four
    quarters and their sums succ = ne + se, prec = nw + sw, vee = se + sw,
    wedge = ne + nw, star = all four."""
    n = len(a)
    e, al, _ = twist_images(a)

    def prod(*tables):
        return lambda x, y: plus(*[mult(t, x, y) for t in tables])

    NW, SW, NE, SE = prod(nw), prod(sw), prod(ne), prod(se)
    succ, prec = prod(ne, se), prod(nw, sw)
    vee, wedge, star = prod(se, sw), prod(ne, nw), prod(nw, sw, ne, se)
    kinds = {
        "r": (NW, NW, NW, star), "l": (SE, star, SE, SE),
        "m": (NW, SE, SE, NW), "n": (NW, NE, NE, prec),
        "w": (NW, SW, SW, wedge), "s": (SW, succ, SE, SW),
        "e": (NE, vee, SE, NE), "ne": (NE, wedge, NE, succ),
        "sw": (SW, prec, SW, vee),
    }

    def asc(kind, i, j, k):
        o1, i1, o2, i2 = kinds[kind]
        return minus(o1(i1(e[i], e[j]), al[k]), o2(al[i], i2(e[j], e[k])))

    laws = [("QA1", "r", "m", 12), ("QA2", "r", "r", 23), ("QA3", "n", "w", 12),
            ("QA4", "n", "ne", 23), ("QA5", "ne", "e", 12),
            ("QA6", "w", "sw", 23), ("QA7", "sw", "s", 12),
            ("QA8", "m", "l", 23), ("QA9", "l", "l", 12)]
    out = {}
    for label, first, second, swap in laws:
        for i, j, k in itertools.product(range(n), repeat=3):
            p = (j, i, k) if swap == 12 else (i, k, j)
            out[(label, (i, j, k))] = plus(asc(first, i, j, k), asc(second, *p))
    return out


@settings(max_examples=25, deadline=None, phases=UNSHRUNK)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(table_st(n), min_size=4, max_size=4), dense_st(n, n))))
def test_alt_quadri_residuals_match_dense_fraction_evaluation(data):
    (nw, sw, ne, se), a = data
    R = ProductRole
    structure = make_structure(len(a), twist=a, products={
        R.NW: tensor_of(nw), R.SW: tensor_of(sw), R.NE: tensor_of(ne),
        R.SE: tensor_of(se)})
    assert_matches(check(structure, StructureClass.HOM_ALT_QUADRI),
                   quadri_residuals(nw, sw, ne, se, a))


def pre_alternative_residuals(cp, cs, a):
    """PA1-PA10 of the splitting (prec ``cp``, succ ``cs``), x*y = p + s."""
    n = len(a)
    e, al, _ = twist_images(a)

    def p(x, y):
        return mult(cp, x, y)

    def s(x, y):
        return mult(cs, x, y)

    def stp(i, j):
        return plus(p(e[i], e[j]), s(e[i], e[j]))

    def pc(i, j):
        return p(e[i], e[j])

    def sc(i, j):
        return s(e[i], e[j])

    out = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        t = (i, j, k)
        out[("PA1", t)] = minus(s(plus(stp(i, j), stp(j, i)), al[k]),
                                plus(s(al[i], sc(j, k)), s(al[j], sc(i, k))))
        out[("PA2", t)] = minus(s(plus(stp(i, k), stp(k, i)), al[j]),
                                plus(s(al[i], sc(k, j)), s(al[k], sc(i, j))))
        out[("PA3", t)] = minus(plus(p(sc(i, k), al[j]), p(pc(k, i), al[j])),
                                plus(s(al[i], pc(k, j)), p(al[k], stp(i, j))))
        out[("PA4", t)] = minus(plus(p(sc(k, i), al[j]), p(pc(i, k), al[j])),
                                plus(p(al[i], stp(k, j)), s(al[k], pc(i, j))))
        out[("PA5", t)] = minus(plus(p(pc(j, i), al[k]), p(sc(i, j), al[k])),
                                plus(p(al[j], stp(i, k)), s(al[i], pc(j, k))))
        out[("PA6", t)] = minus(plus(p(sc(j, k), al[i]), s(stp(j, i), al[k])),
                                plus(s(al[j], pc(k, i)), s(al[j], sc(i, k))))
        out[("PA7", t)] = minus(plus(p(sc(k, j), al[i]), s(stp(k, i), al[j])),
                                plus(s(al[k], pc(j, i)), s(al[k], sc(i, j))))
        out[("PA8", t)] = minus(plus(p(sc(j, i), al[k]), s(stp(j, k), al[i])),
                                plus(s(al[j], pc(i, k)), s(al[j], sc(k, i))))
        out[("PA9", t)] = minus(plus(p(pc(k, j), al[i]), p(pc(k, i), al[j])),
                                p(al[k], plus(stp(i, j), stp(j, i))))
        out[("PA10", t)] = minus(plus(p(pc(i, k), al[j]), p(pc(i, j), al[k])),
                                 p(al[i], plus(stp(k, j), stp(j, k))))
    return out


@settings(max_examples=25, deadline=None, phases=UNSHRUNK)
@given(st.integers(2, 3).flatmap(
    lambda n: st.tuples(table_st(n), table_st(n), dense_st(n, n))))
def test_pre_alternative_residuals_match_dense_fraction_evaluation(data):
    cp, cs, a = data
    structure = make_structure(len(a), twist=a, products={
        ProductRole.PREC: tensor_of(cp), ProductRole.SUCC: tensor_of(cs)})
    assert_matches(check(structure, StructureClass.HOM_PRE_ALTERNATIVE),
                   pre_alternative_residuals(cp, cs, a))


# ---------------------------------------------------------------------------
# class identities on inputs with structured zeros
# ---------------------------------------------------------------------------

def zeros(n):
    return [[F(0)] * n for _ in range(n)]


@st.composite
def block_sum_st(draw, count: int, max_dim: int):
    """``count`` structure-constant tables and a twist, each a direct sum of
    random dim-1/2 blocks (block-diagonal twist), moved by one random signed
    permutation of the basis: e'_{perm[i]} = sign[i] e_i."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3)
                 .filter(lambda s: sum(s) <= max_dim))
    n = sum(sizes)
    tables = [[zeros(n) for _ in range(n)] for _ in range(count)]
    a = zeros(n)
    off = 0
    for b in sizes:
        for t in tables:
            block = draw(table_st(b))
            for i, j, k in itertools.product(range(b), repeat=3):
                t[off + i][off + j][off + k] = block[i][j][k]
        block = draw(dense_st(b, b))
        for r, c in itertools.product(range(b), repeat=2):
            a[off + r][off + c] = block[r][c]
        off += b
    return signed_permutation(draw, tables, a)


def signed_permutation(draw, tables, a):
    """The tables and twist in the basis e'_{perm[i]} = sign[i] e_i, for a
    random signed permutation."""
    n = len(a)
    perm = draw(st.permutations(range(n)))
    sign = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    moved = [[zeros(n) for _ in range(n)] for _ in range(len(tables))]
    for t, m in zip(tables, moved):
        for i, j, k in itertools.product(range(n), repeat=3):
            m[perm[i]][perm[j]][perm[k]] = sign[i] * sign[j] * sign[k] * t[i][j][k]
    ma = zeros(n)
    for r, c in itertools.product(range(n), repeat=2):
        ma[perm[r]][perm[c]] = sign[r] * sign[c] * a[r][c]
    return moved, ma


@st.composite
def masked_st(draw, count: int, max_dim: int):
    """``count`` structure-constant tables and a twist with a random zero mask
    over 60-90% of the entries of each, in a dimension below ``max_dim``: a
    masked input has more nonzero tuples than a block sum of its size."""
    n = draw(st.integers(2, max_dim - 1))
    rnd = draw(st.randoms(use_true_random=False))
    fill = 1 - draw(st.sampled_from((0.6, 0.75, 0.9)))

    def mask(rows):
        return [[x if rnd.random() < fill else F(0) for x in row] for row in rows]

    tables = [[mask(rows) for rows in draw(table_st(n))] for _ in range(count)]
    return tables, mask(draw(dense_st(n, n)))


R_ = ProductRole

#: class -> (product roles, dense evaluation of its identities from the
#: tables of those roles and the twist, largest dimension of a block sum)
SPARSE_CLASSES = {
    "hom-lie": ((R_.BRACKET,), lambda c, a: identity_residuals("hom-lie", c, a), 5),
    "hom-associative": ((R_.STAR,),
                        lambda c, a: identity_residuals("hom-associative", c, a), 5),
    "hom-alternative": ((R_.STAR,),
                        lambda c, a: identity_residuals("hom-alternative", c, a), 5),
    "hom-malcev": ((R_.BRACKET,), bracket_law_residuals, 4),
    "hom-malcev-admissible": (
        (R_.STAR,), lambda c, a: bracket_law_residuals(commutator_table(c), a), 4),
    "hom-pre-malcev": ((R_.DOT,), pre_malcev_law_residuals, 4),
    "hom-m-dendriform": ((R_.TRI_LEFT, R_.TRI_RIGHT), m_dendriform_residuals, 4),
    "hom-pre-alternative": ((R_.PREC, R_.SUCC), pre_alternative_residuals, 5),
    "hom-alt-quadri": ((R_.NW, R_.SW, R_.NE, R_.SE), quadri_residuals, 4),
}


@pytest.mark.parametrize("shape", [block_sum_st, masked_st],
                         ids=["block-sum", "masked"])
@pytest.mark.parametrize("cls", sorted(SPARSE_CLASSES))
@settings(max_examples=10, deadline=None, phases=UNSHRUNK)
@given(data=st.data())
def test_sparse_class_residuals_match_dense_fraction_evaluation(shape, cls, data):
    """Most tuples of these inputs have a zero factor in every term, so a
    sweep that skips tuples (a block sum is split along its blocks) must
    still report every nonzero residual and count every tuple."""
    roles, residuals, max_dim = SPARSE_CLASSES[cls]
    tables, a = data.draw(shape(len(roles), max_dim))
    structure = make_structure(len(a), twist=a, products={
        role: tensor_of(c) for role, c in zip(roles, tables)})
    assert_matches(check(structure, StructureClass(cls)), residuals(*tables, a))


#: numerators near 2**100 over the coprime denominators: every residual
#: bound, and so the slot width of a packed sweep, runs to hundreds of bits
wide_st = st.builds(lambda n, s, d: F(s * n, d), st.integers(2 ** 99, 2 ** 100),
                    st.sampled_from((1, -1)), st.sampled_from(COPRIME_DENS))


@pytest.mark.parametrize("cls", sorted(SPARSE_CLASSES))
@settings(max_examples=4, deadline=None, phases=UNSHRUNK)
@given(data=st.data())
def test_wide_residuals_match_dense_fraction_evaluation(cls, data):
    """Packed residuals at slot widths far past a machine word are exact."""
    roles, residuals, _ = SPARSE_CLASSES[cls]
    n = 2
    wide = st.lists(st.lists(wide_st, min_size=n, max_size=n), min_size=n, max_size=n)
    tables = [data.draw(st.lists(wide, min_size=n, max_size=n)) for _ in roles]
    a = data.draw(wide)
    structure = make_structure(n, twist=a, products={
        role: tensor_of(c) for role, c in zip(roles, tables)})
    identities = _CLASS_IDENTITIES[StructureClass(cls)](structure)
    # (a commutative star has a zero commutator: nothing wide to pack)
    assume(structures._width(structures._Terms(t) for _, _, t in identities) > 200)
    assert_matches(check(structure, StructureClass(cls)), residuals(*tables, a))


@st.composite
def coupled_st(draw, count: int, coupling: str):
    """``count`` tables and a twist whose products alone split the basis into
    the blocks {0} and {1, 2}, joined by one twist entry ``a[0][1]`` or by
    one product output (``e_1 e_2`` has an ``e_0`` coordinate), moved by a
    random signed permutation.  A check must not split them."""
    tables = [[zeros(3) for _ in range(3)] for _ in range(count)]
    a = zeros(3)
    for t in tables:
        t[0][0][0] = draw(rational_st)
        for i, j, k in itertools.product(range(2), repeat=3):
            t[1 + i][1 + j][1 + k] = draw(rational_st)
    a[0][0] = draw(rational_st)
    for r, c in itertools.product(range(2), repeat=2):
        a[1 + r][1 + c] = draw(rational_st)
    nonzero = rational_st.filter(bool)
    if coupling == "twist":
        a[0][1] = draw(nonzero)
    else:
        tables[0][1][2][0] = draw(nonzero)
    return signed_permutation(draw, tables, a)


@pytest.mark.parametrize("coupling", ["twist", "output"])
@pytest.mark.parametrize("cls", sorted(SPARSE_CLASSES))
@settings(max_examples=4, deadline=None, phases=UNSHRUNK)
@given(data=st.data())
def test_coupled_blocks_are_not_split(coupling, cls, data):
    """A twist entry or a product output that joins two product blocks makes
    them one block: every residual, mixed tuples included, is still found."""
    roles, residuals, _ = SPARSE_CLASSES[cls]
    tables, a = data.draw(coupled_st(len(roles), coupling))
    structure = make_structure(3, twist=a, products={
        role: tensor_of(c) for role, c in zip(roles, tables)})
    assert_matches(check(structure, StructureClass(cls)), residuals(*tables, a))


# ---------------------------------------------------------------------------
# pre-Malcev representation axioms
# ---------------------------------------------------------------------------

def pre_malcev_rep_residuals(c, a, ell, arr, beta):
    """The Malcev laws of the left action ``ell`` over the commutator of the
    dot product ``c``, and PMREP-1..4 with rho = ell - arr:
    PMREP-1 = beta r(e_i) - r(a e_i) beta,
    PMREP-2 = r(a^2 e_i) rho(a e_j) rho(e_k) - r((a e_k)(e_j e_i)) beta^2
        + l(a^2 e_j) r(e_k e_i) beta - l(a[e_j,e_k]) r(a e_i) beta
        - l(a^2 e_k) r(a e_i) rho(e_j),
    PMREP-3 = l(a^2 e_j) l(a e_k) r(e_i) - r(a^2 e_i) rho(a e_j) rho(e_k)
        - l(a^2 e_k) r(e_j e_i) beta - r(a(e_k e_i)) rho(a e_j) beta
        + r([e_k,e_j](a e_i)) beta^2,
    PMREP-4 = r((a e_j)(e_k e_i)) beta^2 + r(a^2 e_i) rho([e_j,e_k]) beta
        - l(a^2 e_j) l(a e_k) r(e_i) + r(a(e_j e_i)) rho(a e_k) beta
        + l(a^2 e_k) r(a e_i) rho(e_j)."""
    n = len(a)
    e, al, al2 = twist_images(a)
    beta2 = matmul(beta, beta)
    rho = [matsum(ell[i], arr[i], signs=[1, -1]) for i in range(n)]

    def d(x, y):
        return mult(c, x, y)

    def com(x, y):
        return minus(d(x, y), d(y, x))

    def lo(x):
        return lincomb(x, ell)

    def ro(x):
        return lincomb(x, arr)

    def rh(x):
        return lincomb(x, rho)

    def mm(*ms):
        out = ms[0]
        for m in ms[1:]:
            out = matmul(out, m)
        return out

    out = malcev_rep_residuals(commutator_table(c), a, ell, beta)
    for i in range(n):
        out[("PMREP-1", (i,))] = matsum(matmul(beta, arr[i]),
                                        matmul(ro(al[i]), beta), signs=[1, -1])
    for i, j, k in itertools.product(range(n), repeat=3):
        t = (i, j, k)
        out[("PMREP-2", t)] = matsum(
            mm(ro(al2[i]), rh(al[j]), rho[k]),
            mm(ro(d(al[k], d(e[j], e[i]))), beta2),
            mm(lo(al2[j]), ro(d(e[k], e[i])), beta),
            mm(lo(apply(a, com(e[j], e[k]))), ro(al[i]), beta),
            mm(lo(al2[k]), ro(al[i]), rho[j]),
            signs=[1, -1, 1, -1, -1])
        out[("PMREP-3", t)] = matsum(
            mm(lo(al2[j]), lo(al[k]), arr[i]),
            mm(ro(al2[i]), rh(al[j]), rho[k]),
            mm(lo(al2[k]), ro(d(e[j], e[i])), beta),
            mm(ro(apply(a, d(e[k], e[i]))), rh(al[j]), beta),
            mm(ro(d(com(e[k], e[j]), al[i])), beta2),
            signs=[1, -1, -1, -1, 1])
        out[("PMREP-4", t)] = matsum(
            mm(ro(d(al[j], d(e[k], e[i]))), beta2),
            mm(ro(al2[i]), rh(com(e[j], e[k])), beta),
            mm(lo(al2[j]), lo(al[k]), arr[i]),
            mm(ro(apply(a, d(e[j], e[i]))), rh(al[k]), beta),
            mm(lo(al2[k]), ro(al[i]), rho[j]),
            signs=[1, 1, -1, 1, 1])
    return out


@settings(max_examples=30, deadline=None, phases=UNSHRUNK)
@given(st.integers(1, 2), st.data())
def test_pre_malcev_rep_residual_columns_match_dense_fraction_evaluation(m, data):
    n = 2
    c = data.draw(table_st(n))
    a = data.draw(dense_st(n, n))
    ell = data.draw(st.lists(dense_st(m, m), min_size=n, max_size=n))
    arr = data.draw(st.lists(dense_st(m, m), min_size=n, max_size=n))
    beta = data.draw(dense_st(m, m))
    base = make_structure(n, twist=a, products={ProductRole.DOT: tensor_of(c)})
    rep = Representation(base=base, module_dim=m, module_twist=beta,
                         actions={ActionRole.LEFT: slice_tensor(ell),
                                  ActionRole.RIGHT: slice_tensor(arr)})
    report = check_rep(rep, StructureClass.HOM_PRE_MALCEV)
    want = {}
    for (label, args), res in pre_malcev_rep_residuals(c, a, ell, arr, beta).items():
        for b in range(m):
            col = sparse([res[r][b] for r in range(m)])
            if col:
                want[(label, args + (b,))] = col
    got = {(v.identity, v.args): v.residual for v in report.violations}
    assert got == want
    assert report.tuples_checked == (2 * n + 4 * n ** 3) * m
    assert_fraction_residuals(report)


def test_pruned_rep_sweep_matches_dense_fraction_evaluation(monkeypatch):
    """premalcev_dim2 summed twice, with its regular rep and one entry of its
    right action joining the two blocks: most tuples have an empty factor in
    every term, and the joined rep is swept whole, yet every residual column
    is found.  Its tables are built with exactly the ``grid_mul`` calls of
    two nonzero operands."""
    base = load_bundle(fixture_path("premalcev_dim2")).structure
    assert all(base.twist[r][s] == (r == s) for r in range(base.dim)
               for s in range(base.dim))
    d, n = base.dim, 2 * base.dim
    c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for off in range(0, n, d):
        for (i, j), cell in base.products[ProductRole.DOT].items():
            for k, v in cell.items():
                c[i + off][j + off][k + off] = v
    eye = [[F(int(r == s)) for s in range(n)] for r in range(n)]
    structure = make_structure(n, products={ProductRole.DOT: tensor_of(c)})
    regular = regular_pre_malcev_rep(structure)
    ell, arr = ([[list(row) for row in s] for s in tensor_slices(regular.actions[role], n, n)]
                for role in (ActionRole.LEFT, ActionRole.RIGHT))
    arr[1][2][0] += 1
    rep = Representation(base=structure, module_dim=n, module_twist=eye,
                         actions={ActionRole.LEFT: slice_tensor(ell),
                                  ActionRole.RIGHT: slice_tensor(arr)})

    calls = [0]
    real_mul = structures.grid_mul

    def grid_mul(*args):
        calls[0] += 1
        return real_mul(*args)

    want = {}
    for (label, args), res in pre_malcev_rep_residuals(c, eye, ell, arr, eye).items():
        for b in range(n):
            want[(label, args + (b,))] = [res[r][b] for r in range(n)]
    monkeypatch.setattr(structures, "grid_mul", grid_mul)
    report = check_rep(rep, StructureClass.HOM_PRE_MALCEV)
    assert_matches(report, want)
    assert not report.passed
    assert calls[0] == 92


# ---------------------------------------------------------------------------
# pre-alternative representation axioms
# ---------------------------------------------------------------------------

def assert_matches_columns(report, want, m):
    """``want`` maps (label, args) to a dense m x m residual; the report
    lists its nonzero columns at ``args + (b,)``."""
    cols = {}
    for (label, args), res in want.items():
        for b in range(m):
            cols[(label, args + (b,))] = [res[r][b] for r in range(m)]
    assert_matches(report, cols)


def pre_alternative_rep_residuals(cp, cs, a, lp, rp, ls, rs, beta):
    """PABM-1..10 and PA-EQ-* of the split actions (l_prec, r_prec, l_succ,
    r_succ) with l = l_prec + l_succ, r = r_prec + r_succ, x*y = p + s:
    PABM-1 = l_s(e_i*e_j + e_j*e_i) beta - l_s(a e_i) l_s(e_j) - l_s(a e_j) l_s(e_i),
    PABM-2 = r_s(a e_j) (l + r)(e_i) - l_s(a e_i) r_s(e_j) - r_s(s(e_i,e_j)) beta,
    PABM-3 = r_p(a e_j) (l_s + r_p)(e_i) - l_s(a e_i) r_p(e_j) - r_p(e_i*e_j) beta,
    PABM-4 = r_p(a e_j) (r_s + l_p)(e_i) - l_p(a e_i) r(e_j) - r_s(p(e_i,e_j)) beta,
    PABM-5 = l_p(p(e_j,e_i) + s(e_i,e_j)) beta - l_p(a e_j) l(e_i) - l_s(a e_i) l_p(e_j),
    PABM-6 = r_p(a e_i) l_s(e_j) + l_s(e_j*e_i) beta - l_s(a e_j) (r_p + l_s)(e_i),
    PABM-7 = r_p(a e_i) r_s(e_j) + r_s(a e_j) r(e_i) - r_s(p(e_j,e_i) + s(e_i,e_j)) beta,
    PABM-8 = l_p(s(e_j,e_i)) beta + r_s(a e_i) l(e_j) - l_s(a e_j) (l_p + r_s)(e_i),
    PABM-9 = r_p(a e_i) r_p(e_j) + r_p(a e_j) r_p(e_i) - r_p(e_i*e_j + e_j*e_i) beta,
    PABM-10 = r_p(a e_j) l_p(e_i) + l_p(p(e_i,e_j)) beta - l_p(a e_i) (r + l)(e_j),
    PA-EQ-X = beta X(e_i) - X(a e_i) beta for each of the four actions X."""
    n = len(a)
    e, al, _ = twist_images(a)

    def act(slices):
        return lambda x: lincomb(x, slices)

    Lp, Rp, Ls, Rs = act(lp), act(rp), act(ls), act(rs)

    def L(x):
        return matsum(Lp(x), Ls(x))

    def R(x):
        return matsum(Rp(x), Rs(x))

    def p(i, j):
        return mult(cp, e[i], e[j])

    def s(i, j):
        return mult(cs, e[i], e[j])

    def st(i, j):
        return plus(p(i, j), s(i, j))

    def mm(x, y):
        return matmul(x, y)

    def law(lhs, rhs):
        return matsum(*lhs, *rhs, signs=[1] * len(lhs) + [-1] * len(rhs))

    out = {}
    for i, j in itertools.product(range(n), repeat=2):
        t = (i, j)
        ei, ej = e[i], e[j]
        out[("PABM-1", t)] = law([mm(Ls(plus(st(i, j), st(j, i))), beta)],
                                 [mm(Ls(al[i]), Ls(ej)), mm(Ls(al[j]), Ls(ei))])
        out[("PABM-2", t)] = law([mm(Rs(al[j]), matsum(L(ei), R(ei)))],
                                 [mm(Ls(al[i]), Rs(ej)), mm(Rs(s(i, j)), beta)])
        out[("PABM-3", t)] = law([mm(Rp(al[j]), Ls(ei)), mm(Rp(al[j]), Rp(ei))],
                                 [mm(Ls(al[i]), Rp(ej)), mm(Rp(st(i, j)), beta)])
        out[("PABM-4", t)] = law([mm(Rp(al[j]), Rs(ei)), mm(Rp(al[j]), Lp(ei))],
                                 [mm(Lp(al[i]), R(ej)), mm(Rs(p(i, j)), beta)])
        out[("PABM-5", t)] = law([mm(Lp(p(j, i)), beta), mm(Lp(s(i, j)), beta)],
                                 [mm(Lp(al[j]), L(ei)), mm(Ls(al[i]), Lp(ej))])
        out[("PABM-6", t)] = law([mm(Rp(al[i]), Ls(ej)), mm(Ls(st(j, i)), beta)],
                                 [mm(Ls(al[j]), Rp(ei)), mm(Ls(al[j]), Ls(ei))])
        out[("PABM-7", t)] = law([mm(Rp(al[i]), Rs(ej)), mm(Rs(al[j]), R(ei))],
                                 [mm(Rs(p(j, i)), beta), mm(Rs(s(i, j)), beta)])
        out[("PABM-8", t)] = law([mm(Lp(s(j, i)), beta), mm(Rs(al[i]), L(ej))],
                                 [mm(Ls(al[j]), Lp(ei)), mm(Ls(al[j]), Rs(ei))])
        out[("PABM-9", t)] = law([mm(Rp(al[i]), Rp(ej)), mm(Rp(al[j]), Rp(ei))],
                                 [mm(Rp(plus(st(i, j), st(j, i))), beta)])
        out[("PABM-10", t)] = law([mm(Rp(al[j]), Lp(ei)), mm(Lp(p(i, j)), beta)],
                                  [mm(Lp(al[i]), matsum(R(ej), L(ej)))])
    for label, X in (("left-prec", Lp), ("right-prec", Rp),
                     ("left-succ", Ls), ("right-succ", Rs)):
        for i in range(n):
            out[(f"PA-EQ-{label}", (i,))] = law([mm(beta, X(e[i]))],
                                                [mm(X(al[i]), beta)])
    return out


@settings(max_examples=25, deadline=None, phases=UNSHRUNK)
@given(st.integers(2, 3), st.integers(1, 2), st.data())
def test_pre_alternative_rep_residual_columns_match_dense_fraction_evaluation(
        n, m, data):
    cp, cs = data.draw(table_st(n)), data.draw(table_st(n))
    a = data.draw(dense_st(n, n))
    slices = [data.draw(st.lists(dense_st(m, m), min_size=n, max_size=n))
              for _ in range(4)]
    beta = data.draw(dense_st(m, m))
    base = make_structure(n, twist=a, products={
        ProductRole.PREC: tensor_of(cp), ProductRole.SUCC: tensor_of(cs)})
    A = ActionRole
    rep = Representation(base=base, module_dim=m, module_twist=beta, actions=dict(
        zip((A.LEFT_PREC, A.RIGHT_PREC, A.LEFT_SUCC, A.RIGHT_SUCC), map(slice_tensor, slices))))
    report = check_rep(rep, StructureClass.HOM_PRE_ALTERNATIVE, equivariance=True)
    assert_matches_columns(
        report, pre_alternative_rep_residuals(cp, cs, a, *slices, beta), m)
    assert report.tuples_checked == (10 * n ** 2 + 4 * n) * m


# ---------------------------------------------------------------------------
# representation axioms on inputs with structured zeros
# ---------------------------------------------------------------------------

A_ = ActionRole

#: rep class -> (product roles of the base, action roles, dense evaluation
#: of its axioms from the tables of those roles, the twist, the action
#: slices and the module twist)
REP_CLASSES = {
    "hom-malcev": ((R_.BRACKET,), (A_.RHO,), malcev_rep_residuals),
    "hom-pre-malcev": ((R_.DOT,), (A_.LEFT, A_.RIGHT), pre_malcev_rep_residuals),
    "hom-pre-alternative": ((R_.PREC, R_.SUCC),
                            (A_.LEFT_PREC, A_.RIGHT_PREC, A_.LEFT_SUCC, A_.RIGHT_SUCC),
                            pre_alternative_rep_residuals),
}


def move(x, axes, scale=1):
    """The nested lists ``x`` with each entry ``x[i][j]...`` moved to
    ``[perm[i]][perm'[j]]...`` and scaled by ``sign[i] * sign'[j] * ...``,
    for the ``(perm, sign)`` of each axis in ``axes``."""
    if not axes:
        return scale * x
    (perm, sign), *rest = axes
    out = [None] * len(x)
    for i, row in enumerate(x):
        out[perm[i]] = move(row, rest, scale * sign[i])
    return out


@st.composite
def rep_block_sum_st(draw, cls: str, coupling: str | None):
    """A representation of ``cls`` that is a direct sum of random blocks, each
    of base and module dimension 0-2 (block-diagonal twists and actions, the
    actions with no zero entry inside a block), moved by random signed
    permutations of base and module: ``(sizes, tables, a, slices, beta)``.
    With a ``coupling`` there are two blocks, each with base and module
    vectors, and they are joined by one action entry ``rho(e_i)[r][b]`` with
    ``i`` in the first and ``r``, ``b`` or both in the second, or by one
    module twist entry ``beta[r][b]`` with ``r`` in the first and ``b`` in
    the second."""
    roles, actions, _ = REP_CLASSES[cls]
    if coupling:
        sizes = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)),
                              min_size=2, max_size=2))
    else:
        sizes = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2))
                              .filter(any), min_size=2, max_size=3)
                     .filter(lambda s: 0 < sum(n for n, _ in s) <= 4
                             and 0 < sum(m for _, m in s) <= 4))
    n, m = sum(b for b, _ in sizes), sum(c for _, c in sizes)
    entry = st.builds(F, st.sampled_from([*range(-9, 0), *range(1, 10)]),
                      st.sampled_from(COPRIME_DENS))
    tables = [[zeros(n) for _ in range(n)] for _ in roles]
    a, beta = zeros(n), zeros(m)
    slices = [[zeros(m) for _ in range(n)] for _ in actions]
    off = moff = 0
    for nb, mb in sizes:
        for t in tables:
            block = draw(table_st(nb))
            for i, j, k in itertools.product(range(nb), repeat=3):
                t[off + i][off + j][off + k] = block[i][j][k]
        for size, at, dst in ((nb, off, a), (mb, moff, beta)):
            block = draw(dense_st(size, size))
            for r, c in itertools.product(range(size), repeat=2):
                dst[at + r][at + c] = block[r][c]
        for s, r, c in itertools.product(slices, range(mb), range(mb)):
            for i in range(nb):
                s[off + i][moff + r][moff + c] = draw(entry)
        off, moff = off + nb, moff + mb
    first, second = st.integers(0, sizes[0][1] - 1), st.integers(sizes[0][1], m - 1)
    if coupling == "action":
        i = draw(st.integers(0, sizes[0][0] - 1))
        r, b = draw(st.sampled_from([(second, second), (second, first), (first, second)]))
        draw(st.sampled_from(slices))[i][draw(r)][draw(b)] = draw(entry)
    elif coupling == "module-twist":
        beta[draw(first)][draw(second)] = draw(entry)
    base, mod = ((draw(st.permutations(range(k))),
                  draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k)))
                 for k in (n, m))
    return (sizes, [move(t, [base] * 3) for t in tables], move(a, [base] * 2),
            [move(s, [base, mod, mod]) for s in slices], move(beta, [mod] * 2))


def rep_block_sum_case(cls, data, coupling):
    """Check a drawn block-sum representation of ``cls`` against the dense
    evaluation; returns the base and module dimensions of each sweep, those
    of the drawn blocks and those of the representation."""
    roles, actions, residuals = REP_CLASSES[cls]
    sizes, tables, a, slices, beta = data.draw(rep_block_sum_st(cls, coupling))
    n, m = len(a), len(beta)
    base = make_structure(n, twist=a, products={
        role: tensor_of(c) for role, c in zip(roles, tables)})
    rep = Representation(base=base, module_dim=m, module_twist=beta,
                         actions=dict(zip(actions, map(slice_tensor, slices))))
    swept, real = [], structures._violations

    def violations(identities, dim, *, module_dim):
        swept.append((dim, module_dim))
        return real(identities, dim, module_dim=module_dim)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structures, "_violations", violations)
        report = check_rep(rep, StructureClass(cls), equivariance=True)
    assert_matches_columns(report, residuals(*tables, a, *slices, beta), m)
    return swept, sizes, n, m


@pytest.mark.parametrize("cls", sorted(REP_CLASSES))
@settings(max_examples=10, deadline=None, phases=UNSHRUNK)
@given(data=st.data())
def test_rep_block_sum_residuals_match_dense_fraction_evaluation(cls, data):
    """A representation that is a direct sum is swept one block at a time,
    each block with base and module vectors on its own (the whole if there
    is none), and still reports every residual column of the whole and
    counts every tuple."""
    swept, sizes, n, m = rep_block_sum_case(cls, data, None)
    assert sorted(swept) == (sorted(b for b in sizes if all(b)) or [(n, m)])


@pytest.mark.parametrize("coupling", ["action", "module-twist"])
@pytest.mark.parametrize("cls", sorted(REP_CLASSES))
@settings(max_examples=4, deadline=None, phases=UNSHRUNK)
@given(data=st.data())
def test_rep_coupled_blocks_are_swept_whole(cls, coupling, data):
    """One action entry that acts from one block on another, or one module
    twist entry that maps one block's module into the other's, makes them
    one block: the representation is swept whole and every residual is
    found."""
    swept, _, n, m = rep_block_sum_case(cls, data, coupling)
    assert swept == [(n, m)]


# ---------------------------------------------------------------------------
# operators, morphisms and Hessian forms
# ---------------------------------------------------------------------------

def column(mat, j):
    return [row[j] for row in mat]


def rota_baxter_residuals(tables, r, lam, a):
    """RB-<role> = R e_i * R e_j - R(R e_i * e_j + e_i * R e_j + lam e_i * e_j)
    for every stored product, and RB-TWIST = a R e_i - R a e_i."""
    n = len(a)
    e = [basis(n, i) for i in range(n)]
    re = [apply(r, x) for x in e]
    out = {}
    for role, c in tables.items():
        for i, j in itertools.product(range(n), repeat=2):
            inner = plus(mult(c, re[i], e[j]), mult(c, e[i], re[j]),
                         [lam * v for v in mult(c, e[i], e[j])])
            out[(f"RB-{role.value}", (i, j))] = minus(mult(c, re[i], re[j]),
                                                      apply(r, inner))
    for i in range(n):
        out[("RB-TWIST", (i,))] = minus(apply(a, re[i]), apply(r, apply(a, e[i])))
    return out


ROLE_SETS = ([ProductRole.STAR], [ProductRole.BRACKET],
             [ProductRole.DOT, ProductRole.STAR],
             [ProductRole.PREC, ProductRole.SUCC])


@settings(max_examples=25, deadline=None, phases=UNSHRUNK)
@given(st.integers(2, 3), st.sampled_from(ROLE_SETS), st.data())
def test_rota_baxter_residuals_match_dense_fraction_evaluation(n, roles, data):
    tables = {role: data.draw(table_st(n)) for role in roles}
    a, r = data.draw(dense_st(n, n)), data.draw(dense_st(n, n))
    lam = data.draw(rational_st.filter(bool))
    structure = make_structure(n, twist=a, products={
        role: tensor_of(c) for role, c in tables.items()})
    w = OperatorWitness(kind=KIND_ROTA_BAXTER, matrix=r, weight=lam)
    assert_matches(check_operator(structure, w),
                   rota_baxter_residuals(tables, r, lam, a))


def o_operator_residuals(tables, acts, t, a, beta):
    """OOP-TWIST = column b of a T - T beta, and for each product with its
    action pair (l, r):
    OOP-<role>(x, y) = T e_x * T e_y - T(l(T e_x) e_y + r(T e_y) e_x);
    a rho action is the pair (rho, -rho) on the bracket."""
    n, m = len(a), len(beta)
    f = [basis(m, b) for b in range(m)]
    te = [column(t, b) for b in range(m)]
    twist = matsum(matmul(a, t), matmul(t, beta), signs=[1, -1])
    out = {("OOP-TWIST", (b,)): column(twist, b) for b in range(m)}
    for role, (left, right) in acts.items():
        c = tables[role]
        for x, y in itertools.product(range(m), repeat=2):
            inner = plus(apply(lincomb(te[x], left), f[y]),
                         apply(lincomb(te[y], right), f[x]))
            out[(f"OOP-{role.value}", (x, y))] = minus(mult(c, te[x], te[y]),
                                                       apply(t, inner))
    return out


@pytest.mark.parametrize("kind", ["rho", "left-right", "left-right-star", "four"])
@settings(max_examples=15, deadline=None, phases=UNSHRUNK)
@given(st.integers(2, 3), st.integers(1, 3), st.data())
def test_o_operator_residuals_match_dense_fraction_evaluation(kind, n, m, data):
    A, R = ActionRole, ProductRole

    def slices():
        return data.draw(st.lists(dense_st(m, m), min_size=n, max_size=n))

    if kind == "rho":
        roles, actions = [R.BRACKET], {A.RHO: slices()}
        negrho = [[[-v for v in row] for row in s] for s in actions[A.RHO]]
        pairs = {R.BRACKET: (actions[A.RHO], negrho)}
    elif kind.startswith("left-right"):
        roles = [R.DOT, R.STAR] if kind == "left-right-star" else [R.DOT]
        actions = {A.LEFT: slices(), A.RIGHT: slices()}
        pairs = {role: (actions[A.LEFT], actions[A.RIGHT]) for role in roles}
    else:
        roles = [R.PREC, R.SUCC]
        actions = {role: slices() for role in (A.LEFT_PREC, A.RIGHT_PREC,
                                               A.LEFT_SUCC, A.RIGHT_SUCC)}
        pairs = {R.PREC: (actions[A.LEFT_PREC], actions[A.RIGHT_PREC]),
                 R.SUCC: (actions[A.LEFT_SUCC], actions[A.RIGHT_SUCC])}
    tables = {role: data.draw(table_st(n)) for role in roles}
    a, beta = data.draw(dense_st(n, n)), data.draw(dense_st(m, m))
    t = data.draw(dense_st(n, m))
    structure = make_structure(n, twist=a, products={
        role: tensor_of(c) for role, c in tables.items()})
    rep = Representation(base=structure, module_dim=m, module_twist=beta,
                         actions={role: slice_tensor(s) for role, s in actions.items()})
    w = OperatorWitness(kind=KIND_O_OPERATOR, matrix=t, rep=rep)
    assert_matches(check_operator(structure, w),
                   o_operator_residuals(tables, pairs, t, a, beta))


def morphism_residuals(src_tables, tgt_tables, f, a_src, a_tgt, weak):
    """MORPH-<role> = f(e_i * e_j) - f e_i *' f e_j for every source product
    and, unless ``weak``, MORPH-TWIST = f a e_i - a' f e_i."""
    n = len(a_src)
    e = [basis(n, i) for i in range(n)]
    fe = [apply(f, x) for x in e]
    out = {}
    for role, c in src_tables.items():
        for i, j in itertools.product(range(n), repeat=2):
            out[(f"MORPH-{role.value}", (i, j))] = minus(
                apply(f, mult(c, e[i], e[j])), mult(tgt_tables[role], fe[i], fe[j]))
    if not weak:
        for i in range(n):
            out[("MORPH-TWIST", (i,))] = minus(apply(f, apply(a_src, e[i])),
                                               apply(a_tgt, fe[i]))
    return out


@settings(max_examples=25, deadline=None, phases=UNSHRUNK)
@given(st.integers(2, 3), st.integers(2, 3), st.sampled_from(ROLE_SETS),
       st.booleans(), st.data())
def test_morphism_residuals_match_dense_fraction_evaluation(n, k, roles, weak, data):
    src = {role: data.draw(table_st(n)) for role in roles}
    tgt = {role: data.draw(table_st(k)) for role in roles}
    a_src, a_tgt = data.draw(dense_st(n, n)), data.draw(dense_st(k, k))
    f = data.draw(dense_st(k, n))
    source = make_structure(n, twist=a_src, products={
        role: tensor_of(c) for role, c in src.items()})
    target = make_structure(k, twist=a_tgt, products={
        role: tensor_of(c) for role, c in tgt.items()})
    assert_matches(check_morphism(f, source, target, weak=weak),
                   morphism_residuals(src, tgt, f, a_src, a_tgt, weak))


def determinant(mat):
    """Laplace expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    return sum(((-1) ** c * mat[0][c]
                * determinant([row[:c] + row[c + 1:] for row in mat[1:]])
                for c in range(len(mat))), F(0))


def hessian_residuals(c, a, b):
    """HESS-SYM = b_ij - b_ji for i < j, HESS-INV = (a^T b a - b)_ij and
    HESS-COCYCLE = B(e_i e_j, a e_k) - B(a e_i, e_j e_k) - B(e_j e_i, a e_k)
    + B(a e_j, e_i e_k) with B(u, v) = u^T b v, each a one-entry vector."""
    n = len(a)
    e, al, _ = twist_images(a)

    def form(u, v):
        return sum((u[r] * b[r][s] * v[s] for r in range(n) for s in range(n)), F(0))

    def d(i, j):
        return mult(c, e[i], e[j])

    at = [list(row) for row in zip(*a)]
    inv = matsum(matmul(at, matmul(b, a)), b, signs=[1, -1])
    out = {}
    for i, j in itertools.product(range(n), repeat=2):
        if i < j:
            out[("HESS-SYM", (i, j))] = [b[i][j] - b[j][i]]
        out[("HESS-INV", (i, j))] = [inv[i][j]]
    for i, j, k in itertools.product(range(n), repeat=3):
        out[("HESS-COCYCLE", (i, j, k))] = [
            form(d(i, j), al[k]) - form(al[i], d(j, k))
            - form(d(j, i), al[k]) + form(al[j], d(i, k))]
    return out


small_rational_st = st.builds(F, st.integers(-2, 2), st.sampled_from((1, 2, 3)))


@settings(max_examples=30, deadline=None, phases=UNSHRUNK)
@given(st.integers(2, 3), st.data())
def test_hessian_residuals_match_dense_fraction_evaluation(n, data):
    c = data.draw(table_st(n))
    a = data.draw(dense_st(n, n))
    assume(determinant(a) != 0)
    # small entries make a singular form likely enough to reach HESS-NONDEG
    b = data.draw(st.lists(st.lists(small_rational_st, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    structure = make_structure(n, twist=a, products={ProductRole.DOT: tensor_of(c)})
    report = check_hessian(structure, BilinearForm(matrix=b))
    got = {(v.identity, v.args): v.residual for v in report.violations}
    kernel = got.pop(("HESS-NONDEG", ()), None)
    if determinant(b) == 0:
        assert kernel and all(type(x) is Fraction and x for x in kernel.values())
        assert apply(b, [kernel.get(r, F(0)) for r in range(n)]) == [F(0)] * n
    else:
        assert kernel is None
    want = {key: sparse(res) for key, res in hessian_residuals(c, a, b).items()}
    assert got == {key: res for key, res in want.items() if res}
    assert report.tuples_checked == len(want) + 1
    assert report.passed == (not got and kernel is None)
    assert_fraction_residuals(report)


# ---------------------------------------------------------------------------
# representation, operator, morphism and Hessian laws at wide slot widths
# ---------------------------------------------------------------------------

def wide_law_case(law, data):
    """A check of ``law`` on a dim-2 base (and a dim-2 module) whose entries
    have numerators near 2**100, and the dense evaluation of its residuals:
    the report and ``{(label, args): dense residual}``."""
    n = m = 2
    A, R = ActionRole, ProductRole

    def dense(rows, cols):
        return data.draw(st.lists(st.lists(wide_st, min_size=cols, max_size=cols),
                                  min_size=rows, max_size=rows))

    def table():
        return [dense(n, n) for _ in range(n)]

    def slices():
        return [dense(m, m) for _ in range(n)]

    def columns(want):
        """Each dense m x m residual as its columns, at ``args + (b,)``."""
        return {(label, args + (b,)): [res[r][b] for r in range(m)]
                for (label, args), res in want.items() for b in range(m)}

    c, a, beta = table(), dense(n, n), dense(m, m)
    if law == "rep-malcev":
        rho = slices()
        rep = Representation(base=structure_of("hom-lie", c, a), module_dim=m,
                             module_twist=beta, actions={A.RHO: slice_tensor(rho)})
        return (check_rep(rep, StructureClass.HOM_MALCEV),
                columns(malcev_rep_residuals(c, a, rho, beta)))
    if law == "rep-pre-malcev":
        ell, arr = slices(), slices()
        base = make_structure(n, twist=a, products={R.DOT: tensor_of(c)})
        rep = Representation(base=base, module_dim=m, module_twist=beta,
                             actions={A.LEFT: slice_tensor(ell), A.RIGHT: slice_tensor(arr)})
        return (check_rep(rep, StructureClass.HOM_PRE_MALCEV),
                columns(pre_malcev_rep_residuals(c, a, ell, arr, beta)))
    if law == "rep-pre-alternative":
        cs, four = table(), [slices() for _ in range(4)]
        base = make_structure(n, twist=a, products={R.PREC: tensor_of(c),
                                                    R.SUCC: tensor_of(cs)})
        rep = Representation(base=base, module_dim=m, module_twist=beta, actions=dict(
            zip((A.LEFT_PREC, A.RIGHT_PREC, A.LEFT_SUCC, A.RIGHT_SUCC), map(slice_tensor, four))))
        return (check_rep(rep, StructureClass.HOM_PRE_ALTERNATIVE, equivariance=True),
                columns(pre_alternative_rep_residuals(c, cs, a, *four, beta)))
    if law == "rota-baxter":
        r, lam = dense(n, n), data.draw(wide_st)
        w = OperatorWitness(kind=KIND_ROTA_BAXTER, matrix=r, weight=lam)
        return (check_operator(structure_of("hom-associative", c, a), w),
                rota_baxter_residuals({R.STAR: c}, r, lam, a))
    if law == "morphism":
        tgt, a_tgt, f = table(), dense(n, n), dense(n, n)
        source = structure_of("hom-associative", c, a)
        target = structure_of("hom-associative", tgt, a_tgt)
        return (check_morphism(f, source, target),
                morphism_residuals({R.STAR: c}, {R.STAR: tgt}, f, a, a_tgt, False))
    if law == "multiplicativity":
        want = identity_residuals("hom-associative", c, a)
        for (_, args), res in morphism_residuals({R.STAR: c}, {R.STAR: c}, a, a, a,
                                                 True).items():
            want[("MULT-star", args)] = res
        return (check(structure_of("hom-associative", c, a), StructureClass.HOM_ASSOCIATIVE,
                      multiplicativity=True), want)
    if law == "o-operator-rho":
        rho = slices()
        tables, actions = {R.BRACKET: c}, {A.RHO: rho}
        pairs = {R.BRACKET: (rho, [[[-v for v in row] for row in s] for s in rho])}
    elif law == "o-operator-left-right":
        actions = {A.LEFT: slices(), A.RIGHT: slices()}
        tables, pairs = {R.DOT: c}, {R.DOT: (actions[A.LEFT], actions[A.RIGHT])}
    else:
        actions = {role: slices() for role in (A.LEFT_PREC, A.RIGHT_PREC,
                                               A.LEFT_SUCC, A.RIGHT_SUCC)}
        tables = {R.PREC: c, R.SUCC: table()}
        pairs = {R.PREC: (actions[A.LEFT_PREC], actions[A.RIGHT_PREC]),
                 R.SUCC: (actions[A.LEFT_SUCC], actions[A.RIGHT_SUCC])}
    t = dense(n, m)
    structure = make_structure(n, twist=a, products={
        role: tensor_of(x) for role, x in tables.items()})
    rep = Representation(base=structure, module_dim=m, module_twist=beta,
                         actions={role: slice_tensor(s) for role, s in actions.items()})
    w = OperatorWitness(kind=KIND_O_OPERATOR, matrix=t, rep=rep)
    return check_operator(structure, w), o_operator_residuals(tables, pairs, t, a, beta)


WIDE_LAWS = ["rep-malcev", "rep-pre-malcev", "rep-pre-alternative", "rota-baxter",
             "o-operator-rho", "o-operator-left-right", "o-operator-four",
             "morphism", "multiplicativity"]


def recording_widths(mp):
    """Record the slot width of every sweep that visits a tuple."""
    widths, real = [], structures._width

    def width(sums):
        widths.append(real(sums))
        return widths[-1]

    mp.setattr(structures, "_width", width)
    return widths


@pytest.mark.parametrize("law", WIDE_LAWS)
@settings(max_examples=3, deadline=None, phases=UNSHRUNK)
@given(data=st.data())
def test_wide_law_residuals_match_dense_fraction_evaluation(law, data):
    """Representation axioms, operator, morphism and multiplicativity laws
    are packed like the class identities: exact at slot widths far past a
    machine word."""
    with pytest.MonkeyPatch.context() as mp:
        widths = recording_widths(mp)
        report, want = wide_law_case(law, data)
    assert widths and min(widths) > 200
    assert_matches(report, want)


@settings(max_examples=3, deadline=None, phases=UNSHRUNK)
@given(data=st.data())
def test_wide_hessian_residuals_match_dense_fraction_evaluation(data):
    n = 2
    wide = st.lists(st.lists(wide_st, min_size=n, max_size=n), min_size=n, max_size=n)
    c = data.draw(st.lists(wide, min_size=n, max_size=n))
    a, b = data.draw(wide), data.draw(wide)
    assume(determinant(a) != 0 and determinant(b) != 0)
    structure = make_structure(n, twist=a, products={ProductRole.DOT: tensor_of(c)})
    with pytest.MonkeyPatch.context() as mp:
        widths = recording_widths(mp)
        report = check_hessian(structure, BilinearForm(matrix=b))
    assert widths and min(widths) > 200
    want = {key: sparse(res) for key, res in hessian_residuals(c, a, b).items()}
    got = {(v.identity, v.args): v.residual for v in report.violations}
    assert got == {key: res for key, res in want.items() if res}
    assert report.tuples_checked == len(want) + 1
    assert_fraction_residuals(report)
