"""Differential tests of exact residuals: every violation ``check`` and
``check_rep`` report on random rational structures is compared with a
plain-``Fraction`` dense evaluation written out here, entry by entry.

The evaluators below use only ``fractions.Fraction`` and dense lists; they
share no code with the engine's integer kernels.  The structures are drawn
so that checks fail almost always, so the residual values themselves, and
not only the verdicts, are tested.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from homalg import (
    ActionRole,
    ProductRole,
    Representation,
    StructureClass,
    check,
    check_rep,
    make_structure,
)

F = Fraction

#: pairwise coprime denominators up to 2^40 (primes below 2^20, 2^31, 2^39
#: and 2^40), so sums of unrelated entries need the full product as their
#: common denominator
COPRIME_DENS = (1, 2, 3, 5, 7, 1048573, 2147483647, 549755813881,
                1099511627689)

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
    return [sum((x[i] * y[j] * c[i][j][k] for i in range(n) for j in range(n)),
                F(0)) for k in range(n)]


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


def structure_of(cls, c, a):
    role = ProductRole.BRACKET if cls == "hom-lie" else ProductRole.STAR
    n = len(a)
    table = {(i, j): {k: c[i][j][k] for k in range(n)}
             for i in range(n) for j in range(n)}
    return make_structure(n, twist=a, products={role: table})


def assert_fraction_residuals(report):
    for v in report.violations:
        assert v.residual
        assert all(type(x) is Fraction and x for x in v.residual.values())


# ---------------------------------------------------------------------------
# class identities
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
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
    rho(a x) beta = beta rho(x) and
    rho([[x,y],a z]) beta^2 = rho(a^2 x) rho(a y) rho(z)
        - rho(a^2 z) rho(a x) rho(y) + rho(a^2 y) rho([z,x]) beta
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
        lhs = matmul(r(br(br(e[i], e[j]), al[k])), beta2)
        rhs = matsum(
            matmul(matmul(r(al2[i]), r(al[j])), rho[k]),
            matmul(matmul(r(al2[k]), r(al[i])), rho[j]),
            matmul(matmul(r(al2[j]), r(br(e[k], e[i]))), beta),
            matmul(matmul(r(apply(a, br(e[j], e[k]))), r(al[i])), beta),
            signs=[1, -1, 1, -1],
        )
        out[("MREP-4T", (i, j, k))] = matsum(lhs, rhs, signs=[1, -1])
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.data())
def test_check_rep_residual_columns_match_dense_fraction_evaluation(m, data):
    n = 2
    c = data.draw(table_st(n))
    a = data.draw(dense_st(n, n))
    rho = data.draw(st.lists(dense_st(m, m), min_size=n, max_size=n))
    beta = data.draw(dense_st(m, m))
    base = structure_of("hom-lie", c, a)
    rep = Representation(base=base, module_dim=m, module_twist=beta,
                         actions={ActionRole.RHO: rho})
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
