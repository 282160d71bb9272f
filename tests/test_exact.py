"""Unit and property tests for the exact-arithmetic core."""
from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from homalg import structures
from homalg.structures import combine
from support import densify, mat_zero, sparse, vector
from homalg.exact import (
    DimensionMismatch,
    Imat,
    Ivec,
    SingularMatrix,
    apply_cols,
    as_fraction,
    as_imat,
    as_ivec,
    grid_mul,
    mat_cols,
    mat_fractions,
    mat_identity,
    mat_inverse,
    mat_kernel_vector,
    mat_lincomb,
    mat_mul,
    mat_shape,
    mat_transpose,
    matrix,
    push_product,
    sv_add,
    sv_fractions,
    sv_pack,
    sv_unpack,
    tensor_from_entries,
    tensor_grid,
    tensor_normalize,
    validate_tensor,
)

F = Fraction

fractions_st = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


def square_matrix_st(n: int):
    return st.lists(
        st.lists(fractions_st, min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(matrix)


def vector_st(n: int):
    return st.lists(fractions_st, min_size=n, max_size=n).map(vector)


def svec(u):
    """The canonical Fraction entries of a kernel's integer vector."""
    return sv_fractions(u)


def mat(m):
    """The canonical Fraction tuple matrix of a kernel's integer matrix."""
    return mat_fractions(m)


def dense_apply(a, v):
    """Plain-Fraction matrix-vector product."""
    return tuple(sum((x * y for x, y in zip(row, v)), F(0)) for row in a)


# ---------------------------------------------------------------------------
# scalars and vectors
# ---------------------------------------------------------------------------

def test_as_fraction_exactness():
    assert as_fraction(3) == F(3)
    assert as_fraction("2/6") == F(1, 3)
    assert as_fraction(F(5, 7)) == F(5, 7)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_matrix_shape_and_identity():
    m = matrix([[1, 2, 3], [4, 5, 6]])
    assert mat_shape(m) == (2, 3)
    assert mat_identity(2) == matrix([[1, 0], [0, 1]])
    assert mat_zero(2, 1) == matrix([[0], [0]])


def test_matrix_arithmetic_small():
    a = matrix([[1, 2], [3, 4]])
    b = matrix([[0, 1], [1, 0]])
    assert mat(mat_lincomb({0: 1, 1: -1}, [a, b], 2, 2)) == matrix([[1, 1], [2, 4]])
    assert mat(mat_mul(a, b)) == matrix([[2, 1], [4, 3]])
    assert mat_transpose(a) == matrix([[1, 3], [2, 4]])


def test_matrix_mul_shape_guard():
    with pytest.raises(DimensionMismatch):
        mat_mul(matrix([[1, 2]]), matrix([[1, 2]]))


def test_mat_inverse_known():
    a = matrix([[1, 2], [3, 4]])
    inv = mat_inverse(a)
    assert inv == matrix([[-2, 1], ["3/2", "-1/2"]])
    assert mat(mat_mul(a, inv)) == mat_identity(2)


def test_mat_inverse_singular():
    with pytest.raises(SingularMatrix):
        mat_inverse(matrix([[1, 2], [2, 4]]))


def test_mat_kernel_vector_cases():
    assert mat_kernel_vector(mat_identity(3)) is None
    k = mat_kernel_vector(matrix([[1, 2], [2, 4]]))
    assert k is not None and k
    # k really is in the kernel
    a = matrix([[1, 2], [2, 4]])
    v = densify(k, 2)
    assert dense_apply(a, v) == (F(0), F(0))
    with pytest.raises(DimensionMismatch):
        mat_kernel_vector(matrix([[1, 2, 3]]))


def test_mat_lincomb():
    mats = [mat_identity(2), matrix([[0, 1], [0, 0]])]
    got = mat_lincomb({0: F(2), 1: F(-1)}, mats, 2, 2)
    assert mat(got) == matrix([[2, -1], [0, 2]])
    assert mat(mat_lincomb({}, mats, 2, 2)) == mat_zero(2, 2)


def test_mat_lincomb_shape_guard():
    """Each matrix combined must be ``rows x cols``; a wrong one was read
    past its end or cut short."""
    with pytest.raises(DimensionMismatch):
        mat_lincomb({0: 1}, [((1, 2),)], 2, 2)
    with pytest.raises(DimensionMismatch):
        mat_lincomb({0: 1, 1: -1}, [mat_identity(2), mat_identity(3)], 2, 2)
    with pytest.raises(DimensionMismatch):
        mat_lincomb({0: 1}, [as_imat(mat_identity(3))], 2, 2)
    with pytest.raises(DimensionMismatch):
        mat_lincomb({0: 1}, [mat_zero(2, 3)], 3, 2)
    assert mat(mat_lincomb({1: 1}, [mat_identity(3), mat_identity(2)], 2, 2)) == mat_identity(2)


@settings(max_examples=60, deadline=None)
@given(square_matrix_st(3))
def test_mat_inverse_round_trip_property(a):
    """Either the matrix is singular with a genuine kernel witness, or the
    inverse is exact in both directions."""
    try:
        inv = mat_inverse(a)
    except SingularMatrix:
        k = mat_kernel_vector(a)
        assert k is not None
        v = densify(k, 3)
        assert dense_apply(a, v) == (F(0),) * 3
        return
    assert mat(mat_mul(a, inv)) == mat_identity(3)
    assert mat(mat_mul(inv, a)) == mat_identity(3)
    assert mat_kernel_vector(a) is None


@settings(max_examples=40, deadline=None)
@given(square_matrix_st(3), square_matrix_st(3), vector_st(3))
def test_mat_mul_is_composition_property(a, b, v):
    assert dense_apply(mat(mat_mul(a, b)), v) == dense_apply(a, dense_apply(b, v))


@settings(max_examples=40, deadline=None)
@given(square_matrix_st(3))
def test_transpose_involution_property(a):
    assert mat_transpose(mat_transpose(a)) == a


# ---------------------------------------------------------------------------
# sparse vectors and column forms
# ---------------------------------------------------------------------------

def test_sparse_round_trip():
    sv = {1: F(1, 3), 2: F(-2)}
    u = as_ivec(sv)
    assert type(u) is Ivec and u.den == 3 and u == {1: 1, 2: -6}
    assert as_ivec(u) is u
    assert svec(u) == sv


def test_sparse_arithmetic_drops_zeros():
    assert svec(sv_add({0: F(1)}, {0: F(-1), 1: F(2)})) == {1: F(2)}
    assert sv_add({1: F(2)}, {1: F(-2)}) == {}
    assert sv_add({}, {}) == {}


def test_cols_round_trip():
    m = matrix([[1, 0], [F(1, 2), -1]])
    cols = mat_cols(m)
    assert [svec(c) for c in cols] == [{0: F(1), 1: F(1, 2)}, {1: F(-1)}]
    assert svec(apply_cols(cols, {0: F(2)})) == {0: F(2), 1: F(1)}


@settings(max_examples=40, deadline=None)
@given(square_matrix_st(3), vector_st(3))
def test_apply_cols_matches_mat_apply_property(a, v):
    got = apply_cols(mat_cols(a), sparse(v))
    assert densify(svec(got), 3) == dense_apply(a, v)


# ---------------------------------------------------------------------------
# product tensors
# ---------------------------------------------------------------------------

def small_tensor():
    return tensor_from_entries([(0, 1, 1, 1), (1, 0, 1, -1), (0, 0, 0, F(1, 2))])


def test_tensor_normalize_drops_zero_cells():
    raw = {(0, 0): {0: F(0)}, (0, 1): {1: F(2), 0: F(0)}}
    assert tensor_normalize(raw) == {(0, 1): {1: F(2)}}


def test_tensor_linear_ops():
    t = small_tensor()
    assert combine("+g(i, j) - g(i, j)", {"g": t}) == {}
    assert combine("+g(i, j) - h(i, j)", {"g": t, "h": t}) == {}
    flipped = combine("+g(j, i)", {"g": t})
    assert flipped[(1, 0)] == {1: F(1)}
    assert combine("+g(j, i)", {"g": flipped}) == t
    comm = combine("+g(i, j) - g(j, i)", {"g": t})
    assert comm == {(0, 1): {1: F(2)}, (1, 0): {1: F(-2)}}
    copy = combine("+g(i, j)", {"g": t})
    assert copy == t and not any(copy[key] is t[key] for key in t)
    # a term must be one product of the two indices, in either order
    for formula in ("+g(a.i, j)", "+a.g(i, j)", "+g(g(i, j), k)", "+i", "+g(i, i)",
                    "+g(i, k)"):
        with pytest.raises(ValueError):
            combine(formula, {"g": t})


def test_validate_tensor_guards():
    validate_tensor(small_tensor(), 2)
    with pytest.raises(DimensionMismatch):
        validate_tensor({(0, 2): {0: F(1)}}, 2)
    with pytest.raises(DimensionMismatch):
        validate_tensor({(0, 0): {5: F(1)}}, 2)


def test_grid_mul_and_product_eval():
    t = small_tensor()
    grid = tensor_grid(t, 2)
    assert svec(grid_mul(grid, {0: F(1)}, {1: F(1)})) == {1: F(1)}
    assert grid_mul(grid, {1: F(1)}, {1: F(1)}) == {}
    product_eval = support.product_eval
    assert product_eval(t, vector([1, 0]), vector([0, 2])) == (F(0), F(2))
    # bilinearity on a mixed input
    assert product_eval(t, vector([1, 1]), vector([1, 1])) == (F(1, 2), F(0))


def test_push_and_conjugate_product():
    t = tensor_from_entries([(0, 1, 1, 1)])
    doubling = matrix([[2, 0], [0, 2]])
    assert push_product(t, doubling) == tensor_from_entries([(0, 1, 1, 2)])
    swap = matrix([[0, 1], [1, 0]])
    assert push_product(t, swap) == tensor_from_entries([(0, 1, 0, 1)])
    assert all(type(x) is Fraction
               for cell in push_product(t, doubling).values() for x in cell.values())


@settings(max_examples=30, deadline=None)
@given(vector_st(2), vector_st(2), vector_st(2), fractions_st)
def test_product_eval_bilinear_property(x, y, z, c):
    t = small_tensor()
    product_eval = support.product_eval

    def lin(u, v):
        return tuple(a + c * b for a, b in zip(u, v))

    assert product_eval(t, lin(x, y), z) == lin(product_eval(t, x, z),
                                                product_eval(t, y, z))
    assert product_eval(t, z, lin(x, y)) == lin(product_eval(t, z, x),
                                                product_eval(t, z, y))


# ---------------------------------------------------------------------------
# fraction-free kernels against plain-Fraction references
# ---------------------------------------------------------------------------

KERNEL_DIM = 4

#: denominators: 1, small coprime primes, their products, and values far
#: beyond a machine word, so operands mix unrelated denominators
_denominators = st.one_of(
    st.sampled_from([1, 2, 3, 5, 7, 6, 35, 1009, 2 ** 61 - 1]),
    st.integers(min_value=1, max_value=2 ** 70),
)
_numerators = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
)
rational_st = st.builds(Fraction, _numerators, _denominators)
nonzero_st = rational_st.filter(bool)


def sparse_st(n: int = KERNEL_DIM):
    return st.dictionaries(st.integers(0, n - 1), nonzero_st, max_size=n)


def tensor_st(n: int = KERNEL_DIM):
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return st.dictionaries(pairs, sparse_st(n), max_size=n * n)


def dense_matrix_st(rows: int, cols: int):
    entry = st.one_of(st.just(F(0)), rational_st)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(matrix)


def ref_grid_mul(t, u, v):
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, w in t.get((i, j), {}).items():
                out[k] = out.get(k, F(0)) + a * b * w
    return {k: x for k, x in out.items() if x}


def ref_apply_cols(cols, u):
    out = {}
    for j, a in u.items():
        for i, w in cols[j].items():
            out[i] = out.get(i, F(0)) + a * w
    return {k: x for k, x in out.items() if x}


def ref_mat_mul(a, b):
    return tuple(tuple(sum((a[r][s] * b[s][c] for s in range(len(b))), F(0))
                       for c in range(len(b[0]) if b else 0))
                 for r in range(len(a)))


def ref_mat_lincomb(coeffs, mats, rows, cols):
    return tuple(tuple(sum((c * mats[s][r][b] for s, c in coeffs.items()), F(0))
                       for b in range(cols))
                 for r in range(rows))


def assert_canonical_svec(got, want):
    """``got`` is an integer vector of nonzero ints with the value ``want``."""
    assert type(got) is Ivec
    assert all(type(n) is int and n for n in got.values())
    assert all(type(x) is Fraction for x in svec(got).values())
    assert svec(got) == want


def assert_canonical_matrix(got, want):
    """``got`` is an integer matrix with the value ``want``."""
    assert type(got) is Imat and all(type(n) is int for n in got)
    assert (got.rows, got.cols) == mat_shape(want)
    assert mat(got) == want


@settings(max_examples=150, deadline=None)
@given(tensor_st(), sparse_st(), sparse_st())
def test_grid_mul_matches_fraction_reference(t, u, v):
    grid = tensor_grid(t, KERNEL_DIM)
    assert_canonical_svec(grid_mul(grid, u, v), ref_grid_mul(t, u, v))
    # the grid still hands out the tensor's own Fraction cells
    for i in range(KERNEL_DIM):
        for j in range(KERNEL_DIM):
            assert grid[i][j] is t.get((i, j))


@settings(max_examples=60, deadline=None)
@given(sparse_st(), nonzero_st, nonzero_st, nonzero_st, sparse_st())
def test_grid_mul_cancels_to_exact_zero(cell, p, q, r, extra):
    """u = p e0 + q e1 against cells with e1 * e2 = -(p/q) e0 * e2: the
    e2-column of the product cancels exactly and leaves no zero entries."""
    t = {(0, 2): cell, (1, 2): {k: -p / q * w for k, w in cell.items()},
         (3, 3): extra}
    grid = tensor_grid(t, KERNEL_DIM)
    assert grid_mul(grid, {0: p, 1: q}, {2: r}) == {}
    got = grid_mul(grid, {0: p, 1: q, 3: r}, {2: r, 3: q})
    assert_canonical_svec(got, ref_grid_mul(t, {0: p, 1: q, 3: r}, {2: r, 3: q}))


@given(sparse_st(), sparse_st())
def test_grid_mul_empty_operands_and_rows(u, v):
    empty = tensor_grid({}, KERNEL_DIM)
    assert all(cell is None for row in empty for cell in row)
    assert grid_mul(empty, u, v) == {}
    # rows 1..3 hold no cell at all
    grid = tensor_grid({(0, 0): {1: F(3, 7)}}, KERNEL_DIM)
    assert grid_mul(grid, {}, v) == {} and grid_mul(grid, u, {}) == {}
    assert svec(grid_mul(grid, u, v)) == ref_grid_mul({(0, 0): {1: F(3, 7)}}, u, v)


@settings(max_examples=150, deadline=None)
@given(st.lists(sparse_st(), min_size=KERNEL_DIM, max_size=KERNEL_DIM),
       sparse_st())
def test_apply_cols_matches_fraction_reference(cols, u):
    assert_canonical_svec(apply_cols(cols, u), ref_apply_cols(cols, u))


def ref_sv_sum(*terms):
    out = {}
    for c, v in terms:
        for k, x in v.items():
            out[k] = out.get(k, F(0)) + c * x
    return {k: x for k, x in out.items() if x}


@settings(max_examples=150, deadline=None)
@given(st.lists(sparse_st(), max_size=4))
def test_sparse_kernels_match_fraction_reference(vs):
    """Operands over unrelated denominators, as Fraction mappings and as
    integer vectors, give the values of plain Fraction sums."""
    ints = [as_ivec(v) for v in vs]
    for ops in (vs, ints):
        assert_canonical_svec(sv_add(*ops), ref_sv_sum(*[(1, v) for v in vs]))


@settings(max_examples=60, deadline=None)
@given(sparse_st(), nonzero_st, nonzero_st)
def test_sparse_kernels_cancel_to_exact_zero(u, p, q):
    """p/q u - (p u) / q is zero however the numerators are scaled."""
    def scaled(c, u):
        # c u over the unreduced denominator of c times that of u
        cn, cd = c.as_integer_ratio()
        u = as_ivec(u)
        out = Ivec({k: cn * n for k, n in u.items()} if cn else {})
        out.den = cd * u.den
        return out

    left = scaled(p / q, u)
    right = scaled(F(1) / q, scaled(p, u))
    assert sv_add(left, scaled(-1, right)) == {}
    assert sv_add(right, {}, scaled(-1, left), {}) == {}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_mat_lincomb_difference_matches_fraction_reference(rows, cols, data):
    a = data.draw(dense_matrix_st(rows, cols))
    b = data.draw(dense_matrix_st(rows, cols))
    for x, y in ((a, b), (as_imat(a), as_imat(b)), (a, as_imat(b))):
        assert_canonical_matrix(mat_lincomb({0: 1, 1: -1}, [x, y], rows, cols), tuple(
            tuple(p - q for p, q in zip(ra, rb)) for ra, rb in zip(a, b)))
    assert not any(mat_lincomb({0: 1, 1: -1}, [a, a], rows, cols))
    with pytest.raises(DimensionMismatch):
        mat_lincomb({0: 1, 1: -1}, [a, mat_zero(rows + 1, cols)], rows, cols)


@settings(max_examples=60, deadline=None)
@given(sparse_st(), nonzero_st, nonzero_st)
def test_apply_cols_cancels_to_exact_zero(col, p, q):
    cols = [col, {k: -p / q * w for k, w in col.items()}, {}, {}]
    assert apply_cols(cols, {0: p, 1: q}) == {}
    assert apply_cols(cols, {2: p, 3: q}) == {}
    assert apply_cols(cols, {}) == {}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 4), st.data())
def test_mat_mul_matches_fraction_reference(ra, ca, cb, data):
    a = data.draw(dense_matrix_st(ra, ca))
    b = data.draw(dense_matrix_st(ca, cb))
    assert_canonical_matrix(mat_mul(a, b), ref_mat_mul(a, b))
    assert mat(mat_mul(a, mat_zero(ca, cb))) == mat_zero(ra, cb)
    assert mat(mat_mul(mat_zero(ra, ca), b)) == mat_zero(ra, cb)


@settings(max_examples=60, deadline=None)
@given(dense_matrix_st(2, 3), nonzero_st)
def test_mat_mul_cancels_to_exact_zero(a, c):
    """(a | -c a) times the stacked (c I; I) is exactly zero."""
    left = matrix([list(row) + [-c * x for x in row] for row in a])
    right = matrix([[c if r == s else 0 for s in range(3)] for r in range(3)]
                   + [[1 if r == s else 0 for s in range(3)] for r in range(3)])
    assert_canonical_matrix(mat_mul(left, right), mat_zero(2, 3))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_mat_mul_shape_guard_property(ra, ca, cb, data):
    rb = data.draw(st.integers(1, 4).filter(lambda n: n != ca))
    with pytest.raises(DimensionMismatch):
        mat_mul(mat_zero(ra, ca), mat_zero(rb, cb))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_mat_lincomb_matches_fraction_reference(rows, cols, data):
    mats = data.draw(st.lists(dense_matrix_st(rows, cols), min_size=3,
                              max_size=3))
    coeffs = data.draw(st.dictionaries(st.integers(0, 2), nonzero_st,
                                       max_size=3))
    assert_canonical_matrix(mat_lincomb(coeffs, mats, rows, cols),
                            ref_mat_lincomb(coeffs, mats, rows, cols))


@settings(max_examples=60, deadline=None)
@given(dense_matrix_st(2, 3), nonzero_st, nonzero_st)
def test_mat_lincomb_cancels_to_exact_zero(m, p, q):
    scaled = matrix([[p / q * x for x in row] for row in m])
    got = mat_lincomb({0: p, 1: -q, 2: q}, [m, scaled, mat_zero(2, 3)], 2, 3)
    assert_canonical_matrix(got, mat_zero(2, 3))
    assert mat(mat_lincomb({}, [m], 2, 3)) == mat_zero(2, 3)


# ---------------------------------------------------------------------------
# packed vectors
# ---------------------------------------------------------------------------

@st.composite
def packable_st(draw):
    """A slot width (up to 200 bits) and an integer vector whose coordinates
    are below ``2**(w-1)`` in absolute value; runs of negative coordinates
    and coordinates at the ends of the range make chains of borrows."""
    w = draw(st.integers(2, 200))
    top = (1 << (w - 1)) - 1
    coord = st.one_of(st.integers(-top, top), st.sampled_from([-top, -1, 1, top]))
    n = draw(st.integers(0, 8))
    return w, {k: c for k in range(n) if (c := draw(coord))}


@settings(max_examples=300, deadline=None)
@given(packable_st())
def test_pack_unpack_round_trip(wv):
    w, v = wv
    r = sv_pack(v, w)
    assert sv_unpack(r, w) == v
    assert sv_unpack(r, w, 7).den == 7
    # zero exactly when the vector is
    assert (r == 0) == (not v)


def test_pack_borrow_chains_and_wide_slots():
    for w in (2, 3, 64, 65, 130):
        top = (1 << (w - 1)) - 1
        for v in ({k: -1 for k in range(6)}, {k: -top for k in range(5)},
                  {0: top, 1: -top, 2: top, 3: -1, 5: -top},
                  {k: (-1) ** k * top for k in range(7)}):
            assert sv_unpack(sv_pack(v, w), w) == v
            assert sv_pack(v, w) != 0


@settings(max_examples=150, deadline=None)
@given(tensor_st(), sparse_st(), st.lists(sparse_st(), min_size=1, max_size=KERNEL_DIM))
def test_stacked_product_matches_grid_mul(t, u, vs):
    """A product term stacked over its last index, the factor reading it on
    either side, decodes to ``grid_mul``'s numerators at every value of the
    index, at a sweep's own slot width and at a wider one, and is zero
    exactly when every product is empty."""
    grid = tensor_grid(t, KERNEL_DIM)
    u, vs = as_ivec(u), [as_ivec(v) for v in vs]
    den = lcm(*[v.den for v in vs])
    for n, v in enumerate(vs):
        vs[n] = Ivec({k: x * (den // v.den) for k, x in v.items()})
        vs[n].den = den
    left, right = structures._table([u], u.den, 1), structures._table([vs], den, 2)
    for terms, want in (
            ([(1, grid, (left, "i"), (right, "ij"))], [grid_mul(grid, u, v) for v in vs]),
            ([(1, grid, (right, "ij"), (left, "i"))], [grid_mul(grid, v, u) for v in vs])):
        terms = structures._Terms(terms)
        for extra in (0, 68):
            stacks = structures._Stacks([terms])
            stacks.w += extra
            got = dict(stacks.residuals(terms, (1, len(vs))))
            cols = [{} for _ in vs]
            for slot, x in (sv_unpack(got[(0,)], stacks.w) if got else {}).items():
                l, k = divmod(slot, stacks.span)
                cols[l][k] = x
            assert cols == want
            assert (not got) == (not any(want))
