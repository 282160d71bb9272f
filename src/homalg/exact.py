"""Exact rational linear algebra and sparse bilinear-product primitives.

All arithmetic is over the rationals with zero tolerance.  Structures are
stored with ``fractions.Fraction`` scalars: vectors and matrices are
immutable tuples, and bilinear products are sparse structure-constant
tensors mapping a basis pair ``(i, j)`` to the sparse coordinate vector of
``e_i * e_j``.  These forms, their helpers and their errors are defined in
:mod:`homalg.records`, so that a bundle parses without this module.

Inside a sweep every value is integer numerators over one denominator: an
:class:`Ivec` (sparse vector) or an :class:`Imat` (flat row-major matrix).
The kernels (``grid_mul``, ``apply_cols``, ``sv_*``, ``mat_mul``,
``mat_lincomb``) take and return these forms and
sum every term as an ``int``; a plain ``Fraction`` mapping or tuple matrix
passed to one is converted on entry.  Numerators are not reduced, so two
integer forms of one value may differ: compare values by testing their
difference for zero.  Canonical ``Fraction`` values are built only where a
value leaves the engine (a sweep's residuals, :func:`mat_fractions`).
A sweep packs each integer vector into one ``int`` (:func:`sv_pack`) and
stacks the vectors at every value of an identity's last index into one, so
the residuals at all of them are a few big-int multiply-adds per leading
tuple, decoded by :func:`sv_unpack`.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from .records import (  # noqa: F401  (re-exported)
    ONE, ZERO, DimensionMismatch, Matrix, SingularMatrix, Svec, Tensor, as_fraction,
    mat_identity, mat_shape, matrix, tensor_normalize, validate_tensor,
)


class Ivec(dict):
    """Sparse vector: index -> nonzero ``int`` numerator over ``den``."""

    __slots__ = ("den",)


class Imat(list):
    """Matrix: ``rows * cols`` row-major ``int`` numerators over ``den``."""

    __slots__ = ("den", "rows", "cols")


def _ivec(nums: Mapping[int, int], den: int) -> Ivec:
    out = Ivec(nums)
    out.den = den
    return out


def _imat(nums: Iterable[int], den: int, rows: int, cols: int) -> Imat:
    out = Imat(nums)
    out.den, out.rows, out.cols = den, rows, cols
    return out


#: the zero vector; an Ivec is never mutated once built, so kernel results
#: may share this one, or be one of their operands
_EMPTY = _ivec({}, 1)


def _nonzero(acc: dict[int, int], den: int) -> Ivec:
    """The integer vector ``acc / den`` without its zero entries."""
    if 0 in acc.values():
        acc = {k: n for k, n in acc.items() if n}
    return _ivec(acc, den) if acc else _EMPTY


# ---------------------------------------------------------------------------
# the integer forms
# ---------------------------------------------------------------------------

def as_ivec(u: Mapping) -> Ivec:
    """``u`` as an :class:`Ivec`; a mapping to rationals is converted."""
    if type(u) is Ivec:
        return u
    ratios = {k: c.as_integer_ratio() for k, c in u.items() if c}
    den = lcm(*[d for _, d in ratios.values()])
    return _ivec({k: n * (den // d) for k, (n, d) in ratios.items()}, den)


def as_imat(m) -> Imat:
    """``m`` as an :class:`Imat`; a tuple matrix of rationals is converted."""
    if type(m) is Imat:
        return m
    rows, cols = mat_shape(m)
    ratios = [x.as_integer_ratio() for row in m for x in row]
    den = lcm(*[d for _, d in ratios])
    return _imat([n * (den // d) for n, d in ratios], den, rows, cols)


def mat_fractions(m: Imat) -> Matrix:
    """The canonical ``Fraction`` tuple matrix of an integer matrix."""
    vals = [Fraction(n, m.den) for n in m]
    c = m.cols
    return tuple(tuple(vals[r * c:(r + 1) * c]) for r in range(m.rows))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def mat_mul(a, b) -> Imat:
    a, b = as_imat(a), as_imat(b)
    ra, ca, rb, cb = a.rows, a.cols, b.rows, b.cols
    if ca != rb:
        raise DimensionMismatch(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    bcols = [b[c::cb] for c in range(cb)]
    return _imat([sum(map(mul, a[r * ca:(r + 1) * ca], col))
                  for r in range(ra) for col in bcols], a.den * b.den, ra, cb)


def mat_lincomb(coeffs: Mapping, mats: Sequence, rows: int, cols: int) -> Imat:
    """Linear combination of matrices: sum of coeffs[s] * mats[s], each of
    those it combines ``rows x cols``."""
    coeffs = as_ivec(coeffs)
    terms = [(n, as_imat(mats[s])) for s, n in coeffs.items()]
    for s, (_, m) in zip(coeffs, terms):
        if (m.rows, m.cols) != (rows, cols):
            raise DimensionMismatch(f"matrix {s} is {m.rows}x{m.cols}, not {rows}x{cols}")
    den = lcm(*[m.den for _, m in terms])
    acc = [0] * (rows * cols)
    for n, m in terms:
        acc = list(map(add, acc, map((n * (den // m.den)).__mul__, m)))
    return _imat(acc, coeffs.den * den, rows, cols)


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def _reduce(work: list[list], cols: int) -> list[tuple[int, int]]:
    """Gauss-Jordan elimination of the rows ``work`` in place over their
    first ``cols`` columns; the (row, column) of each pivot, in order."""
    pivots: list[tuple[int, int]] = []
    for col in range(cols):
        row = len(pivots)
        pivot = next((r for r in range(row, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = ONE / work[row][col]
        work[row] = [v * inv for v in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[row])]
        pivots.append((row, col))
    return pivots


def mat_inverse(a: Matrix) -> Matrix:
    rows, cols = mat_shape(a)
    if rows != cols:
        raise DimensionMismatch(f"only square matrices invert; got {rows}x{cols}")
    work = [list(row) + list(unit) for row, unit in zip(a, mat_identity(rows))]
    pivots = _reduce(work, rows)
    if len(pivots) < rows:   # the first column with no pivot
        col = next((c for c, (_, p) in enumerate(pivots) if p != c), len(pivots))
        raise SingularMatrix(f"no pivot in column {col}")
    return tuple(tuple(row[rows:]) for row in work)


def mat_kernel_vector(a: Matrix) -> "Svec | None":
    """A nonzero kernel vector of a square matrix, or None if invertible."""
    rows, cols = mat_shape(a)
    if rows != cols:
        raise DimensionMismatch(f"kernel witness needs a square matrix; got {rows}x{cols}")
    work = [list(row) for row in a]
    pivots = _reduce(work, cols)
    pivot_cols = {c for _, c in pivots}
    free = next((c for c in range(cols) if c not in pivot_cols), None)
    if free is None:
        return None
    out: Svec = {free: ONE}
    for r, c in pivots:
        if work[r][free]:
            out[c] = -work[r][free]
    return out


# ---------------------------------------------------------------------------
# sparse vectors
# ---------------------------------------------------------------------------

def sv_basis(dim: int) -> tuple[Ivec, ...]:
    """The basis vectors ``e_0, ..., e_{dim-1}`` as integer vectors."""
    return tuple(_ivec({i: 1}, 1) for i in range(dim))


def sv_add(*vs: Mapping) -> Ivec:
    """The sum of ``vs``, each an integer vector or a mapping to rationals."""
    terms = [as_ivec(v) for v in vs if v]
    if len(terms) < 2:
        return terms[0] if terms else _EMPTY
    den = lcm(*[v.den for v in terms])
    acc: dict[int, int] = {}
    for v in terms:
        f = den // v.den
        for k, n in v.items():
            acc[k] = acc.get(k, 0) + f * n
    return _nonzero(acc, den)


def mat_cols(m) -> tuple[Ivec, ...]:
    """Sparse integer columns: ``mat_cols(m)[j]`` is the image of ``e_j``."""
    m = as_imat(m)
    return tuple(_ivec({r: n for r, n in enumerate(m[j::m.cols]) if n}, m.den)
                 for j in range(m.cols))


def apply_cols(cols: Sequence[Mapping], u: Mapping) -> Ivec:
    """Image of ``u`` under the map whose sparse columns are ``cols``."""
    if not u:
        return _EMPTY
    u = as_ivec(u)
    terms = [(n, as_ivec(cols[j])) for j, n in u.items() if cols[j]]
    den = lcm(*[col.den for _, col in terms])
    acc: dict[int, int] = {}
    for n, col in terms:
        f = n * (den // col.den)
        for i, w in col.items():
            acc[i] = acc.get(i, 0) + f * w
    return _nonzero(acc, u.den * den)


# ---------------------------------------------------------------------------
# structure-constant tensors
# ---------------------------------------------------------------------------

def tensor_from_entries(entries: Iterable[tuple[int, int, int, object]]) -> Tensor:
    out: Tensor = {}
    for i, j, k, v in entries:
        v = as_fraction(v)
        cell = out.setdefault((i, j), {})
        nv = cell.get(k, ZERO) + v
        if nv:
            cell[k] = nv
        else:
            cell.pop(k, None)
    return {key: cell for key, cell in out.items() if cell}


class Table(list):
    """Nested lists of Ivecs of L1 norm at most ``norm`` over the common
    denominator ``den``, whose coordinates lie in ``range(span)``."""

    __slots__ = ("den", "norm", "span")

    def __init__(self, rows: Iterable = (), den: int = 1, norm: int = 0,
                 span: int = 0):
        super().__init__(rows)
        self.den, self.norm, self.span = den, norm, span


class Grid(list):
    """``grid[i][j]`` is the Fraction cell of ``e_i * e_j`` (None when absent),
    for ``e_i`` and ``e_j`` from the two input bases, which may differ (a
    representation's action multiplies a base vector into a module vector).

    ``ints[i][j]`` is the same cell as an :class:`Ivec` over the grid's
    common denominator ``den`` (empty when absent), and ``peak`` the largest
    absolute value of a cell's integer coordinate.
    """

    __slots__ = ("ints", "den", "peak")


def tensor_grid(t: Tensor, rows: int, cols: int | None = None) -> Grid:
    """The grid of ``t`` over ``rows`` left and ``cols`` (``rows`` if None)
    right basis vectors."""
    cols = rows if cols is None else cols
    grid = Grid([None] * cols for _ in range(rows))
    den = lcm(*[v.denominator for cell in t.values() for v in cell.values()])
    ints = [[_EMPTY] * cols for _ in range(rows)]
    norm = peak = span = 0
    for (i, j), cell in t.items():
        grid[i][j] = cell
        if cell:
            nums = {k: v.numerator * (den // v.denominator) for k, v in cell.items()}
            sizes = list(map(abs, nums.values()))
            norm, peak = max(norm, sum(sizes)), max(peak, *sizes)
            span = max(span, max(nums) + 1)
            ints[i][j] = _ivec(nums, den)
    grid.ints, grid.den, grid.peak = Table(ints, den, norm, span), den, peak
    return grid


def grid_mul(grid: Grid, u: Mapping, v: Mapping) -> Ivec:
    """Sparse evaluation of ``u * v`` against a tensor grid."""
    if not u or not v:
        return _EMPTY
    u, v = as_ivec(u), as_ivec(v)
    ints = grid.ints
    vv = v.items()
    acc: dict[int, int] = {}
    for i, ni in u.items():
        row = ints[i]
        for j, nj in vv:
            cell = row[j]
            if not cell:
                continue
            c = ni * nj
            for k, w in cell.items():
                acc[k] = acc.get(k, 0) + c * w
    return _nonzero(acc, u.den * v.den * grid.den)


def sv_pack(u: Mapping[int, int], w: int) -> int:
    """``u`` packed at slot width ``w``: ``sum of u_k * 2**(w*k)``, linear in
    ``u``.  While each ``|u_k| < 2**(w-1)`` it is 0 exactly when ``u`` is."""
    return sum([n << (w * k) for k, n in u.items()])


def sv_unpack(r: int, w: int, den: int = 1) -> Ivec:
    """The integer vector over ``den`` packed in ``r`` at slot width ``w``:
    its balanced base-``2**w`` digits, a negative one borrowing from the next.
    Adding ``2**(w-1)`` to every slot makes each digit nonnegative with no
    carry, so every slot is then read off by one mask."""
    slots = r.bit_length() // w + 1
    half, mask = 1 << (w - 1), (1 << w) - 1
    r += half * ((1 << (w * slots)) - 1) // mask
    out = {}
    for k in range(slots):
        if d := (r >> (w * k) & mask) - half:
            out[k] = d
    return _ivec(out, den)


def grid_pack(cells: list, w: int) -> list[list[tuple[int, int]]]:
    """Each row of a grid's integer cells (``cells[x][y]`` the cell of ``e_x
    e_y``) as its nonzero cells packed at width ``w``, ``(y, packed)``
    pairs."""
    return [[(y, sv_pack(c, w)) for y, c in enumerate(row) if c] for row in cells]
