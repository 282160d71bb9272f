"""Exact rational linear algebra and sparse bilinear-product primitives.

All arithmetic is over the rationals with zero tolerance: scalars are
``fractions.Fraction``, vectors and matrices are immutable tuples, and
bilinear products are sparse structure-constant tensors mapping a basis
pair ``(i, j)`` to the sparse coordinate vector of ``e_i * e_j``.

The hot kernels (``grid_mul``, ``apply_cols``, ``mat_mul``, ``mat_lincomb``)
are fraction-free: each operand is scaled once to integer numerators over
its common denominator, every term is summed as an ``int``, and each nonzero
result is divided back into one canonical ``Fraction``.  Nothing is rounded,
so the results are the same rationals a ``Fraction`` sum gives.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

Rational = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]
Svec = dict[int, Fraction]
Tensor = dict[tuple[int, int], Svec]

ZERO = Fraction(0)
ONE = Fraction(1)


class SingularMatrix(ValueError):
    """The matrix has no inverse over the rationals."""


class DimensionMismatch(ValueError):
    """Shapes of matrices, vectors, or tensors do not line up."""


# ---------------------------------------------------------------------------
# scalars and vectors
# ---------------------------------------------------------------------------

def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise DimensionMismatch(f"cannot interpret {value!r} as an exact rational")


def vector(values: Iterable) -> Vector:
    return tuple(as_fraction(v) for v in values)


def basis_vector(dim: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(dim))


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u: Vector) -> Vector:
    c = as_fraction(c)
    return tuple(c * a for a in u)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def matrix(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(tuple(as_fraction(v) for v in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise DimensionMismatch("matrix rows have unequal lengths")
    return out


def mat_shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_zero(rows: int, cols: int) -> Matrix:
    return tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if mat_shape(a) != mat_shape(b):
        raise DimensionMismatch(f"matrix shapes differ: {mat_shape(a)} vs {mat_shape(b)}")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    if mat_shape(a) != mat_shape(b):
        raise DimensionMismatch(f"matrix shapes differ: {mat_shape(a)} vs {mat_shape(b)}")
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def mat_scale(c, a: Matrix) -> Matrix:
    c = as_fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def _scaled(values: Iterable) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator."""
    ratios = [x.as_integer_ratio() for x in values]
    den = lcm(*[d for _, d in ratios])
    if den == 1:
        return [n for n, _ in ratios], 1
    return [n * (den // d) for n, d in ratios], den


def _unscaled_rows(nums: list[int], den: int, rows: int, cols: int) -> Matrix:
    """The row-major ``rows`` x ``cols`` matrix of canonical ``n / den``."""
    if den == 1:
        vals = [Fraction(n) if n else ZERO for n in nums]
    else:
        vals = [Fraction(n, den) if n else ZERO for n in nums]
    return tuple(tuple(vals[r * cols:(r + 1) * cols]) for r in range(rows))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise DimensionMismatch(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    an, ad = _scaled(x for row in a for x in row)
    bn, bd = _scaled(x for row in b for x in row)
    bcols = [bn[c::cb] for c in range(cb)]
    out = [sum(map(mul, an[r * ca:(r + 1) * ca], col))
           for r in range(ra) for col in bcols]
    return _unscaled_rows(out, ad * bd, ra, cb)


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_apply(a: Matrix, v: Vector) -> Vector:
    rows, cols = mat_shape(a)
    if cols != len(v):
        raise DimensionMismatch(f"cannot apply {rows}x{cols} matrix to length-{len(v)} vector")
    return tuple(sum((x * y for x, y in zip(row, v)), ZERO) for row in a)


def mat_inverse(a: Matrix) -> Matrix:
    rows, cols = mat_shape(a)
    if rows != cols:
        raise DimensionMismatch(f"only square matrices invert; got {rows}x{cols}")
    n = rows
    work = [list(row) + list(mat_identity(n)[i]) for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix(f"no pivot in column {col}")
        work[col], work[pivot] = work[pivot], work[col]
        inv = ONE / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def mat_is_identity(a: Matrix) -> bool:
    rows, cols = mat_shape(a)
    return rows == cols and a == mat_identity(rows)


def mat_lincomb(coeffs: "Svec", mats: Sequence[Matrix], rows: int,
                cols: int) -> Matrix:
    """Linear combination of matrices: sum of coeffs[s] * mats[s]."""
    if not coeffs:
        return mat_zero(rows, cols)
    terms = []
    for s, c in coeffs.items():
        nums, den = _scaled(x for row in mats[s] for x in row)
        cn, cd = c.as_integer_ratio()
        terms.append((cn, cd * den, nums))
    den = lcm(*[d for _, d, _ in terms])
    acc = [0] * (rows * cols)
    for cn, d, nums in terms:
        f = cn * (den // d)
        acc = [x + f * y for x, y in zip(acc, nums)]
    return _unscaled_rows(acc, den, rows, cols)


def mat_kernel_vector(a: Matrix) -> "Svec | None":
    """A nonzero kernel vector of a square matrix, or None if invertible."""
    rows, cols = mat_shape(a)
    if rows != cols:
        raise DimensionMismatch(f"kernel witness needs a square matrix; got {rows}x{cols}")
    n = rows
    work = [list(row) for row in a]
    pivots: list[tuple[int, int]] = []  # (row, col) of each pivot
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = ONE / work[row][col]
        work[row] = [v * inv for v in work[row]]
        for r in range(n):
            if r != row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[row])]
        pivots.append((row, col))
        row += 1
    pivot_cols = {c for _, c in pivots}
    free = next((c for c in range(n) if c not in pivot_cols), None)
    if free is None:
        return None
    out: Svec = {free: ONE}
    for r, c in pivots:
        if work[r][free]:
            out[c] = -work[r][free]
    return out


# ---------------------------------------------------------------------------
# sparse vectors (dict index -> nonzero Fraction)
# ---------------------------------------------------------------------------

def sv_from_vector(v: Vector) -> Svec:
    return {i: c for i, c in enumerate(v) if c}


def sv_to_vector(u: Svec, dim: int) -> Vector:
    return tuple(u.get(i, ZERO) for i in range(dim))


def sv_add(*vs: Svec) -> Svec:
    out: Svec = {}
    for v in vs:
        for k, c in v.items():
            acc = out.get(k)
            nv = c if acc is None else acc + c
            if nv:
                out[k] = nv
            elif acc is not None:
                del out[k]
    return out


def sv_neg(u: Svec) -> Svec:
    return {k: -c for k, c in u.items()}


def sv_sub(u: Svec, v: Svec) -> Svec:
    return sv_add(u, sv_neg(v))


def sv_scale(c, u: Svec) -> Svec:
    c = as_fraction(c)
    if not c:
        return {}
    return {k: c * v for k, v in u.items()}


def mat_cols(m: Matrix) -> tuple[Svec, ...]:
    """Sparse columns: ``mat_cols(m)[j]`` is the sparse image of ``e_j``."""
    rows, cols = mat_shape(m)
    out: list[Svec] = [{} for _ in range(cols)]
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            if v:
                out[j][i] = v
    return tuple(out)


def cols_to_matrix(cols: Sequence[Svec], rows: int) -> Matrix:
    return tuple(
        tuple(cols[j].get(i, ZERO) for j in range(len(cols)))
        for i in range(rows)
    )


def _sv_unscaled(acc: dict[int, int], den: int) -> Svec:
    """The sparse vector ``acc / den`` without its zero entries."""
    if den == 1:
        return {k: Fraction(n) for k, n in acc.items() if n}
    return {k: Fraction(n, den) for k, n in acc.items() if n}


def apply_cols(cols: Sequence[Svec], u: Svec) -> Svec:
    """Image of ``u`` under the map whose sparse columns are ``cols``."""
    # integer numerators over a running common denominator ``den``
    acc: dict[int, int] = {}
    den = 1
    for j, c in u.items():
        col = cols[j]
        if not col:
            continue
        cn, cd = c.as_integer_ratio()
        for i, w in col.items():
            wn, wd = w.as_integer_ratio()
            d = cd * wd
            if den % d:
                grown = lcm(den, d)
                for k in acc:
                    acc[k] *= grown // den
                den = grown
            acc[i] = acc.get(i, 0) + cn * wn * (den // d)
    return _sv_unscaled(acc, den) if acc else {}


# ---------------------------------------------------------------------------
# structure-constant tensors
# ---------------------------------------------------------------------------

def tensor_normalize(t: Mapping) -> Tensor:
    out: Tensor = {}
    for (i, j), cell in t.items():
        clean = {k: as_fraction(v) for k, v in cell.items() if as_fraction(v)}
        if clean:
            out[(int(i), int(j))] = clean
    return out


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


def tensor_entries(t: Tensor) -> list[tuple[int, int, int, Fraction]]:
    out = []
    for (i, j), cell in t.items():
        for k, v in cell.items():
            out.append((i, j, k, v))
    out.sort(key=lambda e: (e[0], e[1], e[2]))
    return out


def validate_tensor(t: Tensor, dim: int, name: str = "tensor") -> None:
    for (i, j), cell in t.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise DimensionMismatch(f"{name}: pair index ({i},{j}) out of range for dim {dim}")
        for k in cell:
            if not (0 <= k < dim):
                raise DimensionMismatch(f"{name}: output index {k} out of range for dim {dim}")


def tensor_add(a: Tensor, b: Tensor) -> Tensor:
    out = {key: dict(cell) for key, cell in a.items()}
    for key, cell in b.items():
        tgt = out.setdefault(key, {})
        for k, v in cell.items():
            nv = tgt.get(k, ZERO) + v
            if nv:
                tgt[k] = nv
            else:
                tgt.pop(k, None)
    return {key: cell for key, cell in out.items() if cell}


def tensor_neg(a: Tensor) -> Tensor:
    return {key: {k: -v for k, v in cell.items()} for key, cell in a.items()}


def tensor_sub(a: Tensor, b: Tensor) -> Tensor:
    return tensor_add(a, tensor_neg(b))


def tensor_flip(a: Tensor) -> Tensor:
    """Swap the two inputs: the flip of ``*`` sends ``(x, y)`` to ``y * x``."""
    return {(j, i): dict(cell) for (i, j), cell in a.items()}


def tensor_commutator(a: Tensor) -> Tensor:
    return tensor_sub(a, tensor_flip(a))


class Grid(list):
    """``grid[i][j]`` is the cell of ``e_i * e_j`` (None when absent).

    ``ints[i][j]`` holds the same cell as ``(k, numerator)`` pairs over the
    grid's common denominator ``den``, for the integer sums of ``grid_mul``.
    """

    __slots__ = ("ints", "den")


def tensor_grid(t: Tensor, dim: int) -> Grid:
    grid = Grid([None] * dim for _ in range(dim))
    ints: list[list] = [[None] * dim for _ in range(dim)]
    den = lcm(*[v.denominator for cell in t.values() for v in cell.values()])
    for (i, j), cell in t.items():
        grid[i][j] = cell
        if cell:
            ints[i][j] = tuple((k, v.numerator * (den // v.denominator))
                               for k, v in cell.items())
    grid.ints = ints
    grid.den = den
    return grid


def _scaled_items(u: Svec) -> tuple[list[tuple[int, int]], int]:
    """The entries of ``u`` as integer numerators over its least common
    denominator."""
    nums, den = _scaled(u.values())
    return list(zip(u, nums)), den


def grid_mul(grid: Grid, u: Svec, v: Svec) -> Svec:
    """Sparse evaluation of ``u * v`` against a tensor grid."""
    if not u or not v:
        return {}
    # u and v as integer numerators over their common denominators; the
    # loops are inlined for the common all-integer case
    uu = []
    for i, c in u.items():
        n, d = c.as_integer_ratio()
        if d != 1:
            uu, du = _scaled_items(u)
            break
        uu.append((i, n))
    else:
        du = 1
    vv = []
    for j, c in v.items():
        n, d = c.as_integer_ratio()
        if d != 1:
            vv, dv = _scaled_items(v)
            break
        vv.append((j, n))
    else:
        dv = 1
    ints = grid.ints
    acc: dict[int, int] = {}
    for i, ni in uu:
        row = ints[i]
        for j, nj in vv:
            cell = row[j]
            if not cell:
                continue
            c = ni * nj
            for k, w in cell:
                acc[k] = acc.get(k, 0) + c * w
    return _sv_unscaled(acc, du * dv * grid.den) if acc else {}


def product_eval(t: Tensor, x: Vector, y: Vector) -> Vector:
    """Evaluate the bilinear product of two dense vectors."""
    if len(x) != len(y):
        raise DimensionMismatch(f"vector lengths differ: {len(x)} vs {len(y)}")
    dim = len(x)
    validate_tensor(t, dim, "product")
    out = grid_mul(tensor_grid(t, dim), sv_from_vector(x), sv_from_vector(y))
    return sv_to_vector(out, dim)


def push_product(t: Tensor, f: Matrix) -> Tensor:
    """New product ``x *' y = f(x * y)``."""
    cols = mat_cols(f)
    out: Tensor = {}
    for key, cell in t.items():
        pushed = apply_cols(cols, cell)
        if pushed:
            out[key] = pushed
    return out


def conjugate_product(t: Tensor, g: Matrix) -> Tensor:
    """New product ``x *' y = g(x) * g(y)``."""
    rows, cols_n = mat_shape(g)
    if rows != cols_n:
        raise DimensionMismatch("conjugating map must be square")
    grid = tensor_grid(t, rows)
    gcols = mat_cols(g)
    out: Tensor = {}
    for i in range(rows):
        if not gcols[i]:
            continue
        for j in range(rows):
            if not gcols[j]:
                continue
            cell = grid_mul(grid, gcols[i], gcols[j])
            if cell:
                out[(i, j)] = cell
    return out
