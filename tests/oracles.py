"""Independent oracles, written before the engine.

This module never imports the package under test.  It derives, with the
standard library only, the reference data the acceptance suite needs:

* the dimension-8 Cayley-Dickson algebra table (reals -> complexes ->
  quaternions -> octonions), used to generate and cross-check the
  ``octonions`` fixture;
* brute-force Rota-Baxter searches: an exhaustive sparse-integer-matrix
  search on the dim-8 table (commuting weight-0 pair for the diagram
  checker, with the zero pair as guaranteed fallback), and exhaustive
  {-1,0,1} grid searches on two small reference algebras;
* direct verification of the hand-picked operators used by the fixture
  library (sl2 pair, truncated-polynomial integration pair).

Frozen constants near the bottom were produced by ``python tests/oracles.py``
and are re-verified (fast paths exhaustively, the expensive octonion search
by spot re-verification) in ``test_oracles.py``.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

Svec = dict[int, Fraction]
Table = dict[tuple[int, int], Svec]

ZERO = Fraction(0)
ONE = Fraction(1)


# --------------------------------------------------------------------------
# Cayley-Dickson doubling over the rationals
# --------------------------------------------------------------------------

def cd_conj(x: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    if len(x) == 1:
        return x
    h = len(x) // 2
    return cd_conj(x[:h]) + tuple(-v for v in x[h:])


def cd_mul(x: tuple[Fraction, ...], y: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """(a,b)(c,d) = (ac - conj(d) b, d a + b conj(c)); base case: rationals."""
    if len(x) == 1:
        return (x[0] * y[0],)
    h = len(x) // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    left = tuple(p - q for p, q in zip(cd_mul(a, c), cd_mul(cd_conj(d), b)))
    right = tuple(p + q for p, q in zip(cd_mul(d, a), cd_mul(b, cd_conj(c))))
    return left + right


def _unit(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(ONE if j == i else ZERO for j in range(n))


def cd_table(dim: int) -> Table:
    """Full structure-constant table of the dim-2^n Cayley-Dickson algebra."""
    table: Table = {}
    for i in range(dim):
        for j in range(dim):
            prod = cd_mul(_unit(dim, i), _unit(dim, j))
            cell = {k: v for k, v in enumerate(prod) if v}
            if cell:
                table[(i, j)] = cell
    return table


def octonion_table() -> Table:
    return cd_table(8)


def octonion_signed_triples() -> list[tuple[int, int, int, int]]:
    """Compact (i, j, k, sign) form: e_i e_j = sign * e_k."""
    out = []
    for (i, j), cell in sorted(octonion_table().items()):
        (k, v), = cell.items()
        assert v in (ONE, -ONE)
        out.append((i, j, k, int(v)))
    return out


# --------------------------------------------------------------------------
# Generic sparse helpers (independent of the engine's implementation)
# --------------------------------------------------------------------------

def sv_add(u: Svec, v: Svec) -> Svec:
    out = dict(u)
    for k, w in v.items():
        nv = out.get(k, ZERO) + w
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def sv_mul(table: Table, u: Svec, v: Svec) -> Svec:
    out: Svec = {}
    for i, ci in u.items():
        for j, cj in v.items():
            cell = table.get((i, j))
            if not cell:
                continue
            c = ci * cj
            for k, w in cell.items():
                nv = out.get(k, ZERO) + c * w
                if nv:
                    out[k] = nv
                else:
                    out.pop(k, None)
    return out


Cols = dict[int, Svec]  # column j -> image of e_j


def apply_cols(cols: Cols, u: Svec) -> Svec:
    out: Svec = {}
    for j, cj in u.items():
        col = cols.get(j)
        if not col:
            continue
        for i, w in col.items():
            nv = out.get(i, ZERO) + cj * w
            if nv:
                out[i] = nv
            else:
                out.pop(i, None)
    return out


def entries_to_cols(entries: tuple[tuple[int, int, int], ...]) -> Cols:
    """entries: ((row, col, val), ...) -> sparse column map."""
    cols: Cols = {}
    for r, c, v in entries:
        cols.setdefault(c, {})[r] = Fraction(v)
    return cols


def is_rota_baxter(table: Table, dim: int, cols: Cols) -> bool:
    """Weight-0 Rota-Baxter identity on every basis pair (twist = id here)."""
    for i in range(dim):
        ri = apply_cols(cols, {i: ONE})
        for j in range(dim):
            rj = apply_cols(cols, {j: ONE})
            lhs = sv_mul(table, ri, rj)
            rhs = apply_cols(cols, sv_add(sv_mul(table, ri, {j: ONE}),
                                          sv_mul(table, {i: ONE}, rj)))
            if lhs != rhs:
                return False
    return True


def cols_commute(dim: int, a: Cols, b: Cols) -> bool:
    for j in range(dim):
        ab = apply_cols(a, apply_cols(b, {j: ONE}))
        ba = apply_cols(b, apply_cols(a, {j: ONE}))
        if ab != ba:
            return False
    return True


# --------------------------------------------------------------------------
# Searches
# --------------------------------------------------------------------------

def search_rb_sparse(table: Table, dim: int, max_entries: int = 2,
                     vals: tuple[int, ...] = (1, -1)) -> list[tuple[tuple[int, int, int], ...]]:
    """All weight-0 Rota-Baxter matrices with at most ``max_entries`` nonzero
    integer entries drawn from ``vals`` (plus the zero matrix)."""
    slots = [(r, c) for r in range(dim) for c in range(dim)]
    found: list[tuple[tuple[int, int, int], ...]] = [()]  # zero matrix
    for n in range(1, max_entries + 1):
        for positions in itertools.combinations(slots, n):
            for values in itertools.product(vals, repeat=n):
                entries = tuple((r, c, v) for (r, c), v in zip(positions, values))
                if is_rota_baxter(table, dim, entries_to_cols(entries)):
                    found.append(entries)
    return found


def search_commuting_pairs(table: Table, dim: int,
                           rbs: list[tuple[tuple[int, int, int], ...]]):
    """All ordered pairs (R1, R2) of found RB ops that commute."""
    pairs = []
    cols = [entries_to_cols(e) for e in rbs]
    for x in range(len(rbs)):
        for y in range(len(rbs)):
            if cols_commute(dim, cols[x], cols[y]):
                pairs.append((rbs[x], rbs[y]))
    return pairs


def grid_matrices(dim: int, vals=(-1, 0, 1)):
    for flat in itertools.product(vals, repeat=dim * dim):
        yield tuple((r, c, flat[r * dim + c])
                    for r in range(dim) for c in range(dim) if flat[r * dim + c])


def search_rb_grid(table: Table, dim: int, vals=(-1, 0, 1)):
    return [e for e in grid_matrices(dim, vals)
            if is_rota_baxter(table, dim, entries_to_cols(e))]


# --------------------------------------------------------------------------
# Reference small algebras (hand-entered, used by the fixture library)
# --------------------------------------------------------------------------

def lie_dim2_table() -> Table:
    """[f0, f1] = f1."""
    return {(0, 1): {1: ONE}, (1, 0): {1: -ONE}}


def t2_table() -> Table:
    """Upper-triangular 2x2 matrices, basis f0=E11, f1=E12, f2=E22."""
    return {
        (0, 0): {0: ONE},   # E11 E11 = E11
        (0, 1): {1: ONE},   # E11 E12 = E12
        (1, 2): {1: ONE},   # E12 E22 = E12
        (2, 2): {2: ONE},   # E22 E22 = E22
    }


def m2_table() -> Table:
    """Full 2x2 matrices, basis f0=E11, f1=E12, f2=E21, f3=E22:
    E_ab E_cd = E_ad when b = c, else 0."""
    units = ((0, 0), (0, 1), (1, 0), (1, 1))
    return {(p, q): {units.index((a, d)): ONE}
            for p, (a, b) in enumerate(units)
            for q, (c, d) in enumerate(units) if b == c}


def commutator_table(table: Table) -> Table:
    """[x, y] = xy - yx of a product table."""
    out: Table = {}
    for (i, j), cell in table.items():
        out[(i, j)] = sv_add(out.get((i, j), {}), cell)
        out[(j, i)] = sv_add(out.get((j, i), {}), {k: -v for k, v in cell.items()})
    return {key: cell for key, cell in out.items() if cell}


def sl2_table() -> Table:
    """Bracket table, basis f0=h, f1=e, f2=f: [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    two = Fraction(2)
    return {
        (0, 1): {1: two}, (1, 0): {1: -two},
        (0, 2): {2: -two}, (2, 0): {2: two},
        (1, 2): {0: ONE}, (2, 1): {0: -ONE},
    }


def trunc_poly_table(n: int = 5) -> Table:
    """Q[t]/(t^n), basis f_k = t^k."""
    table: Table = {}
    for i in range(n):
        for j in range(n):
            if i + j < n:
                table[(i, j)] = {i + j: ONE}
    return table


def integration_cols(n: int = 5) -> Cols:
    """J(t^k) = t^(k+1)/(k+1), truncated: J(t^(n-1)) = 0."""
    return {k: {k + 1: Fraction(1, k + 1)} for k in range(n - 1)}


SL2_R1 = ((0, 1, 1),)  # e -> h
SL2_R2 = ((2, 1, 1),)  # e -> f
T2_R1 = ((1, 0, 1),)   # E11 -> E12
T2_R2 = ((1, 2, 1),)   # E22 -> E12
LIE2_RB = ((1, 0, 1),)  # f0 -> f1
# a commuting pair on M2 whose products R1x R2y and R2x R1y differ:
# R2 E12 R1 E12 = E21 E11 = E21, while R1 E12 R2 E12 = E11 E21 = 0
M2_R1 = ((0, 1, 1),)   # E12 -> E11
M2_R2 = ((2, 1, 1),)   # E12 -> E21


# --------------------------------------------------------------------------
# Frozen search results (produced by ``python tests/oracles.py``)
# --------------------------------------------------------------------------

# Octonions, sparse search (<=2 nonzero entries in {1,-1}): only the zero
# matrix is Rota-Baxter, so the diagram fixture uses the guaranteed fallback.
OCT_RB_COUNT_SPARSE2 = 1
OCT_RB_PAIR = ((), ())

# Dim-2 Lie algebra, full {-1,0,1} grid: 15 Rota-Baxter matrices, including
# the fixture operator f0 -> f1.
LIE2_RB_GRID_COUNT = 15

# T2, full {-1,0,1} grid: 21 Rota-Baxter matrices; the fixture pair
# (E11 -> E12, E22 -> E12) is found and commutes.  No commuting pair in the
# grid yields a nonzero pair-induced product [R1 x, R2 y].
T2_RB_GRID_COUNT = 21
T2_PAIR_COMMUTES = True

# Spot checks of the doubling convention at dim 4 (Hamilton-like):
# e1 e2 = e3, e2 e3 = e1, e1 e3 = -e2, e1 e1 = -e0.
QUAT_SPOTS = (
    (1, 2, 3, 1),
    (2, 3, 1, 1),
    (1, 3, 2, -1),
    (1, 1, 0, -1),
)

# Spot checks at dim 8 under the same convention.
OCT_SPOTS = (
    (1, 1, 0, -1),
    (7, 7, 0, -1),
    (1, 2, 3, 1),
    (2, 1, 3, -1),
    (1, 4, 5, 1),
    (2, 4, 6, 1),
    (3, 4, 7, 1),
    (1, 7, 6, 1),
)


def _spot(table: Table, i: int, j: int) -> tuple[int, int]:
    cell = table.get((i, j), {})
    (k, v), = cell.items()
    return k, int(v)


def run_searches() -> dict:
    """Offline driver; prints everything the frozen constants record."""
    out: dict = {}

    oct_table = octonion_table()
    quat = cd_table(4)
    out["quat_spots"] = [(i, j, *_spot(quat, i, j)) for (i, j, _, _) in QUAT_SPOTS]
    out["oct_spots"] = [(i, j, *_spot(oct_table, i, j)) for (i, j, _, _) in OCT_SPOTS]

    rbs8 = search_rb_sparse(oct_table, 8, max_entries=2)
    out["oct_rb_sparse2"] = rbs8
    pairs8 = search_commuting_pairs(oct_table, 8, rbs8)
    out["oct_rb_pairs"] = pairs8

    lie2 = lie_dim2_table()
    rbs_lie2 = search_rb_grid(lie2, 2)
    out["lie2_rb_grid"] = rbs_lie2

    t2 = t2_table()
    rbs_t2 = search_rb_grid(t2, 3)
    out["t2_rb_grid"] = rbs_t2
    out["t2_pair_found"] = (T2_R1 in rbs_t2, T2_R2 in rbs_t2)
    out["t2_pair_commutes"] = cols_commute(3, entries_to_cols(T2_R1), entries_to_cols(T2_R2))

    sl2 = sl2_table()
    out["sl2_r1_rb"] = is_rota_baxter(sl2, 3, entries_to_cols(SL2_R1))
    out["sl2_r2_rb"] = is_rota_baxter(sl2, 3, entries_to_cols(SL2_R2))
    out["sl2_commute"] = cols_commute(3, entries_to_cols(SL2_R1), entries_to_cols(SL2_R2))

    tp = trunc_poly_table(5)
    j_cols = integration_cols(5)
    j_entries = tuple(sorted((r, c, v) for c, col in j_cols.items()
                             for r, v in col.items()))
    out["trunc_poly_J_rb"] = all(
        sv_mul(tp, apply_cols(j_cols, {i: ONE}), apply_cols(j_cols, {j: ONE}))
        == apply_cols(j_cols, sv_add(sv_mul(tp, apply_cols(j_cols, {i: ONE}), {j: ONE}),
                                     sv_mul(tp, {i: ONE}, apply_cols(j_cols, {j: ONE}))))
        for i in range(5) for j in range(5))
    out["trunc_poly_J_entries"] = j_entries

    # Does any T2 commuting RB pair produce a nonzero pair-induced product
    # [R1 x, R2 y] (commutator of the associative product)?
    def bracket(u, v):
        return sv_add(sv_mul(t2, u, v), {k: -w for k, w in sv_mul(t2, v, u).items()})

    nonzero_pairs = []
    for e1 in rbs_t2:
        c1 = entries_to_cols(e1)
        for e2 in rbs_t2:
            c2 = entries_to_cols(e2)
            if not cols_commute(3, c1, c2):
                continue
            if any(bracket(apply_cols(c1, {i: ONE}), apply_cols(c2, {j: ONE}))
                   for i in range(3) for j in range(3)):
                nonzero_pairs.append((e1, e2))
    out["t2_nonzero_mdendri_pairs"] = nonzero_pairs
    return out


if __name__ == "__main__":
    results = run_searches()
    for key, value in results.items():
        if isinstance(value, list) and len(value) > 12:
            print(f"{key}: ({len(value)} items)")
            for item in value:
                print("   ", item)
        else:
            print(f"{key}: {value}")
