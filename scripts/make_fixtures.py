"""Regenerate the packaged fixture bundles.

Deterministic: every run writes byte-identical files.  The octonion table is
built here by index-arithmetic doubling, independently of the coordinate
implementation the test oracles use; the test suite cross-checks the two.
"""
from __future__ import annotations

from fractions import Fraction as F
from pathlib import Path

from homalg import (
    Bundle,
    OperatorWitness,
    ProductRole,
    StructureClass,
    adjoint_rep,
    induce,
    induce_pair,
    make_structure,
    regular_pre_alternative_rep,
    regular_pre_malcev_rep,
    save_bundle,
    yau_twist,
)
from homalg.exact import matrix
from homalg.operators import BilinearForm, KIND_O_OPERATOR, KIND_ROTA_BAXTER

OUT = Path(__file__).resolve().parents[1] / "src" / "homalg" / "fixtures"

R = ProductRole
C = StructureClass


def tensor(*items):
    """items: (i, j, k, value) quadruples -> sparse product tensor."""
    out: dict[tuple[int, int], dict[int, F]] = {}
    for i, j, k, v in items:
        out.setdefault((i, j), {})[k] = F(v)
    return out


def dense(dim, *items):
    """items: (row, col, value) triples -> dim x dim matrix."""
    rows = [[F(0)] * dim for _ in range(dim)]
    for r, c, v in items:
        rows[r][c] = F(v)
    return matrix(rows)


def rb(mat, weight=0):
    return OperatorWitness(kind=KIND_ROTA_BAXTER, matrix=mat, weight=F(weight))


# ---------------------------------------------------------------------------
# doubling algebra by index arithmetic (dim must be a power of two)
# ---------------------------------------------------------------------------

def unit_mul(i: int, j: int, dim: int) -> tuple[int, int]:
    """e_i e_j = sign * e_k in the dim-2^n doubling algebra; returns (k, sign).

    Convention: (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)), with
    conjugation negating every non-leading unit.
    """
    if dim == 1:
        return 0, 1
    h = dim // 2
    if i < h and j < h:
        return unit_mul(i, j, h)
    if i < h:
        k, s = unit_mul(j - h, i, h)
        return k + h, s
    if j < h:
        k, s = unit_mul(i - h, j, h)
        return k + h, s if j == 0 else -s
    k, s = unit_mul(j - h, i - h, h)
    return k, -s if j - h == 0 else s


def octonion_star() -> dict:
    out = {}
    for i in range(8):
        for j in range(8):
            k, s = unit_mul(i, j, 8)
            out[(i, j)] = {k: F(s)}
    return out


def octonion_imaginary_bracket() -> dict:
    star = octonion_star()
    out: dict[tuple[int, int], dict[int, F]] = {}
    for i in range(1, 8):
        for j in range(1, 8):
            cell: dict[int, F] = {}
            for k, v in star[(i, j)].items():
                cell[k] = cell.get(k, F(0)) + v
            for k, v in star[(j, i)].items():
                cell[k] = cell.get(k, F(0)) - v
            cell = {k: v for k, v in cell.items() if v}
            if any(k == 0 for k in cell):
                raise AssertionError("commutator of imaginaries left the span")
            if cell:
                out[(i - 1, j - 1)] = {k - 1: v for k, v in cell.items()}
    return out


# ---------------------------------------------------------------------------
# fixture builders
# ---------------------------------------------------------------------------

def build() -> dict[str, Bundle]:
    fixtures: dict[str, Bundle] = {}

    # -- zero algebra ------------------------------------------------------
    zero = make_structure(2, products={R.BRACKET: {}})
    fixtures["zero_dim2"] = Bundle(structure=zero, declared_class=C.HOM_MALCEV)

    # -- dim-2 Lie: [e0, e1] = e1 -----------------------------------------
    lie2 = make_structure(2, products={R.BRACKET: tensor((0, 1, 1, 1),
                                                         (1, 0, 1, -1))})
    lie2_rb = dense(2, (1, 0, 1))  # e0 -> e1
    fixtures["lie_dim2"] = Bundle(
        structure=lie2, declared_class=C.HOM_LIE,
        reps=(adjoint_rep(lie2),), operators=(rb(lie2_rb),),
    )

    # -- its Yau twist by the diagonal automorphism diag(1, 2) -------------
    lie2_yau = yau_twist(lie2, dense(2, (0, 0, 1), (1, 1, 2)))
    fixtures["lie_dim2_yau"] = Bundle(
        structure=lie2_yau, declared_class=C.HOM_LIE,
        reps=(adjoint_rep(lie2_yau),),
    )

    # -- octonions ----------------------------------------------------------
    octo = make_structure(8, products={R.STAR: octonion_star()})
    zero8 = matrix([[F(0)] * 8 for _ in range(8)])
    fixtures["octonions"] = Bundle(
        structure=octo, declared_class=C.HOM_ALTERNATIVE,
        operators=(rb(zero8), rb(zero8)),
    )

    # -- imaginary octonions under the commutator ---------------------------
    octo_im = make_structure(7, products={R.BRACKET: octonion_imaginary_bracket()})
    fixtures["octonions_im"] = Bundle(structure=octo_im,
                                      declared_class=C.HOM_MALCEV)

    # -- dim-2 pre-Malcev: e0 . e0 = -e1 ------------------------------------
    pm2 = make_structure(2, products={R.DOT: tensor((0, 0, 1, -1))})
    pm2_rb_mat = dense(2, (1, 0, 1))  # e0 -> e1
    pm2_rep = regular_pre_malcev_rep(pm2)
    pm2_oop = OperatorWitness(kind=KIND_O_OPERATOR, matrix=pm2_rb_mat,
                              rep=pm2_rep)
    fixtures["premalcev_dim2"] = Bundle(
        structure=pm2, declared_class=C.HOM_PRE_MALCEV,
        reps=(pm2_rep,), operators=(rb(pm2_rb_mat), pm2_oop),
        forms=(BilinearForm(dense(2, (0, 1, 1), (1, 0, 1))),),
    )

    # -- its Yau twist by diag(2, 4) ----------------------------------------
    pm2_yau = yau_twist(pm2, dense(2, (0, 0, 2), (1, 1, 4)))
    fixtures["premalcev_dim2_yau"] = Bundle(
        structure=pm2_yau, declared_class=C.HOM_PRE_MALCEV,
    )

    # -- the split simple dim-3 Lie algebra: basis h, e, f ------------------
    sl2 = make_structure(
        3,
        products={R.BRACKET: tensor(
            (0, 1, 1, 2), (1, 0, 1, -2),
            (0, 2, 2, -2), (2, 0, 2, 2),
            (1, 2, 0, 1), (2, 1, 0, -1),
        )},
        basis=("h", "e", "f"),
    )
    sl2_r1 = dense(3, (0, 1, 1))  # e -> h
    sl2_r2 = dense(3, (2, 1, 1))  # e -> f
    fixtures["sl2_malcev"] = Bundle(
        structure=sl2, declared_class=C.HOM_MALCEV,
        operators=(rb(sl2_r1), rb(sl2_r2)),
    )

    # -- pre-Malcev induced from the first operator -------------------------
    pm_sl2 = induce(sl2, rb(sl2_r1), "malcev-to-premalcev-rb")
    fixtures["premalcev_sl2"] = Bundle(
        structure=pm_sl2, declared_class=C.HOM_PRE_MALCEV,
        reps=(regular_pre_malcev_rep(pm_sl2),),
        operators=(rb(sl2_r2),),
    )

    # -- two-product structure induced from the commuting pair --------------
    md_sl2 = induce_pair(sl2, rb(sl2_r1), rb(sl2_r2), "malcev-pair-to-mdendriform")
    fixtures["mdendri_sl2"] = Bundle(structure=md_sl2,
                                     declared_class=C.HOM_M_DENDRIFORM)

    # -- truncated polynomials Q[t]/(t^5) with monomial integration ---------
    tp = make_structure(
        5,
        products={R.STAR: {(i, j): {i + j: F(1)}
                           for i in range(5) for j in range(5) if i + j < 5}},
        basis=tuple(f"t{k}" for k in range(5)),
    )
    integ = dense(5, *((k + 1, k, F(1, k + 1)) for k in range(4)))
    fixtures["assoc_trunc_poly"] = Bundle(
        structure=tp, declared_class=C.HOM_ASSOCIATIVE, operators=(rb(integ),),
    )

    quadri_tp = induce_pair(tp, rb(integ), rb(integ), "alternative-pair-to-quadri")
    fixtures["quadri_trunc_poly"] = Bundle(structure=quadri_tp,
                                           declared_class=C.HOM_ALT_QUADRI)

    # -- upper-triangular 2x2 matrices: basis E11, E12, E22 ------------------
    t2 = make_structure(
        3,
        products={R.STAR: tensor((0, 0, 0, 1), (0, 1, 1, 1),
                                 (1, 2, 1, 1), (2, 2, 2, 1))},
        basis=("E11", "E12", "E22"),
    )
    t2_r1 = dense(3, (1, 0, 1))  # E11 -> E12
    t2_r2 = dense(3, (1, 2, 1))  # E22 -> E12
    fixtures["assoc_t2"] = Bundle(
        structure=t2, declared_class=C.HOM_ASSOCIATIVE,
        operators=(rb(t2_r1), rb(t2_r2)),
    )

    prealt_t2 = induce(t2, rb(t2_r1), "alternative-to-prealt-rb")
    fixtures["prealt_t2"] = Bundle(
        structure=prealt_t2, declared_class=C.HOM_PRE_ALTERNATIVE,
        reps=(regular_pre_alternative_rep(prealt_t2),),
    )

    # -- two-product multiplication tables entered literally ----------------
    fixtures["table_dim4"] = Bundle(structure=make_structure(
        4,
        products={
            R.TRI_RIGHT: tensor((0, 1, 2, 1), (1, 0, 2, -1)),
            R.TRI_LEFT: tensor((0, 0, 3, 1), (0, 1, 1, -1),
                               (0, 2, 2, 1), (0, 3, 3, -1)),
        },
        basis=("e1", "e2", "e3", "e4"),
    ))

    fixtures["table_dim5"] = Bundle(structure=make_structure(
        5,
        products={
            R.TRI_RIGHT: tensor((0, 3, 2, 1), (3, 0, 2, -1)),
            R.TRI_LEFT: tensor((0, 0, 1, -2), (0, 1, 2, -1),
                               (0, 3, 1, 1), (0, 4, 2, -2)),
        },
        basis=("e1", "e2", "e3", "e4", "e5"),
    ))

    return fixtures


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    fixtures = build()
    for name in sorted(fixtures):
        path = OUT / f"{name}.json"
        save_bundle(fixtures[name], path)
        print(f"wrote {path.relative_to(OUT.parents[2])}")
    stale = {p.name for p in OUT.glob("*.json")} - {f"{n}.json" for n in fixtures}
    for name in sorted(stale):
        print(f"stale fixture not regenerated: {name}")


if __name__ == "__main__":
    main()
