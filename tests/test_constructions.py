"""Every construction against a dense reference.

Each product or action a construction builds is tabulated here by nested
loops over dense ``Fraction`` vectors, from the formula it implements
written out in Python: no law text, no compiled sweep and no sparse kernel
is read.  The inputs are chosen so that swapping the two arguments of a
formula, dropping one map from it, or raising a twist power by one changes
the result: twists and operators are not the identity, and the products
are not commutative.
"""
from __future__ import annotations

from fractions import Fraction

import pytest

import support
from homalg import (
    ActionRole,
    INDUCE_RECIPES,
    KIND_O_OPERATOR,
    PAIR_RECIPES,
    OperatorWitness,
    ProductRole,
    adjoint_rep,
    check_morphism,
    dual_malcev_rep,
    dual_pre_malcev_rep,
    induce,
    induce_pair,
    make_structure,
    regular_alternative_rep,
    regular_pre_alternative_rep,
    regular_pre_malcev_rep,
    twist_oop_setup,
    yau_twist,
)
from homalg.exact import mat_inverse

F = Fraction
A = ActionRole
P = ProductRole


# ---------------------------------------------------------------------------
# the dense reference
# ---------------------------------------------------------------------------

def unit(n, i):
    return [F(int(k == i)) for k in range(n)]


def image(m, u):
    """The matrix ``m`` (rows of Fractions) applied to the dense vector ``u``."""
    return [sum((row[c] * u[c] for c in range(len(u))), F(0)) for row in m]


def power(m, s, u):
    for _ in range(s):
        u = image(m, u)
    return u


def dense(t, rows, cols, out):
    """The sparse tensor ``t`` as nested lists ``[x][y][k]``."""
    d = [[[F(0)] * out for _ in range(cols)] for _ in range(rows)]
    for (x, y), cell in t.items():
        for k, v in cell.items():
            d[x][y][k] = F(v)
    return d


def mul(d, u, v):
    """The bilinear map of the dense tensor ``d`` at the dense vectors ``u`` and ``v``."""
    out = [F(0)] * len(d[0][0])
    for x in range(len(u)):
        for y in range(len(v)):
            for k in range(len(out)):
                out[k] += u[x] * v[y] * d[x][y][k]
    return out


def table(rows, cols, cell):
    """The sparse tensor of ``cell(x, y)`` over every basis pair."""
    out = {}
    for x in range(rows):
        for y in range(cols):
            v = cell(x, y)
            if any(v):
                out[x, y] = {k: c for k, c in enumerate(v) if c}
    return out


def columns(m):
    """The images of the basis vectors under ``m``."""
    return [image(m, unit(len(m[0]), j)) for j in range(len(m[0]))]


def mat_mul(a, b):
    return tuple(tuple(sum((a[r][k] * b[k][c] for k in range(len(b))), F(0))
                       for c in range(len(b[0]))) for r in range(len(a)))


def on(structure, role):
    n = structure.dim
    return dense(structure.products[role], n, n, n)


def acting(rep, role):
    n, m = rep.base.dim, rep.module_dim
    return dense(rep.actions[role], n, m, m)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def diag(*values):
    return support.dense(len(values), *[(i, i, v) for i, v in enumerate(values)])


def kron(a, b):
    """The Kronecker product of two matrices: ``a`` on the first factor, ``b`` on the second."""
    return tuple(tuple(a[r][c] * b[rb][cb] for c in range(len(a[0])) for cb in range(len(b[0])))
                 for r in range(len(a)) for rb in range(len(b)))


def tensored(b, c):
    """The algebra ``b (x) c`` of two one-product structures, on the basis
    ``e_x (x) f_y`` numbered ``x * c.dim + y``: ``(e_x (x) f_y)(e_u (x) f_v) =
    e_x e_u (x) f_y f_v``."""
    (gb,), (gc,) = b.products.values(), c.products.values()
    m = c.dim
    return make_structure(b.dim * m, products={P.STAR: support.tensor(*[
        (x * m + y, u * m + v, k * m + l, p * q)
        for (x, u), cb in gb.items() for (y, v), cc in gc.items()
        for k, p in cb.items() for l, q in cc.items()])})


def automorphic(structure, alpha):
    """``structure`` Yau-twisted by its automorphism ``alpha``: each product
    and the twist composed with it."""
    assert check_morphism(alpha, structure, structure).passed
    return yau_twist(structure, alpha)


@pytest.fixture(scope="module")
def env():
    sl2, t2 = support.sl2(), support.t2()
    s1, s2 = support.sl2_rb_ops()
    t1, u2 = support.t2_rb_ops()
    pm = induce(sl2, s1, "malcev-to-premalcev-rb")
    pa = induce(t2, t1, "alternative-to-prealt-rb")
    t2_op = make_structure(3, products={P.STAR: support.tensor(
        *[(j, i, k, v) for (i, j), cell in t2.products[P.STAR].items() for k, v in cell.items()])})
    # t2 and its opposite, both kept by the automorphism scaling E12
    split = make_structure(3, products={P.PREC: t2.products[P.STAR],
                                        P.SUCC: t2_op.products[P.STAR]})
    # a noncommutative algebra with a commuting Rota-Baxter pair whose
    # product is not zero: R = 1 (x) J for the integration J of Q[t]/(t^3), and 2R
    big = tensored(t2, support.trunc_poly(3))
    r = kron(support.eye(3), support.integration_op(3).matrix)
    big_ops = (OperatorWitness("rota-baxter", r),
               OperatorWitness("rota-baxter", tuple(tuple(2 * v for v in row) for row in r)))
    return {"sl2": sl2, "t2": t2, "s1": s1, "s2": s2, "t1": t1, "u2": u2, "pm": pm, "pa": pa,
            "big": big, "big_ops": big_ops,
            "big_pa": induce(big, big_ops[0], "alternative-to-prealt-rb"),
            # Yau twists by automorphisms: h, e, f scaled by 1, 2, 1/2; E11, E12, E22 by 1, 2, 1
            "sl2_yau": automorphic(sl2, diag(1, 2, F(1, 2))),
            "t2_yau": automorphic(t2, diag(1, 2, 1)),
            "dot_yau": automorphic(make_structure(3, products={P.DOT: t2.products[P.STAR]}),
                                   diag(1, 2, 1)),
            "split_yau": automorphic(split, diag(1, 2, 1)),
            "pm_yau": automorphic(pm, diag(1, 1, 3))}


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def regular(structure, s, sides):
    n, a = structure.dim, structure.twist
    out = {}
    for role, (left, right) in sides.items():
        g = on(structure, role)
        out[left] = table(n, n, lambda x, y: mul(g, power(a, s, unit(n, x)), unit(n, y)))
        out[right] = table(n, n, lambda x, y: mul(g, unit(n, y), power(a, s, unit(n, x))))
    return out


@pytest.mark.parametrize("s", [0, 1, 2])
def test_adjoint_rep_matches_dense_reference(env, s):
    st = env["sl2_yau"]
    n, com = st.dim, on(st, P.BRACKET)
    rep = adjoint_rep(st, s)
    assert rep.actions == {A.RHO: table(n, n, lambda x, y: mul(
        com, power(st.twist, s, unit(n, x)), unit(n, y)))}
    assert (rep.module_dim, rep.module_twist) == (n, st.twist)


@pytest.mark.parametrize("s", [0, 1, 2])
@pytest.mark.parametrize("build, name, sides", [
    (regular_pre_malcev_rep, "dot_yau", {P.DOT: (A.LEFT, A.RIGHT)}),
    (regular_alternative_rep, "t2_yau", {P.STAR: (A.LEFT, A.RIGHT)}),
    (regular_pre_alternative_rep, "split_yau", {P.PREC: (A.LEFT_PREC, A.RIGHT_PREC),
                                                P.SUCC: (A.LEFT_SUCC, A.RIGHT_SUCC)}),
], ids=["pre-malcev", "alternative", "pre-alternative"])
def test_regular_reps_match_dense_reference(env, s, build, name, sides):
    st = env[name]
    rep = build(st, s)
    assert rep.actions == regular(st, s, sides)
    assert (rep.module_dim, rep.module_twist) == (st.dim, st.twist)


def dualized(rep, p, sign, action, inverse):
    """The dual of ``action`` at ``p e_s``: its cell ``(s, r)`` at ``b`` is
    ``sign (c2 X(p e_s) e_b)_r``, or with ``inverse`` ``sign (X(p e_s) c2 e_b)_r``,
    for ``c2`` the inverse square of the module twist."""
    n, m = rep.base.dim, rep.module_dim
    c = mat_inverse(rep.module_twist)
    c2 = mat_mul(c, c)

    def cell(s, b):
        x = image(p, unit(n, s))
        if inverse:
            return [sign * v for v in mul(action, x, image(c2, unit(m, b)))]
        return [sign * v for v in image(c2, mul(action, x, unit(m, b)))]

    return table(n, m, lambda s, r: [cell(s, b)[r] for b in range(m)])


@pytest.mark.parametrize("variant", ["alpha", "alpha-inverse"])
def test_dual_malcev_rep_matches_dense_reference(env, variant):
    rep = adjoint_rep(env["sl2_yau"], 1)
    alpha = rep.base.twist
    inverse = variant == "alpha-inverse"
    p = mat_inverse(alpha) if inverse else alpha
    dual = dual_malcev_rep(rep, variant)
    assert dual.actions == {A.RHO: dualized(rep, p, -1, acting(rep, A.RHO), inverse)}
    assert dual.module_twist == mat_inverse(tuple(zip(*rep.module_twist)))


def test_dual_pre_malcev_rep_matches_dense_reference(env):
    rep = regular_pre_malcev_rep(env["dot_yau"], 1)
    left, right = acting(rep, A.LEFT), acting(rep, A.RIGHT)
    rho = [[[x - y for x, y in zip(lc, rc)] for lc, rc in zip(lr, rr)]
           for lr, rr in zip(left, right)]
    alpha = rep.base.twist
    dual = dual_pre_malcev_rep(rep)
    assert dual.actions == {A.LEFT: dualized(rep, alpha, -1, rho, False),
                            A.RIGHT: dualized(rep, alpha, 1, right, False)}


# ---------------------------------------------------------------------------
# induced structures
# ---------------------------------------------------------------------------

def oop(matrix, rep):
    return OperatorWitness(kind=KIND_O_OPERATOR, matrix=matrix, rep=rep)


def family(structure, w, form, rows):
    """The reference products of a one-operator recipe: for each ``out``, with
    ``T`` the operator, ``X`` the action and ``g`` the product of its row,
    ``X(T e_x) e_y`` (oop) and ``T e_x * e_y`` (rb), or ``X(T e_y) e_x`` and
    ``e_x * T e_y`` with ``swap``."""
    t = columns(w.matrix)
    if form == "oop":
        m = w.rep.module_dim
        acts = {act: acting(w.rep, act) for _, act, _, _ in rows}
        return {out: table(m, m, lambda x, y: (
                    mul(acts[act], t[y], unit(m, x)) if swap else mul(acts[act], t[x], unit(m, y))))
                for out, act, _, swap in rows}
    n = structure.dim
    return {out: table(n, n, lambda x, y: (
                mul(on(structure, role), unit(n, x), t[y]) if swap
                else mul(on(structure, role), t[x], unit(n, y))))
            for out, _, role, swap in rows}


FAMILIES = {
    "malcev-to-premalcev": ((P.DOT, A.RHO, P.BRACKET, False),),
    "premalcev-to-mdendriform": ((P.TRI_RIGHT, A.RIGHT, P.DOT, True),
                                 (P.TRI_LEFT, A.LEFT, P.DOT, False)),
    "alternative-to-prealt": ((P.SUCC, A.LEFT, P.STAR, False), (P.PREC, A.RIGHT, P.STAR, True)),
    "prealt-to-quadri": ((P.SE, A.LEFT_SUCC, P.SUCC, False), (P.NE, A.RIGHT_SUCC, P.SUCC, True),
                         (P.SW, A.LEFT_PREC, P.PREC, False), (P.NW, A.RIGHT_PREC, P.PREC, True)),
}


def recipe_input(env, family_name, form):
    """The structure and operator of each family, with an O-operator on the regular
    representation for ``oop``."""
    structure, op, regular_rep = {
        "malcev-to-premalcev": (env["sl2"], env["s1"], adjoint_rep),
        "premalcev-to-mdendriform": (env["pm"], env["s2"], regular_pre_malcev_rep),
        "alternative-to-prealt": (env["t2"], env["t1"], regular_alternative_rep),
        "prealt-to-quadri": (env["big_pa"], env["big_ops"][1], regular_pre_alternative_rep),
    }[family_name]
    return structure, (oop(op.matrix, regular_rep(structure)) if form == "oop" else op)


def compatible_input(env):
    """An invertible O-operator that is not the identity.  The identity is an
    O-operator on the bimodule of any two products ``>`` and ``<`` (see
    ``support.splitting_bimodule``) for their sum; moving its module by an
    invertible ``q`` makes the operator ``q^-1``."""
    md = make_structure(3, products={P.TRI_RIGHT: env["t2"].products[P.STAR],
                                     P.TRI_LEFT: env["pm"].products[P.DOT]})
    horiz, bimod = support.splitting_bimodule(md)
    q = support.dense(3, (0, 0, 1), (0, 1, 1), (1, 1, 2), (2, 0, -1), (2, 2, 1))
    w = support.transport_operator(oop(support.eye(3), bimod), horiz, support.eye(3), q)
    return horiz, w


def test_every_recipe_has_a_reference():
    assert sorted([f"{f}-{form}" for f in FAMILIES for form in ("oop", "rb")]
                  + ["premalcev-compatible-dendriform"]) == list(INDUCE_RECIPES)
    assert sorted(PAIRS) == list(PAIR_RECIPES)


@pytest.mark.parametrize("recipe", [r for r in INDUCE_RECIPES
                                    if r != "premalcev-compatible-dendriform"])
def test_induce_matches_dense_reference(env, recipe):
    name, _, form = recipe.rpartition("-")
    structure, w = recipe_input(env, name, form)
    got = induce(structure, w, recipe)
    assert got.products == family(structure, w, form, FAMILIES[name])
    assert got.twist == (w.rep.module_twist if form == "oop" else structure.twist)


def test_compatible_dendriform_matches_dense_reference(env):
    structure, w = compatible_input(env)
    n, rep = structure.dim, w.rep
    t, ti = w.matrix, mat_inverse(w.matrix)
    right, left = acting(rep, A.RIGHT), acting(rep, A.LEFT)
    got = induce(structure, w, "premalcev-compatible-dendriform")
    assert got.products == {
        P.TRI_RIGHT: table(n, n, lambda x, y: image(t, mul(right, unit(n, y),
                                                           image(ti, unit(n, x))))),
        P.TRI_LEFT: table(n, n, lambda x, y: image(t, mul(left, unit(n, x),
                                                          image(ti, unit(n, y)))))}


#: each pair recipe's product and, for each output, ``(f, g)`` of ``f e_x * g e_y``,
#: among the identity "", R1 "1", R2 "2" and R1 R2 "12"
PAIRS = {
    "malcev-pair-to-mdendriform": (P.BRACKET, {P.TRI_RIGHT: ("1", "2"), P.TRI_LEFT: ("12", "")}),
    "alternative-pair-to-quadri": (P.STAR, {P.SE: ("12", ""), P.NE: ("1", "2"),
                                            P.SW: ("2", "1"), P.NW: ("", "12")}),
}


@pytest.mark.parametrize("recipe, name", [
    ("malcev-pair-to-mdendriform", "sl2"), ("malcev-pair-to-mdendriform", "big-lie"),
    ("alternative-pair-to-quadri", "m2"), ("alternative-pair-to-quadri", "big")])
def test_induce_pair_matches_dense_reference(env, recipe, name):
    structure, (r1, r2) = {
        "sl2": (env["sl2"], (env["s1"], env["s2"])),
        "big": (env["big"], env["big_ops"]),
        "big-lie": (make_structure(9, products={P.BRACKET: support.tensor_commutator(
            env["big"].products[P.STAR])}), env["big_ops"]),
        "m2": (support.m2(), support.m2_rb_ops()),
    }[name]
    n, (role, rows) = structure.dim, PAIRS[recipe]
    maps = {"": support.eye(n), "1": r1.matrix, "2": r2.matrix,
            "12": mat_mul(r1.matrix, r2.matrix)}
    g = on(structure, role)
    got = induce_pair(structure, r1, r2, recipe)
    assert got.products == {out: table(n, n, lambda x, y: mul(
        g, image(maps[f], unit(n, x)), image(maps[h], unit(n, y)))) for out, (f, h) in rows.items()}


# ---------------------------------------------------------------------------
# twists
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, alpha", [("sl2", diag(1, 2, F(1, 2))), ("t2", diag(1, 2, 1))])
def test_yau_twist_matches_dense_reference(env, name, alpha):
    st = env[name]
    n = st.dim
    got = yau_twist(st, alpha)
    assert got.products == {role: table(n, n, lambda x, y: image(
        alpha, mul(on(st, role), unit(n, x), unit(n, y)))) for role in st.products}
    assert got.twist == mat_mul(st.twist, alpha)


def test_twist_oop_setup_matches_dense_reference(env):
    pm = env["pm_yau"]
    n, gam = pm.dim, pm.twist
    rep = regular_pre_malcev_rep(pm)
    w = oop(support.mat_zero(n, n), rep)
    s, new_rep, new_w = twist_oop_setup(pm, w, gam, gam)
    assert s.products == {P.DOT: table(n, n, lambda x, y: image(
        gam, mul(on(pm, P.DOT), unit(n, x), unit(n, y))))}
    assert new_rep.actions == {role: table(n, n, lambda x, y: image(
        gam, mul(acting(rep, role), unit(n, x), unit(n, y)))) for role in rep.actions}
    assert (s.twist, new_rep.module_twist, new_w.matrix) == (gam, gam, w.matrix)
