"""Shared builders for the test suites.

Everything here goes through the public package API; independent reference
data lives in ``oracles.py`` instead.  Builders return fresh objects so tests
can mutate copies freely.
"""
from __future__ import annotations

from fractions import Fraction

import oracles
from homalg import (
    ActionRole,
    Bundle,
    HomStructure,
    OperatorWitness,
    ProductRole,
    Representation,
    StructureClass,
    adjoint_rep,
    load_bundle,
    make_structure,
)
from homalg.exact import (
    apply_cols,
    grid_mul,
    mat_cols,
    mat_fractions,
    mat_identity,
    mat_inverse,
    mat_lincomb,
    mat_mul,
    mat_transpose,
    tensor_from_entries,
    tensor_grid,
    validate_tensor,
)
from homalg.fixtures import fixture_path

F = Fraction


def tensor(*entries):
    """Build a product tensor from ``(i, j, k, value)`` entries."""
    out: dict = {}
    for i, j, k, val in entries:
        out.setdefault((i, j), {})[k] = F(val)
    return out


def dense(dim: int, *entries):
    """Dense ``dim x dim`` matrix from ``(row, col, value)`` entries."""
    rows = [[F(0)] * dim for _ in range(dim)]
    for r, c, val in entries:
        rows[r][c] = F(val)
    return tuple(tuple(row) for row in rows)


def oracle_table_to_tensor(table):
    """Convert an oracle multiplication table to an engine product tensor."""
    out: dict = {}
    for (i, j), sv in table.items():
        cleaned = {k: F(v) for k, v in sv.items() if v}
        if cleaned:
            out[(i, j)] = cleaned
    return out


def oracle_cols_to_matrix(cols, dim: int):
    """Convert oracle column-dict form to a dense matrix."""
    rows = [[F(0)] * dim for _ in range(dim)]
    for c, sv in cols.items():
        for r, v in sv.items():
            rows[r][c] = F(v)
    return tuple(tuple(row) for row in rows)


def entries_matrix(dim: int, entries):
    """Dense matrix from oracle ``(row, col, value)`` operator entries."""
    return dense(dim, *entries)


def basis_vector(dim: int, i: int):
    """The dense ``i``-th basis vector of length ``dim``."""
    return tuple(F(1) if j == i else F(0) for j in range(dim))


def mat_zero(rows: int, cols: int):
    """The dense ``rows x cols`` zero matrix."""
    return tuple(tuple(F(0) for _ in range(cols)) for _ in range(rows))


def mat_neg(a):
    """The entrywise negation of a dense matrix."""
    return tuple(tuple(-x for x in row) for row in a)


def vector(values):
    """The dense vector of ``values`` as Fractions."""
    return tuple(F(v) for v in values)


def sparse(v):
    """The nonzero entries of the dense vector ``v``, by index."""
    return {i: c for i, c in enumerate(v) if c}


def densify(u, dim: int):
    """The dense length-``dim`` vector of the sparse vector ``u``."""
    return tuple(u.get(i, F(0)) for i in range(dim))


def slice_tensor(slices):
    """The action tensor ``(s, b) -> {r: value}`` of dense ``m x m`` slices,
    one per base vector ``e_s``: column ``b`` of slice ``s`` is ``rho(e_s) e_b``."""
    return {(s, b): cell for s, mat in enumerate(slices) for b in range(len(mat))
            if (cell := {r: F(row[b]) for r, row in enumerate(mat) if row[b]})}


def tensor_slices(t, n: int, m: int):
    """The ``n`` dense ``m x m`` slices of the action tensor ``t``; the
    inverse of :func:`slice_tensor`."""
    return tuple(tuple(tuple(t.get((s, b), {}).get(r, F(0)) for b in range(m))
                       for r in range(m)) for s in range(n))


# The linear operations on product tensors, written out once here as the
# independent reference for the derived products, splits and constructions
# that the package writes as formulas read by ``structures.combine``.

def tensor_add(a, b):
    out = {key: dict(cell) for key, cell in a.items()}
    for key, cell in b.items():
        tgt = out.setdefault(key, {})
        for k, v in cell.items():
            nv = tgt.get(k, F(0)) + v
            if nv:
                tgt[k] = nv
            else:
                tgt.pop(k, None)
    return {key: cell for key, cell in out.items() if cell}


def tensor_neg(a):
    return {key: {k: -v for k, v in cell.items()} for key, cell in a.items()}


def tensor_sub(a, b):
    return tensor_add(a, tensor_neg(b))


def tensor_flip(a):
    """Swap the two inputs: the flip of ``*`` sends ``(x, y)`` to ``y * x``."""
    return {(j, i): dict(cell) for (i, j), cell in a.items()}


def tensor_commutator(a):
    return tensor_sub(a, tensor_flip(a))


def sv_fractions(u):
    """The canonical ``Fraction`` entries of an integer vector."""
    den = u.den
    return {k: Fraction(n, den) for k, n in u.items()}


def push_product(t, f):
    """New product ``x *' y = f(x * y)``."""
    cols = mat_cols(f)
    out: dict = {}
    for key, cell in t.items():
        pushed = apply_cols(cols, cell)
        if pushed:
            out[key] = sv_fractions(pushed)
    return out


def product_eval(t, x, y):
    """Evaluate the bilinear product ``t`` on two dense vectors."""
    dim = len(x)
    validate_tensor(t, dim, "product")
    out = grid_mul(tensor_grid(t, dim), sparse(x), sparse(y))
    return densify(sv_fractions(out), dim)


# ---------------------------------------------------------------------------
# reference structures
# ---------------------------------------------------------------------------

def lie2() -> HomStructure:
    """Dim-2 Lie algebra [e0, e1] = e1, identity twist."""
    return make_structure(
        2,
        products={ProductRole.BRACKET: tensor((0, 1, 1, 1), (1, 0, 1, -1))},
    )


def lie2_yau() -> HomStructure:
    """Same bracket pushed through the automorphism diag(1, 2)."""
    gamma = dense(2, (0, 0, 1), (1, 1, 2))
    return make_structure(
        2,
        twist=gamma,
        products={ProductRole.BRACKET: tensor((0, 1, 1, 2), (1, 0, 1, -2))},
    )


def sl2() -> HomStructure:
    """sl2 with basis (h, e, f), identity twist."""
    return make_structure(
        3,
        products={ProductRole.BRACKET: oracle_table_to_tensor(oracles.sl2_table())},
        basis=("h", "e", "f"),
    )


def t2() -> HomStructure:
    """Upper-triangular 2x2 matrices (E11, E12, E22) under multiplication."""
    return make_structure(
        3,
        products={ProductRole.STAR: oracle_table_to_tensor(oracles.t2_table())},
        basis=("E11", "E12", "E22"),
    )


def m2() -> HomStructure:
    """Full 2x2 matrices (E11, E12, E21, E22) under multiplication."""
    return make_structure(
        4,
        products={ProductRole.STAR: oracle_table_to_tensor(oracles.m2_table())},
        basis=("E11", "E12", "E21", "E22"),
    )


def octonions() -> HomStructure:
    """Dim-8 alternative algebra built from the oracle's doubling table."""
    return make_structure(
        8,
        products={ProductRole.STAR: oracle_table_to_tensor(oracles.octonion_table())},
    )


def trunc_poly(n: int = 5) -> HomStructure:
    """Truncated polynomial algebra Q[t]/(t^n), basis t^0..t^{n-1}."""
    return make_structure(
        n,
        products={ProductRole.STAR: oracle_table_to_tensor(oracles.trunc_poly_table(n))},
        basis=tuple(f"t{k}" for k in range(n)),
    )


def premalcev2() -> HomStructure:
    """Dim-2 pre-Malcev algebra with e0 . e0 = -e1."""
    return make_structure(2, products={ProductRole.DOT: tensor((0, 0, 1, -1))})


def premalcev2_yau() -> HomStructure:
    """The same product pushed through the automorphism diag(2, 4)."""
    gamma = dense(2, (0, 0, 2), (1, 1, 4))
    return make_structure(
        2,
        twist=gamma,
        products={ProductRole.DOT: tensor((0, 0, 1, -4))},
    )


def zero_structure(dim: int = 2) -> HomStructure:
    return make_structure(dim, products={ProductRole.BRACKET: {}})


def with_extra(s: HomStructure, roles, source: ProductRole | None = None) -> HomStructure:
    """``s`` that also stores each product role in ``roles``: a copy of its
    product ``source``, or with none a zero product."""
    tensor = s.products[source] if source else {}
    return make_structure(s.dim, twist=s.twist, basis=s.basis, meta=dict(s.meta),
                          products={**s.products, **dict.fromkeys(roles, tensor)})


# ---------------------------------------------------------------------------
# reference operators (verified independently in oracles.py / test_oracles)
# ---------------------------------------------------------------------------

def sl2_rb_ops() -> tuple[OperatorWitness, OperatorWitness]:
    r1 = entries_matrix(3, oracles.SL2_R1)
    r2 = entries_matrix(3, oracles.SL2_R2)
    return (OperatorWitness("rota-baxter", r1), OperatorWitness("rota-baxter", r2))


def t2_rb_ops() -> tuple[OperatorWitness, OperatorWitness]:
    r1 = entries_matrix(3, oracles.T2_R1)
    r2 = entries_matrix(3, oracles.T2_R2)
    return (OperatorWitness("rota-baxter", r1), OperatorWitness("rota-baxter", r2))


def m2_rb_ops() -> tuple[OperatorWitness, OperatorWitness]:
    r1 = entries_matrix(4, oracles.M2_R1)
    r2 = entries_matrix(4, oracles.M2_R2)
    return (OperatorWitness("rota-baxter", r1), OperatorWitness("rota-baxter", r2))


def lie2_rb_op() -> OperatorWitness:
    return OperatorWitness("rota-baxter", entries_matrix(2, oracles.LIE2_RB))


def integration_op(n: int = 5) -> OperatorWitness:
    cols = oracles.integration_cols(n)
    return OperatorWitness("rota-baxter", oracle_cols_to_matrix(cols, n))


def lie2_adjoint() -> Representation:
    return adjoint_rep(lie2())


def identity_rep(structure: HomStructure) -> Representation:
    """Regular Malcev representation rho(x) = ad_x packaged explicitly."""
    return adjoint_rep(structure)


def splitting_bimodule(md: HomStructure) -> tuple[HomStructure, Representation]:
    """The horizontal pre-Malcev structure ``x . y = x > y + x < y`` of an
    M-dendriform structure, and the bimodule on which it acts by ``l(x) y =
    x < y`` and ``r(x) y = y > x``: the identity is an invertible O-operator
    there, and it induces ``md`` back."""
    n = md.dim
    tl, tr = md.products[ProductRole.TRI_LEFT], md.products[ProductRole.TRI_RIGHT]
    horiz = make_structure(n, products={
        ProductRole.DOT: tensor_from_entries(
            (i, j, k, v) for t in (tr, tl) for (i, j), cell in t.items()
            for k, v in cell.items())})
    tlg, trg = tensor_grid(tl, n), tensor_grid(tr, n)
    left = tuple(tuple(tuple((tlg[i][b] or {}).get(r, F(0)) for b in range(n))
                       for r in range(n)) for i in range(n))
    right = tuple(tuple(tuple((trg[b][i] or {}).get(r, F(0)) for b in range(n))
                        for r in range(n)) for i in range(n))
    bimod = Representation(base=horiz, module_dim=n, module_twist=mat_identity(n),
                           actions={ActionRole.LEFT: slice_tensor(left),
                                    ActionRole.RIGHT: slice_tensor(right)})
    return horiz, bimod


# ---------------------------------------------------------------------------
# transport along basis changes
# ---------------------------------------------------------------------------

def mat_product(*ms):
    """The product of dense rational matrices, left to right."""
    out = ms[0]
    for m in ms[1:]:
        cols = list(zip(*m))
        out = tuple(tuple(sum((x * y for x, y in zip(row, col)), F(0)) for col in cols)
                    for row in out)
    return out


def transport_structure(s: HomStructure, p) -> HomStructure:
    """The copy of ``s`` moved by the invertible ``p``: each product ``c``
    becomes ``p c(p^-1 x, p^-1 y)`` and the twist ``p alpha p^-1``."""
    n, pinv = s.dim, mat_inverse(p)
    pc, qc = mat_cols(p), mat_cols(pinv)
    products = {}
    for role, t in s.products.items():
        grid = tensor_grid(t, n)
        products[role] = tensor_from_entries(
            (i, j, k, v) for i in range(n) for j in range(n)
            for k, v in sv_fractions(apply_cols(pc, grid_mul(grid, qc[i], qc[j]))).items())
    return make_structure(n, twist=mat_product(p, s.twist, pinv), products=products,
                          basis=s.basis, meta=dict(s.meta))


def transport_rep(rep: Representation, base: HomStructure, p, q) -> Representation:
    """``rep`` moved by ``p`` on its base (whose moved copy is ``base``) and
    by the invertible ``q`` on its module: each action becomes
    ``q X(p^-1 x) q^-1`` and the module twist ``q beta q^-1``."""
    m, pinv, qinv = rep.module_dim, mat_inverse(p), mat_inverse(q)
    actions = {}
    for role, t in rep.actions.items():
        moved = [mat_product(q, s, qinv) for s in tensor_slices(t, base.dim, m)]
        actions[role] = slice_tensor(
            tuple(tuple(sum((pinv[a][i] * moved[a][r][c] for a in range(len(moved))), F(0))
                        for c in range(m)) for r in range(m))
            for i in range(len(moved)))
    return Representation(base=base, module_dim=m,
                          module_twist=mat_product(q, rep.module_twist, qinv),
                          actions=actions)


def transport_operator(w: OperatorWitness, base: HomStructure, p, q) -> OperatorWitness:
    """A Rota-Baxter map ``R`` moved to ``p R p^-1``; a relative operator
    ``T`` to ``p T q^-1`` on its representation moved by :func:`transport_rep`."""
    if w.rep is None:
        return OperatorWitness(w.kind, mat_product(p, w.matrix, mat_inverse(p)),
                               weight=w.weight)
    return OperatorWitness(w.kind, mat_product(p, w.matrix, mat_inverse(q)),
                           rep=transport_rep(w.rep, base, p, q))


# ---------------------------------------------------------------------------
# duals of representations, on dense slices
# ---------------------------------------------------------------------------

# The dual builders as matrix formulas on one dense slice per base vector: the
# independent reference for the package's, which work on action tensors.

def _dual_setup(rep: Representation):
    beta_t = mat_transpose(rep.module_twist)
    beta_t_inv = mat_inverse(beta_t)
    beta_t_inv2 = mat_mul(beta_t_inv, beta_t_inv)
    return beta_t_inv, beta_t_inv2


def dual_malcev_rep(rep: Representation, variant: str = "alpha") -> Representation:
    """Action on the dual module: minus transpose composed with inverse twist
    powers, by the formula ``variant`` names."""
    alpha_inv = mat_inverse(rep.base.twist)
    beta_t_inv, beta_t_inv2 = _dual_setup(rep)
    m = rep.module_dim
    rho = tensor_slices(rep.actions[ActionRole.RHO], rep.base.dim, m)
    acols = mat_cols(rep.base.twist)
    ai_cols = mat_cols(alpha_inv)
    dual = []
    for i in range(rep.base.dim):
        x = acols[i] if variant == "alpha" else ai_cols[i]
        rho_t = mat_transpose(mat_fractions(mat_lincomb(x, rho, m, m)))
        mat = mat_mul(rho_t, beta_t_inv2) if variant == "alpha" else mat_mul(beta_t_inv2, rho_t)
        dual.append(tuple(tuple(-v for v in row) for row in mat_fractions(mat)))
    return Representation(
        base=rep.base, module_dim=m, module_twist=beta_t_inv,
        actions={ActionRole.RHO: slice_tensor(dual)},
    )


def dual_pre_malcev_rep(rep: Representation) -> Representation:
    """Dual actions: the new left action is minus the transposed difference
    action at the twisted argument, the new right action the transposed right
    action, both composed with the inverse-squared dual twist."""
    beta_t_inv, beta_t_inv2 = _dual_setup(rep)
    m = rep.module_dim
    acols = mat_cols(rep.base.twist)
    ell = tensor_slices(rep.actions[ActionRole.LEFT], rep.base.dim, m)
    arr = tensor_slices(rep.actions[ActionRole.RIGHT], rep.base.dim, m)
    rho = tuple(mat_lincomb({0: 1, 1: -1}, (ell[i], arr[i]), m, m) for i in range(rep.base.dim))
    new_left = []
    new_right = []
    for i in range(rep.base.dim):
        rho_a_t = mat_transpose(mat_fractions(mat_lincomb(acols[i], rho, m, m)))
        r_a_t = mat_transpose(mat_fractions(mat_lincomb(acols[i], arr, m, m)))
        new_left.append(tuple(tuple(-v for v in row) for row in
                              mat_fractions(mat_mul(rho_a_t, beta_t_inv2))))
        new_right.append(mat_fractions(mat_mul(r_a_t, beta_t_inv2)))
    return Representation(
        base=rep.base, module_dim=m, module_twist=beta_t_inv,
        actions={ActionRole.LEFT: slice_tensor(new_left),
                 ActionRole.RIGHT: slice_tensor(new_right)},
    )


# ---------------------------------------------------------------------------
# fixture access
# ---------------------------------------------------------------------------

def load_fixture_bundle(name: str) -> Bundle:
    return load_bundle(fixture_path(name))


def eye(n: int):
    return mat_identity(n)
