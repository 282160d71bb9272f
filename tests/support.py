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
    grid_mul,
    mat_identity,
    sv_fractions,
    sv_from_vector,
    sv_to_vector,
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


def mat_neg(a):
    """The entrywise negation of a dense matrix."""
    return tuple(tuple(-x for x in row) for row in a)


def product_eval(t, x, y):
    """Evaluate the bilinear product ``t`` on two dense vectors."""
    dim = len(x)
    validate_tensor(t, dim, "product")
    out = grid_mul(tensor_grid(t, dim), sv_from_vector(x), sv_from_vector(y))
    return sv_to_vector(sv_fractions(out), dim)


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


# ---------------------------------------------------------------------------
# fixture access
# ---------------------------------------------------------------------------

def load_fixture_bundle(name: str) -> Bundle:
    return load_bundle(fixture_path(name))


def eye(n: int):
    return mat_identity(n)
