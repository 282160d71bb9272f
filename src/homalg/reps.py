"""Representations of twisted algebras: checkers, regular/adjoint builders,
duals, and semidirect products.

An action is stored as one module-sized matrix per basis element of the base
algebra; all identity checks sweep base-basis tuples crossed with module basis
vectors and report exact residual columns.
"""
from __future__ import annotations

import time
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .exact import (
    DimensionMismatch,
    Imat,
    Ivec,
    Matrix,
    Tensor,
    apply_cols,
    as_imat,
    grid_mul,
    mat_add,
    mat_cols,
    mat_fractions,
    mat_identity,
    mat_inverse,
    mat_lincomb,
    mat_mul,
    mat_shape,
    mat_sub,
    mat_transpose,
    matrix,
    sv_add,
    sv_basis,
    sv_fractions,
    tensor_add,
    tensor_commutator,
    tensor_from_entries,
    tensor_grid,
)
from .structures import (
    CheckReport,
    HomStructure,
    ProductRole,
    Record,
    RoleMismatch,
    StructureClass,
    _mult_identities,
    _sweep,
    _table2,
    _table3,
    derived_product,
    make_structure,
)


class NotMultiplicative(ValueError):
    """A twisted-power construction needs the twist to be a product morphism."""


class ActionRole(Enum):
    """Slots an action map can occupy in a representation."""

    RHO = "rho"                  # single Malcev-type action
    LEFT = "left"                # left action (pre-Malcev or alternative)
    RIGHT = "right"              # right action (pre-Malcev or alternative)
    LEFT_PREC = "left-prec"      # left action of the "precedes" product
    RIGHT_PREC = "right-prec"    # right action of the "precedes" product
    LEFT_SUCC = "left-succ"      # left action of the "succeeds" product
    RIGHT_SUCC = "right-succ"    # right action of the "succeeds" product


MALCEV_ACTIONS = frozenset({ActionRole.RHO})
PRE_MALCEV_ACTIONS = frozenset({ActionRole.LEFT, ActionRole.RIGHT})
PRE_ALTERNATIVE_ACTIONS = frozenset(
    {ActionRole.LEFT_PREC, ActionRole.RIGHT_PREC,
     ActionRole.LEFT_SUCC, ActionRole.RIGHT_SUCC}
)


class Representation(Record):
    """Actions of a structure on a module, with a module twist."""

    base: HomStructure
    module_dim: int
    module_twist: Matrix
    actions: Mapping[ActionRole, tuple[Matrix, ...]]

    def __init__(self, base: HomStructure, module_dim: int,
                 module_twist: Matrix,
                 actions: Mapping[ActionRole, tuple[Matrix, ...]]):
        d = self.__dict__
        d["base"], d["module_dim"] = base, module_dim
        d["module_twist"], d["actions"] = module_twist, actions
        if self.module_dim < 1:
            raise DimensionMismatch(
                f"module dimension must be positive, got {self.module_dim}"
            )
        twist = matrix(self.module_twist)
        m = self.module_dim
        if mat_shape(twist) != (m, m):
            raise DimensionMismatch(
                f"module twist must be {m}x{m}, got {mat_shape(twist)}"
            )
        actions: dict[ActionRole, tuple[Matrix, ...]] = {}
        for role in sorted(self.actions, key=lambda r: r.value):
            slices = tuple(matrix(s) for s in self.actions[role])
            if len(slices) != self.base.dim:
                raise DimensionMismatch(
                    f"action '{role.value}' has {len(slices)} slices for base "
                    f"dimension {self.base.dim}"
                )
            for i, s in enumerate(slices):
                if mat_shape(s) != (m, m):
                    raise DimensionMismatch(
                        f"action '{role.value}' slice {i} must be {m}x{m}, "
                        f"got {mat_shape(s)}"
                    )
            actions[role] = slices
        d["module_twist"], d["actions"] = twist, actions

    def roles(self) -> frozenset[ActionRole]:
        return frozenset(self.actions)

    def int_slices(self, role: ActionRole) -> tuple[Imat, ...]:
        """The slices of action ``role`` as integer matrices, for a sweep."""
        return tuple(as_imat(s) for s in self.actions[role])


MatIdentity = tuple[str, int, Callable[..., Imat]]


def _malcev_action_identities(dim: int, bracket: Tensor, alpha: Matrix,
                              rho: Sequence[Imat], beta: Matrix,
                              m: int) -> list[MatIdentity]:
    """The equivariance and four-term action laws for a Malcev-type action."""
    grid = tensor_grid(bracket, dim)
    cell = grid.ints
    acols = mat_cols(alpha)
    a2cols = mat_cols(mat_mul(alpha, alpha))
    beta = as_imat(beta)
    beta2 = mat_mul(beta, beta)

    def rho_of(sv: Ivec) -> Imat:
        return mat_lincomb(sv, rho, m, m)

    rho_a = [rho_of(acols[i]) for i in range(dim)]
    rho_a2 = [rho_of(a2cols[i]) for i in range(dim)]
    # rho(x) beta^2 is the combination of the rho(e_s) beta^2
    rho_b2 = [mat_mul(r, beta2) for r in rho]
    rho_a_b = [mat_mul(r, beta) for r in rho_a]
    a2_a = _table2(dim, lambda i, j: mat_mul(rho_a2[i], rho_a[j]))
    cell_b = _table2(dim, lambda k, i: mat_mul(rho_of(cell[k][i]), beta))
    a_cell = _table2(dim, lambda j, k: rho_of(apply_cols(acols, cell[j][k])))

    def eq(i):
        return mat_sub(mat_mul(rho_a[i], beta), mat_mul(beta, rho[i]))

    def four(i, j, k):
        lhs = mat_lincomb(grid_mul(grid, cell[i][j], acols[k]), rho_b2, m, m)
        rhs = mat_sub(mat_mul(a2_a[i][j], rho[k]), mat_mul(a2_a[k][i], rho[j]))
        rhs = mat_add(rhs, mat_mul(rho_a2[j], cell_b[k][i]))
        rhs = mat_sub(rhs, mat_mul(a_cell[j][k], rho_a_b[i]))
        return mat_sub(lhs, rhs)

    return [("MREP-EQ", 1, eq), ("MREP-4T", 3, four)]


def _pre_malcev_rep_identities(rep: Representation) -> list[MatIdentity]:
    base = rep.base
    dim, m = base.dim, rep.module_dim
    dot = base.products[ProductRole.DOT]
    dgrid = tensor_grid(dot, dim)
    cgrid = tensor_grid(tensor_commutator(dot), dim)
    acols = mat_cols(base.twist)
    a2cols = mat_cols(mat_mul(base.twist, base.twist))
    beta = as_imat(rep.module_twist)
    beta2 = mat_mul(beta, beta)
    ell = rep.int_slices(ActionRole.LEFT)
    arr = rep.int_slices(ActionRole.RIGHT)
    rho = tuple(mat_sub(ell[i], arr[i]) for i in range(dim))

    def l_of(sv):
        return mat_lincomb(sv, ell, m, m)

    def r_of(sv):
        return mat_lincomb(sv, arr, m, m)

    def rho_of(sv):
        return mat_lincomb(sv, rho, m, m)

    l_a = [l_of(acols[i]) for i in range(dim)]
    l_a2 = [l_of(a2cols[i]) for i in range(dim)]
    r_a = [r_of(acols[i]) for i in range(dim)]
    r_a2 = [r_of(a2cols[i]) for i in range(dim)]
    rho_a = [rho_of(acols[i]) for i in range(dim)]
    d, c = dgrid.ints, cgrid.ints
    # r(x) beta^2 is the combination of the r(e_s) beta^2
    r_b2 = [mat_mul(x, beta2) for x in arr]
    r_a_b = [mat_mul(x, beta) for x in r_a]
    rho_a_b = [mat_mul(x, beta) for x in rho_a]
    r2_rho = _table2(dim, lambda i, j: mat_mul(r_a2[i], rho_a[j]))
    l2_r = _table2(dim, lambda k, i: mat_mul(l_a2[k], r_a[i]))
    l2_l = _table2(dim, lambda j, k: mat_mul(l_a2[j], l_a[k]))
    rd_b = _table2(dim, lambda k, i: mat_mul(r_of(d[k][i]), beta))
    rhoc_b = _table2(dim, lambda j, k: mat_mul(rho_of(c[j][k]), beta))
    l_ac = _table2(dim, lambda j, k: l_of(apply_cols(acols, c[j][k])))
    r_ad = _table2(dim, lambda k, i: r_of(apply_cols(acols, d[k][i])))
    # (a e_x)(e_y e_z), read by both PMREP-2 and PMREP-4
    a_d = _table3(dim, lambda x, y, z: grid_mul(dgrid, acols[x], d[y][z]))

    identities = _malcev_action_identities(
        dim, tensor_commutator(dot), base.twist, ell, beta, m
    )

    def pm1(i):
        return mat_sub(mat_mul(beta, arr[i]), mat_mul(r_a[i], beta))

    def pm2(i, j, k):
        acc = mat_mul(r2_rho[i][j], rho[k])
        acc = mat_sub(acc, mat_lincomb(a_d[k][j][i], r_b2, m, m))
        acc = mat_add(acc, mat_mul(l_a2[j], rd_b[k][i]))
        acc = mat_add(acc, mat_mul(l_ac[j][k], r_a_b[i]))
        return mat_sub(acc, mat_mul(l2_r[k][i], rho[j]))

    def pm3(i, j, k):
        acc = mat_mul(l2_l[j][k], arr[i])
        acc = mat_sub(acc, mat_mul(r2_rho[i][j], rho[k]))
        acc = mat_sub(acc, mat_mul(l_a2[k], rd_b[j][i]))
        acc = mat_sub(acc, mat_mul(r_ad[k][i], rho_a_b[j]))
        return mat_add(acc, mat_lincomb(grid_mul(dgrid, c[k][j], acols[i]), r_b2, m, m))

    def pm4(i, j, k):
        acc = mat_lincomb(a_d[j][k][i], r_b2, m, m)
        acc = mat_add(acc, mat_mul(r_a2[i], rhoc_b[j][k]))
        acc = mat_sub(acc, mat_mul(l2_l[j][k], arr[i]))
        acc = mat_add(acc, mat_mul(r_ad[j][i], rho_a_b[k]))
        return mat_add(acc, mat_mul(l2_r[k][i], rho[j]))

    identities.extend([
        ("PMREP-1", 1, pm1),
        ("PMREP-2", 3, pm2),
        ("PMREP-3", 3, pm3),
        ("PMREP-4", 3, pm4),
    ])
    return identities


def _pre_alternative_rep_identities(rep: Representation, *,
                                    equivariance: bool) -> list[MatIdentity]:
    base = rep.base
    dim, m = base.dim, rep.module_dim
    prec = base.products[ProductRole.PREC]
    succ = base.products[ProductRole.SUCC]
    pgrid = tensor_grid(prec, dim)
    sgrid = tensor_grid(succ, dim)
    stgrid = tensor_grid(tensor_add(prec, succ), dim)
    acols = mat_cols(base.twist)
    beta = as_imat(rep.module_twist)
    Lp = rep.int_slices(ActionRole.LEFT_PREC)
    Rp = rep.int_slices(ActionRole.RIGHT_PREC)
    Ls = rep.int_slices(ActionRole.LEFT_SUCC)
    Rs = rep.int_slices(ActionRole.RIGHT_SUCC)
    L = tuple(mat_add(Lp[i], Ls[i]) for i in range(dim))
    R = tuple(mat_add(Rp[i], Rs[i]) for i in range(dim))

    def lp_of(sv):
        return mat_lincomb(sv, Lp, m, m)

    def rp_of(sv):
        return mat_lincomb(sv, Rp, m, m)

    def ls_of(sv):
        return mat_lincomb(sv, Ls, m, m)

    def rs_of(sv):
        return mat_lincomb(sv, Rs, m, m)

    lp_a = [lp_of(acols[i]) for i in range(dim)]
    rp_a = [rp_of(acols[i]) for i in range(dim)]
    ls_a = [ls_of(acols[i]) for i in range(dim)]
    rs_a = [rs_of(acols[i]) for i in range(dim)]

    def p(i, j):
        return pgrid.ints[i][j]

    def s(i, j):
        return sgrid.ints[i][j]

    def st(i, j):
        return stgrid.ints[i][j]

    def pabm1(i, j):
        lhs = mat_mul(ls_of(sv_add(st(i, j), st(j, i))), beta)
        return mat_sub(lhs, mat_add(mat_mul(ls_a[i], Ls[j]), mat_mul(ls_a[j], Ls[i])))

    def pabm2(i, j):
        lhs = mat_mul(rs_a[j], mat_add(L[i], R[i]))
        rhs = mat_add(mat_mul(ls_a[i], Rs[j]), mat_mul(rs_of(s(i, j)), beta))
        return mat_sub(lhs, rhs)

    def pabm3(i, j):
        lhs = mat_add(mat_mul(rp_a[j], Ls[i]), mat_mul(rp_a[j], Rp[i]))
        rhs = mat_add(mat_mul(ls_a[i], Rp[j]), mat_mul(rp_of(st(i, j)), beta))
        return mat_sub(lhs, rhs)

    def pabm4(i, j):
        lhs = mat_add(mat_mul(rp_a[j], Rs[i]), mat_mul(rp_a[j], Lp[i]))
        rhs = mat_add(mat_mul(lp_a[i], R[j]), mat_mul(rs_of(p(i, j)), beta))
        return mat_sub(lhs, rhs)

    def pabm5(i, j):
        lhs = mat_add(mat_mul(lp_of(p(j, i)), beta), mat_mul(lp_of(s(i, j)), beta))
        rhs = mat_add(mat_mul(lp_a[j], L[i]), mat_mul(ls_a[i], Lp[j]))
        return mat_sub(lhs, rhs)

    def pabm6(i, j):
        lhs = mat_add(mat_mul(rp_a[i], Ls[j]), mat_mul(ls_of(st(j, i)), beta))
        rhs = mat_add(mat_mul(ls_a[j], Rp[i]), mat_mul(ls_a[j], Ls[i]))
        return mat_sub(lhs, rhs)

    def pabm7(i, j):
        lhs = mat_add(mat_mul(rp_a[i], Rs[j]), mat_mul(rs_a[j], R[i]))
        rhs = mat_add(mat_mul(rs_of(p(j, i)), beta), mat_mul(rs_of(s(i, j)), beta))
        return mat_sub(lhs, rhs)

    def pabm8(i, j):
        lhs = mat_add(mat_mul(lp_of(s(j, i)), beta), mat_mul(rs_a[i], L[j]))
        rhs = mat_add(mat_mul(ls_a[j], Lp[i]), mat_mul(ls_a[j], Rs[i]))
        return mat_sub(lhs, rhs)

    def pabm9(i, j):
        lhs = mat_add(mat_mul(rp_a[i], Rp[j]), mat_mul(rp_a[j], Rp[i]))
        return mat_sub(lhs, mat_mul(rp_of(sv_add(st(i, j), st(j, i))), beta))

    def pabm10(i, j):
        lhs = mat_add(mat_mul(rp_a[j], Lp[i]), mat_mul(lp_of(p(i, j)), beta))
        return mat_sub(lhs, mat_mul(lp_a[i], mat_add(R[j], L[j])))

    identities: list[MatIdentity] = [
        ("PABM-1", 2, pabm1), ("PABM-2", 2, pabm2), ("PABM-3", 2, pabm3),
        ("PABM-4", 2, pabm4), ("PABM-5", 2, pabm5), ("PABM-6", 2, pabm6),
        ("PABM-7", 2, pabm7), ("PABM-8", 2, pabm8), ("PABM-9", 2, pabm9),
        ("PABM-10", 2, pabm10),
    ]
    if equivariance:
        for role, slices, at in (
            (ActionRole.LEFT_PREC, Lp, lp_a), (ActionRole.RIGHT_PREC, Rp, rp_a),
            (ActionRole.LEFT_SUCC, Ls, ls_a), (ActionRole.RIGHT_SUCC, Rs, rs_a),
        ):
            def fn(i, slices=slices, at=at):
                return mat_sub(mat_mul(beta, slices[i]), mat_mul(at[i], beta))

            identities.append((f"PA-EQ-{role.value}", 1, fn))
    return identities


_REP_CLASS_ACTIONS: dict[StructureClass, frozenset[ActionRole]] = {
    StructureClass.HOM_MALCEV: MALCEV_ACTIONS,
    StructureClass.HOM_PRE_MALCEV: PRE_MALCEV_ACTIONS,
    StructureClass.HOM_PRE_ALTERNATIVE: PRE_ALTERNATIVE_ACTIONS,
}


def check_rep(rep: Representation, cls: StructureClass, *,
              equivariance: bool = False) -> CheckReport:
    """Sweep the representation axioms of ``cls`` over all base-basis tuples
    and module basis vectors."""
    start = time.perf_counter()
    needed = _REP_CLASS_ACTIONS.get(cls)
    if needed is None:
        raise RoleMismatch(
            f"no representation axioms for class '{cls.value}'; supported: "
            f"{sorted(c.value for c in _REP_CLASS_ACTIONS)}"
        )
    if rep.roles() != needed:
        raise RoleMismatch(
            f"class '{cls.value}' needs actions {sorted(r.value for r in needed)}; "
            f"representation has {sorted(r.value for r in rep.roles())}"
        )
    if cls is StructureClass.HOM_MALCEV:
        bracket = derived_product(rep.base, ProductRole.BRACKET)
        identities = _malcev_action_identities(
            rep.base.dim, bracket, rep.base.twist,
            rep.int_slices(ActionRole.RHO), rep.module_twist, rep.module_dim,
        )
    elif cls is StructureClass.HOM_PRE_MALCEV:
        if ProductRole.DOT not in rep.base.products:
            raise RoleMismatch("base structure must carry the dot product role")
        identities = _pre_malcev_rep_identities(rep)
    else:
        if not {ProductRole.PREC, ProductRole.SUCC} <= rep.base.roles():
            raise RoleMismatch("base structure must carry the prec and succ roles")
        identities = _pre_alternative_rep_identities(rep, equivariance=equivariance)
    return _sweep(f"rep:{cls.value}", identities, rep.base.dim, start,
                  module_dim=rep.module_dim)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _twist_power_cols(structure: HomStructure, s: int) -> tuple[Ivec, ...]:
    if s < 0:
        raise ValueError(f"twist power must be nonnegative, got {s}")
    power = mat_identity(structure.dim)
    for _ in range(s):
        power = mat_mul(structure.twist, power)
    return mat_cols(power)


def _require_multiplicative(structure: HomStructure,
                            roles: Sequence[ProductRole]) -> None:
    report = _sweep("multiplicativity", _mult_identities(structure, roles),
                    structure.dim, time.perf_counter())
    if not report.passed:
        first = report.violations[0]
        raise NotMultiplicative(
            f"twist is not a morphism of product '{first.identity.removeprefix('MULT-')}' "
            f"at basis pair {first.args}"
        )


def _cols_matrix(cols: Sequence[Ivec], m: int) -> Matrix:
    cols = [sv_fractions(c) for c in cols]
    return tuple(
        tuple(cols[b].get(r, Fraction(0)) for b in range(len(cols)))
        for r in range(m)
    )


def _mult_slices(structure: HomStructure, tensor: Tensor,
                 pow_cols: Sequence[Ivec], side: str) -> tuple[Matrix, ...]:
    """Action slices of twisted left/right multiplication by basis vectors."""
    dim = structure.dim
    grid = tensor_grid(tensor, dim)
    basis = sv_basis(dim)
    slices = []
    for i in range(dim):
        xi = pow_cols[i]
        if side == "left":
            cols = [grid_mul(grid, xi, basis[b]) for b in range(dim)]
        else:
            cols = [grid_mul(grid, basis[b], xi) for b in range(dim)]
        slices.append(_cols_matrix(cols, dim))
    return tuple(slices)


def adjoint_rep(structure: HomStructure, s: int = 0) -> Representation:
    """Twisted adjoint action: each basis vector acts by bracketing with its
    s-th twist power; module twist is the structure twist."""
    if ProductRole.BRACKET not in structure.products:
        raise RoleMismatch("adjoint representation needs the bracket role")
    pow_cols = _twist_power_cols(structure, s)
    rho = _mult_slices(structure, structure.products[ProductRole.BRACKET],
                       pow_cols, "left")
    return Representation(
        base=structure, module_dim=structure.dim,
        module_twist=structure.twist, actions={ActionRole.RHO: rho},
    )


def _regular_rep(structure: HomStructure, s: int,
                 sides: Mapping[ProductRole, tuple[ActionRole, ActionRole]]
                 ) -> Representation:
    """Left and right multiplication by s-th twist powers on the structure
    itself: ``sides`` maps each product to its (left, right) action roles."""
    if not sides.keys() <= structure.products.keys():
        names = " and ".join(role.value for role in sides)
        raise RoleMismatch(f"regular representation needs the {names} "
                           f"{'product role' if len(sides) == 1 else 'roles'}")
    if s > 0:
        _require_multiplicative(structure, list(sides))
    pow_cols = _twist_power_cols(structure, s)
    actions = {}
    for role, (left, right) in sides.items():
        tensor = structure.products[role]
        actions[left] = _mult_slices(structure, tensor, pow_cols, "left")
        actions[right] = _mult_slices(structure, tensor, pow_cols, "right")
    return Representation(base=structure, module_dim=structure.dim,
                          module_twist=structure.twist, actions=actions)


def regular_pre_malcev_rep(structure: HomStructure, s: int = 0) -> Representation:
    """Left/right multiplication by s-th twist powers on the structure itself."""
    return _regular_rep(structure, s, {
        ProductRole.DOT: (ActionRole.LEFT, ActionRole.RIGHT)})


def regular_alternative_rep(structure: HomStructure, s: int = 0) -> Representation:
    """Left/right multiplication actions for a single-product structure."""
    return _regular_rep(structure, s, {
        ProductRole.STAR: (ActionRole.LEFT, ActionRole.RIGHT)})


def regular_pre_alternative_rep(structure: HomStructure, s: int = 0) -> Representation:
    """The four regular multiplication actions of a two-product splitting."""
    return _regular_rep(structure, s, {
        ProductRole.PREC: (ActionRole.LEFT_PREC, ActionRole.RIGHT_PREC),
        ProductRole.SUCC: (ActionRole.LEFT_SUCC, ActionRole.RIGHT_SUCC)})


DUAL_VARIANTS = ("alpha", "alpha-inverse")


def _dual_setup(rep: Representation):
    beta_t = mat_transpose(rep.module_twist)
    beta_t_inv = mat_inverse(beta_t)
    beta_t_inv2 = mat_mul(beta_t_inv, beta_t_inv)
    return beta_t_inv, beta_t_inv2


def dual_malcev_rep(rep: Representation, variant: str = "alpha") -> Representation:
    """Action on the dual module: minus transpose composed with inverse twist
    powers.  ``variant`` selects which of the two published formulas is used;
    both are exposed because the source display is self-inconsistent."""
    if variant not in DUAL_VARIANTS:
        raise ValueError(f"unknown dual variant {variant!r}; expected one of {DUAL_VARIANTS}")
    if rep.roles() != MALCEV_ACTIONS:
        raise RoleMismatch("dual of a Malcev representation needs the rho action")
    alpha_inv = mat_inverse(rep.base.twist)
    beta_t_inv, beta_t_inv2 = _dual_setup(rep)
    rho = rep.actions[ActionRole.RHO]
    m = rep.module_dim
    acols = mat_cols(rep.base.twist)
    ai_cols = mat_cols(alpha_inv)
    dual = []
    for i in range(rep.base.dim):
        if variant == "alpha":
            rho_t = mat_transpose(mat_fractions(mat_lincomb(acols[i], rho, m, m)))
            mat = mat_mul(rho_t, beta_t_inv2)
        else:
            rho_t = mat_transpose(mat_fractions(mat_lincomb(ai_cols[i], rho, m, m)))
            mat = mat_mul(beta_t_inv2, rho_t)
        dual.append(tuple(tuple(-v for v in row) for row in mat_fractions(mat)))
    return Representation(
        base=rep.base, module_dim=m, module_twist=beta_t_inv,
        actions={ActionRole.RHO: tuple(dual)},
    )


def dual_pre_malcev_rep(rep: Representation) -> Representation:
    """Dual actions: the new left action is minus the transposed difference
    action at the twisted argument, the new right action the transposed right
    action, both composed with the inverse-squared dual twist."""
    if rep.roles() != PRE_MALCEV_ACTIONS:
        raise RoleMismatch("dual of a pre-Malcev representation needs left and right actions")
    mat_inverse(rep.base.twist)
    beta_t_inv, beta_t_inv2 = _dual_setup(rep)
    m = rep.module_dim
    acols = mat_cols(rep.base.twist)
    ell = rep.actions[ActionRole.LEFT]
    arr = rep.actions[ActionRole.RIGHT]
    rho = tuple(mat_sub(ell[i], arr[i]) for i in range(rep.base.dim))
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
        actions={ActionRole.LEFT: tuple(new_left),
                 ActionRole.RIGHT: tuple(new_right)},
    )


def semidirect(structure: HomStructure, rep: Representation) -> HomStructure:
    """Block structure on base + module from a representation, twisted by
    ``twist ⊕ module_twist``.

    The defining identities of the base class on it carry the action laws,
    but not the equivariance axioms (MREP-EQ, PMREP-1, PA-EQ-*): those say
    the block twist is multiplicative on the mixed products.  So the product
    can pass ``check`` while ``check_rep`` fails; only
    ``check(..., multiplicativity=True)`` covers them too."""
    n, m = structure.dim, rep.module_dim
    roles = rep.roles()
    entries: dict[ProductRole, list] = {}

    def block_product(role: ProductRole, tensor: Tensor,
                      left_action: tuple[Matrix, ...] | None,
                      right_action: tuple[Matrix, ...] | None,
                      left_sign: int = 1, right_sign: int = 1) -> None:
        ent = []
        for (i, j), cell in tensor.items():
            for k, v in cell.items():
                ent.append((i, j, k, v))
        for i in range(n):
            if left_action is not None:
                mat = left_action[i]
                for b in range(m):
                    for r_ in range(m):
                        if mat[r_][b]:
                            ent.append((i, n + b, n + r_, left_sign * mat[r_][b]))
            if right_action is not None:
                mat = right_action[i]
                for a in range(m):
                    for r_ in range(m):
                        if mat[r_][a]:
                            ent.append((n + a, i, n + r_, right_sign * mat[r_][a]))
        entries[role] = ent

    if roles == MALCEV_ACTIONS:
        if ProductRole.BRACKET not in structure.products:
            raise RoleMismatch("semidirect with a rho action needs the bracket role")
        rho = rep.actions[ActionRole.RHO]
        block_product(ProductRole.BRACKET, structure.products[ProductRole.BRACKET],
                      rho, rho, left_sign=1, right_sign=-1)
    elif roles == PRE_MALCEV_ACTIONS:
        if ProductRole.DOT not in structure.products:
            raise RoleMismatch("semidirect with left/right actions needs the dot role")
        block_product(ProductRole.DOT, structure.products[ProductRole.DOT],
                      rep.actions[ActionRole.LEFT], rep.actions[ActionRole.RIGHT])
    elif roles == PRE_ALTERNATIVE_ACTIONS:
        if not {ProductRole.PREC, ProductRole.SUCC} <= structure.roles():
            raise RoleMismatch("semidirect with split actions needs prec and succ roles")
        block_product(ProductRole.PREC, structure.products[ProductRole.PREC],
                      rep.actions[ActionRole.LEFT_PREC],
                      rep.actions[ActionRole.RIGHT_PREC])
        block_product(ProductRole.SUCC, structure.products[ProductRole.SUCC],
                      rep.actions[ActionRole.LEFT_SUCC],
                      rep.actions[ActionRole.RIGHT_SUCC])
    else:
        raise RoleMismatch(
            f"no semidirect recipe for action roles {sorted(r.value for r in roles)}"
        )

    twist_rows = []
    for r_ in range(n):
        twist_rows.append(tuple(structure.twist[r_]) + (Fraction(0),) * m)
    for r_ in range(m):
        twist_rows.append((Fraction(0),) * n + tuple(rep.module_twist[r_]))
    basis = structure.basis + tuple(f"v{b}" for b in range(m))
    return make_structure(
        dim=n + m,
        twist=tuple(twist_rows),
        products={role: tensor_from_entries(ent) for role, ent in entries.items()},
        basis=basis,
        meta={"construction": "semidirect"},
    )
