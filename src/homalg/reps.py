"""Representations of twisted algebras: checkers, regular/adjoint builders,
duals, and semidirect products.

An action is stored as one module-sized matrix per basis element of the base
algebra.  A check reads it as a bilinear map base x module -> module, a
:class:`~homalg.exact.Grid` whose cell at ``(s, b)`` is ``rho(e_s) e_b``,
and writes each axiom as a term list like a class identity (see
``structures``): its last index is a module basis vector ``b``, so each
residual is the image of ``e_b`` under one side minus the other, an exact
residual column.
"""
from __future__ import annotations

import time
from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Iterator, Mapping, Sequence

from .exact import (
    DimensionMismatch,
    Grid,
    Ivec,
    Matrix,
    Tensor,
    grid_mul,
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
    sv_basis,
    sv_fractions,
    tensor_add,
    tensor_from_entries,
    tensor_grid,
    tensor_sub,
)
from .structures import (
    CheckReport,
    HomStructure,
    Identity,
    ProductRole,
    Record,
    RoleMismatch,
    StructureClass,
    _columns,
    _components,
    _edges,
    _left_a,
    _mult_identities,
    _pair,
    _restrict,
    _right_a,
    _sweep,
    _sweep_blocks,
    _twist_cols,
    _twisted,
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

    def action(self, role: ActionRole) -> Tensor:
        """Action ``role`` as a product tensor base x module -> module: ``(s, b)``
        maps to ``role(e_s) e_b``, column ``b`` of slice ``s``."""
        return {(s, b): cell for s, mat in enumerate(self.actions[role])
                for b in range(self.module_dim)
                if (cell := {r: row[b] for r, row in enumerate(mat) if row[b]})}

    def grid(self, action: Tensor) -> Grid:
        """The grid of an action tensor (one :meth:`action`, or a sum)."""
        return tensor_grid(action, self.base.dim, self.module_dim)


def _malcev_action_identities(base: HomStructure, act: Grid,
                              beta: Matrix) -> list[Identity]:
    """The equivariance and four-term laws of the Malcev-type action ``act``
    of the bracket of ``base`` on a module twisted by ``beta``:
    MREP-EQ = rho(a e_i) beta - beta rho(e_i),
    MREP-4T = rho([[e_i,e_j],a e_k]) beta^2 - rho(a^2 e_i) rho(a e_j) rho(e_k)
        + rho(a^2 e_k) rho(a e_i) rho(e_j) - rho(a^2 e_j) rho([e_k,e_i]) beta
        + rho(a[e_j,e_k]) rho(a e_i) beta."""
    grid = base.grid(ProductRole.BRACKET)
    cell, rho = grid.ints, act.ints
    a, a2 = _twist_cols(base.twist)
    b, b2 = _twist_cols(beta)
    rho_b = _pair(act, a, b)                # rho(a e_x) beta e_y
    rho_rho = _left_a(act, a, rho)          # rho(a e_x) rho(e_y) e_z
    return [
        ("MREP-EQ", 2, [(1, None, (rho_b, "ij")), (-1, None, (_twisted(b, rho), "ij"))]),
        ("MREP-4T", 4, [(1, act, (_right_a(grid, cell, a), "ijk"), (b2, "l")),
                        (-1, act, (a2, "i"), (rho_rho, "jkl")),
                        (1, act, (a2, "k"), (rho_rho, "ijl")),
                        (-1, act, (a2, "j"), (_right_a(act, cell, b), "kil")),
                        (1, act, (_twisted(a, cell), "jk"), (rho_b, "il"))]),
    ]


def _pre_malcev_rep_identities(base: HomStructure, beta: Matrix,
                               actions: Mapping[ActionRole, Tensor], m: int) -> list[Identity]:
    """The Malcev laws of the left action ``l`` over the commutator of the
    dot product (the base read on that product only) on a module of
    dimension ``m`` twisted by ``beta``, and, with rho = l - r:
    PMREP-1 = beta r(e_i) - r(a e_i) beta,
    PMREP-2 = r(a^2 e_i) rho(a e_j) rho(e_k) - r((a e_k)(e_j e_i)) beta^2
        + l(a^2 e_j) r(e_k e_i) beta + l(a[e_j,e_k]) r(a e_i) beta
        - l(a^2 e_k) r(a e_i) rho(e_j),
    PMREP-3 = l(a^2 e_j) l(a e_k) r(e_i) - r(a^2 e_i) rho(a e_j) rho(e_k)
        - l(a^2 e_k) r(e_j e_i) beta - r(a(e_k e_i)) rho(a e_j) beta
        + r([e_k,e_j](a e_i)) beta^2,
    PMREP-4 = r((a e_j)(e_k e_i)) beta^2 + r(a^2 e_i) rho([e_j,e_k]) beta
        - l(a^2 e_j) l(a e_k) r(e_i) + r(a(e_j e_i)) rho(a e_k) beta
        + l(a^2 e_k) r(a e_i) rho(e_j)."""
    base = base.only({ProductRole.DOT})
    dgrid, cgrid = base.grid(ProductRole.DOT), base.grid(ProductRole.BRACKET)
    d, c = dgrid.ints, cgrid.ints
    a, a2 = _twist_cols(base.twist)
    b, b2 = _twist_cols(beta)
    left, right = actions[ActionRole.LEFT], actions[ActionRole.RIGHT]
    L, R, P = (tensor_grid(t, base.dim, m) for t in (left, right, tensor_sub(left, right)))

    a_d = _left_a(dgrid, a, d)              # (a e_x)(e_y e_z)
    ad = _twisted(a, d)                     # a(e_x e_y)
    r_b, p_b = _pair(R, a, b), _pair(P, a, b)                   # r(a e_x) beta e_y
    p_p, r_p = _left_a(P, a, P.ints), _left_a(R, a, P.ints)     # rho(a e_x) rho(e_y) e_z
    l_r = _left_a(L, a, R.ints)             # l(a e_x) r(e_y) e_z
    r_db = _right_a(R, d, b)                # r(e_x e_y) beta e_z
    return _malcev_action_identities(base, L, beta) + [
        ("PMREP-1", 2, [(1, None, (_twisted(b, R.ints), "ij")), (-1, None, (r_b, "ij"))]),
        ("PMREP-2", 4, [(1, R, (a2, "i"), (p_p, "jkl")), (-1, R, (a_d, "kji"), (b2, "l")),
                        (1, L, (a2, "j"), (r_db, "kil")),
                        (1, L, (_twisted(a, c), "jk"), (r_b, "il")),
                        (-1, L, (a2, "k"), (r_p, "ijl"))]),
        ("PMREP-3", 4, [(1, L, (a2, "j"), (l_r, "kil")), (-1, R, (a2, "i"), (p_p, "jkl")),
                        (-1, L, (a2, "k"), (r_db, "jil")), (-1, R, (ad, "ki"), (p_b, "jl")),
                        (1, R, (_right_a(dgrid, c, a), "kji"), (b2, "l"))]),
        ("PMREP-4", 4, [(1, R, (a_d, "jki"), (b2, "l")),
                        (1, R, (a2, "i"), (_right_a(P, c, b), "jkl")),
                        (-1, L, (a2, "j"), (l_r, "kil")), (1, R, (ad, "ji"), (p_b, "kl")),
                        (1, L, (a2, "k"), (r_p, "ijl"))]),
    ]


def _pre_alternative_rep_identities(base: HomStructure, beta: Matrix,
                                    actions: Mapping[ActionRole, Tensor], m: int, *,
                                    equivariance: bool) -> list[Identity]:
    """PABM-1..10 of the split actions on a module of dimension ``m``
    twisted by ``beta``, each ``x(a e_i) y(e_j)`` or
    ``x(e_i * e_j) beta`` summed with signs (the terms below), with
    l = l_prec + l_succ, r = r_prec + r_succ and * = prec + succ; and with
    ``equivariance`` PA-EQ-X = beta X(e_i) - X(a e_i) beta for each action."""
    roles = (ProductRole.PREC, ProductRole.SUCC)
    base = base.only(roles)
    p, s, st = (base.grid(role).ints for role in (*roles, ProductRole.STAR))
    a = _columns(base.twist)
    b = _columns(beta)
    A = ActionRole
    lp, rp, ls, rs = (actions[role] for role in
                      (A.LEFT_PREC, A.RIGHT_PREC, A.LEFT_SUCC, A.RIGHT_SUCC))
    Lp, Rp, Ls, Rs, L, R = (tensor_grid(t, base.dim, m) for t in (
        lp, rp, ls, rs, tensor_add(lp, ls), tensor_add(rp, rs)))

    def acts(sign, x, i, y, j):
        """``sign x(a e_i) y(e_j) e_k``."""
        return (sign, x, (a, i), (y.ints, j + "k"))

    def twisted(sign, x, cells, at):
        """``sign x(cells[at]) beta e_k``."""
        return (sign, x, (cells, at), (b, "k"))

    identities = [
        ("PABM-1", 3, [twisted(1, Ls, st, "ij"), twisted(1, Ls, st, "ji"),
                       acts(-1, Ls, "i", Ls, "j"), acts(-1, Ls, "j", Ls, "i")]),
        ("PABM-2", 3, [acts(1, Rs, "j", L, "i"), acts(1, Rs, "j", R, "i"),
                       acts(-1, Ls, "i", Rs, "j"), twisted(-1, Rs, s, "ij")]),
        ("PABM-3", 3, [acts(1, Rp, "j", Ls, "i"), acts(1, Rp, "j", Rp, "i"),
                       acts(-1, Ls, "i", Rp, "j"), twisted(-1, Rp, st, "ij")]),
        ("PABM-4", 3, [acts(1, Rp, "j", Rs, "i"), acts(1, Rp, "j", Lp, "i"),
                       acts(-1, Lp, "i", R, "j"), twisted(-1, Rs, p, "ij")]),
        ("PABM-5", 3, [twisted(1, Lp, p, "ji"), twisted(1, Lp, s, "ij"),
                       acts(-1, Lp, "j", L, "i"), acts(-1, Ls, "i", Lp, "j")]),
        ("PABM-6", 3, [acts(1, Rp, "i", Ls, "j"), twisted(1, Ls, st, "ji"),
                       acts(-1, Ls, "j", Rp, "i"), acts(-1, Ls, "j", Ls, "i")]),
        ("PABM-7", 3, [acts(1, Rp, "i", Rs, "j"), acts(1, Rs, "j", R, "i"),
                       twisted(-1, Rs, p, "ji"), twisted(-1, Rs, s, "ij")]),
        ("PABM-8", 3, [twisted(1, Lp, s, "ji"), acts(1, Rs, "i", L, "j"),
                       acts(-1, Ls, "j", Lp, "i"), acts(-1, Ls, "j", Rs, "i")]),
        ("PABM-9", 3, [acts(1, Rp, "i", Rp, "j"), acts(1, Rp, "j", Rp, "i"),
                       twisted(-1, Rp, st, "ij"), twisted(-1, Rp, st, "ji")]),
        ("PABM-10", 3, [acts(1, Rp, "j", Lp, "i"), twisted(1, Lp, p, "ij"),
                        acts(-1, Lp, "i", R, "j"), acts(-1, Lp, "i", L, "j")]),
    ]
    if equivariance:
        identities.extend(
            (f"PA-EQ-{role.value}", 2, [(1, None, (_twisted(b, x.ints), "ij")),
                                        (-1, x, (a, "i"), (b, "j"))])
            for role, x in ((A.LEFT_PREC, Lp), (A.RIGHT_PREC, Rp),
                            (A.LEFT_SUCC, Ls), (A.RIGHT_SUCC, Rs)))
    return identities


_REP_CLASS_ACTIONS: dict[StructureClass, frozenset[ActionRole]] = {
    StructureClass.HOM_MALCEV: MALCEV_ACTIONS,
    StructureClass.HOM_PRE_MALCEV: PRE_MALCEV_ACTIONS,
    StructureClass.HOM_PRE_ALTERNATIVE: PRE_ALTERNATIVE_ACTIONS,
}


def _rep_blocks(rep: Representation, acts: Mapping[ActionRole, Tensor]) -> Iterator[tuple]:
    """Each block of ``rep`` holding base and module basis vectors (else the
    whole): its sorted base and module indices, and the base, module twist,
    actions ``acts`` and module dimension on it, re-indexed in order.  The
    blocks are the components of the graph on base and module (from ``n``)
    indices joining the base's :func:`~homalg.structures._edges`, the ends of
    each nonzero module twist entry, and ``s`` to ``b`` and each ``r`` at
    each nonzero ``rho(e_s)[r][b]``; an action of one block on another is 0."""
    n, m, beta = rep.base.dim, rep.module_dim, rep.module_twist
    edges = _edges(rep.base) + [(n + r, n + c) for r, row in enumerate(beta)
                                for c, v in enumerate(row) if v]
    edges += [(s, n + x) for t in acts.values() for (s, b), cell in t.items()
              for x in (b, *cell)]
    blocks = [(block[:k], [x - n for x in block[k:]]) for block in _components(n + m, edges)
              if 0 < (k := bisect_left(block, n)) < len(block)]
    for base, mod in blocks or [(list(range(n)), list(range(m)))]:
        at, to = ({x: y for y, x in enumerate(idx)} for idx in (base, mod))
        yield base, mod, (_restrict(rep.base, base), [[beta[r][c] for c in mod] for r in mod],
                          {role: {(at[s], to[b]): {to[r]: v for r, v in cell.items()}
                                  for (s, b), cell in t.items() if s in at}
                           for role, t in acts.items()}, len(mod))


def check_rep(rep: Representation, cls: StructureClass, *,
              equivariance: bool = False) -> CheckReport:
    """Sweep the representation axioms of ``cls`` over all base-basis tuples,
    each with every module basis vector as its last index.

    Each term of each axiom reads every index, so it is zero at a tuple that
    mixes blocks (:func:`_rep_blocks`): each block is swept on the
    representation restricted to it, and every other tuple counts as checked."""
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
        def build(base, beta, actions, m):
            return _malcev_action_identities(
                base, tensor_grid(actions[ActionRole.RHO], base.dim, m), beta)
    elif cls is StructureClass.HOM_PRE_MALCEV:
        if ProductRole.DOT not in rep.base.products:
            raise RoleMismatch("base structure must carry the dot product role")
        build = _pre_malcev_rep_identities
    else:
        if not {ProductRole.PREC, ProductRole.SUCC} <= rep.base.roles():
            raise RoleMismatch("base structure must carry the prec and succ roles")
        build = partial(_pre_alternative_rep_identities, equivariance=equivariance)
    acts = {role: rep.action(role) for role in needed}
    return _sweep_blocks(f"rep:{cls.value}", ((base, mod, build(*part)) for base, mod, part
                                              in _rep_blocks(rep, acts)),
                         rep.base.dim, start, module_dim=rep.module_dim)


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


def _mult_slices(structure: HomStructure, role: ProductRole,
                 pow_cols: Sequence[Ivec], side: str) -> tuple[Matrix, ...]:
    """Action slices of twisted left/right multiplication by basis vectors."""
    grid, basis = structure.grid(role), sv_basis(structure.dim)
    return tuple(_cols_matrix([grid_mul(grid, x, e) if side == "left" else grid_mul(grid, e, x)
                               for e in basis], structure.dim) for x in pow_cols)


def adjoint_rep(structure: HomStructure, s: int = 0) -> Representation:
    """Twisted adjoint action: each basis vector acts by bracketing with its
    s-th twist power; module twist is the structure twist."""
    if ProductRole.BRACKET not in structure.products:
        raise RoleMismatch("adjoint representation needs the bracket role")
    pow_cols = _twist_power_cols(structure, s)
    rho = _mult_slices(structure, ProductRole.BRACKET, pow_cols, "left")
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
        actions[left] = _mult_slices(structure, role, pow_cols, "left")
        actions[right] = _mult_slices(structure, role, pow_cols, "right")
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
        x = acols[i] if variant == "alpha" else ai_cols[i]
        rho_t = mat_transpose(mat_fractions(mat_lincomb(x, rho, m, m)))
        mat = mat_mul(rho_t, beta_t_inv2) if variant == "alpha" else mat_mul(beta_t_inv2, rho_t)
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


#: the action roles of each kind of representation -> (product, left action,
#: right action, sign of the right action) for each product of its semidirect
#: product, and what a structure without those products is told
_SEMIDIRECT: dict[frozenset[ActionRole], tuple[tuple, str]] = {
    MALCEV_ACTIONS: (((ProductRole.BRACKET, ActionRole.RHO, ActionRole.RHO, -1),),
                     "semidirect with a rho action needs the bracket role"),
    PRE_MALCEV_ACTIONS: (((ProductRole.DOT, ActionRole.LEFT, ActionRole.RIGHT, 1),),
                         "semidirect with left/right actions needs the dot role"),
    PRE_ALTERNATIVE_ACTIONS: (
        ((ProductRole.PREC, ActionRole.LEFT_PREC, ActionRole.RIGHT_PREC, 1),
         (ProductRole.SUCC, ActionRole.LEFT_SUCC, ActionRole.RIGHT_SUCC, 1)),
        "semidirect with split actions needs prec and succ roles"),
}


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
    if roles not in _SEMIDIRECT:
        raise RoleMismatch(
            f"no semidirect recipe for action roles {sorted(r.value for r in roles)}"
        )
    laws, missing = _SEMIDIRECT[roles]
    if any(role not in structure.products for role, *_ in laws):
        raise RoleMismatch(missing)
    products = {}
    for role, left, right, sign in laws:
        ent = [(i, j, k, v) for (i, j), cell in structure.products[role].items()
               for k, v in cell.items()]
        for i in range(n):
            lmat, rmat = rep.actions[left][i], rep.actions[right][i]
            ent += [(i, n + b, n + r, lmat[r][b]) for b in range(m) for r in range(m)
                    if lmat[r][b]]
            ent += [(n + a, i, n + r, sign * rmat[r][a]) for a in range(m) for r in range(m)
                    if rmat[r][a]]
        products[role] = tensor_from_entries(ent)
    zero = Fraction(0)
    twist = (tuple(tuple(row) + (zero,) * m for row in structure.twist)
             + tuple((zero,) * n + tuple(row) for row in rep.module_twist))
    return make_structure(dim=n + m, twist=twist, products=products,
                          basis=structure.basis + tuple(f"v{b}" for b in range(m)),
                          meta={"construction": "semidirect"})
