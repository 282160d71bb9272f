"""Representations of twisted algebras: checkers, regular/adjoint builders,
duals, and semidirect products.

An action is stored like a product, as a sparse tensor of the bilinear map
base x module -> module: ``(s, b) -> {r: value}`` is ``rho(e_s) e_b``.  A
check reads it as a :class:`~homalg.exact.Grid` and writes each axiom as a
law row like a class law (see ``structures``): its last index is a module
basis vector ``b``, so each residual is the image of ``e_b`` under one side
minus the other, an exact residual column.  Each builder writes the actions
it builds as formulas in the same notation, tabulated by
:func:`~homalg.structures.tabulate`.
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
    Matrix,
    Tensor,
    mat_inverse,
    mat_shape,
    mat_transpose,
    matrix,
    tensor_from_entries,
    tensor_grid,
    tensor_normalize,
    validate_tensor,
)
from .structures import (
    CheckReport,
    HomStructure,
    Law,
    ProductRole,
    Record,
    RoleMismatch,
    StructureClass,
    ACTION_SUMS,
    ROLE_NAMES,
    _SPLITTING_LAWS,
    _compile,
    _components,
    _edges,
    _grids,
    _mult_identities,
    _restrict,
    _role_laws,
    _sweep,
    _sweep_blocks,
    combine,
    make_structure,
    tabulate,
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
    """Actions of a structure on a module, with a module twist: each action a
    tensor ``(s, b) -> {r: value}``, ``rho(e_s) e_b``, of a base vector
    ``e_s`` on a module vector ``e_b``."""

    base: HomStructure
    module_dim: int
    module_twist: Matrix
    actions: Mapping[ActionRole, Tensor]

    def __init__(self, base: HomStructure, module_dim: int,
                 module_twist: Matrix,
                 actions: Mapping[ActionRole, Tensor]):
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
        actions: dict[ActionRole, Tensor] = {}
        for role, t in self.actions.items():
            if not isinstance(role, ActionRole):
                raise RoleMismatch(f"unknown action role {role!r}")
            actions[role] = tensor_normalize(t)
            validate_tensor(actions[role], self.base.dim, f"action '{role.value}'", m)
        d["module_twist"] = twist
        d["actions"] = dict(sorted(actions.items(), key=lambda item: item[0].value))

    def roles(self) -> frozenset[ActionRole]:
        return frozenset(self.actions)

    def grid(self, name: str) -> Grid:
        """The grid of the action a law names (:func:`_action_grid`), built once."""
        grids = self.__dict__.setdefault("_grids", {})
        if name not in grids:
            grids[name] = _action_grid(name, self.actions, self.base.dim, self.module_dim)
        return grids[name]


def _malcev_rep_laws(rho: str) -> tuple[Law, ...]:
    """The laws of the Malcev-type action ``rho`` of ``com`` on a module twisted by ``b``."""
    return (("MREP-EQ", 2, f"+{rho}(a.i, b.j) - b.{rho}(i, j)"),
            ("MREP-4T", 4, f"+{rho}(com(com(i, j), a.k), b2.l)"
                           f" - {rho}(a2.i, {rho}(a.j, {rho}(k, l)))"
                           f" + {rho}(a2.k, {rho}(a.i, {rho}(j, l)))"
                           f" - {rho}(a2.j, {rho}(com(k, i), b.l))"
                           f" + {rho}(a.com(j, k), {rho}(a.i, b.l))"))


#: PMREP-1..4 of the left and right actions of a pre-Malcev bimodule, with
#: rho = left - right
_PRE_MALCEV_REP_LAWS = (
    ("PMREP-1", 2, "+b.right(i, j) - right(a.i, b.j)"),
    ("PMREP-2", 4, "+right(a2.i, rho(a.j, rho(k, l))) - right(dot(a.k, dot(j, i)), b2.l)"
                   " + left(a2.j, right(dot(k, i), b.l)) + left(a.com(j, k), right(a.i, b.l))"
                   " - left(a2.k, right(a.i, rho(j, l)))"),
    ("PMREP-3", 4, "+left(a2.j, left(a.k, right(i, l))) - right(a2.i, rho(a.j, rho(k, l)))"
                   " - left(a2.k, right(dot(j, i), b.l)) - right(a.dot(k, i), rho(a.j, b.l))"
                   " + right(dot(com(k, j), a.i), b2.l)"),
    ("PMREP-4", 4, "+right(dot(a.j, dot(k, i)), b2.l) + right(a2.i, rho(com(j, k), b.l))"
                   " - left(a2.j, left(a.k, right(i, l))) + right(a.dot(j, i), rho(a.k, b.l))"
                   " + left(a2.k, right(a.i, rho(j, l)))"),
)

#: the name of each action role's grid in a law, in the order of the roles
ACTION_NAMES: dict[ActionRole, str] = dict(zip(ActionRole, (
    "rho", "left", "right", "lp", "rp", "ls", "rs")))
_ACTION_OF = {name: role for role, name in ACTION_NAMES.items()}


def _action_grid(name: str, acts: Mapping[ActionRole, Tensor], n: int, m: int) -> Grid:
    """The grid over ``n`` base and ``m`` module basis vectors of the action a law
    names: one of ``acts``, else their signed sum in :data:`~homalg.structures.ACTION_SUMS`."""
    if _ACTION_OF[name] in acts:
        return tensor_grid(acts[_ACTION_OF[name]], n, m)
    return tensor_grid(combine(ACTION_SUMS[name], {
        ACTION_NAMES[role]: t for role, t in acts.items()}), n, m)


#: each class's representation axioms: the actions they need, the base roles
#: they read (None: all), the axioms, and the equivariance axioms checked on
#: request, with the base twist ``a`` and the module twist ``b``
_REP_LAWS: dict[StructureClass, tuple] = {
    StructureClass.HOM_MALCEV: (MALCEV_ACTIONS, None, _malcev_rep_laws("rho"), ()),
    # the Malcev laws of the left action over the commutator of the dot product
    StructureClass.HOM_PRE_MALCEV: (
        PRE_MALCEV_ACTIONS, frozenset({ProductRole.DOT}),
        _malcev_rep_laws("left") + _PRE_MALCEV_REP_LAWS, ()),
    StructureClass.HOM_PRE_ALTERNATIVE: (
        PRE_ALTERNATIVE_ACTIONS, frozenset({ProductRole.PREC, ProductRole.SUCC}), _SPLITTING_LAWS,
        tuple(_role_laws("PA-EQ", 2, "+b.{g}(i, j) - {g}(a.i, b.j)", {
            role: ACTION_NAMES[role] for role in PRE_ALTERNATIVE_ACTIONS}).values())),
}
_REP_CLASS_ACTIONS = {cls: laws[0] for cls, laws in _REP_LAWS.items()}


def _rep_blocks(rep: Representation) -> Iterator[tuple]:
    """Each block of ``rep`` holding base and module basis vectors (else the
    whole): its sorted base and module indices, and the base, module twist,
    actions and module dimension on it, re-indexed in order.  The
    blocks are the components of the graph on base and module (from ``n``)
    indices joining the base's :func:`~homalg.structures._edges`, the ends of
    each nonzero module twist entry, and ``s`` to ``b`` and each ``r`` of
    each action's cell ``(s, b)``; an action of one block on another is 0."""
    n, m, beta, acts = rep.base.dim, rep.module_dim, rep.module_twist, rep.actions
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
    each with every module basis vector as its last index (with
    ``equivariance`` also PA-EQ-* of the pre-alternative class).

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
    _, roles, laws, equivariant = _REP_LAWS[cls]
    if roles and not roles <= rep.base.roles():
        names = " and ".join(sorted(role.value for role in roles))
        raise RoleMismatch(f"base structure must carry the {names} "
                           f"{'product role' if len(roles) == 1 else 'roles'}")
    laws += equivariant if equivariance else ()

    def identities(base, beta, actions, m):
        base = base.only(roles) if roles else base
        grid = _grids(base, other=partial(_action_grid, acts=actions, n=base.dim, m=m))
        return _compile(laws)(grid, {"a": base.twist, "b": beta}, base.dim, m)

    return _sweep_blocks(f"rep:{cls.value}", ((base, mod, identities(*part)) for base, mod, part
                                              in _rep_blocks(rep)),
                         rep.base.dim, start, module_dim=rep.module_dim)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _power(s: int) -> str:
    """The law prefix of the ``s``-th twist power, ``a<s>.``: empty for ``s = 0``."""
    if s < 0:
        raise ValueError(f"twist power must be nonnegative, got {s}")
    return f"a{s}." if s else ""


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


def adjoint_rep(structure: HomStructure, s: int = 0) -> Representation:
    """Twisted adjoint action: each basis vector acts by bracketing with its
    s-th twist power; module twist is the structure twist."""
    if ProductRole.BRACKET not in structure.products:
        raise RoleMismatch("adjoint representation needs the bracket role")
    return Representation(
        base=structure, module_dim=structure.dim, module_twist=structure.twist,
        actions=tabulate({ActionRole.RHO: f"+com({_power(s)}i, j)"}, _grids(structure),
                         {"a": structure.twist}, structure.dim))


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
    a, actions = _power(s), {}
    for role, (left, right) in sides.items():
        g = ROLE_NAMES[role]
        actions[left], actions[right] = f"+{g}({a}i, j)", f"+{g}(j, {a}i)"
    return Representation(base=structure, module_dim=structure.dim, module_twist=structure.twist,
                          actions=tabulate(actions, _grids(structure), {"a": structure.twist},
                                           structure.dim))


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


def _dual(rep: Representation, formulas: Mapping[ActionRole, str],
          base_map: Matrix) -> Representation:
    """The representation on the dual module, twisted by ``beta^-T``, the
    inverse transpose of the module twist ``beta``: each action ``role`` in
    ``formulas`` is its formula in the actions of ``rep``, the map ``p``
    (``base_map``) and ``c = beta^-1``, tabulated with its module index then
    swapped with its output, so that ``c2.X(p.i, j)`` is ``X(p e_s)^T
    beta^-2T`` at ``e_s``."""
    beta_t_inv = mat_inverse(mat_transpose(rep.module_twist))
    tables = tabulate(formulas, rep.grid, {"p": base_map, "c": mat_transpose(beta_t_inv)},
                      rep.base.dim, rep.module_dim)
    actions: dict[ActionRole, Tensor] = {role: {} for role in tables}
    for role, t in tables.items():
        for (s, b), cell in t.items():
            for r, v in cell.items():
                actions[role].setdefault((s, r), {})[b] = v
    return Representation(base=rep.base, module_dim=rep.module_dim,
                          module_twist=beta_t_inv, actions=actions)


def dual_malcev_rep(rep: Representation, variant: str = "alpha") -> Representation:
    """Action on the dual module: minus transpose composed with inverse twist
    powers.  ``variant`` selects which of the two published formulas is used;
    both are exposed because the source display is self-inconsistent."""
    if variant not in DUAL_VARIANTS:
        raise ValueError(f"unknown dual variant {variant!r}; expected one of {DUAL_VARIANTS}")
    if rep.roles() != MALCEV_ACTIONS:
        raise RoleMismatch("dual of a Malcev representation needs the rho action")
    alpha_inv = mat_inverse(rep.base.twist)
    if variant == "alpha-inverse":
        return _dual(rep, {ActionRole.RHO: "-rho(p.i, c2.j)"}, alpha_inv)
    return _dual(rep, {ActionRole.RHO: "-c2.rho(p.i, j)"}, rep.base.twist)


def dual_pre_malcev_rep(rep: Representation) -> Representation:
    """Dual actions: the new left action is minus the transposed difference
    action at the twisted argument, the new right action the transposed right
    action, both composed with the inverse-squared dual twist."""
    if rep.roles() != PRE_MALCEV_ACTIONS:
        raise RoleMismatch("dual of a pre-Malcev representation needs left and right actions")
    mat_inverse(rep.base.twist)
    return _dual(rep, {ActionRole.LEFT: "-c2.rho(p.i, j)", ActionRole.RIGHT: "+c2.right(p.i, j)"},
                 rep.base.twist)


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
    if rep.base.dim != n:
        raise DimensionMismatch(
            f"representation base has dimension {rep.base.dim}, structure {n}"
        )
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
        ent += [(i, n + b, n + r, v) for (i, b), cell in rep.actions[left].items()
                for r, v in cell.items()]
        ent += [(n + b, i, n + r, sign * v) for (i, b), cell in rep.actions[right].items()
                for r, v in cell.items()]
        products[role] = tensor_from_entries(ent)
    zero = Fraction(0)
    twist = (tuple(tuple(row) + (zero,) * m for row in structure.twist)
             + tuple((zero,) * n + tuple(row) for row in rep.module_twist))
    return make_structure(dim=n + m, twist=twist, products=products,
                          basis=structure.basis + tuple(f"v{b}" for b in range(m)),
                          meta={"construction": "semidirect"})
