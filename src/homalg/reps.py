"""Representations of twisted algebras: checkers, regular/adjoint builders,
duals, and semidirect products.

An action is stored like a product, as a sparse tensor of the bilinear map
base x module -> module: ``(s, b) -> {r: value}`` is ``rho(e_s) e_b``.  A
check reads it as a :class:`~homalg.exact.Grid`.  Each axiom but the
equivariance ones is the part of a class law linear in one module vector,
written out by :func:`~homalg.structures.module_law` as a law row whose last
index is a module basis vector ``b``, so each residual is an exact column,
the image of ``e_b``.  Each builder writes the actions it builds as formulas
in the same notation, tabulated by :func:`~homalg.structures.tabulate`.
"""
from __future__ import annotations

import time
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from typing import Iterator, Mapping, Sequence

from .exact import (
    Grid,
    mat_inverse,
    mat_transpose,
    tensor_from_entries,
    tensor_grid,
)
from .records import (
    CLASS_ROLES,
    MALCEV_ACTIONS,
    PRE_ALTERNATIVE_ACTIONS,
    PRE_MALCEV_ACTIONS,
    ActionRole,
    CheckReport,
    DimensionMismatch,
    HomStructure,
    MathError,
    Matrix,
    ProductRole,
    Representation,
    RoleMismatch,
    StructureClass,
    Tensor,
    make_structure,
)
from .structures import (
    ACTION_SUMS,
    ROLE_NAMES,
    _ACTIONS,
    _CLASS_LAWS,
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
    module_law,
    tabulate,
)


class NotMultiplicative(MathError):
    """A twisted-power construction needs the twist to be a product morphism."""


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
#: request, with the base twist ``a`` and the module twist ``b``.  An axiom of
#: three fields is written out (an equivariance axiom); one of four, ``(label,
#: class law, slot, order)``, is the part of that law of the class linear in a
#: module vector at ``slot``, its other indices in ``order`` (:func:`module_law`)
_REP_LAWS: dict[StructureClass, tuple] = {
    StructureClass.HOM_MALCEV: (MALCEV_ACTIONS, None, (
        ("MREP-EQ", 2, "+rho(a.i, b.j) - b.rho(i, j)"), ("MREP-4T", "HM-EXP", "i", "kjl")), ()),
    StructureClass.HOM_PRE_MALCEV: (PRE_MALCEV_ACTIONS, frozenset({ProductRole.DOT}), (
        ("MREP-EQ", 2, "+left(a.i, b.j) - b.left(i, j)"), ("MREP-4T", "HPM", "l", "ijk"),
        ("PMREP-1", 2, "+b.right(i, j) - right(a.i, b.j)"), ("PMREP-2", "HPM", "i", "lkj"),
        ("PMREP-3", "HPM", "j", "lki"), ("PMREP-4", "HPM", "k", "lij")), ()),
    StructureClass.HOM_PRE_ALTERNATIVE: (
        PRE_ALTERNATIVE_ACTIONS, frozenset({ProductRole.PREC, ProductRole.SUCC}),
        tuple((f"PABM-{n}", f"PA{n}", "k", "ij") for n in range(1, 11)),
        tuple(_role_laws("PA-EQ", 2, "+b.{g}(i, j) - {g}(a.i, b.j)", {
            role: ACTION_NAMES[role] for role in PRE_ALTERNATIVE_ACTIONS}).values())),
}


def _rep_class(rep: Representation) -> StructureClass | None:
    """The class whose representation axioms take the action roles of ``rep``, or None."""
    return next((cls for cls, (roles, *_) in _REP_LAWS.items() if roles == rep.roles()), None)


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
    if cls not in _REP_LAWS:
        raise RoleMismatch(
            f"no representation axioms for class '{cls.value}'; supported: "
            f"{sorted(c.value for c in _REP_LAWS)}"
        )
    needed, roles, rows, equivariant = _REP_LAWS[cls]
    if rep.roles() != needed:
        raise RoleMismatch(
            f"class '{cls.value}' needs actions {sorted(r.value for r in needed)}; "
            f"representation has {sorted(r.value for r in rep.roles())}"
        )
    if roles and not roles <= rep.base.roles():
        names = " and ".join(sorted(role.value for role in roles))
        raise RoleMismatch(f"base structure must carry the {names} "
                           f"{'product role' if len(roles) == 1 else 'roles'}")
    formulas = {label: formula for label, _, formula in _CLASS_LAWS[cls]}
    laws = tuple(row if len(row) == 3 else (row[0], len(row[3]) + 1,
                                            module_law(formulas[row[1]], *row[2:]))
                 for row in rows) + (equivariant if equivariance else ())

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


def _dual_rep(rep: Representation) -> Representation:
    """The dual of a Malcev or of a pre-Malcev representation, as its action roles say."""
    if rep.roles() == MALCEV_ACTIONS:
        return dual_malcev_rep(rep)
    if rep.roles() == PRE_MALCEV_ACTIONS:
        return dual_pre_malcev_rep(rep)
    raise RoleMismatch(
        f"dual-rep needs a single-action or left/right representation; "
        f"got roles {sorted(r.value for r in rep.roles())}"
    )


def semidirect(structure: HomStructure, rep: Representation) -> HomStructure:
    """Block structure on base + module from a representation, twisted by
    ``twist ⊕ module_twist``: each product its class's axioms read, with the
    actions ``structures._ACTIONS`` names for it, ``e_x * v = X(e_x) v`` and
    ``v * e_x = Y(e_x) v`` (a bracket's ``Y`` is ``-rho``).

    The part of each class law linear in one module vector is a rep axiom
    (:func:`~homalg.structures.module_law`) with the twist moved inside the
    actions, which the equivariance axioms (MREP-EQ, PMREP-1, PA-EQ-*) allow:
    they say the block twist is multiplicative on the mixed products.  So the
    product can pass ``check`` while ``check_rep`` fails; only ``check(...,
    multiplicativity=True)`` covers them too."""
    n, m = structure.dim, rep.module_dim
    if rep.base.dim != n:
        raise DimensionMismatch(
            f"representation base has dimension {rep.base.dim}, structure {n}"
        )
    cls = _rep_class(rep)
    if cls is None:
        raise RoleMismatch(
            f"no semidirect recipe for action roles {sorted(r.value for r in rep.roles())}"
        )
    if not CLASS_ROLES[cls] <= structure.roles():
        raise RoleMismatch(f"semidirect with {cls.value} actions needs the products "
                           f"{' and '.join(sorted(r.value for r in CLASS_ROLES[cls]))}")
    products = {}
    for role in CLASS_ROLES[cls]:
        left, right = _ACTIONS[ROLE_NAMES[role]]
        ent = [(i, j, k, v) for (i, j), cell in structure.products[role].items()
               for k, v in cell.items()]
        ent += [(i, n + b, n + r, v) for (i, b), cell in rep.actions[_ACTION_OF[left]].items()
                for r, v in cell.items()]
        ent += [(n + b, i, n + r, -v if right[0] == "-" else v)
                for (i, b), cell in rep.actions[_ACTION_OF[right.lstrip("-")]].items()
                for r, v in cell.items()]
        products[role] = tensor_from_entries(ent)
    zero = Fraction(0)
    twist = (tuple(tuple(row) + (zero,) * m for row in structure.twist)
             + tuple((zero,) * n + tuple(row) for row in rep.module_twist))
    return make_structure(dim=n + m, twist=twist, products=products,
                          basis=structure.basis + tuple(f"v{b}" for b in range(m)),
                          meta={"construction": "semidirect"})
