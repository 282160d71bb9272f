"""Verification of Rota-Baxter and relative (O-) operator witnesses (records
of ``records``), and every induced-structure constructor: dendrification of
single operators, of commuting pairs, and of Hessian bilinear forms.

The operator recipes are formulas in the law notation of ``structures``
(``_FAMILIES`` and ``_PAIRS``), tabulated by ``structures.tabulate``, the
sweep that checks every law.  A Rota-Baxter map of weight 0 is an
O-operator on the regular (adjoint) representation, so each ``-rb`` recipe
is its ``-oop`` recipe on that representation, with the structure product
in place of each action, and both come from the same table row.
"""
from __future__ import annotations

import time
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import (
    mat_fractions,
    mat_inverse,
    mat_kernel_vector,
    mat_mul,
    mat_lincomb,
    mat_transpose,
    tensor_from_entries,
    tensor_grid,
)
from .records import (
    INDUCE_RECIPES,
    KIND_O_OPERATOR,
    KIND_ROTA_BAXTER,
    MALCEV_ACTIONS,
    PAIR_RECIPES,
    PRE_ALTERNATIVE_ACTIONS,
    PRE_MALCEV_ACTIONS,
    ActionRole,
    BilinearForm,
    CheckReport,
    DimensionMismatch,
    HomStructure,
    MathError,
    Matrix,
    OperatorWitness,
    ProductRole,
    Representation,
    RoleMismatch,
    Tensor,
    UnknownKind,
    Violation,
    make_structure,
    mat_shape,
    to_matrix,
)
from .reps import ACTION_NAMES, _ACTION_OF
from .structures import (
    Identity,
    _ROLE_OF,
    _compile,
    _grids,
    _role_laws,
    _sweep,
    check_morphism,
    parse_formula,
    tabulate,
)


class OperatorInvalid(MathError):
    """A construction was asked to use an operator that fails its own check."""


class NotCommuting(MathError):
    """A pair construction needs the two operators to commute."""


class HessianInvalid(MathError):
    """A dendrification was asked to use a bilinear form that fails the
    Hessian axioms."""


class EndomorphismInvalid(MathError):
    """The map pair does not satisfy the operator-endomorphism conditions."""


# ---------------------------------------------------------------------------
# operator verification
# ---------------------------------------------------------------------------

P = ProductRole

#: by action roles: whether a structure needs all or any of the products the
#: laws read, what it is told otherwise, and the O-operator law of each,
#: ``T e_x * T e_y - T(X(T e_x) e_y +/- Y(T e_y) e_x)``
_OOP_LAWS: dict[frozenset[ActionRole], tuple] = {
    MALCEV_ACTIONS: (all, "a rho-action operator check needs the bracket role", {
        P.BRACKET: "+com(T.i, T.j) - T.rho(T.i, j) + T.rho(T.j, i)"}),
    PRE_MALCEV_ACTIONS: (any, "a left/right-action operator check needs the dot or star role", {
        P.DOT: "+dot(T.i, T.j) - T.left(T.i, j) - T.right(T.j, i)",
        P.STAR: "+star(T.i, T.j) - T.left(T.i, j) - T.right(T.j, i)"}),
    PRE_ALTERNATIVE_ACTIONS: (all, "a split-action operator check needs the prec and succ roles", {
        P.PREC: "+prec(T.i, T.j) - T.lp(T.i, j) - T.rp(T.j, i)",
        P.SUCC: "+succ(T.i, T.j) - T.ls(T.i, j) - T.rs(T.j, i)"}),
}


#: RB-<role> by weight zero or not: R e_i * R e_j - R(R e_i * e_j + e_i * R e_j
#: + lam e_i * e_j), where R(R e_i * e_j + lam e_i * e_j) is the product of
#: (R + lam) e_i, named Rl, and e_j on the grid of R after the product
_RB_LAWS = {weighted: _role_laws("RB", 2, "+{g}(R.i, R.j) - R.{g}(%s.i, j) - R.{g}(i, R.j)"
                                 % ("Rl" if weighted else "R")) for weighted in (False, True)}


def _rota_baxter_identities(structure: HomStructure,
                            w: OperatorWitness) -> list[Identity]:
    """RB-<role> for every stored product, and RB-TWIST."""
    n = structure.dim
    if mat_shape(w.matrix) != (n, n):
        raise DimensionMismatch(
            f"operator is {mat_shape(w.matrix)[0]}x{mat_shape(w.matrix)[1]} "
            f"but the structure has dimension {n}"
        )
    maps = {"R": w.matrix, "a": structure.twist}
    if w.weight:
        maps["Rl"] = [[v + w.weight * (x == y) for y, v in enumerate(row)]
                      for x, row in enumerate(w.matrix)]
    laws = tuple(map(_RB_LAWS[bool(w.weight)].__getitem__, structure.products)) + (
        ("RB-TWIST", 1, "+a.R.i - R.a.i"),)
    return _compile(laws)(_grids(structure), maps, n)


def _oop_identities(structure: HomStructure, w: OperatorWitness) -> list[Identity]:
    """OOP-TWIST and the law of each product the action pair reads (see
    ``_OOP_LAWS``), over module basis pairs."""
    rep = w.rep
    assert rep is not None
    n, m = structure.dim, rep.module_dim
    if rep.base.dim != n:
        raise DimensionMismatch(
            f"representation base has dimension {rep.base.dim}, structure {n}"
        )
    if rep.roles() not in _OOP_LAWS:
        raise RoleMismatch(
            f"no operator identity for action roles {sorted(r.value for r in rep.roles())}"
        )
    needs, missing, laws = _OOP_LAWS[rep.roles()]
    if not needs(role in structure.products for role in laws):
        raise RoleMismatch(missing)
    laws = tuple((f"OOP-{role.value}", 2, law) for role, law in laws.items()
                 if role in structure.products) + (("OOP-TWIST", 1, "+a.T.i - T.b.i"),)
    return _compile(laws)(_grids(structure, other=rep.grid), {
        "T": w.matrix, "a": structure.twist, "b": rep.module_twist}, m)


def check_operator(structure: HomStructure, w: OperatorWitness) -> CheckReport:
    """Verify the defining identities of the witness against every stored
    product (Rota-Baxter) or against its representation's actions (relative
    operator), always including the twist-intertwining law."""
    start = time.perf_counter()
    if w.kind == KIND_ROTA_BAXTER:
        return _sweep(f"operator:{w.kind}", _rota_baxter_identities(structure, w),
                      structure.dim, start)
    return _sweep(f"operator:{w.kind}", _oop_identities(structure, w),
                  w.rep.module_dim, start)


def check_commuting(r1: OperatorWitness, r2: OperatorWitness) -> bool:
    """True exactly when the two Rota-Baxter maps commute as matrices."""
    if r1.kind != KIND_ROTA_BAXTER or r2.kind != KIND_ROTA_BAXTER:
        raise RoleMismatch("commutation is checked between two Rota-Baxter witnesses")
    if mat_shape(r1.matrix) != mat_shape(r2.matrix):
        raise DimensionMismatch(
            f"operators have shapes {mat_shape(r1.matrix)} and {mat_shape(r2.matrix)}"
        )
    products = mat_mul(r1.matrix, r2.matrix), mat_mul(r2.matrix, r1.matrix)
    return not any(mat_lincomb({0: 1, 1: -1}, products, *mat_shape(r1.matrix)))


# ---------------------------------------------------------------------------
# induced structures (dendrification)
# ---------------------------------------------------------------------------

def _checked(structure: HomStructure, w: OperatorWitness) -> CheckReport:
    """``check_operator(structure, w)``, swept once per structure and witness
    (both immutable): kept on the structure, with ``w`` so that its id stays unique."""
    reports = structure.__dict__.setdefault("_operator_reports", {})
    if id(w) not in reports:
        reports[id(w)] = w, check_operator(structure, w)
    return reports[id(w)][1]


def _require_valid(structure: HomStructure, w: OperatorWitness,
                   recipe: str) -> None:
    rep = _checked(structure, w)
    if not rep.passed:
        first = rep.violations[0]
        raise OperatorInvalid(
            f"operator fails its check; recipe {recipe!r} refused "
            f"(first violation {first.identity} at {first.args})"
        )


def _require_rb(w: OperatorWitness, recipe: str) -> None:
    if w.kind != KIND_ROTA_BAXTER:
        raise RoleMismatch(f"recipe {recipe!r} needs a Rota-Baxter witness")
    if w.weight != 0:
        raise OperatorInvalid(f"recipe {recipe!r} needs weight zero, got {w.weight}")


def _require_oop(w: OperatorWitness, recipe: str,
                 roles: frozenset[ActionRole]) -> Representation:
    if w.kind != KIND_O_OPERATOR:
        raise RoleMismatch(f"recipe {recipe!r} needs a relative operator witness")
    assert w.rep is not None
    if w.rep.roles() != roles:
        raise RoleMismatch(
            f"recipe {recipe!r} needs actions {sorted(r.value for r in roles)}; "
            f"witness representation has {sorted(r.value for r in w.rep.roles())}"
        )
    return w.rep


def _require_roles(structure: HomStructure, roles: Sequence[ProductRole],
                   recipe: str) -> None:
    missing = [r.value for r in roles if r not in structure.products]
    if missing:
        raise RoleMismatch(f"recipe {recipe!r} needs structure products {missing}")


def _rebuild(structure: HomStructure, products: Mapping[ProductRole, Tensor],
             construction: str, twist: Matrix | None = None) -> HomStructure:
    return make_structure(
        dim=structure.dim,
        twist=structure.twist if twist is None else twist,
        products=products,
        basis=structure.basis,
        meta={"construction": construction},
    )


# The families of products an operator T induces: each output product's
# formula for an O-operator T on a representation and for a Rota-Baxter map
# T of weight 0, (oop, rb).  The latter is the O-operator T on the regular
# (adjoint) representation, whose left action X(u) v = u * v and right one
# X(u) v = v * u are the structure product *, so each rb formula is the oop
# one with * in place of the action.  Both recipes need the structure
# products the rb formulas read.
_FAMILIES: dict[str, dict[ProductRole, tuple[str, str]]] = {
    "malcev-to-premalcev": {P.DOT: ("+rho(T.i, j)", "+com(T.i, j)")},
    "premalcev-to-mdendriform": {P.TRI_RIGHT: ("+right(T.j, i)", "+dot(i, T.j)"),
                                 P.TRI_LEFT: ("+left(T.i, j)", "+dot(T.i, j)")},
    "alternative-to-prealt": {P.SUCC: ("+left(T.i, j)", "+star(T.i, j)"),
                              P.PREC: ("+right(T.j, i)", "+star(i, T.j)")},
    "prealt-to-quadri": {P.SE: ("+ls(T.i, j)", "+succ(T.i, j)"),
                         P.NE: ("+rs(T.j, i)", "+succ(i, T.j)"),
                         P.SW: ("+lp(T.i, j)", "+prec(T.i, j)"),
                         P.NW: ("+rp(T.j, i)", "+prec(i, T.j)")},
}

# The products a commuting pair R, S of Rota-Baxter maps induces on one
# structure product.
_PAIRS: dict[str, dict[ProductRole, str]] = {
    "malcev-pair-to-mdendriform": {P.TRI_RIGHT: "+com(R.i, S.j)", P.TRI_LEFT: "+com(R.S.i, j)"},
    "alternative-pair-to-quadri": {P.SE: "+star(R.S.i, j)", P.NE: "+star(R.i, S.j)",
                                   P.SW: "+star(S.i, R.j)", P.NW: "+star(i, R.S.j)"},
}

_COMPATIBLE = "premalcev-compatible-dendriform"


def _read(laws: Mapping[ProductRole, str], of: Mapping[str, object]) -> list:
    """The role ``of`` gives each grid at the top of a term of ``laws``, sorted by value."""
    return sorted({of[tree[0]] for law in laws.values() for _, tree in parse_formula(law)},
                  key=lambda role: role.value)


def _induce_compatible(structure: HomStructure, w: OperatorWitness) -> HomStructure:
    """x > y = T(r(y) T^-1 x) and x < y = T(l(x) T^-1 y) for an invertible
    O-operator T on a pre-Malcev bimodule."""
    rep = _require_oop(w, _COMPATIBLE, PRE_MALCEV_ACTIONS)
    _require_roles(structure, [ProductRole.DOT], _COMPATIBLE)
    if rep.module_dim != structure.dim:
        raise DimensionMismatch(
            "an invertible operator needs the module and algebra dimensions equal"
        )
    t_inv = mat_inverse(w.matrix)  # SingularMatrix when not invertible
    _require_valid(structure, w, _COMPATIBLE)
    return _rebuild(structure, tabulate(
        {P.TRI_RIGHT: "+T.right(j, Ti.i)", P.TRI_LEFT: "+T.left(i, Ti.j)"}, rep.grid,
        {"T": w.matrix, "Ti": t_inv}, structure.dim), _COMPATIBLE)


def induce(structure: HomStructure, w: OperatorWitness, recipe: str) -> HomStructure:
    """Build the structure a verified operator induces; refuses unverified
    operators."""
    if recipe not in INDUCE_RECIPES:
        raise UnknownKind(
            f"unknown induce recipe {recipe!r}; expected one of {INDUCE_RECIPES}"
        )
    if recipe == _COMPATIBLE:
        return _induce_compatible(structure, w)
    family, _, form = recipe.rpartition("-")
    oop_laws, rb_laws = ({out: pair[n] for out, pair in _FAMILIES[family].items()}
                         for n in (0, 1))
    if form == "rb":
        _require_rb(w, recipe)
    else:
        rep = _require_oop(w, recipe, frozenset(_read(oop_laws, _ACTION_OF)))
    _require_roles(structure, _read(rb_laws, _ROLE_OF), recipe)
    _require_valid(structure, w, recipe)
    if form == "oop":
        return make_structure(dim=rep.module_dim, twist=rep.module_twist, products=tabulate(
            oop_laws, rep.grid, {"T": w.matrix}, rep.module_dim), meta={"construction": recipe})
    return _rebuild(structure, tabulate(rb_laws, _grids(structure), {"T": w.matrix},
                                        structure.dim), recipe)


def induce_pair(structure: HomStructure, r1: OperatorWitness,
                r2: OperatorWitness, recipe: str) -> HomStructure:
    """Build the structure a verified commuting Rota-Baxter pair induces."""
    if recipe not in _PAIRS:
        raise UnknownKind(
            f"unknown pair recipe {recipe!r}; expected one of {PAIR_RECIPES}"
        )
    _require_rb(r1, recipe)
    _require_rb(r2, recipe)
    _require_valid(structure, r1, recipe)
    _require_valid(structure, r2, recipe)
    if not check_commuting(r1, r2):
        raise NotCommuting(f"recipe {recipe!r} needs the two operators to commute")
    laws = _PAIRS[recipe]
    _require_roles(structure, _read(laws, _ROLE_OF), recipe)
    return _rebuild(structure, tabulate(laws, _grids(structure), {
        "R": r1.matrix, "S": r2.matrix}, structure.dim), recipe)


# ---------------------------------------------------------------------------
# Hessian forms
# ---------------------------------------------------------------------------

#: twist-invariance and the cocycle law of a form against the dot product
_HESSIAN_LAWS = (
    ("HESS-INV", 2, "+form(a.i, a.j) - form(i, j)"),
    ("HESS-COCYCLE", 3, "+form(dot(i, j), a.k) - form(a.i, dot(j, k))"
                        " - form(dot(j, i), a.k) + form(a.j, dot(i, k))"),
)


def check_hessian(structure: HomStructure, form: BilinearForm) -> CheckReport:
    """Symmetry, nondegeneracy, twist-invariance, and the cocycle law of a
    bilinear form against the structure's dot product."""
    start = time.perf_counter()
    if ProductRole.DOT not in structure.products:
        raise RoleMismatch("a Hessian check needs the dot product role")
    if form.dim != structure.dim:
        raise DimensionMismatch(
            f"form has dimension {form.dim}, structure {structure.dim}"
        )
    mat_inverse(structure.twist)  # SingularMatrix when the twist is singular
    n = structure.dim
    b = form.matrix
    alpha = structure.twist
    violations: list[Violation] = []
    for i in range(n):
        for j in range(i + 1, n):
            diff = b[i][j] - b[j][i]
            if diff:
                violations.append(Violation("HESS-SYM", (i, j), {0: diff}))
    kernel = mat_kernel_vector(b)
    if kernel is not None:
        violations.append(Violation("HESS-NONDEG", (), kernel))
    # a product with one output coordinate, 0: each residual is a number
    form_grid = tensor_grid({(r, c): {0: v} for r, row in enumerate(b)
                             for c, v in enumerate(row) if v}, n)
    identities = _compile(_HESSIAN_LAWS)(_grids(structure, other={"form": form_grid}.get),
                                         {"a": alpha}, n)
    return _sweep("hessian", identities, n, start, violations=violations,
                  tuples=n * (n - 1) // 2 + 1)


def hessian_dendrify(structure: HomStructure, form: BilinearForm) -> HomStructure:
    """Split the dot product through a Hessian form by solving the two
    defining adjoint systems; nondegeneracy makes the solutions unique."""
    report = check_hessian(structure, form)
    if not report.passed:
        first = report.violations[0]
        raise HessianInvalid(
            f"form fails the Hessian axioms (first violation {first.identity} "
            f"at {first.args})"
        )
    n = structure.dim
    alpha = structure.twist
    b = form.matrix
    solve = mat_inverse(mat_fractions(mat_mul(mat_transpose(alpha), b)))
    on_dot = structure.only({ProductRole.DOT})
    d, c = on_dot.grid(ProductRole.DOT).ints, on_dot.grid(ProductRole.BRACKET).ints
    b_alpha = mat_mul(b, alpha)

    def solved(cols):
        """``solve X^T b alpha`` for the matrix ``X`` with the columns ``cols``."""
        xt = [[Fraction(c.get(k, 0), c.den) for k in range(n)] for c in cols]
        return mat_fractions(mat_mul(solve, mat_mul(xt, b_alpha)))
    # right multiplication by each e_j, and bracket-left multiplication by each e_i
    p = [solved([d[x][j] for x in range(n)]) for j in range(n)]
    q = [solved(c[i]) for i in range(n)]
    r = range(n)
    tr_entries = [(i, j, k, p[j][k][i]) for j in r for i in r for k in r if p[j][k][i]]
    tl_entries = [(i, j, k, -q[i][k][j]) for i in r for j in r for k in r if q[i][k][j]]
    return _rebuild(
        structure,
        {ProductRole.TRI_RIGHT: tensor_from_entries(tr_entries),
         ProductRole.TRI_LEFT: tensor_from_entries(tl_entries)},
        "hessian-dendrify",
    )


# ---------------------------------------------------------------------------
# operator endomorphisms
# ---------------------------------------------------------------------------

#: ENDO-X: phiA and phiV intertwine the action X
_ENDO_LAWS = _role_laws("ENDO", 2, "+{g}(pa.i, pv.j) - pv.{g}(i, j)", ACTION_NAMES)


def check_oop_endomorphism(w: OperatorWitness, phiA: Matrix,
                           phiV: Matrix) -> bool:
    """True when the pair intertwines the operator and both actions."""
    if w.kind != KIND_O_OPERATOR:
        raise RoleMismatch("endomorphism check needs a relative operator witness")
    rep = w.rep
    assert rep is not None
    n, m = rep.base.dim, rep.module_dim
    phiA = to_matrix(phiA)
    phiV = to_matrix(phiV)
    if mat_shape(phiA) != (n, n):
        raise DimensionMismatch(f"algebra map must be {n}x{n}, got {mat_shape(phiA)}")
    if mat_shape(phiV) != (m, m):
        raise DimensionMismatch(f"module map must be {m}x{m}, got {mat_shape(phiV)}")
    start = time.perf_counter()
    laws = (("ENDO-OP", 1, "+T.pv.i - pa.T.i"),) + tuple(map(_ENDO_LAWS.__getitem__, rep.actions))
    return _sweep("oop-endomorphism", _compile(laws)(_grids(rep.base, other=rep.grid), {
        "T": w.matrix, "pa": phiA, "pv": phiV}, n, m), n, start, module_dim=m).passed


def twist_oop_setup(structure: HomStructure, w: OperatorWitness, phiA: Matrix,
                    phiV: Matrix) -> tuple[HomStructure, Representation, OperatorWitness]:
    """Compose a relative operator setup with an endomorphism pair: products
    and actions are post-composed with the pair, which becomes the new twist
    maps, and the same operator map transfers."""
    rep = _require_oop(w, "twist-oop-setup", PRE_MALCEV_ACTIONS)
    if ProductRole.DOT not in structure.products:
        raise RoleMismatch("the composed setup needs the dot product role")
    phiA = to_matrix(phiA)
    phiV = to_matrix(phiV)
    morph = check_morphism(phiA, structure, structure, weak=True)
    if not morph.passed:
        first = morph.violations[0]
        raise EndomorphismInvalid(
            f"algebra map is not a product self-morphism (first violation "
            f"{first.identity} at {first.args})"
        )
    if not check_oop_endomorphism(w, phiA, phiV):
        raise EndomorphismInvalid(
            "the map pair fails the operator-endomorphism conditions"
        )
    new_structure = _rebuild(structure, tabulate({P.DOT: "+f.dot(i, j)"}, _grids(structure),
                                                  {"f": phiA}, structure.dim),
                             "twist-oop-setup", twist=phiA)
    new_rep = Representation(
        base=new_structure,
        module_dim=rep.module_dim,
        module_twist=phiV,
        actions=tabulate({role: f"+f.{ACTION_NAMES[role]}(i, j)" for role in rep.actions},
                         rep.grid, {"f": phiV}, rep.base.dim, rep.module_dim),
    )
    new_witness = OperatorWitness(kind=KIND_O_OPERATOR, matrix=w.matrix,
                                  rep=new_rep)
    return new_structure, new_rep, new_witness
