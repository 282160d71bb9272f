"""Rota-Baxter and relative (O-) operator witnesses, their verification, and
every induced-structure constructor: dendrification of single operators, of
commuting pairs, and of Hessian bilinear forms.

The operator recipes are data (``_FAMILIES`` and ``_PAIRS``) read by one
builder, ``reps._product``, which also tabulates the regular and adjoint
representations.  A Rota-Baxter map of weight 0 is an O-operator on the
regular (adjoint) representation, so each ``-rb`` recipe is its ``-oop``
recipe on that representation, with the structure product in place of each
action, and both come from the same table row.
"""
from __future__ import annotations

import time
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import (
    DimensionMismatch,
    Matrix,
    Tensor,
    as_fraction,
    mat_cols,
    mat_fractions,
    mat_inverse,
    mat_kernel_vector,
    mat_mul,
    mat_lincomb,
    mat_shape,
    mat_transpose,
    matrix as to_matrix,
    push_product,
    sv_basis,
    tensor_from_entries,
    tensor_grid,
)
from .reps import (
    ACTION_NAMES,
    ActionRole,
    MALCEV_ACTIONS,
    PRE_ALTERNATIVE_ACTIONS,
    PRE_MALCEV_ACTIONS,
    Representation,
    _product,
)
from .structures import (
    CheckReport,
    HomStructure,
    Identity,
    ProductRole,
    Record,
    RoleMismatch,
    UnknownKind,
    Violation,
    _compile,
    _grids,
    _role_laws,
    _sweep,
    check_morphism,
    make_structure,
)


class OperatorInvalid(ValueError):
    """A construction was asked to use an operator that fails its own check."""


class NotCommuting(ValueError):
    """A pair construction needs the two operators to commute."""


class HessianInvalid(ValueError):
    """A dendrification was asked to use a bilinear form that fails the
    Hessian axioms."""


class EndomorphismInvalid(ValueError):
    """The map pair does not satisfy the operator-endomorphism conditions."""


KIND_ROTA_BAXTER = "rota-baxter"
KIND_O_OPERATOR = "o-operator"
OPERATOR_KINDS = (KIND_ROTA_BAXTER, KIND_O_OPERATOR)


class OperatorWitness(Record):
    """A Rota-Baxter map on the algebra, or a module-to-algebra map relative
    to a representation."""

    kind: str
    matrix: Matrix
    weight: Fraction | None
    rep: Representation | None

    def __init__(self, kind: str, matrix: Matrix,
                 weight: Fraction | None = None,
                 rep: Representation | None = None):
        d = self.__dict__
        d["kind"], d["matrix"], d["weight"], d["rep"] = kind, matrix, weight, rep
        if self.kind not in OPERATOR_KINDS:
            raise UnknownKind(
                f"unknown operator kind {self.kind!r}; expected one of {OPERATOR_KINDS}"
            )
        mat = to_matrix(self.matrix)
        d["matrix"] = mat
        if self.kind == KIND_ROTA_BAXTER:
            if self.rep is not None:
                raise RoleMismatch("a Rota-Baxter witness carries no representation")
            rows, cols = mat_shape(mat)
            if rows != cols:
                raise DimensionMismatch(
                    f"a Rota-Baxter map must be square, got {rows}x{cols}"
                )
            weight = as_fraction(self.weight) if self.weight is not None else Fraction(0)
            d["weight"] = weight
        else:
            if self.weight is not None:
                raise RoleMismatch("a relative operator witness carries no weight")
            if self.rep is None:
                raise RoleMismatch("a relative operator witness needs a representation")
            want = (self.rep.base.dim, self.rep.module_dim)
            if mat_shape(mat) != want:
                raise DimensionMismatch(
                    f"operator map must be {want[0]}x{want[1]} (module to algebra), "
                    f"got {mat_shape(mat)}"
                )


class BilinearForm(Record):
    """A square rational matrix read as a bilinear form on the algebra."""

    matrix: Matrix

    def __init__(self, matrix: Matrix):
        self.__dict__["matrix"] = matrix
        mat = to_matrix(self.matrix)
        rows, cols = mat_shape(mat)
        if rows != cols:
            raise DimensionMismatch(f"a bilinear form must be square, got {rows}x{cols}")
        self.__dict__["matrix"] = mat

    @property
    def dim(self) -> int:
        return mat_shape(self.matrix)[0]


# ---------------------------------------------------------------------------
# operator verification
# ---------------------------------------------------------------------------

P, A = ProductRole, ActionRole

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


# The families of products an operator T induces.  Each row is one output
# product (out, X, *, swap): out(x, y) = X(T x) y, or X(T y) x with swap, for
# an O-operator T on a representation with the action X.  A Rota-Baxter map
# R of weight 0 is the O-operator R on the regular (adjoint) representation,
# where X is the structure product *: a left action X(u) v = u * v and a
# right one X(u) v = v * u.  So each family's "-rb" recipe is its "-oop"
# recipe on that representation: out(x, y) = R x * y, or x * R y with swap.
# Both recipes need the structure products * of their rows.
_FAMILIES: dict[str, tuple[tuple[ProductRole, ActionRole, ProductRole, bool], ...]] = {
    "malcev-to-premalcev": ((P.DOT, A.RHO, P.BRACKET, False),),
    "premalcev-to-mdendriform": ((P.TRI_RIGHT, A.RIGHT, P.DOT, True),
                                 (P.TRI_LEFT, A.LEFT, P.DOT, False)),
    "alternative-to-prealt": ((P.SUCC, A.LEFT, P.STAR, False),
                              (P.PREC, A.RIGHT, P.STAR, True)),
    "prealt-to-quadri": ((P.SE, A.LEFT_SUCC, P.SUCC, False),
                         (P.NE, A.RIGHT_SUCC, P.SUCC, True),
                         (P.SW, A.LEFT_PREC, P.PREC, False),
                         (P.NW, A.RIGHT_PREC, P.PREC, True)),
}

# The products a commuting pair R1, R2 of Rota-Baxter maps induces on one
# structure product *: each row (out, f, g) is out(x, y) = f x * g y, for f
# and g among the identity "", R1 "1", R2 "2" and R1 R2 "12".
_PAIRS: dict[str, tuple[ProductRole, tuple[tuple[ProductRole, str, str], ...]]] = {
    "malcev-pair-to-mdendriform": (P.BRACKET, ((P.TRI_RIGHT, "1", "2"),
                                               (P.TRI_LEFT, "12", ""))),
    "alternative-pair-to-quadri": (P.STAR, ((P.SE, "12", ""), (P.NE, "1", "2"),
                                            (P.SW, "2", "1"), (P.NW, "", "12"))),
}

_COMPATIBLE = "premalcev-compatible-dendriform"

INDUCE_RECIPES = tuple(sorted([f"{family}-{form}" for family in _FAMILIES
                               for form in ("oop", "rb")] + [_COMPATIBLE]))
PAIR_RECIPES = tuple(sorted(_PAIRS))


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
    e, ti, t = sv_basis(structure.dim), mat_cols(t_inv), mat_cols(w.matrix)
    return _rebuild(structure, {
        out: _product(rep.grid(ACTION_NAMES[act]), e, ti, swap, outer=t)
        for out, act, _, swap in _FAMILIES["premalcev-to-mdendriform"]}, _COMPATIBLE)


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
    rows = _FAMILIES[family]
    roles = sorted({role for _, _, role, _ in rows}, key=lambda r: r.value)
    if form == "rb":
        _require_rb(w, recipe)
    else:
        rep = _require_oop(w, recipe, frozenset(act for _, act, _, _ in rows))
    _require_roles(structure, roles, recipe)
    _require_valid(structure, w, recipe)
    t = mat_cols(w.matrix)
    if form == "oop":
        f = sv_basis(rep.module_dim)
        return make_structure(dim=rep.module_dim, twist=rep.module_twist, products={
            out: _product(rep.grid(ACTION_NAMES[act]), t, f, swap)
            for out, act, _, swap in rows}, meta={"construction": recipe})
    e, grids = sv_basis(structure.dim), {role: structure.grid(role) for role in roles}
    return _rebuild(structure, {
        out: _product(grids[role], *((e, t) if swap else (t, e)))
        for out, _, role, swap in rows}, recipe)


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
    role, rows = _PAIRS[recipe]
    _require_roles(structure, [role], recipe)
    maps = {"": sv_basis(structure.dim), "1": mat_cols(r1.matrix),
            "2": mat_cols(r2.matrix), "12": mat_cols(mat_mul(r1.matrix, r2.matrix))}
    grid = structure.grid(role)
    return _rebuild(structure, {
        out: _product(grid, maps[f], maps[g]) for out, f, g in rows}, recipe)


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
    new_structure = make_structure(
        dim=structure.dim,
        twist=phiA,
        products={ProductRole.DOT:
                  push_product(structure.products[ProductRole.DOT], phiA)},
        basis=structure.basis,
        meta={"construction": "twist-oop-setup"},
    )
    new_rep = Representation(
        base=new_structure,
        module_dim=rep.module_dim,
        module_twist=phiV,
        actions={role: push_product(t, phiV) for role, t in rep.actions.items()},
    )
    new_witness = OperatorWitness(kind=KIND_O_OPERATOR, matrix=w.matrix,
                                  rep=new_rep)
    return new_structure, new_rep, new_witness
