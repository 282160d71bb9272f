"""Finite-dimensional twisted algebra structures and exhaustive identity checks.

A :class:`HomStructure` is a basis-indexed bundle of bilinear products plus a
twisting endomorphism.  :func:`check` sweeps every defining identity of a
structure class over all basis tuples and reports the exact nonzero residuals.
"""
from __future__ import annotations

import itertools
import re
import time
from enum import Enum
from functools import cached_property, lru_cache, reduce
from fractions import Fraction
from math import lcm, prod
from operator import add, mul, sub
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .exact import (
    DimensionMismatch,
    Grid,
    Ivec,
    Matrix,
    Table,
    Tensor,
    apply_cols,
    as_imat,
    as_ivec,
    grid_mul,
    grid_pack,
    mat_cols,
    mat_identity,
    mat_lincomb,
    mat_mul,
    mat_shape,
    matrix,
    sv_basis,
    sv_unpack,
    tensor_grid,
    tensor_normalize,
    validate_tensor,
)


class RoleMismatch(ValueError):
    """The structure does not carry (and cannot derive) the roles needed."""


class UnknownKind(ValueError):
    """Unrecognized operator kind, recipe or class name."""


class ProductRole(Enum):
    """Slots a bilinear product can occupy in a structure."""

    BRACKET = "bracket"        # antisymmetric bracket
    STAR = "star"              # single (not necessarily symmetric) product
    DOT = "dot"                # pre-Malcev-type product
    TRI_RIGHT = "tri-right"    # first half of an M-dendriform splitting
    TRI_LEFT = "tri-left"      # second half of an M-dendriform splitting
    PREC = "prec"              # "precedes" half of a dendriform-type splitting
    SUCC = "succ"              # "succeeds" half of a dendriform-type splitting
    NW = "nw"                  # four-way splitting, north-west
    SW = "sw"                  # four-way splitting, south-west
    NE = "ne"                  # four-way splitting, north-east
    SE = "se"                  # four-way splitting, south-east
    DIAMOND = "diamond"        # derived only: vertical recombination
    VEE = "vee"                # derived only: se + sw
    WEDGE = "wedge"            # derived only: ne + nw


class StructureClass(Enum):
    HOM_LIE = "hom-lie"
    HOM_MALCEV = "hom-malcev"
    HOM_MALCEV_ADMISSIBLE = "hom-malcev-admissible"
    HOM_PRE_MALCEV = "hom-pre-malcev"
    HOM_M_DENDRIFORM = "hom-m-dendriform"
    HOM_ASSOCIATIVE = "hom-associative"
    HOM_ALTERNATIVE = "hom-alternative"
    HOM_PRE_ALTERNATIVE = "hom-pre-alternative"
    HOM_ALT_QUADRI = "hom-alt-quadri"


#: product roles a structure must carry (directly) to be checked as a class
CLASS_ROLES: dict[StructureClass, frozenset[ProductRole]] = {
    StructureClass.HOM_LIE: frozenset({ProductRole.BRACKET}),
    StructureClass.HOM_MALCEV: frozenset({ProductRole.BRACKET}),
    StructureClass.HOM_MALCEV_ADMISSIBLE: frozenset({ProductRole.STAR}),
    StructureClass.HOM_PRE_MALCEV: frozenset({ProductRole.DOT}),
    StructureClass.HOM_M_DENDRIFORM: frozenset({ProductRole.TRI_RIGHT, ProductRole.TRI_LEFT}),
    StructureClass.HOM_ASSOCIATIVE: frozenset({ProductRole.STAR}),
    StructureClass.HOM_ALTERNATIVE: frozenset({ProductRole.STAR}),
    StructureClass.HOM_PRE_ALTERNATIVE: frozenset({ProductRole.PREC, ProductRole.SUCC}),
    StructureClass.HOM_ALT_QUADRI: frozenset(
        {ProductRole.NW, ProductRole.SW, ProductRole.NE, ProductRole.SE}
    ),
}


def _default_basis(dim: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(dim))


class Record:
    """A frozen value whose fields are its class annotations, in order.  Each
    subclass's ``__init__`` stores its fields into ``self.__dict__``; equality,
    hashing and ``repr`` follow the fields as for a frozen dataclass."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


class HomStructure(Record):
    """A finite-dimensional vector space with bilinear products and a twist."""

    dim: int
    twist: Matrix
    products: Mapping[ProductRole, Tensor]
    basis: tuple[str, ...]
    meta: Mapping[str, str]

    def __init__(self, dim: int, twist: Matrix,
                 products: Mapping[ProductRole, Tensor],
                 basis: tuple[str, ...] = (),
                 meta: Mapping[str, str] | None = None):
        d = self.__dict__
        d["dim"], d["twist"], d["products"] = dim, twist, products
        d["basis"], d["meta"] = basis, meta
        if self.dim < 1:
            raise DimensionMismatch(f"dimension must be positive, got {self.dim}")
        twist = matrix(self.twist)
        if mat_shape(twist) != (self.dim, self.dim):
            raise DimensionMismatch(
                f"twist must be {self.dim}x{self.dim}, got {mat_shape(twist)}"
            )
        products: dict[ProductRole, Tensor] = {}
        for role, t in self.products.items():
            if not isinstance(role, ProductRole):
                raise RoleMismatch(f"unknown product role {role!r}")
            products[role] = tensor_normalize(t)
            validate_tensor(products[role], self.dim, f"product '{role.value}'")
        basis = tuple(self.basis) if self.basis else _default_basis(self.dim)
        if len(basis) != self.dim:
            raise DimensionMismatch(
                f"{len(basis)} basis labels for dimension {self.dim}"
            )
        d["twist"], d["basis"] = twist, basis
        d["products"] = dict(sorted(products.items(), key=lambda item: item[0].value))
        d["meta"] = dict(self.meta) if self.meta is not None else {}

    def roles(self) -> frozenset[ProductRole]:
        return frozenset(self.products)

    def grid(self, role: ProductRole) -> Grid:
        """The grid of the product ``role``, stored or derived (see
        :func:`derived_product`), built once per structure."""
        grids = self.__dict__.setdefault("_grids", {})
        if role not in grids:
            grids[role] = tensor_grid(derived_product(self, role), self.dim)
        return grids[role]

    def only(self, roles: Collection[ProductRole]) -> HomStructure:
        """The structure with only its products in ``roles``, so that a
        product derived on it reads no other: itself when it stores no other."""
        if all(role in roles for role in self.products):
            return self
        return make_structure(self.dim, self.twist, {
            role: t for role, t in self.products.items() if role in roles}, self.basis, self.meta)


def make_structure(dim, twist=None, products=None, basis=None, meta=None) -> HomStructure:
    return HomStructure(
        dim=dim,
        twist=twist if twist is not None else mat_identity(dim),
        products=products or {},
        basis=tuple(basis) if basis else (),
        meta=meta or {},
    )


class Violation(Record):
    identity: str
    args: tuple[int, ...]
    residual: Mapping[int, Fraction]

    def __init__(self, identity: str, args: tuple[int, ...],
                 residual: Mapping[int, Fraction]):
        d = self.__dict__
        d["identity"], d["args"], d["residual"] = identity, args, residual


class CheckReport(Record):
    target: str
    passed: bool
    violations: tuple[Violation, ...]
    tuples_checked: int
    elapsed: float

    def __init__(self, target: str, passed: bool, violations: tuple[Violation, ...],
                 tuples_checked: int, elapsed: float):
        d = self.__dict__
        d["target"], d["passed"], d["violations"] = target, passed, violations
        d["tuples_checked"], d["elapsed"] = tuples_checked, elapsed


# ---------------------------------------------------------------------------
# laws: product-tree formulas and their one compiler
# ---------------------------------------------------------------------------

# A law is a row ``(label, arity, formula)``, its formula a signed sum of
# product trees over the indices ``i j k l``: ``g(x, y)`` is the product on
# the grid named ``g`` (a stored or derived product, an action or a form),
# ``m.x`` the map named ``m`` applied to ``x`` (``m2`` is ``m`` twice) and a
# bare index a basis vector, so no grid or map is named after an index.
# Each term reads every index, and the last one at exactly one leaf; a
# representation axiom's last index is a module basis vector ``b``, and its
# residual the image of ``e_b``.
#
# :func:`_compile` turns laws into identities ``(label, arity, terms)``, a
# term ``(sign, grid, factor[, factor])`` being its one factor (``grid``
# None) or the product of its two on ``grid``; a factor ``(table, at)`` is
# a :class:`Table` read at the indices ``at``: ``(t, "kji")`` is
# ``t[k][j][i]``.  Each strict subtree is a table built once per check with
# one kernel call per entry, shared by every subtree of its shape.  A
# product at the top, or a map over one, is read as its table when both
# factors are indices or the laws build that table anyway, else it is a
# product term (on the composed grid of cells ``m(e_x * e_y)`` under a map);
# the maps over one index (a map over a map is their composition) add up to
# one table, the columns of their signed sum.
Law = tuple[str, int, str]
Term = tuple
Identity = tuple[str, int, list[Term]]

#: the names of an identity's indices, in order
INDEX_NAMES = "ijkl"

#: the name of each product role's grid in a law, in the order of the roles
ROLE_NAMES: dict[ProductRole, str] = dict(zip(ProductRole, (
    "com", "star", "dot", "tr", "tl", "prec", "succ", "nw", "sw", "ne", "se", "dia", "vee",
    "wedge")))
_ROLE_OF = {name: role for role, name in ROLE_NAMES.items()}

@lru_cache(maxsize=None)
def parse_formula(formula: str) -> tuple[tuple[int, object], ...]:
    """The signed terms of ``formula``, each a product tree: an index
    letter, ``(map, tree)`` or ``(grid, left, right)``."""
    tokens = re.findall(r"\w+|\S", formula)[::-1]

    def take(*allowed: str) -> str:
        if not tokens or allowed and tokens[-1] not in allowed:
            raise ValueError(f"malformed law {formula!r}")
        return tokens.pop()

    def tree():
        name = take()
        if len(name) == 1 and name in INDEX_NAMES:
            return name
        if take(".", "(") == ".":
            return name, tree()
        left, _, right, _ = tree(), take(","), tree(), take(")")
        return name, left, right

    terms = []
    while tokens:
        terms.append((1 if take("+", "-") == "+" else -1, tree()))
    return tuple(terms)


def unparse(tree) -> str:
    """A product tree written out in the notation of the law rows."""
    if type(tree) is str:
        return tree
    args = ", ".join(map(unparse, tree[1:]))
    return f"{tree[0]}.{args}" if len(tree) == 2 else f"{tree[0]}({args})"


def write(terms) -> str:
    """Signed product trees written out as a law's formula, read back by :func:`parse_formula`."""
    return " ".join(f"{'+' if sign > 0 else '-'}{unparse(tree)}" for sign, tree in terms)


# ---------------------------------------------------------------------------
# derived products: linear relations among products, read by one combiner
# ---------------------------------------------------------------------------

def combine(formula: str, tensors: Mapping[str, Tensor]) -> Tensor:
    """The product ``formula`` writes as a signed sum of the products
    ``tensors[g]``, each term ``g(i, j)`` or, inputs swapped, ``g(j, i)``.
    Each cell is copied where its key is first met and added to after, and
    zero entries and empty cells are dropped; no cell is one of the inputs'."""
    out: Tensor = {}
    for sign, tree in parse_formula(formula):
        if type(tree) is str or tree[1:] not in (("i", "j"), ("j", "i")):
            raise ValueError(f"{formula!r}: each term must be g(i, j) or g(j, i)")
        name, first, _ = tree
        swap, op = first == "j", add if sign > 0 else sub
        for (x, y), cell in tensors[name].items():
            key = (y, x) if swap else (x, y)
            target = out.get(key)
            if target is None:
                out[key] = dict(cell) if sign > 0 else {k: -v for k, v in cell.items()}
                continue
            for k, v in cell.items():
                if k not in target:
                    target[k] = v if sign > 0 else -v
                elif total := op(target[k], v):
                    target[k] = total
                else:
                    del target[k]
    return {key: cell for key, cell in out.items() if cell}


#: each derived role's formulas over the stored products: the first whose
#: products a structure all stores gives it
_DERIVED: dict[ProductRole, tuple[str, ...]] = {
    ProductRole.DOT: ("+tl(i, j) + tr(i, j)",),
    ProductRole.DIAMOND: ("+tl(i, j) - tr(j, i)",),
    ProductRole.STAR: ("+prec(i, j) + succ(i, j)", "+nw(i, j) + sw(i, j) + ne(i, j) + se(i, j)"),
    ProductRole.PREC: ("+nw(i, j) + sw(i, j)",),
    ProductRole.SUCC: ("+ne(i, j) + se(i, j)",),
    ProductRole.VEE: ("+se(i, j) + sw(i, j)",),
    ProductRole.WEDGE: ("+ne(i, j) + nw(i, j)",),
    # the commutator of the dot product, stored or derived, else of the star
    ProductRole.BRACKET: (
        "+dot(i, j) - dot(j, i)",
        "+tl(i, j) + tr(i, j) - tl(j, i) - tr(j, i)",
        "+star(i, j) - star(j, i)",
        "+prec(i, j) + succ(i, j) - prec(j, i) - succ(j, i)",
        "+nw(i, j) + sw(i, j) + ne(i, j) + se(i, j) - nw(j, i) - sw(j, i) - ne(j, i)"
        " - se(j, i)"),
}


def _named(products: Mapping[ProductRole, Tensor]) -> dict[str, Tensor]:
    """``products`` keyed by the names laws give their roles (:data:`ROLE_NAMES`)."""
    return {ROLE_NAMES[role]: t for role, t in products.items()}


def derived_product(structure: HomStructure, role: ProductRole) -> Tensor:
    """Return the tensor for ``role``: the stored product of that name, or
    else the one derived from stored products (:data:`_DERIVED`).  This is
    the one place the derived products are defined; a consumer defined over
    some roles reads them on :meth:`HomStructure.only` those roles.
    Derivations never mutate the structure."""
    if role in structure.products:
        return structure.products[role]
    stored = _named(structure.products)
    for formula in _DERIVED.get(role, ()):
        if {tree[0] for _, tree in parse_formula(formula)} <= stored.keys():
            return combine(formula, stored)
    raise RoleMismatch(
        f"cannot derive product '{role.value}' from roles "
        f"{sorted(r.value for r in structure.products)}"
    )


#: each product's left and right actions in a law (a bracket acts by ``rho`` on either
#: side, with a minus on the right); the actions a law may name as signed sums of those a
#: representation carries, formulas read by :func:`combine` (``star = prec + succ`` acts
#: by the sums of its parts' actions, a pre-Malcev ``rho`` by ``left - right``)
_ACTIONS = {"com": ("rho", "-rho"), "dot": ("left", "right"), "prec": ("lp", "rp"),
            "succ": ("ls", "rs"), "star": ("left", "right")}
ACTION_SUMS = {"rho": "+left(i, j) - right(i, j)", **{
    total: f"+{x}(i, j) + {y}(i, j)"
    for total, x, y in zip(*map(_ACTIONS.get, ("star", "prec", "succ")))}}


def _leaves(tree) -> str:
    """The indices ``tree`` reads, in order."""
    return tree if type(tree) is str else "".join(map(_leaves, tree[1:]))


@lru_cache(maxsize=None)
def module_law(formula: str, slot: str, order: str) -> str:
    """The part of the class law ``formula`` linear in a module vector at the index
    ``slot``, its indices ``order + slot`` renamed ``i j k l``: its terms reading ``slot``
    once, each product over the module's subtree written as its action (:data:`_ACTIONS`),
    base factor first, and a twist ``aN`` over the subtree moved inside as ``bN``:
    ``X(aN.x, bN.m)`` for ``bN.X(x, m)``, which holds where the equivariance axioms do."""
    names = dict(zip(order + slot, INDEX_NAMES))

    def rename(tree, n: int = 0, twist: str = "a"):     # under the twist's n-th power
        tree = names[tree] if type(tree) is str else (tree[0], *map(rename, tree[1:]))
        return (f"{twist}{n if n > 1 else ''}", tree) if n else tree

    def module(tree, n: int = 0) -> tuple[int, object]:     # its sign and tree, under a^n
        chain, tree = _maps(tree)
        n += len(chain)
        if type(tree) is str:
            return 1, rename(tree, n, "b")
        name, *factors = tree
        right = slot in _leaves(factors[0])     # the module on the left: a right action
        action, (sign, inner) = _ACTIONS[name][right], module(factors[not right], n)
        return (-sign if action[0] == "-" else sign,
                (action.lstrip("-"), rename(factors[right], n), inner))

    return write([(sign * s, tree) for sign, term in parse_formula(formula)
                  if _leaves(term).count(slot) == 1 for s, tree in [module(term)]])


#: the defining laws of each class, on its roles' grids and the twist ``a``
_CLASS_LAWS: dict[StructureClass, tuple[Law, ...]] = {
    StructureClass.HOM_LIE: (
        ("SKEW", 2, "+com(i, j) + com(j, i)"),
        ("JACOBI", 3, "+com(com(i, j), a.k) + com(com(j, k), a.i) + com(com(k, i), a.j)"),
    ),
    # with J(x, y, z) = [[x, y], a z] + [[y, z], a x] + [[z, x], a y], HM-JAC
    # is J(a e_i, a e_j, [e_i, e_k]) - [J(e_i, e_j, e_k), a^2 e_i]
    StructureClass.HOM_MALCEV: (
        ("SKEW", 2, "+com(i, j) + com(j, i)"),
        ("HM-JAC", 3, "+com(com(a.i, a.j), a.com(i, k)) + com(com(a.j, com(i, k)), a2.i)"
                      " + com(com(com(i, k), a.i), a2.j) - com(com(com(i, j), a.k), a2.i)"
                      " - com(com(com(j, k), a.i), a2.i) - com(com(com(k, i), a.j), a2.i)"),
        ("HM-EXP", 4, "+com(a.com(i, k), a.com(j, l)) - com(com(com(i, j), a.k), a2.l)"
                      " - com(com(com(j, k), a.l), a2.i) - com(com(com(k, l), a.i), a2.j)"
                      " - com(com(com(l, i), a.j), a2.k)"),
    ),
    StructureClass.HOM_PRE_MALCEV: (
        ("HPM", 4, "+dot(a.com(j, k), a.dot(i, l)) + dot(com(com(i, j), a.k), a2.l)"
                   " + dot(a2.j, dot(com(i, k), a.l)) - dot(a2.i, dot(a.j, dot(k, l)))"
                   " + dot(a2.k, dot(a.i, dot(j, l)))"),
    ),
    StructureClass.HOM_M_DENDRIFORM: (
        ("MD1", 4, "+tr(dia(a.k, dia(j, i)), a2.l) - tr(a2.i, dot(a.j, dot(k, l)))"
                   " + tl(a2.k, tr(a.i, dot(j, l))) + tl(a.com(j, k), a.tr(i, l))"
                   " - tl(a2.j, tr(dia(k, i), a.l))"),
        ("MD2", 4, "+tl(a2.k, tl(a.i, tr(j, l))) - tr(dia(a.k, dia(i, j)), a2.l)"
                   " - tl(a2.i, tr(a.j, dot(k, l))) - tr(a.dia(k, j), a.dot(i, l))"
                   " + tr(a2.j, dot(com(i, k), a.l))"),
        ("MD3", 4, "+tr(a2.k, dot(a.i, dot(j, l))) + tr(dia(com(i, j), a.k), a2.l)"
                   " - tl(a2.i, tl(a.j, tr(k, l))) + tr(a.dia(j, k), a.dot(i, l))"
                   " + tl(a2.j, tr(dia(i, k), a.l))"),
        ("MD4", 4, "+tl(com(com(i, j), a.k), a2.l) - tl(a2.i, tl(a.j, tl(k, l)))"
                   " + tl(a2.k, tl(a.i, tl(j, l))) + tl(a.com(j, k), a.tl(i, l))"
                   " + tl(a2.j, tl(com(i, k), a.l))"),
    ),
    StructureClass.HOM_ASSOCIATIVE: (
        ("ASSOC", 3, "+star(star(i, j), a.k) - star(a.i, star(j, k))"),
    ),
    StructureClass.HOM_ALTERNATIVE: (
        ("ALT-L", 3, "+star(star(i, j), a.k) - star(a.i, star(j, k))"
                     " + star(star(j, i), a.k) - star(a.j, star(i, k))"),
        ("ALT-R", 3, "+star(star(i, j), a.k) - star(a.i, star(j, k))"
                     " + star(star(i, k), a.j) - star(a.i, star(k, j))"),
    ),
    # each law is the splitting axiom PABM-n of the structure's actions on itself
    StructureClass.HOM_PRE_ALTERNATIVE: (
        ("PA1", 3, "+succ(star(i, j), a.k) + succ(star(j, i), a.k) - succ(a.i, succ(j, k))"
                   " - succ(a.j, succ(i, k))"),
        ("PA2", 3, "+succ(star(i, k), a.j) + succ(star(k, i), a.j) - succ(a.i, succ(k, j))"
                   " - succ(a.k, succ(i, j))"),
        ("PA3", 3, "+prec(succ(i, k), a.j) + prec(prec(k, i), a.j) - succ(a.i, prec(k, j))"
                   " - prec(a.k, star(i, j))"),
        ("PA4", 3, "+prec(succ(k, i), a.j) + prec(prec(i, k), a.j) - prec(a.i, star(k, j))"
                   " - succ(a.k, prec(i, j))"),
        ("PA5", 3, "+prec(prec(j, i), a.k) + prec(succ(i, j), a.k) - prec(a.j, star(i, k))"
                   " - succ(a.i, prec(j, k))"),
        ("PA6", 3, "+prec(succ(j, k), a.i) + succ(star(j, i), a.k) - succ(a.j, prec(k, i))"
                   " - succ(a.j, succ(i, k))"),
        ("PA7", 3, "+prec(succ(k, j), a.i) + succ(star(k, i), a.j) - succ(a.k, prec(j, i))"
                   " - succ(a.k, succ(i, j))"),
        ("PA8", 3, "+prec(succ(j, i), a.k) + succ(star(j, k), a.i) - succ(a.j, prec(i, k))"
                   " - succ(a.j, succ(k, i))"),
        ("PA9", 3, "+prec(prec(k, j), a.i) + prec(prec(k, i), a.j) - prec(a.k, star(i, j))"
                   " - prec(a.k, star(j, i))"),
        ("PA10", 3, "+prec(prec(i, k), a.j) + prec(prec(i, j), a.k) - prec(a.i, star(k, j))"
                    " - prec(a.i, star(j, k))"),
    ),
    # each law is one associator x(y(e_i, e_j), a e_k) - z(a e_i, w(e_j, e_k))
    # plus another with two indices swapped
    StructureClass.HOM_ALT_QUADRI: (
        ("QA1", 3, "+nw(nw(i, j), a.k) - nw(a.i, star(j, k))"
                   " + nw(se(j, i), a.k) - se(a.j, nw(i, k))"),
        ("QA2", 3, "+nw(nw(i, j), a.k) - nw(a.i, star(j, k))"
                   " + nw(nw(i, k), a.j) - nw(a.i, star(k, j))"),
        ("QA3", 3, "+nw(ne(i, j), a.k) - ne(a.i, prec(j, k))"
                   " + nw(sw(j, i), a.k) - sw(a.j, wedge(i, k))"),
        ("QA4", 3, "+nw(ne(i, j), a.k) - ne(a.i, prec(j, k))"
                   " + ne(wedge(i, k), a.j) - ne(a.i, succ(k, j))"),
        ("QA5", 3, "+ne(wedge(i, j), a.k) - ne(a.i, succ(j, k))"
                   " + ne(vee(j, i), a.k) - se(a.j, ne(i, k))"),
        ("QA6", 3, "+nw(sw(i, j), a.k) - sw(a.i, wedge(j, k))"
                   " + sw(prec(i, k), a.j) - sw(a.i, vee(k, j))"),
        ("QA7", 3, "+sw(prec(i, j), a.k) - sw(a.i, vee(j, k))"
                   " + sw(succ(j, i), a.k) - se(a.j, sw(i, k))"),
        ("QA8", 3, "+nw(se(i, j), a.k) - se(a.i, nw(j, k))"
                   " + se(star(i, k), a.j) - se(a.i, se(k, j))"),
        ("QA9", 3, "+se(star(i, j), a.k) - se(a.i, se(j, k))"
                   " + se(star(j, i), a.k) - se(a.j, se(i, k))"),
    ),
}
_CLASS_LAWS[StructureClass.HOM_MALCEV_ADMISSIBLE] = _CLASS_LAWS[StructureClass.HOM_MALCEV]


def _role_laws(label: str, arity: int, formula: str,
               names: Mapping = ROLE_NAMES) -> dict:
    """The law ``<label>-<role>`` of each role, ``{g}`` its grid name in ``names``."""
    return {role: (f"{label}-{role.value}", arity, formula.format(g=name))
            for role, name in names.items()}


def _maps(tree) -> tuple[tuple[str, ...], object]:
    """The maps applied at the top of ``tree``, outermost first (``m2`` is
    ``m`` twice), and the tree they apply to."""
    chain = ()
    while type(tree) is tuple and len(tree) == 2:
        name, tree = tree
        base = name.rstrip("0123456789")
        chain += (base,) * int(name[len(base):] or 1)
    return chain, tree


def _table(rows: list, den: int, depth: int) -> Table:
    """``rows``, lists nested ``depth`` deep of Ivecs over ``den``, as a Table
    with their largest L1 norm and the span of their coordinates."""
    flat = rows
    for _ in range(depth - 1):
        flat = [v for row in flat for v in row]
    flat = [v for v in flat if v]
    return Table(rows, den, max([sum(map(abs, v.values())) for v in flat], default=0),
                 max([max(v) for v in flat], default=-1) + 1)


def _columns(m) -> Table:
    """The columns of the Imat ``m``, images of the basis vectors."""
    return _table(mat_cols(m), m.den, 1)


# What a compiled law set calls to build its tables, once per check.  A table
# with an empty operand is empty, built with no call, and so is a table entry.

@lru_cache(maxsize=None)
def _basis(n: int) -> Table:
    """The basis vectors, one table shared by every check (none is changed)."""
    return Table(sv_basis(n), 1, 1, n)


@lru_cache(maxsize=None)
def _signs(signs: tuple[int, ...]) -> Ivec:
    """``signs`` as the coefficients of a linear combination, built once."""
    return as_ivec(dict(enumerate(signs)))


def _map_sum(signs: tuple[int, ...], mats: list) -> Table:
    """The columns of the sum of the Imats ``mats`` with ``signs``."""
    return _columns(mat_lincomb(_signs(signs), mats, mats[0].rows, mats[0].cols))


def _apply(a: Table, cells: Table, depth: int) -> Table:
    """``a`` applied to each entry of ``cells``, nested ``depth`` (2 or 3) deep."""
    if not (a.norm and cells.norm):
        return Table()
    if depth == 2:
        images = [[u and apply_cols(a, u) for u in row] for row in cells]
    else:
        images = [[[u and apply_cols(a, u) for u in row] for row in rows] for rows in cells]
    return _table(images, a.den * cells.den, depth)


def _mul(grid: Grid, u: Table, v: Table, dl: int, dr: int) -> Table:
    """``grid(x, y)`` for each entry ``x`` of ``u`` and ``y`` of ``v``, nested
    ``dl`` and ``dr`` deep (``dl + dr <= 3``), indexed by the indices of both."""
    if not (u.norm and v.norm):
        return Table()
    if (dl, dr) == (1, 1):
        rows = [[x and y and grid_mul(grid, x, y) for y in v] for x in u]
    elif (dl, dr) == (1, 2):
        rows = [[[x and y and grid_mul(grid, x, y) for y in row] for row in v] for x in u]
    else:
        rows = [[[x and y and grid_mul(grid, x, y) for y in v] for x in row] for row in u]
    return _table(rows, grid.den * u.den * v.den, dl + dr)


def _cells_grid(cells: Table) -> Grid:
    """The grid of the cells ``m(e_x * e_y)``, from their table."""
    out = Grid()
    out.ints, out.den, out.peak = cells, cells.den, cells.norm
    return out


#: each kind of compiled step's source, from earlier steps' names (a tuple: a list) and literals
_STEPS = {"basis": "_basis({})", "map": "as_imat(maps[{!r}])", "compose": "mat_mul({}, {})",
          "columns": "_columns({})", "sum": "_map_sum({}, {})", "grid": "grid({!r})",
          "cells": "{}.ints", "mul": "_mul({}, {}, {}, {}, {})", "apply": "_apply({}, {}, {})",
          "composed": "_cells_grid({})"}


@lru_cache(maxsize=None)
def _compile(laws: tuple[Law, ...]) -> Callable[..., list[Identity]]:
    """``laws`` compiled once per text to ``build(grid, maps, dim, module_dim=0)``:
    on the grids ``grid(name)`` and maps ``maps[name]``, their identities,
    the last index over ``module_dim`` basis vectors (if given), else ``dim``."""
    lines, names = [], {}       # each step's source line, and its name by its key

    def step(*key) -> str:      # computed once: equal shapes share it
        if key not in names:
            names[key] = f"t{len(names)}"
            args = [f"[{', '.join(a)}]" if type(a) is tuple and type(a[0]) is str else a
                    for a in key[1:]]
            lines.append(f"    {names[key]} = {_STEPS[key[0]].format(*args)}")
        return names[key]

    def columns(*terms) -> str:     # of the signed sum of each chain of maps composed
        mats = tuple(reduce(lambda m, x: step("compose", m, x), [step("map", x) for x in chain])
                     for _, chain in terms)
        if len(terms) == 1 and terms[0][0] == 1:
            return step("columns", *mats)
        return step("sum", tuple(sign for sign, _ in terms), mats)

    def applied(chain: tuple, t: str, at: str) -> tuple:    # the key of chain over t
        return "apply", columns((1, chain)), t, len(at)

    def product(name: str, left, right, last: str) -> tuple[tuple, str]:    # and its indices
        grid = step("grid", name)
        if type(left) is str and type(right) is str:
            return ("cells", grid), left + right
        (x, lat), (y, rat) = table(left, last), table(right, last)
        return ("mul", grid, x, y, len(lat), len(rat)), lat + rat

    def table(tree, last: str) -> tuple[str, str]:   # and the indices it reads
        if type(tree) is str:
            return step("basis", "module_dim or dim" if tree == last else "dim"), tree
        chain, inner = _maps(tree)
        if type(inner) is str:
            return columns((1, chain)), inner
        key, at = product(*inner, last)
        if len(at) > 3:
            raise ValueError(f"a table reads at most three indices, not {tree!r}")
        return (step(*applied(chain, step(*key), at)) if chain else step(*key)), at

    rows = []
    for label, arity, formula in laws:
        last, terms, maps = INDEX_NAMES[arity - 1], [], {}
        for sign, tree in parse_formula(formula):
            chain, top = _maps(tree)
            if type(top) is str:
                maps.setdefault(top, []).append((sign, chain))
            elif type(top[1]) is str and type(top[2]) is str:
                terms.append((sign, *table(tree, last)))
            else:
                terms.append((sign, chain, *product(*top, last)))
        rows.append((label, arity, terms + [(1, columns(*ts), at) for at, ts in maps.items()]))
    identities = []
    for label, arity, terms in rows:
        for n, (sign, *term) in enumerate(terms):
            if len(term) == 3:      # a product at the top, read as its table if it is built
                chain, key, at = term
                t = names.get(key)
                if t and chain:
                    t = names.get(applied(chain, t, at))
                if not t:
                    _, grid, x, y, dl, _ = key
                    if chain:
                        grid = step("composed", step(*applied(chain, step("cells", grid), "xy")))
                    terms[n] = f"({sign}, {grid}, ({x}, {at[:dl]!r}), ({y}, {at[dl:]!r}))"
                    continue
                term = t, at
            terms[n] = "({}, None, ({}, {!r}))".format(sign, *term)
        identities.append(f"({label!r}, {arity}, [{', '.join(terms)}])")
    source = "\n".join(["def build(grid, maps, dim, module_dim=0):", *lines,
                        f"    return [{', '.join(identities)}]"])
    namespace: dict = {}    # the source calls as_imat, mat_mul and the helpers above
    exec(source, globals(), namespace)
    return namespace["build"]


class _Terms(list):
    """A term list with its common denominator ``den``, each term's
    coefficient over ``den`` in ``coeffs``, in ``norms`` a bound on every
    coordinate of each term over its own denominator (``|(u * v)_k| <=
    |u|_1 |v|_1 max|cell|``, 0 for a term with an empty table or grid), in
    ``bound`` one on the sum over ``den`` and in ``span`` the number of its
    coordinates, all found from its factors' and grids' records."""

    __slots__ = ("den", "coeffs", "norms", "bound", "span")

    def __init__(self, terms: Iterable[Term]):
        super().__init__(terms)
        dens, norms, spans = [], [], []
        for _, grid, (t, _), *right in self:
            if grid is not None:
                (u, _), = right
                dens.append(t.den * u.den * grid.den)
                norms.append(t.norm * u.norm * grid.peak)
                spans.append(grid.ints.span)
            else:
                dens.append(t.den)
                norms.append(t.norm)
                spans.append(t.span)
        self.den, self.norms = lcm(*dens), norms
        self.coeffs = [term[0] * (self.den // d) for term, d in zip(self, dens)]
        self.bound = sum(map(abs, map(int.__mul__, self.coeffs, norms)))
        self.span = max(spans, default=0)


def _grids(source: HomStructure, target: HomStructure | None = None,
           other: Callable[[str], Grid] | None = None) -> Callable[[str], Grid]:
    """The grid a law names: a product of ``source`` (after ``to_``, of
    ``target``), or else ``other(name)``, an action or a form."""
    def grid(name: str) -> Grid:
        if name.startswith("to_"):
            return target.grid(_ROLE_OF[name[3:]])
        return source.grid(_ROLE_OF[name]) if name in _ROLE_OF else other(name)
    return grid


_CLASS_IDENTITIES: dict[StructureClass, Callable[[HomStructure], list[Identity]]] = {
    cls: lambda s, cls=cls: _compile(_CLASS_LAWS[cls])(_grids(s), {"a": s.twist}, s.dim)
    for cls in StructureClass}


#: ``f(e_i e_j) - (f e_i)(f e_j)``: ``f`` carries each product of a source
#: to that of a target
_MULT_LAWS, _MORPH_LAWS = (_role_laws(label, 2, "+f.{g}(i, j) - to_{g}(f.i, f.j)")
                           for label in ("MULT", "MORPH"))


def _mult_identities(structure: HomStructure,
                     roles: Iterable[ProductRole]) -> list[Identity]:
    """MULT-<role>: the twist is a morphism of each product in ``roles``."""
    return _compile(tuple(map(_MULT_LAWS.__getitem__, roles)))(
        _grids(structure, structure), {"f": structure.twist}, structure.dim)


@lru_cache(maxsize=None)
def positions(at: str) -> tuple[int, ...]:
    """The index positions named by the letters of ``at``."""
    return tuple(INDEX_NAMES.index(x) for x in at)


def _reader(table, at: str) -> Callable[[tuple], object]:
    """``idx -> table[idx[p]][idx[q]]...`` at the positions named by ``at``."""
    pos = positions(at)
    if not pos:
        return lambda idx: table
    if len(pos) == 1:
        p, = pos
        return lambda idx: table[idx[p]]
    if len(pos) == 2:
        p, q = pos
        return lambda idx: table[idx[p]][idx[q]]
    p, q, r = pos
    return lambda idx: table[idx[p]][idx[q]][idx[r]]


def _width(sums: Iterable[_Terms]) -> int:
    """The slot width of a sweep: two bits more than the largest residual
    bound of its term lists, so every residual coordinate is below
    ``2**(w-1)`` in absolute value.  Its packed residual is then zero exactly
    when the residual is, and a passing check is still a proof."""
    return max([terms.bound for terms in sums], default=0).bit_length() + 2


def _sizes(arity: int, dim: int, module_dim: int) -> tuple[int, ...]:
    """The range of each index of an identity: ``dim`` basis vectors, or
    with ``module_dim`` that many module basis vectors for the last."""
    return (dim,) * (arity - 1) + (module_dim or dim,)


def _stack(table: list, depth: int, p: int, leaf: Callable) -> object:
    """``leaf`` of the entries of a table nested ``depth`` deep along its
    index ``p``, at every value of its other indices: nested lists
    ``depth - 1`` deep, indexed by those in order.  With ``p`` its last
    index, ``leaf`` of each entry of a table nested ``depth - 1`` deep."""
    if depth == 1:
        return leaf(table)
    if depth == 2:
        return list(map(leaf, table if p else zip(*table)))
    if p:
        return [_stack(row, depth - 1, p - 1, leaf) for row in table]
    return [_stack(col, depth - 1, 0, leaf) for col in zip(*table)]


class _Stacks:
    """What one sweep sets up once and shares across its identities.

    Every identity is linear in its last index, so the residuals at all its
    values ``l`` share one int, coordinate ``c`` of the residual at ``l`` in
    the slot at bit ``w * (span * l + c)`` (Kronecker substitution), and a
    sweep visits only the tuples of the other indices, its prefixes.  A
    one-factor term reads its table stacked over the last index.  A product
    term's factor reading the last index is stacked one coordinate ``y`` at
    a time and folded into the packed grid, ``M[x] = sum of L_y * g[x][y]``,
    so the term at a prefix is ``sum of u_x * M[x]`` over its other factor.
    Each table is stacked, folded or packed once, where first needed."""

    def __init__(self, sums: Sequence[_Terms]):
        self.sums, self.span = sums, max([1] + [terms.span for terms in sums])
        self.built: dict = {}   # stacked, packed and folded tables, keyed by ids

    @cached_property
    def w(self) -> int:
        """The slot width, found where the first table is stacked."""
        return _width(self.sums)

    def _ints(self, vs: Sequence[Ivec]) -> int:
        """The vectors ``vs[l]`` packed into their slots of one int."""
        w, span = self.w, self.span
        return sum([n << (w * (span * l + k)) for l, v in enumerate(vs) for k, n in v.items()])

    def _stacked(self, table: list, at: str, last: str, ints: bool) -> object:
        """``table`` read at ``at``, stacked over the index named ``last``: the
        vectors along it (0 if all empty), or with ``ints`` their :meth:`_ints`."""
        p = at.index(last)
        key = ("stack", id(table), p, ints)
        if key not in self.built:
            self.built[key] = _stack(table, len(at), p,
                                     self._ints if ints else lambda vs: vs if any(vs) else 0)
        return self.built[key]

    def _fold(self, stack, depth: int, grid: Grid, right: bool) -> object:
        """Each entry ``vs`` of ``stack``, nested ``depth`` deep, stacked one
        coordinate ``y`` at a time, ``L_y = sum of vs[l][y] * 2**(w * span *
        l)``, and folded into the packed cells ``g`` of ``grid`` as its right
        factor, ``M[x] = sum of L_y * g[x][y]``, or as its left, ``M[y] = sum
        of L_x * g[x][y]``; 0 where ``M`` is.  No ``L_y`` is 0, as each
        ``|vs[l][y]|`` is below ``2**(w-1)``."""
        key = ("fold", id(stack), id(grid), right)
        if key not in self.built:
            if (id(grid), right) not in self.built:   # the packed cells at each y, or x
                if id(grid) not in self.built:
                    self.built[id(grid)] = grid_pack(grid.ints, self.w)
                rows, cols = self.built[id(grid)], [[] for _ in grid.ints[0]]
                for x, row in enumerate(rows):
                    for y, g in row:
                        cols[y].append((x, g))
                self.built[id(grid), right] = (cols, len(rows)) if right else (rows, len(cols))
            (lines, size), step = self.built[id(grid), right], self.w * self.span

            def fold(vs):
                if not vs:
                    return 0
                acc = {}
                for l, v in enumerate(vs):
                    for y, n in v.items():
                        acc[y] = acc.get(y, 0) + (n << (step * l))
                m = [0] * size
                for y, a in acc.items():
                    for x, g in lines[y]:
                        m[x] += a * g
                return m if any(m) else 0
            self.built[key] = _stack(stack, depth + 1, depth, fold)
        return self.built[key]

    def residuals(self, terms: _Terms, sizes: Sequence[int]) -> Iterator[tuple[tuple, int]]:
        """Each nonzero stacked residual of ``terms`` over the ranges
        ``sizes`` of their indices, with its prefix.  A term of norm 0 is 0
        and dropped."""
        last = INDEX_NAMES[len(sizes) - 1]
        singles, products, fixed = [], [], []
        for c, norm, (_, grid, *factors) in zip(terms.coeffs, terms.norms, terms):
            if not norm:
                continue
            right = last in factors[-1][1]
            *other, (t, at) = factors if right else factors[::-1]
            s, rest = self._stacked(t, at, last, grid is None), at.replace(last, "")
            if grid is None:
                singles.append((c, _reader(s, rest)))
            elif rest:
                products.append((c, _reader(*other[0]),
                                 _reader(self._fold(s, len(rest), grid, right), rest)))
            elif m := self._fold(s, 0, grid, right):     # the same at every prefix
                fixed.append((c, _reader(*other[0]), m.__getitem__))
        if not (singles or products or fixed):
            return
        for idx in itertools.product(*map(range, sizes[:-1])):
            r = 0
            for c, read in singles:
                r += c * read(idx)
            for c, vec, m in fixed:
                if u := vec(idx):
                    r += c * sum(map(mul, map(m, u), u.values()))
            for c, vec, folded in products:
                if (u := vec(idx)) and (m := folded(idx)):
                    r += c * sum(map(mul, map(m.__getitem__, u), u.values()))
            if r:
                yield idx, r


def _violations(identities: Sequence[Identity], dim: int, *,
                module_dim: int = 0) -> Iterator[Violation]:
    """Every nonzero residual of ``identities`` over the ranges of their
    indices (see :func:`_sizes`): each stacked residual of a prefix (see
    :class:`_Stacks`) decoded into one violation for every value of the last
    index at which the residual is nonzero."""
    identities = [(label, _sizes(arity, dim, module_dim), _Terms(terms))
                  for label, arity, terms in identities]
    stacks = _Stacks([terms for _, _, terms in identities])
    for label, sizes, terms in identities:
        for idx, r in stacks.residuals(terms, sizes):
            cols: dict[int, dict[int, Fraction]] = {}
            for slot, n in sv_unpack(r, stacks.w).items():
                l, k = divmod(slot, stacks.span)
                cols.setdefault(l, {})[k] = Fraction(n, terms.den)
            for l, residual in cols.items():
                yield Violation(label, (*idx, l), residual)


def tabulate(formulas: Mapping, grid: Callable[[str], Grid], maps: Mapping, dim: int,
             module_dim: int = 0) -> dict:
    """The product or action each of ``formulas`` writes, ``{key: Tensor}``:
    each formula is a two-index law, compiled by :func:`_compile` on the grids
    ``grid(name)`` and maps ``maps[name]`` and swept with the others in one
    pass, and its cell at ``(i, j)`` is the law's residual there."""
    keys = tuple(formulas)
    out: dict = {key: {} for key in keys}
    laws = tuple((str(n), 2, formulas[key]) for n, key in enumerate(keys))
    for v in _violations(_compile(laws)(grid, maps, dim, module_dim), dim, module_dim=module_dim):
        out[keys[int(v.identity)]][v.args] = v.residual
    return out


def _sweep(target: str, identities: Sequence[Identity],
           dim: int, start: float, *, module_dim: int = 0,
           violations: Sequence[Violation] = (), tuples: int = 0) -> CheckReport:
    """The report of every identity over the ranges of its indices (see
    :func:`_sizes`), counting in the ``tuples`` already checked and the
    ``violations`` already found by the caller."""
    tuples += sum(prod(_sizes(arity, dim, module_dim)) for _, arity, _ in identities)
    found = list(violations)
    if identities:      # a split check sweeps its blocks itself and passes none
        found.extend(_violations(identities, dim, module_dim=module_dim))
    found.sort(key=lambda v: (v.identity, v.args))
    return CheckReport(
        target=target,
        passed=not found,
        violations=tuple(found),
        tuples_checked=tuples,
        elapsed=time.perf_counter() - start,
    )


def _sweep_blocks(target: str, parts: Iterable[tuple[list[int], list[int], list[Identity]]],
                  dim: int, start: float, *, module_dim: int = 0) -> CheckReport:
    """The report of a check split along direct-sum blocks: ``parts`` gives
    each swept block's sorted base indices, those of its last index and its
    identities (the same for every block), whose violations are re-indexed
    through them.  A tuple mixing blocks counts as checked: it is zero."""
    found: list[Violation] = []
    for base, last, identities in parts:
        found.extend(Violation(v.identity, (*[base[x] for x in v.args[:-1]], last[v.args[-1]]),
                               {last[k]: r for k, r in v.residual.items()})
                     for v in _violations(identities, len(base), module_dim=len(last)))
    tuples = sum(prod(_sizes(arity, dim, module_dim)) for _, arity, _ in identities)
    return _sweep(target, (), dim, start, violations=found, tuples=tuples)


def _components(size: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The sorted vertices of each connected component of the graph on
    ``range(size)`` with ``edges``, by union-find with path halving."""
    root = list(range(size))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for x, y in edges:
        root[find(x)] = find(y)
    blocks: dict[int, list[int]] = {}
    for x in range(size):
        blocks.setdefault(find(x), []).append(x)
    return list(blocks.values())


def _edges(structure: HomStructure) -> list[tuple[int, int]]:
    """``i`` to ``j`` and to every ``k`` in the support of each stored
    ``e_i e_j``, and ``r`` to ``c`` at each nonzero twist entry: the
    components of this graph are the direct-sum blocks, as every product and
    the twist keep each and a product of two is zero."""
    edges = [(i, k) for tensor in structure.products.values()
             for (i, j), cell in tensor.items() for k in (j, *cell)]
    return edges + [(r, c) for r, row in enumerate(structure.twist)
                    for c, v in enumerate(row) if v]


def _restrict(structure: HomStructure, block: list[int]) -> HomStructure:
    """``structure`` on the span of the basis vectors ``block`` (one of its
    blocks), re-indexed in order; the structure itself for a single block."""
    if len(block) == structure.dim:
        return structure
    at = {x: n for n, x in enumerate(block)}
    return make_structure(
        len(block), twist=[[structure.twist[r][c] for c in block] for r in block],
        products={role: {(at[i], at[j]): {at[k]: v for k, v in cell.items()}
                         for (i, j), cell in tensor.items() if i in at}
                  for role, tensor in structure.products.items()})


def check(structure: HomStructure, cls: StructureClass, *,
          multiplicativity: bool = False) -> CheckReport:
    """Exhaustively sweep every defining identity of ``cls`` over all basis
    tuples.  Residuals are exact; a report passes only if every residual is
    identically zero.

    Each identity is a sum of product trees that read every index (the
    ``MULT-*`` ones too), so each term is zero at a tuple that mixes direct-sum
    blocks: each block is swept on its own, and every other tuple counts as
    checked with a zero residual.  The class identities read each block on
    only the roles of ``cls`` (:meth:`HomStructure.only`), so a product
    stored under a derived role's name is not read; ``multiplicativity``
    covers every stored product."""
    start = time.perf_counter()
    needed = CLASS_ROLES[cls]
    if not needed <= structure.roles():
        raise RoleMismatch(
            f"class '{cls.value}' needs product roles "
            f"{sorted(r.value for r in needed)}; structure has "
            f"{sorted(r.value for r in structure.roles())}"
        )
    parts = [(block, _restrict(structure, block))
             for block in _components(structure.dim, _edges(structure))]
    # a block whose products are all zero has only zero residuals, since
    # every term reads a product; one is swept regardless, for the arities
    return _sweep_blocks(cls.value, (
        (block, block, _CLASS_IDENTITIES[cls](part.only(needed))
         + (_mult_identities(part, part.products) if multiplicativity else []))
        for block, part in [p for p in parts if any(p[1].products.values())] or parts[:1]),
        structure.dim, start)


def check_morphism(f: Matrix, source: HomStructure, target: HomStructure,
                   *, weak: bool = False) -> CheckReport:
    """Verify ``f`` carries every product of ``source`` to the matching product
    of ``target``; unless ``weak``, also require ``f`` to intertwine the twists."""
    start = time.perf_counter()
    f = matrix(f)
    if mat_shape(f) != (target.dim, source.dim):
        raise DimensionMismatch(
            f"morphism must be {target.dim}x{source.dim}, got {mat_shape(f)}"
        )
    if not source.roles() <= target.roles():
        raise RoleMismatch(
            f"target lacks roles {sorted(r.value for r in source.roles() - target.roles())}"
        )
    laws = tuple(map(_MORPH_LAWS.__getitem__, source.products))
    if not weak:
        laws += (("MORPH-TWIST", 1, "+f.a.i - b.f.i"),)
    return _sweep("morphism", _compile(laws)(_grids(source, target), {
        "f": f, "a": source.twist, "b": target.twist}, source.dim), source.dim, start)
