"""The record layer: the value types of structures, representations, operator
witnesses and reports, the names of roles, classes, operator kinds and
recipes, and the exceptions they raise.

Bundle parsing, validation and dumping need only this module and ``exact``:
no law row, law compiler or sweep is loaded with them.  The two methods
that build grids, :meth:`HomStructure.grid` and
:meth:`Representation.grid`, reach ``structures`` and ``reps`` only when
they are called.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Collection, Mapping

from . import reps, structures
from .exact import (
    DimensionMismatch,
    Grid,
    Matrix,
    Tensor,
    as_fraction,
    mat_identity,
    mat_shape,
    matrix as to_matrix,
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

KIND_ROTA_BAXTER = "rota-baxter"
KIND_O_OPERATOR = "o-operator"
OPERATOR_KINDS = (KIND_ROTA_BAXTER, KIND_O_OPERATOR)

#: the recipes of one operator and of a commuting pair, each the name of
#: its formulas in ``operators`` (``_FAMILIES`` with its "-oop" or "-rb"
#: form, and ``_PAIRS``)
INDUCE_RECIPES = (
    "alternative-to-prealt-oop", "alternative-to-prealt-rb", "malcev-to-premalcev-oop",
    "malcev-to-premalcev-rb", "prealt-to-quadri-oop", "prealt-to-quadri-rb",
    "premalcev-compatible-dendriform", "premalcev-to-mdendriform-oop",
    "premalcev-to-mdendriform-rb")
PAIR_RECIPES = ("alternative-pair-to-quadri", "malcev-pair-to-mdendriform")


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
        twist = to_matrix(self.twist)
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
        :func:`~homalg.structures.derived_product`), built once per structure."""
        grids = self.__dict__.setdefault("_grids", {})
        if role not in grids:
            grids[role] = tensor_grid(structures.derived_product(self, role), self.dim)
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
        twist = to_matrix(self.module_twist)
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
        """The grid of the action a law names (:func:`~homalg.reps._action_grid`),
        built once."""
        grids = self.__dict__.setdefault("_grids", {})
        if name not in grids:
            grids[name] = reps._action_grid(name, self.actions, self.base.dim, self.module_dim)
        return grids[name]


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
