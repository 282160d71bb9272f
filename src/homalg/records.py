"""The record layer: the value types of structures, representations, operator
witnesses and reports, the rational forms they hold (``Matrix``, ``Svec``,
``Tensor``) and the helpers that build and validate them, the names of
roles, classes, operator kinds and recipes, and the exceptions they raise.

Bundle parsing, validation and dumping need only this module: no kernel,
law row, law compiler or sweep is loaded with them.  The two methods that
build grids, :meth:`HomStructure.grid` and :meth:`Representation.grid`,
reach ``exact``, ``structures`` and ``reps`` only when they are called.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Collection, Iterable, Mapping

from . import exact, reps, structures

Matrix = tuple[tuple[Fraction, ...], ...]
Svec = dict[int, Fraction]
Tensor = dict[tuple[int, int], Svec]

ZERO = Fraction(0)
ONE = Fraction(1)


class InputError(ValueError):
    """Malformed input (schema, name, role, index or shape): a command exits 2."""


class MathError(ValueError):
    """Well-formed input that fails a mathematical precondition: a command exits 1."""


class SingularMatrix(MathError):
    """The matrix has no inverse over the rationals."""


class DimensionMismatch(InputError):
    """Shapes of matrices, vectors, or tensors do not line up."""


class RoleMismatch(InputError):
    """The structure does not carry (and cannot derive) the roles needed."""


class UnknownKind(InputError):
    """Unrecognized operator kind, recipe or class name."""


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise DimensionMismatch(f"cannot interpret {value!r} as an exact rational")


def matrix(rows: Iterable[Iterable]) -> Matrix:
    """``rows`` as a tuple matrix of Fractions; a row that already is one is
    kept as it is."""
    out = tuple(row if type(row) is tuple and all(type(v) is Fraction for v in row)
                else tuple(map(as_fraction, row)) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise DimensionMismatch("matrix rows have unequal lengths")
    return out


#: the records whose ``matrix`` field shadows :func:`matrix` call it by this name
to_matrix = matrix


def mat_shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def tensor_normalize(t: Mapping) -> Tensor:
    """``t`` with Fraction values and no zeros; a value that already is a
    Fraction is not converted."""
    out: Tensor = {}
    for (i, j), cell in t.items():
        clean = {k: f for k, v in cell.items()
                 if (f := v if type(v) is Fraction else as_fraction(v))}
        if clean:
            out[(int(i), int(j))] = clean
    return out


def validate_tensor(t: Tensor, dim: int, name: str = "tensor", module: int | None = None) -> None:
    """Every index of ``t`` below ``dim``; with ``module`` (an action on a module), the
    second input and the output below ``module``."""
    m, of = (dim, f"dim {dim}") if module is None else (module, f"dims {dim} x {module}")
    for (i, j), cell in t.items():
        if not (0 <= i < dim and 0 <= j < m):
            raise DimensionMismatch(f"{name}: pair index ({i},{j}) out of range for {of}")
        for k in cell:
            if not (0 <= k < m):
                raise DimensionMismatch(f"{name}: output index {k} out of range for dim {m}")


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
    """A finite-dimensional vector space with bilinear products and a twist:
    the identity twist and no products unless given."""

    dim: int
    twist: Matrix
    products: Mapping[ProductRole, Tensor]
    basis: tuple[str, ...]
    meta: Mapping[str, str]

    def __init__(self, dim: int, twist: Matrix | None = None,
                 products: Mapping[ProductRole, Tensor] | None = None,
                 basis: tuple[str, ...] = (),
                 meta: Mapping[str, str] | None = None):
        d = self.__dict__
        d["dim"], d["twist"], d["products"] = dim, twist, products
        d["basis"], d["meta"] = basis, meta
        if self.dim < 1:
            raise DimensionMismatch(f"dimension must be positive, got {self.dim}")
        twist = mat_identity(self.dim) if self.twist is None else to_matrix(self.twist)
        if mat_shape(twist) != (self.dim, self.dim):
            raise DimensionMismatch(
                f"twist must be {self.dim}x{self.dim}, got {mat_shape(twist)}"
            )
        products: dict[ProductRole, Tensor] = {}
        for role, t in (self.products or {}).items():
            if not isinstance(role, ProductRole):
                raise RoleMismatch(f"unknown product role {role!r}")
            products[role] = tensor_normalize(t)
            validate_tensor(products[role], self.dim, f"product '{role.value}'")
        basis = tuple(self.basis) if self.basis else tuple(f"e{i}" for i in range(self.dim))
        if len(basis) != self.dim:
            raise DimensionMismatch(
                f"{len(basis)} basis labels for dimension {self.dim}"
            )
        d["twist"], d["basis"] = twist, basis
        d["products"] = dict(sorted(products.items(), key=lambda item: item[0].value))
        d["meta"] = dict(self.meta) if self.meta is not None else {}

    def roles(self) -> frozenset[ProductRole]:
        return frozenset(self.products)

    def grid(self, role: ProductRole) -> exact.Grid:
        """The grid of the product ``role``, stored or derived (see
        :func:`~homalg.structures.derived_product`), built once per structure."""
        grids = self.__dict__.setdefault("_grids", {})
        if role not in grids:
            grids[role] = exact.tensor_grid(structures.derived_product(self, role), self.dim)
        return grids[role]

    def only(self, roles: Collection[ProductRole]) -> HomStructure:
        """The structure with only its products in ``roles``, so that a
        product derived on it reads no other: itself when it stores no other."""
        if all(role in roles for role in self.products):
            return self
        return HomStructure(self.dim, self.twist, {
            role: t for role, t in self.products.items() if role in roles}, self.basis, self.meta)


#: another name for :class:`HomStructure`
make_structure = HomStructure


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

    def grid(self, name: str) -> exact.Grid:
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
