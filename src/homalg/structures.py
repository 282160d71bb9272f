"""Finite-dimensional twisted algebra structures and exhaustive identity checks.

A :class:`HomStructure` is a basis-indexed bundle of bilinear products plus a
twisting endomorphism.  :func:`check` sweeps every defining identity of a
structure class over all basis tuples and reports the exact nonzero residuals.
"""
from __future__ import annotations

import itertools
import time
from enum import Enum
from functools import cached_property, lru_cache
from fractions import Fraction
from math import lcm, prod
from operator import mul
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
    grid_mul,
    grid_pack,
    mat_cols,
    mat_identity,
    mat_mul,
    mat_shape,
    mat_sub,
    matrix,
    sv_add,
    sv_unpack,
    tensor_add,
    tensor_commutator,
    tensor_flip,
    tensor_grid,
    tensor_normalize,
    tensor_sub,
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
        for role in sorted(self.products, key=lambda r: r.value):
            if not isinstance(role, ProductRole):
                raise RoleMismatch(f"unknown product role {role!r}")
            tensor = tensor_normalize(self.products[role])
            validate_tensor(tensor, self.dim, f"product '{role.value}'")
            products[role] = tensor
        basis = tuple(self.basis) if self.basis else _default_basis(self.dim)
        if len(basis) != self.dim:
            raise DimensionMismatch(
                f"{len(basis)} basis labels for dimension {self.dim}"
            )
        d["twist"], d["products"], d["basis"] = twist, products, basis
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
# derived products
# ---------------------------------------------------------------------------

def derived_product(structure: HomStructure, role: ProductRole) -> Tensor:
    """Return the tensor for ``role``: the stored product of that name, or
    else the one derived from stored products.  This is the one place the
    derived products are defined; a consumer defined over some roles reads
    them on :meth:`HomStructure.only` those roles.  Derivations never mutate
    the structure."""
    p = structure.products
    R = ProductRole
    if role in p:
        return p[role]
    have = p.keys()
    if {R.TRI_LEFT, R.TRI_RIGHT} <= have:
        if role == R.DOT:
            return tensor_add(p[R.TRI_LEFT], p[R.TRI_RIGHT])
        if role == R.DIAMOND:
            return tensor_sub(p[R.TRI_LEFT], tensor_flip(p[R.TRI_RIGHT]))
    if {R.PREC, R.SUCC} <= have and role == R.STAR:
        return tensor_add(p[R.PREC], p[R.SUCC])
    if {R.NW, R.SW, R.NE, R.SE} <= have:
        if role == R.PREC:
            return tensor_add(p[R.NW], p[R.SW])
        if role == R.SUCC:
            return tensor_add(p[R.NE], p[R.SE])
        if role == R.VEE:
            return tensor_add(p[R.SE], p[R.SW])
        if role == R.WEDGE:
            return tensor_add(p[R.NE], p[R.NW])
        if role == R.STAR:
            return tensor_add(tensor_add(p[R.NW], p[R.SW]),
                              tensor_add(p[R.NE], p[R.SE]))
    if role == R.BRACKET:
        for base in (R.DOT, R.STAR):
            try:
                return tensor_commutator(derived_product(structure, base))
            except RoleMismatch:
                continue
    raise RoleMismatch(
        f"cannot derive product '{role.value}' from roles "
        f"{sorted(r.value for r in have)}"
    )


# ---------------------------------------------------------------------------
# identity sets per class
# ---------------------------------------------------------------------------

# An identity is data: ``(label, arity, terms)``.  A term is
# ``(sign, grid, factor, ...)``: with ``grid`` None it is its one factor,
# otherwise the product on ``grid`` of its two.  A factor is ``(table, at)``:
# a :class:`Table` built once per check (of Ivecs, or the columns of a map)
# read at the identity's indices named by ``at``, so ``(dia_av, "kji")`` is
# ``dia_av[k][j][i]`` at the tuple ``(i, j, k, l)``.  The residual at a
# tuple is the signed sum of its terms.  Each identity is multilinear, so
# every term reads every index, the last one at one place of one factor.
# Class, operator, morphism and Hessian laws index base vectors; a
# representation axiom's last index is a module basis vector ``b`` and its
# residual the image of ``e_b``.
Term = tuple
Identity = tuple[str, int, list[Term]]


# A subterm that depends on only some of an identity's indices, or that
# several identities of a check share, is computed once per check into a
# list indexed by basis indices; a sweep stacks each table over the last
# index and folds each product's last-index factor into its grid once per
# check (see :class:`_Stacks`).  An operator law reads ``a(b e_i * e_j)`` as
# a product on the grid of ``a`` after the product (:func:`_composed`); only
# other laws of arity 2 (SKEW, HESS-INV, MULT-*, ...) read full-arity tables.

def _table(rows: list, den: int, depth: int) -> Table:
    """``rows``, lists nested ``depth`` deep of Ivecs over ``den`` (a kernel's
    operands' denominators multiplied), as a Table with their largest L1 norm
    and the span of their coordinates."""
    flat = rows
    for _ in range(depth - 1):
        flat = [v for row in flat for v in row]
    flat = [v for v in flat if v]
    return Table(rows, den, max([sum(map(abs, v.values())) for v in flat], default=0),
                 max([max(v) for v in flat], default=-1) + 1)


def _columns(m) -> Table:
    """The columns of the matrix ``m``, images of the basis vectors."""
    m = as_imat(m)
    return _table(list(mat_cols(m)), m.den, 1)


def _twist_cols(twist: Matrix) -> tuple[Table, Table]:
    """The columns of ``twist`` and of its square."""
    a = as_imat(twist)
    return _columns(a), _columns(mat_mul(a, a))


# A product with an empty operand is stored as that operand, with no call.

def _twisted(a: Table, cells: Table) -> Table:
    """``a(cells[x][y])``."""
    return _table([[u and apply_cols(a, u) for u in row] for row in cells],
                  a.den * cells.den, 2)


def _composed(a: Table, grid: Grid) -> Grid:
    """The grid of cells ``a(e_x * e_y)``: ``a(b e_i * e_j)`` is a product on it."""
    out = Grid()
    out.ints = _twisted(a, grid.ints) if a.norm else Table()   # a zero map: no cells
    out.den, out.peak = out.ints.den, out.ints.norm
    return out


def _pair(grid: Grid, a: Table, b: Table) -> Table:
    """``grid(a e_x, b e_y)``."""
    return _table([[u and v and grid_mul(grid, u, v) for v in b] for u in a],
                  grid.den * a.den * b.den, 2)


def _left_a(grid: Grid, a: Table, cells: Table) -> Table:
    """``grid(a e_x, cells[y][z])``."""
    return _table([[[u and v and grid_mul(grid, u, v) for v in row] for row in cells]
                   for u in a], grid.den * a.den * cells.den, 3)


def _right_a(grid: Grid, cells: Table, a: Table) -> Table:
    """``grid(cells[x][y], a e_z)``."""
    return _table([[[u and v and grid_mul(grid, u, v) for v in a] for u in row]
                   for row in cells], grid.den * cells.den * a.den, 3)


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


def _read_at(terms: Iterable[Term], at: str, sign: int = 1) -> list[Term]:
    """``sign`` times a sum of terms written at ``(i, j, k)``, read at the
    indices named by ``at``."""
    names = dict(zip("ijk", at))
    return [(sign * s, grid, *[(t, "".join(map(names.get, x))) for t, x in factors])
            for s, grid, *factors in terms]


def _bracket_identities(structure: HomStructure, *, malcev: bool = True) -> list[Identity]:
    """SKEW plus JACOBI, or plus the two equivalent forms of the
    four-variable bracket law with ``malcev``, of the bracket, stored or the
    commutator of the dot or star product."""
    dim = structure.dim
    grid = structure.grid(ProductRole.BRACKET)
    cell = grid.ints
    a = _columns(structure.twist)
    skew = ("SKEW", 2, [(1, None, (cell, "ij")), (1, None, (cell, "ji"))])
    # J(e_i,e_j,e_k) = [[e_i,e_j],a e_k] + [[e_j,e_k],a e_i] + [[e_k,e_i],a e_j]
    if not malcev:
        jac = [(1, grid, (cell, at[:2]), (a, at[2])) for at in ("ijk", "jki", "kij")]
        return [skew, ("JACOBI", 3, jac)]
    a2 = _columns(mat_mul(structure.twist, structure.twist))
    t = _right_a(grid, cell, a)                                     # [[e_i,e_j],a e_k]
    r = range(dim)
    jac = _table([[[sv_add(t[i][j][k], t[j][k][i], t[k][i][j]) for k in r] for j in r]
                  for i in r], t.den, 3)
    ac = _twisted(a, cell)                                          # a[e_i,e_k]
    aa = _pair(grid, a, a)                                          # [a e_i,a e_j]
    a_c = _left_a(grid, a, cell)                        # [a e_j,[e_i,e_k]] at j,i,k

    # HM-JAC: J(a e_i, a e_j, [e_i,e_k]) - [J(e_i,e_j,e_k), a^2 e_i], where
    # jac is J at e_i,e_j,e_k
    return [
        skew,
        ("HM-JAC", 3, [(1, grid, (aa, "ij"), (ac, "ik")), (1, grid, (a_c, "jik"), (a2, "i")),
                       (1, grid, (t, "iki"), (a2, "j")), (-1, grid, (jac, "ijk"), (a2, "i"))]),
        ("HM-EXP", 4, [(1, grid, (ac, "ik"), (ac, "jl")), (-1, grid, (t, "ijk"), (a2, "l")),
                       (-1, grid, (t, "jkl"), (a2, "i")), (-1, grid, (t, "kli"), (a2, "j")),
                       (-1, grid, (t, "lij"), (a2, "k"))]),
    ]


def _identities_hom_associative(structure: HomStructure) -> list[Identity]:
    grid = structure.grid(ProductRole.STAR)
    a = _columns(structure.twist)
    return [("ASSOC", 3, [(1, grid, (grid.ints, "ij"), (a, "k")),
                          (-1, grid, (a, "i"), (grid.ints, "jk"))])]


def _identities_hom_alternative(structure: HomStructure) -> list[Identity]:
    grid = structure.grid(ProductRole.STAR)
    cell = grid.ints
    a = _columns(structure.twist)
    # ALT-L and ALT-R are each the associator plus a swap of it
    asc = [(1, grid, (cell, "ij"), (a, "k")), (-1, grid, (a, "i"), (cell, "jk"))]
    return [("ALT-L", 3, asc + _read_at(asc, "jik")),
            ("ALT-R", 3, asc + _read_at(asc, "ikj"))]


def _identities_hom_pre_malcev(structure: HomStructure) -> list[Identity]:
    dgrid, cgrid = structure.grid(ProductRole.DOT), structure.grid(ProductRole.BRACKET)
    d, c = dgrid.ints, cgrid.ints
    a, a2 = _twist_cols(structure.twist)

    ac = _twisted(a, c)                 # a[e_j,e_k]
    ad = _twisted(a, d)                 # a(e_i e_l)
    ca = _right_a(cgrid, c, a)          # [[e_i,e_j],a e_k]
    c_a = _right_a(dgrid, c, a)         # [e_i,e_k](a e_l)
    a_d = _left_a(dgrid, a, d)          # (a e_j)(e_k e_l)
    return [("HPM", 4, [(1, dgrid, (ac, "jk"), (ad, "il")), (1, dgrid, (ca, "ijk"), (a2, "l")),
                        (1, dgrid, (a2, "j"), (c_a, "ikl")), (-1, dgrid, (a2, "i"), (a_d, "jkl")),
                        (1, dgrid, (a2, "k"), (a_d, "ijl"))])]


def _identities_hom_m_dendriform(structure: HomStructure) -> list[Identity]:
    R = ProductRole
    gl, gr, gdot, gdia, gcom = map(structure.grid,
                                   (R.TRI_LEFT, R.TRI_RIGHT, R.DOT, R.DIAMOND, R.BRACKET))
    a, a2 = _twist_cols(structure.twist)
    lc, rc, dc, vc, cc = gl.ints, gr.ints, gdot.ints, gdia.ints, gcom.ints

    ac, ar, av, ad, al = (_twisted(a, cells) for cells in (cc, rc, vc, dc, lc))
    dia_av, dot_ad, r_ad = _left_a(gdia, a, vc), _left_a(gdot, a, dc), _left_a(gr, a, dc)
    l_ar, l_al = _left_a(gl, a, rc), _left_a(gl, a, lc)
    r_va, dot_ca, dia_ca = _right_a(gr, vc, a), _right_a(gdot, cc, a), _right_a(gdia, cc, a)
    com_ca, l_ca = _right_a(gcom, cc, a), _right_a(gl, cc, a)
    return [
        ("MD1", 4, [(1, gr, (dia_av, "kji"), (a2, "l")), (-1, gr, (a2, "i"), (dot_ad, "jkl")),
                    (1, gl, (a2, "k"), (r_ad, "ijl")), (1, gl, (ac, "jk"), (ar, "il")),
                    (-1, gl, (a2, "j"), (r_va, "kil"))]),
        ("MD2", 4, [(1, gl, (a2, "k"), (l_ar, "ijl")), (-1, gr, (dia_av, "kij"), (a2, "l")),
                    (-1, gl, (a2, "i"), (r_ad, "jkl")), (-1, gr, (av, "kj"), (ad, "il")),
                    (1, gr, (a2, "j"), (dot_ca, "ikl"))]),
        ("MD3", 4, [(1, gr, (a2, "k"), (dot_ad, "ijl")), (1, gr, (dia_ca, "ijk"), (a2, "l")),
                    (-1, gl, (a2, "i"), (l_ar, "jkl")), (1, gr, (av, "jk"), (ad, "il")),
                    (1, gl, (a2, "j"), (r_va, "ikl"))]),
        ("MD4", 4, [(1, gl, (com_ca, "ijk"), (a2, "l")), (-1, gl, (a2, "i"), (l_al, "jkl")),
                    (1, gl, (a2, "k"), (l_al, "ijl")), (1, gl, (ac, "jk"), (al, "il")),
                    (1, gl, (a2, "j"), (l_ca, "ikl"))]),
    ]


def _identities_hom_pre_alternative(structure: HomStructure) -> list[Identity]:
    """The class check: the regular left/right action pair of each half-product
    must satisfy the ten splitting axioms (module = the structure itself)."""
    gp, gs, gst = map(structure.grid, (ProductRole.PREC, ProductRole.SUCC, ProductRole.STAR))
    a = _columns(structure.twist)
    p, s, st = gp.ints, gs.ints, gst.ints

    # the six kinds of product the ten axioms are sums of
    def product(grid, left, right):
        return [(1, grid, left, right)]

    s_sta = product(gs, (st, "ij"), (a, "k"))
    s_as = product(gs, (a, "i"), (s, "jk"))
    s_ap = product(gs, (a, "i"), (p, "jk"))
    p_sa = product(gp, (s, "ij"), (a, "k"))
    p_pa = product(gp, (p, "ij"), (a, "k"))
    p_ast = product(gp, (a, "i"), (st, "jk"))

    # each law is x + y - z - w
    laws = {
        "PA1": ((s_sta, "ijk"), (s_sta, "jik"), (s_as, "ijk"), (s_as, "jik")),
        "PA2": ((s_sta, "ikj"), (s_sta, "kij"), (s_as, "ikj"), (s_as, "kij")),
        "PA3": ((p_sa, "ikj"), (p_pa, "kij"), (s_ap, "ikj"), (p_ast, "kij")),
        "PA4": ((p_sa, "kij"), (p_pa, "ikj"), (p_ast, "ikj"), (s_ap, "kij")),
        "PA5": ((p_pa, "jik"), (p_sa, "ijk"), (p_ast, "jik"), (s_ap, "ijk")),
        "PA6": ((p_sa, "jki"), (s_sta, "jik"), (s_ap, "jki"), (s_as, "jik")),
        "PA7": ((p_sa, "kji"), (s_sta, "kij"), (s_ap, "kji"), (s_as, "kij")),
        "PA8": ((p_sa, "jik"), (s_sta, "jki"), (s_ap, "jik"), (s_as, "jki")),
        "PA9": ((p_pa, "kji"), (p_pa, "kij"), (p_ast, "kij"), (p_ast, "kji")),
        "PA10": ((p_pa, "ikj"), (p_pa, "ijk"), (p_ast, "ikj"), (p_ast, "ijk")),
    }
    return [(label, 3, [term for sign, (terms, at) in zip((1, 1, -1, -1), law)
                        for term in _read_at(terms, at, sign)])
            for label, law in laws.items()]


#: the nine associator kinds of a four-way splitting:
#: ``(x, y, z) -> outer_l(inner_l(x, y), a z) - outer_r(a x, inner_r(y, z))``
#: as the product roles ``(outer_l, inner_l, outer_r, inner_r)``
_QUADRI_ASSOCIATORS: dict[str, tuple[ProductRole, ...]] = {
    "r": (ProductRole.NW, ProductRole.NW, ProductRole.NW, ProductRole.STAR),
    "l": (ProductRole.SE, ProductRole.STAR, ProductRole.SE, ProductRole.SE),
    "m": (ProductRole.NW, ProductRole.SE, ProductRole.SE, ProductRole.NW),
    "n": (ProductRole.NW, ProductRole.NE, ProductRole.NE, ProductRole.PREC),
    "w": (ProductRole.NW, ProductRole.SW, ProductRole.SW, ProductRole.WEDGE),
    "s": (ProductRole.SW, ProductRole.SUCC, ProductRole.SE, ProductRole.SW),
    "e": (ProductRole.NE, ProductRole.VEE, ProductRole.SE, ProductRole.NE),
    "ne": (ProductRole.NE, ProductRole.WEDGE, ProductRole.NE, ProductRole.SUCC),
    "sw": (ProductRole.SW, ProductRole.PREC, ProductRole.SW, ProductRole.VEE),
}


def _identities_hom_alt_quadri(structure: HomStructure) -> list[Identity]:
    grid, a = structure.grid, _columns(structure.twist)

    def assoc(outer_l, inner_l, outer_r, inner_r):
        return [(1, grid(outer_l), (grid(inner_l).ints, "ij"), (a, "k")),
                (-1, grid(outer_r), (a, "i"), (grid(inner_r).ints, "jk"))]

    asc = {kind: assoc(*roles) for kind, roles in _QUADRI_ASSOCIATORS.items()}
    # QAn(i, j, k) = first(i, j, k) + second at (i, j, k) with two indices swapped
    laws = [("QA1", "r", "m", "jik"), ("QA2", "r", "r", "ikj"), ("QA3", "n", "w", "jik"),
            ("QA4", "n", "ne", "ikj"), ("QA5", "ne", "e", "jik"), ("QA6", "w", "sw", "ikj"),
            ("QA7", "sw", "s", "jik"), ("QA8", "m", "l", "ikj"), ("QA9", "l", "l", "jik")]
    return [(label, 3, asc[first] + _read_at(asc[second], swap))
            for label, first, second, swap in laws]


_CLASS_IDENTITIES: dict[StructureClass, Callable[[HomStructure], list[Identity]]] = {
    StructureClass.HOM_LIE: lambda s: _bracket_identities(s, malcev=False),
    StructureClass.HOM_MALCEV: _bracket_identities,
    StructureClass.HOM_MALCEV_ADMISSIBLE: _bracket_identities,
    StructureClass.HOM_PRE_MALCEV: _identities_hom_pre_malcev,
    StructureClass.HOM_M_DENDRIFORM: _identities_hom_m_dendriform,
    StructureClass.HOM_ASSOCIATIVE: _identities_hom_associative,
    StructureClass.HOM_ALTERNATIVE: _identities_hom_alternative,
    StructureClass.HOM_PRE_ALTERNATIVE: _identities_hom_pre_alternative,
    StructureClass.HOM_ALT_QUADRI: _identities_hom_alt_quadri,
}


def _product_map_identities(prefix: str, f: Matrix,
                            source: HomStructure, target: HomStructure,
                            roles: Iterable[ProductRole]) -> list[Identity]:
    """``<prefix>-<role>``: ``f(e_i e_j) - (f e_i)(f e_j)`` for every role, the
    product of ``source`` inside and that of ``target`` outside."""
    fc = _columns(f)
    out: list[Identity] = []
    for role in sorted(roles, key=lambda r: r.value):
        src, tgt = source.grid(role).ints, target.grid(role)
        out.append((f"{prefix}-{role.value}", 2, [(1, None, (_twisted(fc, src), "ij")),
                                                  (-1, tgt, (fc, "i"), (fc, "j"))]))
    return out


def _mult_identities(structure: HomStructure,
                     roles: Iterable[ProductRole]) -> list[Identity]:
    """MULT-<role>: the twist is a morphism of each product in ``roles``."""
    return _product_map_identities("MULT", structure.twist, structure, structure, roles)


#: the names of an identity's indices, in order
INDEX_NAMES = "ijkl"


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
    identities = _product_map_identities("MORPH", f, source, target, source.products)
    if not weak:
        twist = mat_sub(mat_mul(f, source.twist), mat_mul(target.twist, f))
        identities.append(("MORPH-TWIST", 1, [(1, None, (_columns(twist), "i"))]))
    return _sweep("morphism", identities, source.dim, start)
