"""Finite-dimensional twisted algebra structures and exhaustive identity checks.

A :class:`HomStructure` is a basis-indexed bundle of bilinear products plus a
twisting endomorphism.  :func:`check` sweeps every defining identity of a
structure class over all basis tuples and reports the exact nonzero residuals.
"""
from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping

from .exact import (
    DimensionMismatch,
    Ivec,
    Matrix,
    Tensor,
    Vector,
    apply_cols,
    as_ivec,
    grid_mul,
    mat_cols,
    mat_identity,
    mat_mul,
    mat_shape,
    matrix,
    sv_add,
    sv_basis,
    sv_fractions,
    sv_from_vector,
    sv_neg,
    sv_sub,
    sv_to_vector,
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
    """Unrecognized associator kind."""


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


@dataclass(frozen=True, eq=True)
class HomStructure:
    """A finite-dimensional vector space with bilinear products and a twist."""

    dim: int
    twist: Matrix
    products: Mapping[ProductRole, Tensor]
    basis: tuple[str, ...] = ()
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
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
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "products", products)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "meta", dict(self.meta))

    def roles(self) -> frozenset[ProductRole]:
        return frozenset(self.products)

    def untwisted(self) -> bool:
        return self.twist == mat_identity(self.dim)


def make_structure(dim, twist=None, products=None, basis=None, meta=None) -> HomStructure:
    return HomStructure(
        dim=dim,
        twist=twist if twist is not None else mat_identity(dim),
        products=products or {},
        basis=tuple(basis) if basis else (),
        meta=meta or {},
    )


@dataclass(frozen=True)
class Violation:
    identity: str
    args: tuple[int, ...]
    residual: Mapping[int, Fraction]


@dataclass(frozen=True)
class CheckReport:
    target: str
    passed: bool
    violations: tuple[Violation, ...]
    tuples_checked: int
    elapsed: float


# ---------------------------------------------------------------------------
# derived products
# ---------------------------------------------------------------------------

def derived_product(structure: HomStructure, role: ProductRole) -> Tensor:
    """Return the tensor for ``role``, deriving it from stored products when
    possible.  Derivations never mutate the structure."""
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


def _single_product_role(structure: HomStructure) -> ProductRole:
    for role in (ProductRole.STAR, ProductRole.DOT, ProductRole.BRACKET):
        if role in structure.products:
            return role
    raise RoleMismatch(
        "no star, dot, or bracket product available; roles present: "
        f"{sorted(r.value for r in structure.products)}"
    )


# ---------------------------------------------------------------------------
# public pointwise evaluators
# ---------------------------------------------------------------------------

def hom_jacobian(structure: HomStructure, x: Vector, y: Vector, z: Vector) -> Vector:
    """J(x,y,z) = [[x,y],a(z)] + [[y,z],a(x)] + [[z,x],a(y)] for the bracket
    (stored or derived) and twist a."""
    dim = structure.dim
    grid = tensor_grid(derived_product(structure, ProductRole.BRACKET), dim)
    a = mat_cols(structure.twist)
    u, v, w = (as_ivec(sv_from_vector(t)) for t in (x, y, z))

    def ap(s: Ivec) -> Ivec:
        return apply_cols(a, s)

    res = sv_add(
        grid_mul(grid, grid_mul(grid, u, v), ap(w)),
        grid_mul(grid, grid_mul(grid, v, w), ap(u)),
        grid_mul(grid, grid_mul(grid, w, u), ap(v)),
    )
    return sv_to_vector(sv_fractions(res), dim)


#: associator kinds for four-way-split structures, plus the plain one
ASSOCIATOR_KINDS = ("plain", "r", "l", "m", "n", "w", "s", "e", "ne", "sw")


def alpha_associator(structure: HomStructure, kind: str,
                     x: Vector, y: Vector, z: Vector) -> Vector:
    """Twisted associator of the requested kind evaluated on dense vectors."""
    if kind not in ASSOCIATOR_KINDS:
        raise UnknownKind(f"unknown associator kind {kind!r}; expected one of {ASSOCIATOR_KINDS}")
    dim = structure.dim
    a = mat_cols(structure.twist)
    u, v, w = (as_ivec(sv_from_vector(t)) for t in (x, y, z))

    def ap(s: Ivec) -> Ivec:
        return apply_cols(a, s)

    if kind == "plain":
        grid = tensor_grid(structure.products[_single_product_role(structure)], dim)
        res = sv_sub(grid_mul(grid, grid_mul(grid, u, v), ap(w)),
                     grid_mul(grid, ap(u), grid_mul(grid, v, w)))
        return sv_to_vector(sv_fractions(res), dim)

    R = ProductRole
    if not CLASS_ROLES[StructureClass.HOM_ALT_QUADRI] <= structure.roles():
        raise RoleMismatch(f"associator kind {kind!r} needs the four-way product roles")
    g = {role: tensor_grid(structure.products[role], dim)
         for role in (R.NW, R.SW, R.NE, R.SE)}
    g_succ = tensor_grid(derived_product(structure, R.SUCC), dim)
    g_prec = tensor_grid(derived_product(structure, R.PREC), dim)
    g_vee = tensor_grid(derived_product(structure, R.VEE), dim)
    g_wedge = tensor_grid(derived_product(structure, R.WEDGE), dim)
    g_star = tensor_grid(derived_product(structure, R.STAR), dim)
    # (outer grid for left term, inner grid for left term,
    #  outer grid for right term, inner grid for right term)
    table = {
        "r": (g[R.NW], g[R.NW], g[R.NW], g_star),
        "l": (g[R.SE], g_star, g[R.SE], g[R.SE]),
        "m": (g[R.NW], g[R.SE], g[R.SE], g[R.NW]),
        "n": (g[R.NW], g[R.NE], g[R.NE], g_prec),
        "w": (g[R.NW], g[R.SW], g[R.SW], g_wedge),
        "s": (g[R.SW], g_succ, g[R.SE], g[R.SW]),
        "e": (g[R.NE], g_vee, g[R.SE], g[R.NE]),
        "ne": (g[R.NE], g_wedge, g[R.NE], g_succ),
        "sw": (g[R.SW], g_prec, g[R.SW], g_vee),
    }
    outer_l, inner_l, outer_r, inner_r = table[kind]
    res = sv_sub(grid_mul(outer_l, grid_mul(inner_l, u, v), ap(w)),
                 grid_mul(outer_r, ap(u), grid_mul(inner_r, v, w)))
    return sv_to_vector(sv_fractions(res), dim)


# ---------------------------------------------------------------------------
# identity sets per class
# ---------------------------------------------------------------------------

IdentityFn = Callable[..., Ivec]
Identity = tuple[str, int, IdentityFn]


def _twist_cols(structure: HomStructure) -> tuple[tuple[Ivec, ...], tuple[Ivec, ...]]:
    a = mat_cols(structure.twist)
    a2 = mat_cols(mat_mul(structure.twist, structure.twist))
    return a, a2


def _bracket_identities(structure: HomStructure, bracket: Tensor) -> list[Identity]:
    """SKEW plus the two equivalent forms of the four-variable bracket law."""
    dim = structure.dim
    grid = tensor_grid(bracket, dim)
    a, a2 = _twist_cols(structure)
    e = sv_basis(dim)

    def cell(i: int, j: int) -> Ivec:
        return grid.ints[i][j]

    def ap(u: Ivec) -> Ivec:
        return apply_cols(a, u)

    def mul(u: Ivec, v: Ivec) -> Ivec:
        return grid_mul(grid, u, v)

    def skew(i, j):
        return sv_add(cell(i, j), cell(j, i))

    def jacv(u, v, w):
        return sv_add(mul(mul(u, v), ap(w)), mul(mul(v, w), ap(u)), mul(mul(w, u), ap(v)))

    def hm_jac(i, j, k):
        return sv_sub(jacv(a[i], a[j], cell(i, k)),
                      mul(jacv(e[i], e[j], e[k]), a2[i]))

    def hm_exp(i, j, k, l):
        lhs = mul(ap(cell(i, k)), ap(cell(j, l)))
        rhs = sv_add(
            mul(mul(cell(i, j), a[k]), a2[l]),
            mul(mul(cell(j, k), a[l]), a2[i]),
            mul(mul(cell(k, l), a[i]), a2[j]),
            mul(mul(cell(l, i), a[j]), a2[k]),
        )
        return sv_sub(lhs, rhs)

    return [("SKEW", 2, skew), ("HM-JAC", 3, hm_jac), ("HM-EXP", 4, hm_exp)]


def _identities_hom_lie(structure: HomStructure) -> list[Identity]:
    dim = structure.dim
    grid = tensor_grid(structure.products[ProductRole.BRACKET], dim)
    a, _ = _twist_cols(structure)

    def cell(i, j):
        return grid.ints[i][j]

    def skew(i, j):
        return sv_add(cell(i, j), cell(j, i))

    def jacobi(i, j, k):
        return sv_add(
            grid_mul(grid, cell(i, j), a[k]),
            grid_mul(grid, cell(j, k), a[i]),
            grid_mul(grid, cell(k, i), a[j]),
        )

    return [("SKEW", 2, skew), ("JACOBI", 3, jacobi)]


def _identities_hom_malcev(structure: HomStructure) -> list[Identity]:
    return _bracket_identities(structure, structure.products[ProductRole.BRACKET])


def _identities_hom_malcev_admissible(structure: HomStructure) -> list[Identity]:
    bracket = tensor_commutator(structure.products[ProductRole.STAR])
    return _bracket_identities(structure, bracket)


def _identities_hom_associative(structure: HomStructure) -> list[Identity]:
    dim = structure.dim
    grid = tensor_grid(structure.products[ProductRole.STAR], dim)
    a, _ = _twist_cols(structure)

    def cell(i, j):
        return grid.ints[i][j]

    def assoc(i, j, k):
        return sv_sub(grid_mul(grid, cell(i, j), a[k]),
                      grid_mul(grid, a[i], cell(j, k)))

    return [("ASSOC", 3, assoc)]


def _identities_hom_alternative(structure: HomStructure) -> list[Identity]:
    dim = structure.dim
    grid = tensor_grid(structure.products[ProductRole.STAR], dim)
    a, _ = _twist_cols(structure)

    def cell(i, j):
        return grid.ints[i][j]

    # ALT-L and ALT-R read every associator twice each; the cache lives as
    # long as the identities, i.e. for one check
    @functools.cache
    def asc(i, j, k):
        return sv_sub(grid_mul(grid, cell(i, j), a[k]),
                      grid_mul(grid, a[i], cell(j, k)))

    def alt_left(i, j, k):
        return sv_add(asc(i, j, k), asc(j, i, k))

    def alt_right(i, j, k):
        return sv_add(asc(i, j, k), asc(i, k, j))

    return [("ALT-L", 3, alt_left), ("ALT-R", 3, alt_right)]


def _pre_malcev_terms(structure: HomStructure):
    dim = structure.dim
    dot = structure.products[ProductRole.DOT]
    dgrid = tensor_grid(dot, dim)
    cgrid = tensor_grid(tensor_commutator(dot), dim)
    a, a2 = _twist_cols(structure)

    def dcell(i, j):
        return dgrid.ints[i][j]

    def ccell(i, j):
        return cgrid.ints[i][j]

    def ap(u):
        return apply_cols(a, u)

    def mul(u, v):
        return grid_mul(dgrid, u, v)

    def com(u, v):
        return sv_sub(mul(u, v), mul(v, u))

    return dim, dcell, ccell, ap, mul, com, a, a2


def _identities_hom_pre_malcev(structure: HomStructure) -> list[Identity]:
    _, dcell, ccell, ap, mul, com, a, a2 = _pre_malcev_terms(structure)

    def hpm(i, j, k, l):
        return sv_add(
            mul(ap(ccell(j, k)), ap(dcell(i, l))),
            mul(com(ccell(i, j), a[k]), a2[l]),
            mul(a2[j], mul(ccell(i, k), a[l])),
            sv_neg(mul(a2[i], mul(a[j], dcell(k, l)))),
            mul(a2[k], mul(a[i], dcell(j, l))),
        )

    return [("HPM", 4, hpm)]


def pre_malcev_residuals(structure: HomStructure, i: int, j: int, k: int, l: int
                         ) -> tuple[Vector, Vector]:
    """Residuals of the compact (5-term) and fully expanded (10-term) forms of
    the pre-Malcev law at one basis tuple; they agree identically."""
    dim, dcell, ccell, ap, mul, com, a, a2 = _pre_malcev_terms(structure)
    compact = sv_add(
        mul(ap(ccell(j, k)), ap(dcell(i, l))),
        mul(com(ccell(i, j), a[k]), a2[l]),
        mul(a2[j], mul(ccell(i, k), a[l])),
        sv_neg(mul(a2[i], mul(a[j], dcell(k, l)))),
        mul(a2[k], mul(a[i], dcell(j, l))),
    )
    expanded = sv_add(
        mul(ap(dcell(j, k)), ap(dcell(i, l))),
        sv_neg(mul(ap(dcell(k, j)), ap(dcell(i, l)))),
        mul(mul(dcell(i, j), a[k]), a2[l]),
        sv_neg(mul(mul(dcell(j, i), a[k]), a2[l])),
        sv_neg(mul(mul(a[k], dcell(i, j)), a2[l])),
        mul(mul(a[k], dcell(j, i)), a2[l]),
        mul(a2[j], mul(dcell(i, k), a[l])),
        sv_neg(mul(a2[j], mul(dcell(k, i), a[l]))),
        sv_neg(mul(a2[i], mul(a[j], dcell(k, l)))),
        mul(a2[k], mul(a[i], dcell(j, l))),
    )
    return (sv_to_vector(sv_fractions(compact), dim),
            sv_to_vector(sv_fractions(expanded), dim))


def _identities_hom_m_dendriform(structure: HomStructure) -> list[Identity]:
    dim = structure.dim
    tl = structure.products[ProductRole.TRI_LEFT]
    tr = structure.products[ProductRole.TRI_RIGHT]
    gl = tensor_grid(tl, dim)
    gr = tensor_grid(tr, dim)
    dot = tensor_add(tl, tr)
    gdot = tensor_grid(dot, dim)
    gdia = tensor_grid(tensor_sub(tl, tensor_flip(tr)), dim)
    gcom = tensor_grid(tensor_commutator(dot), dim)
    a, a2 = _twist_cols(structure)

    def lcell(i, j):
        return gl.ints[i][j]

    def rcell(i, j):
        return gr.ints[i][j]

    def dcell(i, j):
        return gdot.ints[i][j]

    def vcell(i, j):
        return gdia.ints[i][j]

    def ccell(i, j):
        return gcom.ints[i][j]

    def ap(u):
        return apply_cols(a, u)

    def m_left(u, v):
        return grid_mul(gl, u, v)

    def m_right(u, v):
        return grid_mul(gr, u, v)

    def m_dot(u, v):
        return sv_add(grid_mul(gl, u, v), grid_mul(gr, u, v))

    def m_dia(u, v):
        return sv_sub(grid_mul(gl, u, v), grid_mul(gr, v, u))

    def m_com(u, v):
        return sv_sub(m_dot(u, v), m_dot(v, u))

    def md1(i, j, k, l):
        return sv_add(
            m_right(m_dia(a[k], vcell(j, i)), a2[l]),
            sv_neg(m_right(a2[i], m_dot(a[j], dcell(k, l)))),
            m_left(a2[k], m_right(a[i], dcell(j, l))),
            m_left(ap(ccell(j, k)), ap(rcell(i, l))),
            sv_neg(m_left(a2[j], m_right(vcell(k, i), a[l]))),
        )

    def md2(i, j, k, l):
        return sv_add(
            m_left(a2[k], m_left(a[i], rcell(j, l))),
            sv_neg(m_right(m_dia(a[k], vcell(i, j)), a2[l])),
            sv_neg(m_left(a2[i], m_right(a[j], dcell(k, l)))),
            sv_neg(m_right(ap(vcell(k, j)), ap(dcell(i, l)))),
            m_right(a2[j], m_dot(ccell(i, k), a[l])),
        )

    def md3(i, j, k, l):
        return sv_add(
            m_right(a2[k], m_dot(a[i], dcell(j, l))),
            m_right(m_dia(ccell(i, j), a[k]), a2[l]),
            sv_neg(m_left(a2[i], m_left(a[j], rcell(k, l)))),
            m_right(ap(vcell(j, k)), ap(dcell(i, l))),
            m_left(a2[j], m_right(vcell(i, k), a[l])),
        )

    def md4(i, j, k, l):
        return sv_add(
            m_left(m_com(ccell(i, j), a[k]), a2[l]),
            sv_neg(m_left(a2[i], m_left(a[j], lcell(k, l)))),
            m_left(a2[k], m_left(a[i], lcell(j, l))),
            m_left(ap(ccell(j, k)), ap(lcell(i, l))),
            m_left(a2[j], m_left(ccell(i, k), a[l])),
        )

    return [("MD1", 4, md1), ("MD2", 4, md2), ("MD3", 4, md3), ("MD4", 4, md4)]


def _identities_hom_pre_alternative(structure: HomStructure) -> list[Identity]:
    """The class check: the regular left/right action pair of each half-product
    must satisfy the ten splitting axioms (module = the structure itself)."""
    dim = structure.dim
    prec = structure.products[ProductRole.PREC]
    succ = structure.products[ProductRole.SUCC]
    gp = tensor_grid(prec, dim)
    gs = tensor_grid(succ, dim)
    gst = tensor_grid(tensor_add(prec, succ), dim)
    a, _ = _twist_cols(structure)
    e = sv_basis(dim)

    def pcell(i, j):
        return gp.ints[i][j]

    def scell(i, j):
        return gs.ints[i][j]

    def stcell(i, j):
        return gst.ints[i][j]

    def mp(u, v):
        return grid_mul(gp, u, v)

    def ms(u, v):
        return grid_mul(gs, u, v)

    def mst(u, v):
        return grid_mul(gst, u, v)

    def pa1(i, j, k):
        return sv_sub(ms(sv_add(stcell(i, j), stcell(j, i)), a[k]),
                      sv_add(ms(a[i], scell(j, k)), ms(a[j], scell(i, k))))

    def pa2(i, j, k):
        return sv_sub(ms(sv_add(stcell(i, k), stcell(k, i)), a[j]),
                      sv_add(ms(a[i], scell(k, j)), ms(a[k], scell(i, j))))

    def pa3(i, j, k):
        return sv_sub(sv_add(mp(scell(i, k), a[j]), mp(pcell(k, i), a[j])),
                      sv_add(ms(a[i], pcell(k, j)), mp(a[k], stcell(i, j))))

    def pa4(i, j, k):
        return sv_sub(sv_add(mp(scell(k, i), a[j]), mp(pcell(i, k), a[j])),
                      sv_add(mp(a[i], stcell(k, j)), ms(a[k], pcell(i, j))))

    def pa5(i, j, k):
        return sv_sub(sv_add(mp(pcell(j, i), a[k]), mp(scell(i, j), a[k])),
                      sv_add(mp(a[j], stcell(i, k)), ms(a[i], pcell(j, k))))

    def pa6(i, j, k):
        return sv_sub(sv_add(mp(scell(j, k), a[i]), ms(stcell(j, i), a[k])),
                      sv_add(ms(a[j], pcell(k, i)), ms(a[j], scell(i, k))))

    def pa7(i, j, k):
        return sv_sub(sv_add(mp(scell(k, j), a[i]), ms(stcell(k, i), a[j])),
                      sv_add(ms(a[k], pcell(j, i)), ms(a[k], scell(i, j))))

    def pa8(i, j, k):
        return sv_sub(sv_add(mp(scell(j, i), a[k]), ms(stcell(j, k), a[i])),
                      sv_add(ms(a[j], pcell(i, k)), ms(a[j], scell(k, i))))

    def pa9(i, j, k):
        return sv_sub(sv_add(mp(pcell(k, j), a[i]), mp(pcell(k, i), a[j])),
                      mp(a[k], sv_add(stcell(i, j), stcell(j, i))))

    def pa10(i, j, k):
        return sv_sub(sv_add(mp(pcell(i, k), a[j]), mp(pcell(i, j), a[k])),
                      mp(a[i], sv_add(stcell(k, j), stcell(j, k))))

    return [("PA1", 3, pa1), ("PA2", 3, pa2), ("PA3", 3, pa3), ("PA4", 3, pa4),
            ("PA5", 3, pa5), ("PA6", 3, pa6), ("PA7", 3, pa7), ("PA8", 3, pa8),
            ("PA9", 3, pa9), ("PA10", 3, pa10)]


def _identities_hom_alt_quadri(structure: HomStructure) -> list[Identity]:
    dim = structure.dim
    R = ProductRole
    g = {role: tensor_grid(structure.products[role], dim)
         for role in (R.NW, R.SW, R.NE, R.SE)}
    g_succ = tensor_grid(derived_product(structure, R.SUCC), dim)
    g_prec = tensor_grid(derived_product(structure, R.PREC), dim)
    g_vee = tensor_grid(derived_product(structure, R.VEE), dim)
    g_wedge = tensor_grid(derived_product(structure, R.WEDGE), dim)
    g_star = tensor_grid(derived_product(structure, R.STAR), dim)
    a, _ = _twist_cols(structure)

    def cell(grid, i, j):
        return grid.ints[i][j]

    def assoc(outer_l, inner_l, outer_r, inner_r):
        def fn(i, j, k):
            return sv_sub(grid_mul(outer_l, cell(inner_l, i, j), a[k]),
                          grid_mul(outer_r, a[i], cell(inner_r, j, k)))
        return fn

    as_r = assoc(g[R.NW], g[R.NW], g[R.NW], g_star)
    as_l = assoc(g[R.SE], g_star, g[R.SE], g[R.SE])
    as_m = assoc(g[R.NW], g[R.SE], g[R.SE], g[R.NW])
    as_n = assoc(g[R.NW], g[R.NE], g[R.NE], g_prec)
    as_w = assoc(g[R.NW], g[R.SW], g[R.SW], g_wedge)
    as_s = assoc(g[R.SW], g_succ, g[R.SE], g[R.SW])
    as_e = assoc(g[R.NE], g_vee, g[R.SE], g[R.NE])
    as_ne = assoc(g[R.NE], g_wedge, g[R.NE], g_succ)
    as_sw = assoc(g[R.SW], g_prec, g[R.SW], g_vee)

    def qa(first, second, permute):
        def fn(i, j, k):
            return sv_add(first(i, j, k), second(*permute(i, j, k)))
        return fn

    swap12 = lambda i, j, k: (j, i, k)
    swap23 = lambda i, j, k: (i, k, j)

    return [
        ("QA1", 3, qa(as_r, as_m, swap12)),
        ("QA2", 3, qa(as_r, as_r, swap23)),
        ("QA3", 3, qa(as_n, as_w, swap12)),
        ("QA4", 3, qa(as_n, as_ne, swap23)),
        ("QA5", 3, qa(as_ne, as_e, swap12)),
        ("QA6", 3, qa(as_w, as_sw, swap23)),
        ("QA7", 3, qa(as_sw, as_s, swap12)),
        ("QA8", 3, qa(as_m, as_l, swap23)),
        ("QA9", 3, qa(as_l, as_l, swap12)),
    ]


_CLASS_IDENTITIES: dict[StructureClass, Callable[[HomStructure], list[Identity]]] = {
    StructureClass.HOM_LIE: _identities_hom_lie,
    StructureClass.HOM_MALCEV: _identities_hom_malcev,
    StructureClass.HOM_MALCEV_ADMISSIBLE: _identities_hom_malcev_admissible,
    StructureClass.HOM_PRE_MALCEV: _identities_hom_pre_malcev,
    StructureClass.HOM_M_DENDRIFORM: _identities_hom_m_dendriform,
    StructureClass.HOM_ASSOCIATIVE: _identities_hom_associative,
    StructureClass.HOM_ALTERNATIVE: _identities_hom_alternative,
    StructureClass.HOM_PRE_ALTERNATIVE: _identities_hom_pre_alternative,
    StructureClass.HOM_ALT_QUADRI: _identities_hom_alt_quadri,
}


def _mult_identities(structure: HomStructure) -> list[Identity]:
    a, _ = _twist_cols(structure)
    out: list[Identity] = []
    for role in sorted(structure.products, key=lambda r: r.value):
        grid = tensor_grid(structure.products[role], structure.dim)

        def fn(i, j, grid=grid):
            return sv_sub(apply_cols(a, grid.ints[i][j]), grid_mul(grid, a[i], a[j]))

        out.append((f"MULT-{role.value}", 2, fn))
    return out


def check(structure: HomStructure, cls: StructureClass, *,
          multiplicativity: bool = False) -> CheckReport:
    """Exhaustively sweep every defining identity of ``cls`` over all basis
    tuples.  Residuals are exact; a report passes only if every residual is
    identically zero."""
    start = time.perf_counter()
    needed = CLASS_ROLES[cls]
    if not needed <= structure.roles():
        raise RoleMismatch(
            f"class '{cls.value}' needs product roles "
            f"{sorted(r.value for r in needed)}; structure has "
            f"{sorted(r.value for r in structure.roles())}"
        )
    identities = list(_CLASS_IDENTITIES[cls](structure))
    if multiplicativity:
        identities.extend(_mult_identities(structure))
    violations: list[Violation] = []
    total = 0
    rng = range(structure.dim)
    for label, arity, fn in identities:
        for idx in itertools.product(rng, repeat=arity):
            total += 1
            residual = fn(*idx)
            if residual:
                violations.append(Violation(label, idx, sv_fractions(residual)))
    violations.sort(key=lambda v: (v.identity, v.args))
    return CheckReport(
        target=cls.value,
        passed=not violations,
        violations=tuple(violations),
        tuples_checked=total,
        elapsed=time.perf_counter() - start,
    )


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
    fcols = mat_cols(f)
    a_src = mat_cols(source.twist)
    a_tgt = mat_cols(target.twist)
    violations: list[Violation] = []
    total = 0
    for role in sorted(source.products, key=lambda r: r.value):
        src_grid = tensor_grid(source.products[role], source.dim)
        tgt_grid = tensor_grid(target.products[role], target.dim)
        label = f"MORPH-{role.value}"
        for i in range(source.dim):
            for j in range(source.dim):
                total += 1
                residual = sv_sub(apply_cols(fcols, src_grid.ints[i][j]),
                                  grid_mul(tgt_grid, fcols[i], fcols[j]))
                if residual:
                    violations.append(Violation(label, (i, j), sv_fractions(residual)))
    if not weak:
        for i in range(source.dim):
            total += 1
            residual = sv_sub(apply_cols(fcols, a_src[i]),
                              apply_cols(a_tgt, fcols[i]))
            if residual:
                violations.append(Violation("MORPH-TWIST", (i,), sv_fractions(residual)))
    violations.sort(key=lambda v: (v.identity, v.args))
    return CheckReport(
        target="morphism",
        passed=not violations,
        violations=tuple(violations),
        tuples_checked=total,
        elapsed=time.perf_counter() - start,
    )
