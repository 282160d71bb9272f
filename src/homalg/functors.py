"""Product-level passages between structure classes (commutator, horizontal
and vertical splittings, transpose, Yau twist, quadri-algebra splits) and the
end-to-end diagram verifier that builds all six derived structures of the
closing construction chain and compares every pair of routes landing on the
same node by exact tensor equality.
"""
from __future__ import annotations

import time
from typing import Mapping

from .exact import (
    mat_fractions,
    mat_mul,
)
from .operators import (
    KIND_ROTA_BAXTER,
    NotCommuting,
    OperatorInvalid,
    OperatorWitness,
    _checked,
    _rebuild,
    check_commuting,
    induce,
    induce_pair,
)
from .records import (
    CheckReport,
    HomStructure,
    InputError,
    MathError,
    Matrix,
    ProductRole,
    Record,
    RoleMismatch,
    StructureClass,
    matrix,
)
from .structures import (
    ROLE_NAMES,
    _grids,
    _named,
    check,
    check_morphism,
    combine,
    derived_product,
    tabulate,
)


class NotAMorphism(MathError):
    """The twisting map fails the morphism check the construction needs."""


class UnknownDirection(InputError):
    """The split direction label is not one of the supported ones."""


def commutator(structure: HomStructure,
               role: ProductRole | None = None) -> HomStructure:
    """Antisymmetrize one product into a bracket, keeping the twist.  With no
    role given, prefers star, then dot, then a single stored product."""
    if role is None:
        if ProductRole.STAR in structure.products:
            role = ProductRole.STAR
        elif ProductRole.DOT in structure.products:
            role = ProductRole.DOT
        elif len(structure.products) == 1:
            role = next(iter(structure.products))
        else:
            raise RoleMismatch(
                "no single product to antisymmetrize; pass the role explicitly "
                f"(stored: {sorted(r.value for r in structure.products)})"
            )
    if role not in structure.products:
        raise RoleMismatch(f"product role '{role.value}' not stored")
    return _rebuild(structure, {ProductRole.BRACKET: combine(
        "+g(i, j) - g(j, i)", {"g": structure.products[role]})}, f"commutator-of-{role.value}")


def _require(structure: HomStructure, roles: tuple[ProductRole, ...],
             what: str) -> HomStructure:
    """``structure`` on only ``roles``, which it must all store."""
    missing = [r.value for r in roles if r not in structure.products]
    if missing:
        raise RoleMismatch(f"needs {what}; missing {missing}")
    return structure.only(roles)


def _require_pair(structure: HomStructure) -> HomStructure:
    return _require(structure, (ProductRole.TRI_LEFT, ProductRole.TRI_RIGHT),
                    "the two-sided triangle products")


def horizontal(structure: HomStructure) -> HomStructure:
    """Sum of the two triangle products, stored under the dot role."""
    pair = _require_pair(structure)
    return _rebuild(structure, {ProductRole.DOT: derived_product(pair, ProductRole.DOT)},
                    "horizontal")


def vertical(structure: HomStructure) -> HomStructure:
    """Difference product x<y - (y>x), the diamond product, stored under the
    dot role; the label records the vertical provenance."""
    pair = _require_pair(structure)
    return _rebuild(structure, {ProductRole.DOT: derived_product(pair, ProductRole.DIAMOND)},
                    "vertical")


def transpose(structure: HomStructure) -> HomStructure:
    """Flip and negate the right-triangle product, keep the left one; an
    involution that swaps the horizontal and vertical structures."""
    p = _require_pair(structure).products
    return _rebuild(structure, {ProductRole.TRI_RIGHT: combine("-tr(j, i)", _named(p)),
                                ProductRole.TRI_LEFT: p[ProductRole.TRI_LEFT]}, "transpose")


def yau_twist(structure: HomStructure, alpha_new: Matrix, *,
              weak: bool = False) -> HomStructure:
    """Compose every product with a self-morphism and compose the twist with
    it; refuses maps that fail the morphism check."""
    alpha_new = matrix(alpha_new)
    report = check_morphism(alpha_new, structure, structure, weak=weak)
    if not report.passed:
        first = report.violations[0]
        raise NotAMorphism(
            f"twisting map fails the morphism check (first violation "
            f"{first.identity} at {first.args})"
        )
    return _rebuild(
        structure,
        tabulate({role: f"+f.{ROLE_NAMES[role]}(i, j)" for role in structure.products},
                 _grids(structure), {"f": alpha_new}, structure.dim),
        "yau-twist",
        twist=mat_fractions(mat_mul(structure.twist, alpha_new)),
    )


#: the products each split direction stores, from the compass products: the
#: triangle pair, or as (prec, succ) the column sums (nw + sw, ne + se) or the
#: row sums (ne + nw, se + sw)
_SPLITS: dict[str, dict[ProductRole, str]] = {
    "mdendriform": {ProductRole.TRI_RIGHT: "+ne(i, j) - sw(j, i)",
                    ProductRole.TRI_LEFT: "+se(i, j) - nw(j, i)"},
    "prealt-horizontal": {ProductRole.PREC: "+nw(i, j) + sw(i, j)",
                          ProductRole.SUCC: "+ne(i, j) + se(i, j)"},
    "prealt-vertical": {ProductRole.PREC: "+ne(i, j) + nw(i, j)",
                        ProductRole.SUCC: "+se(i, j) + sw(i, j)"},
}
SPLIT_DIRECTIONS = tuple(_SPLITS)


def quadri_split(structure: HomStructure, direction: str) -> HomStructure:
    """Collapse the four compass products into one of the two-product
    structures: the triangle pair, or the horizontal/vertical two-sided
    splittings."""
    compass = _require(structure, (ProductRole.NW, ProductRole.SW,
                                   ProductRole.NE, ProductRole.SE),
                       "all four compass products")
    if direction not in _SPLITS:
        raise UnknownDirection(
            f"unknown split direction {direction!r}; expected one of {SPLIT_DIRECTIONS}"
        )
    tensors = _named(compass.products)
    return _rebuild(structure, {role: combine(formula, tensors) for role, formula
                                in _SPLITS[direction].items()}, f"quadri-split-{direction}")


def _prealt_dot(structure: HomStructure) -> HomStructure:
    """The difference product x>y - (y<x) of a two-product splitting, stored
    under the dot role."""
    return _rebuild(structure, {ProductRole.DOT: combine(
        "+succ(i, j) - prec(j, i)", _named(structure.products))}, "prealt-difference")


class DiagramReport(Record):
    """Class checks for the six nodes, pass flags for the labeled edges, and
    whether every pair of routes landing on a shared node agreed exactly."""

    nodes: Mapping[str, CheckReport]
    edges: tuple[tuple[str, bool], ...]
    paths_equal: bool
    elapsed: float

    def __init__(self, nodes: Mapping[str, CheckReport],
                 edges: tuple[tuple[str, bool], ...], paths_equal: bool, elapsed: float):
        d = self.__dict__
        d["nodes"], d["edges"] = nodes, edges
        d["paths_equal"], d["elapsed"] = paths_equal, elapsed


def verify_diagram(alt: HomStructure, r1: OperatorWitness,
                   r2: OperatorWitness) -> DiagramReport:
    """Build the six structures the closing construction chain derives from an
    alternative algebra with a commuting weight-zero Rota-Baxter pair, check
    each node's class, and compare every duplicated route tensor-exactly."""
    start = time.perf_counter()
    for name, w in (("first", r1), ("second", r2)):
        if w.kind != KIND_ROTA_BAXTER:
            raise RoleMismatch(f"the {name} witness must be a Rota-Baxter operator")
        if w.weight != 0:
            raise OperatorInvalid(
                f"the {name} operator must have weight zero, got {w.weight}"
            )
        report = _checked(alt, w)
        if not report.passed:
            first = report.violations[0]
            raise OperatorInvalid(
                f"the {name} operator fails its check (first violation "
                f"{first.identity} at {first.args})"
            )
    if not check_commuting(r1, r2):
        raise NotCommuting("the two Rota-Baxter operators do not commute")

    malcev = commutator(alt, ProductRole.STAR)
    prealt = induce(alt, r1, "alternative-to-prealt-rb")
    quadri = induce_pair(alt, r1, r2, "alternative-pair-to-quadri")
    premalcev = _prealt_dot(prealt)
    mdendri = quadri_split(quadri, "mdendriform")

    nodes = {
        "alternative": check(alt, StructureClass.HOM_ALTERNATIVE),
        "malcev": check(malcev, StructureClass.HOM_MALCEV),
        "m-dendriform": check(mdendri, StructureClass.HOM_M_DENDRIFORM),
        "pre-alternative": check(prealt, StructureClass.HOM_PRE_ALTERNATIVE),
        "pre-malcev": check(premalcev, StructureClass.HOM_PRE_MALCEV),
        "quadri": check(quadri, StructureClass.HOM_ALT_QUADRI),
    }

    quadri_via_prealt = induce(prealt, r2, "prealt-to-quadri-rb")
    premalcev_via_malcev = induce(malcev, r1, "malcev-to-premalcev-rb")
    mdendri_via_pair = induce_pair(malcev, r1, r2, "malcev-pair-to-mdendriform")
    mdendri_via_premalcev = induce(premalcev, r2, "premalcev-to-mdendriform-rb")
    premalcev_via_horizontal = horizontal(mdendri)

    eq_quadri = quadri_via_prealt.products == quadri.products
    eq_premalcev = premalcev_via_malcev.products == premalcev.products
    eq_mdendri_pair = mdendri_via_pair.products == mdendri.products
    eq_mdendri_premalcev = mdendri_via_premalcev.products == mdendri.products
    eq_horizontal = premalcev_via_horizontal.products == premalcev.products

    edges = (
        ("alternative-r1-rota-baxter", True),
        ("alternative-r2-rota-baxter", True),
        ("operators-commute", True),
        # induce(prealt, r2, ...) above refuses an r2 that fails this check
        ("pre-alternative-r2-rota-baxter", True),
        ("quadri-pair-route-equals-pre-alternative-r2-route", eq_quadri),
        ("pre-malcev-difference-route-equals-malcev-r1-route", eq_premalcev),
        ("m-dendriform-split-route-equals-malcev-pair-route", eq_mdendri_pair),
        ("m-dendriform-split-route-equals-pre-malcev-r2-route", eq_mdendri_premalcev),
        ("m-dendriform-horizontal-equals-pre-malcev-node", eq_horizontal),
    )
    paths_equal = (eq_quadri and eq_premalcev and eq_mdendri_pair
                   and eq_mdendri_premalcev and eq_horizontal)
    return DiagramReport(
        nodes=nodes,
        edges=edges,
        paths_equal=paths_equal,
        elapsed=time.perf_counter() - start,
    )
