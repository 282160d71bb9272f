"""Representation axioms are the parts of the class laws linear in one module
vector (acceptance gate G3).

``check_rep`` generates each of its axioms but the equivariance ones from a
class law with ``structures.module_law``; ``SLOTS`` below is which law, at
which slot and with which order of the other indices.  The first test holds
each such axiom against the class law itself: the dense ``Fraction`` class
evaluators of ``test_differential.py`` run on a dense semidirect product
written out here, on base tables that need not be skew, random actions and
both twists the identity, so that moving a twist into an action changes
nothing.  No representation axiom is written out in this module.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from homalg import ActionRole, ProductRole, Representation, StructureClass, check_rep
from homalg.reps import _REP_LAWS
from homalg.structures import (
    _CLASS_LAWS,
    INDEX_NAMES,
    make_structure,
    module_law,
    parse_formula,
    unparse,
)
from support import slice_tensor
from test_differential import (
    bracket_law_residuals,
    pre_alternative_residuals,
    pre_malcev_law_residuals,
    sparse,
    tensor_of,
)

A, C, R = ActionRole, StructureClass, ProductRole

#: each generated axiom of each rep class: (label, class law, slot, order)
SLOTS = {
    C.HOM_MALCEV: [("MREP-4T", "HM-EXP", "i", "kjl")],
    C.HOM_PRE_MALCEV: [("MREP-4T", "HPM", "l", "ijk"), ("PMREP-2", "HPM", "i", "lkj"),
                       ("PMREP-3", "HPM", "j", "lki"), ("PMREP-4", "HPM", "k", "lij")],
    C.HOM_PRE_ALTERNATIVE: [(f"PABM-{n}", f"PA{n}", "k", "ij") for n in range(1, 11)],
}

#: each rep class: its base products, its actions, each product's (left
#: action, right action, sign of the right one) on the semidirect product,
#: ``e_x * v = L(e_x) v`` and ``v * e_x = sign R(e_x) v``, and the dense
#: evaluation of its class laws from the products' tables and the twist
SEMIDIRECT = {
    C.HOM_MALCEV: ((R.BRACKET,), (A.RHO,), [(0, 0, -1)], bracket_law_residuals),
    C.HOM_PRE_MALCEV: ((R.DOT,), (A.LEFT, A.RIGHT), [(0, 1, 1)], pre_malcev_law_residuals),
    C.HOM_PRE_ALTERNATIVE: ((R.PREC, R.SUCC),
                            (A.LEFT_PREC, A.RIGHT_PREC, A.LEFT_SUCC, A.RIGHT_SUCC),
                            [(0, 1, 1), (2, 3, 1)], pre_alternative_residuals),
}


def eye(n):
    return [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]


def test_the_generated_rows_are_the_slot_table():
    for cls, (_, _, rows, _) in _REP_LAWS.items():
        assert [row for row in rows if len(row) == 4] == SLOTS[cls]


@pytest.mark.parametrize("n, m", [(2, 2), (3, 1)])
@pytest.mark.parametrize("cls", sorted(SLOTS, key=lambda c: c.value))
def test_each_generated_rep_axiom_is_the_module_part_of_its_class_law(cls, n, m):
    roles, actions, mixed, class_residuals = SEMIDIRECT[cls]
    rng = random.Random(f"module-laws/{cls.value}/{n}/{m}")

    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    tables = [[[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)] for _ in roles]
    slices = [[[[entry() for _ in range(m)] for _ in range(m)] for _ in range(n)]
              for _ in actions]
    d = n + m
    whole = [[[[Fraction(0)] * d for _ in range(d)] for _ in range(d)] for _ in roles]
    for t, c in zip(whole, tables):
        for i, j in itertools.product(range(n), repeat=2):
            t[i][j][:n] = c[i][j]
    for t, (left, right, sign) in zip(whole, mixed):
        for x, r, b in itertools.product(range(n), range(m), range(m)):
            t[x][n + b][n + r] = slices[left][x][r][b]
            t[n + b][x][n + r] = sign * slices[right][x][r][b]
    want = class_residuals(*whole, eye(d))

    base = make_structure(n, products={role: tensor_of(c) for role, c in zip(roles, tables)})
    rep = Representation(base=base, module_dim=m, module_twist=eye(m),
                         actions=dict(zip(actions, map(slice_tensor, slices))))
    got = {(v.identity, v.args): v.residual for v in check_rep(rep, cls).violations}
    for label, law, slot, order in SLOTS[cls]:
        found = 0
        for args in itertools.product(range(n), repeat=len(order)):
            for b in range(m):
                at = dict(zip(order + slot, (*args, n + b)))
                residual = want[(law, tuple(at[x] for x in sorted(at)))]
                assert got.get((label, (*args, b)), {}) == sparse(residual[n:]), (label, args, b)
                found += bool(residual[n:] != [0] * m)
        assert found, label     # the draw shows each axiom


def canonical(terms) -> dict:
    """The signed product trees ``terms`` summed, each base bracket ``com(x,
    y)`` with its factors in order (``com(y, x)`` read as ``-com(x, y)``)."""
    def ordered(tree):
        if type(tree) is str:
            return 1, tree
        signs, args = zip(*map(ordered, tree[1:]))
        if tree[0] == "com" and unparse(args[0]) > unparse(args[1]):
            return -prod(signs), ("com", args[1], args[0])
        return prod(signs), (tree[0], *args)

    out: dict = {}
    for sign, tree in terms:
        s, tree = ordered(tree)
        out[tree] = out.get(tree, 0) + sign * s
    return {tree: c for tree, c in out.items() if c}


def renamed(tree, names):
    return names[tree] if type(tree) is str else (tree[0], *(renamed(t, names) for t in tree[1:]))


#: the class-law slots with no swept axiom, and why: SKEW's two terms
#: cancel, HM-JAC reads ``i`` twice in every term, and at ``j`` and ``k`` it
#: is a law of three indices that ``check_rep`` does not sweep
UNSWEPT = {("SKEW", "i"): "cancels", ("SKEW", "j"): "cancels", ("HM-JAC", "i"): "cancels",
           ("HM-JAC", "j"): "unswept", ("HM-JAC", "k"): "unswept"}


def test_every_slot_of_every_class_law_is_a_swept_axiom():
    """Each slot of each class law of a rep class gives a swept axiom after a
    renaming of its base indices, up to the order of its base brackets (which
    HM-EXP needs at ``j`` and ``k``): PA's 30 slot rows collapse onto the 10
    PABM rows, HPM's 4 give the 4 pre-Malcev ones and HM-EXP's 4 are each
    MREP-4T."""
    for cls, slots in SLOTS.items():
        formulas = {label: formula for label, _, formula in _CLASS_LAWS[cls]}
        swept = {label: canonical(parse_formula(module_law(formulas[law], slot, order)))
                 for label, law, slot, order in slots}
        hit = set()
        for label, arity, formula in _CLASS_LAWS[cls]:
            letters = INDEX_NAMES[:arity]
            for slot in letters:
                terms = parse_formula(module_law(formula, slot, letters.replace(slot, "")))
                if (label, slot) in UNSWEPT:
                    assert (not canonical(terms)) == (UNSWEPT[label, slot] == "cancels")
                    continue
                rows = set()
                for perm in itertools.permutations(letters[:-1]):
                    names = dict(zip(letters, "".join(perm) + letters[-1]))
                    row = canonical([(sign, renamed(tree, names)) for sign, tree in terms])
                    rows |= {name for name, want in swept.items() if row == want}
                assert rows, (label, slot)
                hit |= rows
        assert hit == set(swept), cls
