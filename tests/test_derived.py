"""Derived products and quadri splits, written as formulas read by one
combiner, against the tensor operations of ``support`` on random sparse
rational tensors.

The reference below is the precedence of the derived roles written as
branches: a stored role wins; ``dot`` is ``tl + tr`` and ``diamond`` is
``tl(x, y) - tr(y, x)``; ``prec``, ``succ``, ``vee`` and ``wedge`` are sums
of two compass products; ``star`` is ``prec + succ``, else the sum of the
compass four; the bracket is the commutator of ``dot`` (stored or derived),
else of ``star``.
"""
from __future__ import annotations

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homalg import ProductRole, RoleMismatch, derived_product, make_structure
from homalg.functors import _prealt_dot, commutator, quadri_split, transpose
from support import tensor_add, tensor_commutator, tensor_flip, tensor_neg, tensor_sub

R = ProductRole
DIM = 3
COMPASS = (R.NW, R.SW, R.NE, R.SE)
#: the roles a structure stores in these tests; the last three are derived only
STORED = (R.BRACKET, R.DOT, R.TRI_LEFT, R.TRI_RIGHT, R.STAR, R.PREC, R.SUCC, *COMPASS)
#: the sources of the bracket, in the order they are tried
BRACKET_SOURCES = ((R.DOT,), (R.TRI_LEFT, R.TRI_RIGHT), (R.STAR,), (R.PREC, R.SUCC), COMPASS)

values = st.sampled_from([Fraction(n, d) for n in range(-4, 5) if n for d in (1, 2, 3)])
cells = st.dictionaries(st.integers(0, DIM - 1), values, min_size=1, max_size=DIM)
tensors = st.dictionaries(st.tuples(st.integers(0, DIM - 1), st.integers(0, DIM - 1)),
                          cells, min_size=1, max_size=DIM * DIM)


#: the roles that are the sum of two stored products
PAIR_SUMS = {R.DOT: (R.TRI_LEFT, R.TRI_RIGHT), R.PREC: (R.NW, R.SW), R.SUCC: (R.NE, R.SE),
             R.VEE: (R.SE, R.SW), R.WEDGE: (R.NE, R.NW)}


def reference(p, role):
    """The product ``role`` of the stored products ``p``, or None."""
    if role in p:
        return p[role]
    have = p.keys()
    if role in PAIR_SUMS and set(PAIR_SUMS[role]) <= have:
        return tensor_add(*map(p.get, PAIR_SUMS[role]))
    if role == R.DIAMOND and {R.TRI_LEFT, R.TRI_RIGHT} <= have:
        return tensor_sub(p[R.TRI_LEFT], tensor_flip(p[R.TRI_RIGHT]))
    if role == R.STAR:
        if {R.PREC, R.SUCC} <= have:
            return tensor_add(p[R.PREC], p[R.SUCC])
        if set(COMPASS) <= have:
            nw, sw, ne, se = map(p.get, COMPASS)
            return tensor_add(tensor_add(nw, sw), tensor_add(ne, se))
    if role == R.BRACKET:
        for base in (R.DOT, R.STAR):
            if (t := reference(p, base)) is not None:
                return tensor_commutator(t)
    return None


def assert_derived(products):
    """Every role derived on ``products`` is the reference's, and mutating a
    derived result leaves the structure as it was."""
    s = make_structure(DIM, products=products)
    before = copy.deepcopy(s.products)
    for role in R:
        want = reference(s.products, role)
        if want is None:
            with pytest.raises(RoleMismatch):
                derived_product(s, role)
            continue
        got = derived_product(s, role)
        assert got == want, role
        if role not in s.products:
            for cell in got.values():
                cell.clear()
            got[0, 0] = {0: Fraction(1)}
    assert s.products == before


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({role: tensors for role in STORED}),
       st.sets(st.sampled_from(STORED)))
def test_derived_rows_match_reference(pool, subset):
    # a random choice of stored roles, then each source of the bracket with
    # every later one beside it, so each row of every ladder wins somewhere
    assert_derived({role: pool[role] for role in subset})
    for n in range(len(BRACKET_SOURCES)):
        assert_derived({role: pool[role] for roles in BRACKET_SOURCES[n:] for role in roles})
    # a dot stored beside a pair that disagrees with it gives the bracket
    s = make_structure(DIM, products={role: pool[role] for role in (R.DOT, R.TRI_LEFT,
                                                                    R.TRI_RIGHT)})
    assert derived_product(s, R.BRACKET) == tensor_commutator(pool[R.DOT])
    # prec and succ stored beside the compass products give the star
    s = make_structure(DIM, products={role: pool[role] for role in (R.PREC, R.SUCC, *COMPASS)})
    assert derived_product(s, R.STAR) == tensor_add(pool[R.PREC], pool[R.SUCC])
    # every role stored: each is its own
    s = make_structure(DIM, products={role: pool[R.STAR] for role in R})
    assert all(derived_product(s, role) is s.products[role] for role in R)


@settings(max_examples=40, deadline=None)
@given(tensors, tensors)
def test_derived_rows_cancel_to_empty(t, u):
    symmetric = tensor_add(t, tensor_flip(t))
    cases = [
        ({R.TRI_LEFT: t, R.TRI_RIGHT: tensor_neg(t)}, R.DOT),
        ({R.TRI_LEFT: tensor_flip(t), R.TRI_RIGHT: t}, R.DIAMOND),
        ({R.DOT: symmetric}, R.BRACKET),
        ({R.TRI_LEFT: symmetric, R.TRI_RIGHT: tensor_add(u, tensor_flip(u))}, R.BRACKET),
        ({R.STAR: symmetric}, R.BRACKET),
        ({R.PREC: t, R.SUCC: tensor_sub(symmetric, t)}, R.BRACKET),
        ({R.NW: t, R.SW: u, R.NE: tensor_neg(t), R.SE: tensor_neg(u)}, R.STAR),
        ({R.NW: t, R.SW: u, R.NE: tensor_neg(u), R.SE: tensor_sub(symmetric, t)}, R.BRACKET),
    ]
    for products, role in cases:
        assert derived_product(make_structure(DIM, products=products), role) == {}, role
    assert transpose(make_structure(DIM, products={
        R.TRI_LEFT: t, R.TRI_RIGHT: tensor_neg(tensor_flip(u))})).products[R.TRI_RIGHT] == u


#: each split direction's stored products, from the compass four
SPLITS = {
    "mdendriform": lambda nw, sw, ne, se: {R.TRI_RIGHT: tensor_sub(ne, tensor_flip(sw)),
                                           R.TRI_LEFT: tensor_sub(se, tensor_flip(nw))},
    "prealt-horizontal": lambda nw, sw, ne, se: {R.PREC: tensor_add(nw, sw),
                                                 R.SUCC: tensor_add(ne, se)},
    "prealt-vertical": lambda nw, sw, ne, se: {R.PREC: tensor_add(ne, nw),
                                               R.SUCC: tensor_add(se, sw)},
}


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({role: tensors for role in STORED}))
def test_splits_and_constructions_match_reference(pool):
    quadri = make_structure(DIM, products={role: pool[role] for role in (*COMPASS, R.DOT)})
    before = copy.deepcopy(quadri.products)
    for direction, want in SPLITS.items():
        split = quadri_split(quadri, direction)
        assert split.products == want(*map(pool.get, COMPASS)), direction
        for t in split.products.values():
            for cell in t.values():
                cell[DIM] = Fraction(1)
    assert quadri.products == before
    pair = make_structure(DIM, products={R.TRI_LEFT: pool[R.TRI_LEFT],
                                         R.TRI_RIGHT: pool[R.TRI_RIGHT]})
    assert transpose(pair).products == {
        R.TRI_LEFT: pool[R.TRI_LEFT], R.TRI_RIGHT: tensor_neg(tensor_flip(pool[R.TRI_RIGHT]))}
    for role in (R.STAR, R.DOT):
        s = make_structure(DIM, products={role: pool[role]})
        assert commutator(s, role).products == {R.BRACKET: tensor_commutator(pool[role])}
    prealt = make_structure(DIM, products={R.PREC: pool[R.PREC], R.SUCC: pool[R.SUCC]})
    assert _prealt_dot(prealt).products == {
        R.DOT: tensor_sub(pool[R.SUCC], tensor_flip(pool[R.PREC]))}
