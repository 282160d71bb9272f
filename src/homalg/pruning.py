"""Which basis tuples a class identity, written as a term list, can be
nonzero at.

A term is ``(sign, grid, factor, ...)`` and a factor ``(table, at)``: a
nested-list table read at the identity's indices named by the letters of
``at`` (see ``structures``).  A term is zero at every tuple where one of its
factors is an empty entry, so a sweep that visits only the tuples where some
term has every factor nonzero misses no nonzero residual.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, Sequence

#: the names of an identity's indices, in order
INDEX_NAMES = "ijkl"

#: a sweep looks for the tuples its terms can be nonzero at only where the
#: summed fill of the terms is at most this, and where there are at least
#: this many tuples per term (the cost of planning one term's search)
PRUNE_BELOW_FILL = 0.5
PLAN_COST = 64


@lru_cache(maxsize=None)
def positions(at: str) -> tuple[int, ...]:
    """The index positions named by the letters of ``at``."""
    return tuple(INDEX_NAMES.index(x) for x in at)


def _support(table: list, depth: int) -> list[tuple[int, ...]]:
    """The index tuples of the nonzero entries of a table of nested lists."""
    if depth == 1:
        return [(x,) for x, v in enumerate(table) if v]
    return [(x, *rest) for x, row in enumerate(table) for rest in _support(row, depth - 1)]


def _getter(slots: Sequence[int]) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[s] for s in slots)``."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return lambda row: tuple(row[s] for s in slots)


def _join_steps(factors: Sequence[tuple[list, str]], support: Callable) -> tuple:
    """How to extend a value of index 0 to every tuple at which all of
    ``factors`` are nonzero.  A row holds index values in the order they are
    bound; each step maps the values a factor reads of bound indices to those
    its nonzero entries give the indices it binds.  Returns the steps and the
    getter that puts a finished row in index order."""
    order = [0]
    steps = []
    for table, at in sorted(factors, key=lambda f: 0 not in positions(f[1])):
        pos = positions(at)
        slot = {p: pos.index(p) for p in pos}   # the first slot reading each index
        keys = [p for p in slot if p in order]
        new = [p for p in slot if p not in order]
        entries = support(table, len(pos))
        if len(slot) < len(pos):    # the slots of a repeated index must agree
            entries = [e for e in entries if all(e[s] == e[slot[p]] for s, p in enumerate(pos))]
        key_of, new_of = _getter([slot[p] for p in keys]), _getter([slot[p] for p in new])
        index: dict[tuple, list] = {}
        for entry in entries:
            index.setdefault(key_of(entry), []).append(new_of(entry))
        steps.append((_getter([order.index(p) for p in keys]), index))
        order += new
    return steps, _getter([order.index(p) for p in range(len(order))])


def candidates(terms: Sequence[tuple], sizes: Sequence[int],
               cache: dict) -> Iterable[tuple[int, ...]]:
    """Every tuple, index ``p`` in ``range(sizes[p])``, at which some term has
    all its factors nonzero, found one leading index at a time; at any other
    tuple every term, and so the residual, is zero.  ``cache`` keeps each
    table's nonzero entries across the identities of a sweep.

    Where the fills of its factors, multiplied and summed over the terms,
    show the candidates are likely to be most tuples, or where there are too
    few tuples to repay finding them, the plain product is returned: it is
    cheaper to evaluate a tuple than to find it.  So it is where a term does
    not read every index, which the search needs, and where there is no
    index, the one empty tuple."""
    def support(table, depth):
        if id(table) not in cache:
            cache[id(table)] = _support(table, depth)
        return cache[id(table)]

    def fill(table, at):
        return len(support(table, len(at))) / prod(sizes[p] for p in positions(at))

    factor_lists = [factors for _, _, *factors in terms]
    if not sizes or prod(sizes) < PLAN_COST * len(terms) or PRUNE_BELOW_FILL < sum(
            prod(fill(t, at) for t, at in factors) for factors in factor_lists) or any(
            set(positions("".join(at for _, at in factors))) != set(range(len(sizes)))
            for factors in factor_lists):
        yield from itertools.product(*map(range, sizes))
        return
    plans = [_join_steps(factors, support) for factors in factor_lists]
    for i in range(sizes[0]):
        found = set()
        for steps, in_order in plans:
            rows = [(i,)]
            for key, index in steps:
                rows = [row + vals for row in rows for vals in index.get(key(row), ())]
            found.update(map(in_order, rows))
        yield from found
