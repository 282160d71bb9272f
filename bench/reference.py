"""Reference evaluator: the residuals of the skew-symmetry, twisted Jacobi,
twisted associativity and twisted alternativity identities, computed on
dense ``Fraction`` vectors straight from their defining formulas.

Standard library only; it never imports homalg and shares no code with it.
The formulas, for a product x.y with structure constants c and a twist a:

    SKEW(i, j)     = e_i.e_j + e_j.e_i
    JACOBI(i, j, k) = (e_i.e_j).a(e_k) + (e_j.e_k).a(e_i) + (e_k.e_i).a(e_j)
    ASSOC(i, j, k) = (e_i.e_j).a(e_k) - a(e_i).(e_j.e_k)
    ALT-L(i, j, k) = ASSOC(i, j, k) + ASSOC(j, i, k)
    ALT-R(i, j, k) = ASSOC(i, j, k) + ASSOC(i, k, j)

A residual is returned as a dense tuple of length n; the violations of an
identity are the basis tuples whose residual is not the zero vector.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

ZERO = Fraction(0)

#: identities of each class this evaluator can reproduce, with their arity
CLASS_IDENTITIES = {
    "hom-lie": (("SKEW", 2), ("JACOBI", 3)),
    "hom-associative": (("ASSOC", 3),),
    "hom-alternative": (("ALT-L", 3), ("ALT-R", 3)),
}


class Algebra:
    """Dense structure constants ``c[i][j][k]`` (coefficient of e_k in
    e_i.e_j) and a dense twist ``a[r][c]``."""

    def __init__(self, dim: int, table: dict, twist=None):
        n = self.dim = dim
        self.c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (i, j), cell in table.items():
            for k, v in cell.items():
                self.c[i][j][k] = Fraction(v)
        if twist is None:
            twist = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
        # column images a(e_j)
        self.a_cols = [tuple(Fraction(twist[r][j]) for r in range(n))
                       for j in range(n)]
        self._ei_a = None

    def mul(self, x, y) -> tuple[Fraction, ...]:
        n = self.dim
        out = [ZERO] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                xy = x[i] * y[j]
                for k, w in enumerate(self.c[i][j]):
                    if w:
                        out[k] += xy * w
        return tuple(out)

    def _tables(self):
        """Cached products e_p.a(e_k) and a(e_i).e_p for every p, k, i."""
        if self._ei_a is None:
            n = self.dim
            unit = [tuple(Fraction(int(r == p)) for r in range(n)) for p in range(n)]
            self._ei_a = [[self.mul(unit[p], self.a_cols[k]) for k in range(n)]
                          for p in range(n)]
            self._a_ei = [[self.mul(self.a_cols[i], unit[p]) for p in range(n)]
                          for i in range(n)]
        return self._ei_a, self._a_ei

    def _combine(self, coeffs, rows) -> list[Fraction]:
        n = self.dim
        out = [ZERO] * n
        for p, cp in enumerate(coeffs):
            if cp:
                for k, w in enumerate(rows[p]):
                    if w:
                        out[k] += cp * w
        return out

    def left_term(self, i, j, k) -> list[Fraction]:
        """(e_i.e_j).a(e_k), expanded over the coordinates of e_i.e_j."""
        ei_a, _ = self._tables()
        return self._combine(self.c[i][j], [ei_a[p][k] for p in range(self.dim)])

    def right_term(self, i, j, k) -> list[Fraction]:
        """a(e_i).(e_j.e_k), expanded over the coordinates of e_j.e_k."""
        _, a_ei = self._tables()
        return self._combine(self.c[j][k], a_ei[i])

    def assoc(self, i, j, k) -> tuple[Fraction, ...]:
        return tuple(x - y for x, y in zip(self.left_term(i, j, k),
                                            self.right_term(i, j, k)))

    def residual(self, label: str, args) -> tuple[Fraction, ...]:
        if label == "SKEW":
            i, j = args
            return tuple(x + y for x, y in zip(self.c[i][j], self.c[j][i]))
        if label == "JACOBI":
            i, j, k = args
            terms = (self.left_term(i, j, k), self.left_term(j, k, i),
                     self.left_term(k, i, j))
            return tuple(sum(col, ZERO) for col in zip(*terms))
        if label == "ASSOC":
            return self.assoc(*args)
        if label == "ALT-L":
            i, j, k = args
            return tuple(x + y for x, y in zip(self.assoc(i, j, k),
                                                self.assoc(j, i, k)))
        if label == "ALT-R":
            i, j, k = args
            return tuple(x + y for x, y in zip(self.assoc(i, j, k),
                                                self.assoc(i, k, j)))
        raise KeyError(label)


def violations(alg: Algebra, cls: str) -> dict[tuple[str, tuple[int, ...]],
                                               tuple[Fraction, ...]]:
    """Every nonzero residual of the class identities, keyed by
    (label, basis tuple)."""
    out = {}
    for label, arity in CLASS_IDENTITIES[cls]:
        for args in itertools.product(range(alg.dim), repeat=arity):
            res = alg.residual(label, args)
            if any(res):
                out[(label, args)] = res
    return out
