"""Every term of every class law is load-bearing, in the class checks and in
the representation axioms generated from the laws.

The mutants are generated from the law rows themselves: each single term of
each law has its sign flipped, or is dropped.  Each mutant row is swapped
into ``structures._CLASS_LAWS`` (the compiler reads the laws by their text,
so a patched row is compiled afresh) and ``check`` runs on a seeded dense
random structure of dimension 3, twist included.  The dense ``Fraction``
evaluations of ``test_differential.py``, which share no code with the
engine, must then disagree with the report: a mutant they cannot tell from
the law would be a term the law does not need, or an input too small to
show it.  At dimension 2 a commutator bracket makes HM-JAC's Jacobian terms
and HM-EXP's first term vanish identically, so dimension 3 is the smallest
that catches every mutant.

``check_rep`` generates its axioms from HM-EXP, HPM and PA1-PA10 at check
time (``structures.module_law``), so each mutant of those laws must also make
``check_rep`` disagree with the dense representation evaluations of
``test_differential.py`` on a seeded dense random representation.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from homalg import Representation, StructureClass, check, check_rep, make_structure
from homalg.structures import _CLASS_LAWS, parse_formula, write
from support import slice_tensor
from test_differential import REP_CLASSES, SPARSE_CLASSES, sparse, tensor_of

DIM = 3


def mutants(formula: str) -> list[str]:
    """Each single-term sign flip and each single-term drop of ``formula``."""
    terms = list(parse_formula(formula))
    out = []
    for n, (sign, tree) in enumerate(terms):
        out.append(write(terms[:n] + [(-sign, tree)] + terms[n + 1:]))
        out.append(write(terms[:n] + terms[n + 1:]))
    return out


def test_unparse_writes_the_rows_back():
    for laws in _CLASS_LAWS.values():
        for _, _, formula in laws:
            assert parse_formula(write(parse_formula(formula))) == parse_formula(formula)


def test_mutant_count():
    """Two mutants per term of the nine classes' laws, 142 terms; HM-JAC
    reads ``J(e_i, e_j, e_k)`` as three terms in both bracket classes."""
    assert sum(len(mutants(formula)) for laws in _CLASS_LAWS.values()
               for _, _, formula in laws) == 284


@pytest.mark.parametrize("cls", sorted(SPARSE_CLASSES))
def test_every_class_law_mutant_is_caught_by_the_dense_oracle(cls, monkeypatch):
    roles, residuals, _ = SPARSE_CLASSES[cls]
    rng = random.Random(f"law-mutants/{cls}")

    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    tables = [[[[entry() for _ in range(DIM)] for _ in range(DIM)] for _ in range(DIM)]
              for _ in roles]
    a = [[entry() for _ in range(DIM)] for _ in range(DIM)]
    structure = make_structure(DIM, twist=a, products={
        role: tensor_of(c) for role, c in zip(roles, tables)})
    want = {key: sparse(res) for key, res in residuals(*tables, a).items() if any(res)}

    def report():
        return {(v.identity, v.args): v.residual
                for v in check(structure, StructureClass(cls)).violations}

    assert report() == want
    laws = _CLASS_LAWS[StructureClass(cls)]
    for n, (label, arity, formula) in enumerate(laws):
        for mutant in mutants(formula):
            monkeypatch.setitem(_CLASS_LAWS, StructureClass(cls),
                                laws[:n] + ((label, arity, mutant),) + laws[n + 1:])
            assert report() != want, (label, mutant)


#: the class laws each rep class's axioms are generated from
REP_SOURCES = {"hom-malcev": ("HM-EXP",), "hom-pre-malcev": ("HPM",),
               "hom-pre-alternative": tuple(f"PA{n}" for n in range(1, 11))}


def test_rep_mutant_count():
    """Two mutants per term of HM-EXP and HPM (5 terms each) and PA1-PA10
    (4 terms each)."""
    assert sum(len(mutants(formula)) for cls, sources in REP_SOURCES.items()
               for label, _, formula in _CLASS_LAWS[StructureClass(cls)]
               if label in sources) == 100


@pytest.mark.parametrize("cls", sorted(REP_SOURCES))
def test_every_rep_source_law_mutant_is_caught_by_the_dense_rep_oracle(cls, monkeypatch):
    roles, actions, residuals = REP_CLASSES[cls]
    rng = random.Random(f"rep-law-mutants/{cls}")
    m = 2

    def dense(rows, cols):
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
                for _ in range(rows)]

    tables = [[dense(DIM, DIM) for _ in range(DIM)] for _ in roles]
    a, beta = dense(DIM, DIM), dense(m, m)
    slices = [[dense(m, m) for _ in range(DIM)] for _ in actions]
    base = make_structure(DIM, twist=a, products={
        role: tensor_of(c) for role, c in zip(roles, tables)})
    rep = Representation(base=base, module_dim=m, module_twist=beta,
                         actions=dict(zip(actions, map(slice_tensor, slices))))
    want = {(label, args + (b,)): col
            for (label, args), res in residuals(*tables, a, *slices, beta).items()
            for b in range(m) if (col := sparse([res[r][b] for r in range(m)]))}

    def report():
        return {(v.identity, v.args): v.residual for v in
                check_rep(rep, StructureClass(cls), equivariance=True).violations}

    assert report() == want
    laws = _CLASS_LAWS[StructureClass(cls)]
    for n, (label, arity, formula) in enumerate(laws):
        if label not in REP_SOURCES[cls]:
            continue
        for mutant in mutants(formula):
            monkeypatch.setitem(_CLASS_LAWS, StructureClass(cls),
                                laws[:n] + ((label, arity, mutant),) + laws[n + 1:])
            assert report() != want, (label, mutant)
