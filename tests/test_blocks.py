"""Class and representation checks split along direct-sum blocks.

``check`` sweeps each block of a structure on its own.  On a block sum of
random summands, moved by a random signed permutation of the basis, its
report must be the summands' reports merged and re-indexed through the
embedding.  The two cases that must not split, a twist or a product output
that couples product blocks, are compared with dense evaluations in
``test_differential.py``, as are representation checks of block sums and
of blocks coupled by one action entry.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from homalg import (
    CLASS_ROLES,
    KIND_O_OPERATOR,
    KIND_ROTA_BAXTER,
    PRE_ALTERNATIVE_ACTIONS,
    PRE_MALCEV_ACTIONS,
    ActionRole,
    BilinearForm,
    OperatorWitness,
    ProductRole,
    Representation,
    StructureClass,
    check,
    check_hessian,
    check_morphism,
    check_oop_endomorphism,
    check_operator,
    check_rep,
    make_structure,
    operators,
    reps,
    structures,
)
from homalg.structures import _CLASS_LAWS, INDEX_NAMES, parse_formula
from support import slice_tensor

F = Fraction
C = StructureClass

#: every test here reports the first failing example it draws (see
#: ``test_differential.py``)
UNSHRUNK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)

#: arities of each class's identities, without the MULT-* pairs
ARITIES = {
    C.HOM_LIE: (2, 3),
    C.HOM_MALCEV: (2, 3, 4),
    C.HOM_MALCEV_ADMISSIBLE: (2, 3, 4),
    C.HOM_PRE_MALCEV: (4,),
    C.HOM_M_DENDRIFORM: (4,) * 4,
    C.HOM_ASSOCIATIVE: (3,),
    C.HOM_ALTERNATIVE: (3, 3),
    C.HOM_PRE_ALTERNATIVE: (3,) * 10,
    C.HOM_ALT_QUADRI: (3,) * 9,
}

#: every identity is linear in each argument but HM-JAC,
#: J(a x, a y, [x, z]) - [J(x, y, z), a^2 x], which is quadratic in x; a
#: residual at basis vectors scaled by signs s_p carries prod s_p ** degree_p
DEGREES = {"HM-JAC": (2, 1, 1)}

entry_st = st.one_of(st.just(F(0)), st.builds(F, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def summand_st(draw, cls: StructureClass):
    """A random structure of dimension 1-3 carrying the roles of ``cls``,
    with an identity or a random twist."""
    n = draw(st.integers(1, 3))
    products = {role: {(i, j): {k: draw(entry_st) for k in range(n)}
                       for i, j in itertools.product(range(n), repeat=2)}
                for role in CLASS_ROLES[cls]}
    twist = None
    if draw(st.booleans()):
        twist = [[draw(entry_st) for _ in range(n)] for _ in range(n)]
    return make_structure(n, twist=twist, products=products)


def block_sum(summands, perm, sign):
    """The direct sum of ``summands`` in the basis e'_{perm[y]} = sign[y] e_y,
    where ``y`` runs over the summands' basis vectors in order."""
    n = sum(s.dim for s in summands)
    products = {role: {} for role in summands[0].products}
    twist = [[F(0)] * n for _ in range(n)]
    off = 0
    for s in summands:
        def at(x):
            return perm[off + x], sign[off + x]

        for role, tensor in s.products.items():
            for (i, j), cell in tensor.items():
                (pi, si), (pj, sj) = at(i), at(j)
                products[role][(pi, pj)] = {at(k)[0]: si * sj * at(k)[1] * v
                                            for k, v in cell.items()}
        for r, c in itertools.product(range(s.dim), repeat=2):
            (pr, sr), (pc, sc) = at(r), at(c)
            twist[pr][pc] = sr * sc * s.twist[r][c]
        off += s.dim
    return make_structure(n, twist=twist, products=products)


@pytest.mark.parametrize("multiplicativity", [False, True], ids=["plain", "mult"])
@pytest.mark.parametrize("cls", list(C), ids=lambda c: c.value)
@settings(max_examples=8, deadline=None, phases=UNSHRUNK)
@given(data=st.data())
def test_block_sum_report_is_merged_summand_reports(cls, multiplicativity, data):
    summands = data.draw(st.lists(summand_st(cls), min_size=2, max_size=4))
    n = sum(s.dim for s in summands)
    perm = data.draw(st.permutations(range(n)))
    sign = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    arities = ARITIES[cls] + ((2,) * len(CLASS_ROLES[cls]) if multiplicativity else ())

    want, off = {}, 0
    reports = [check(s, cls, multiplicativity=multiplicativity) for s in summands]
    for s, report in zip(summands, reports):
        assert report.tuples_checked == sum(s.dim ** arity for arity in arities)
        for v in report.violations:
            args = [off + x for x in v.args]
            degrees = DEGREES.get(v.identity, (1,) * len(args))
            scale = prod(sign[y] ** d for y, d in zip(args, degrees))
            want[(v.identity, tuple(perm[y] for y in args))] = {
                perm[off + k]: sign[off + k] * scale * r for k, r in v.residual.items()}
        off += s.dim

    report = check(block_sum(summands, perm, sign), cls,
                   multiplicativity=multiplicativity)
    got = {(v.identity, v.args): v.residual for v in report.violations}
    assert got == want
    assert list(got) == sorted(got)
    assert report.passed == all(r.passed for r in reports)
    assert report.tuples_checked == sum(n ** arity for arity in arities)


def leaves(tree) -> list[str]:
    """The index letters at the leaves of a parsed product tree."""
    if type(tree) is str:
        return [tree]
    return [x for child in tree[1:] for x in leaves(child)]


def assert_reads_every_index(label: str, arity: int, formula: str):
    """Each term of the law reads every index of it, and its last index at
    exactly one leaf."""
    for _, tree in parse_formula(formula):
        read = leaves(tree)
        assert set(read) == set(INDEX_NAMES[:arity]), (label, tree)
        assert read.count(INDEX_NAMES[arity - 1]) == 1, (label, tree)


def test_every_term_reads_every_index():
    """A class check is split exactly only while each term of each identity
    reads every index: then it is zero at every tuple that mixes blocks.  A
    sweep stacks the last index into one packed residual, which needs each
    term linear in it.  The laws are read as the compiler parses them."""
    assert set(_CLASS_LAWS) == set(C)
    for cls, laws in _CLASS_LAWS.items():
        assert laws, cls
        for law in laws:
            assert_reads_every_index(*law)


def test_every_rep_term_reads_every_index(monkeypatch):
    """The same of every other law: the representation axioms, which are
    split along blocks of base and module like a class check, and the
    Rota-Baxter, O-operator, morphism, multiplicativity, Hessian and
    endomorphism laws, all swept the same way.  The laws are recorded where
    each module compiles them, on dense dim-2 inputs."""
    compiled = []
    for module in (structures, reps, operators):
        real = module._compile

        def recording(laws, real=real):
            compiled.extend(laws)
            return real(laws)
        monkeypatch.setattr(module, "_compile", recording)
    dense = {(i, j): {k: F(1 + i + j + k) for k in range(2)}
             for i, j in itertools.product(range(2), repeat=2)}
    slices = tuple(((F(1 + i), F(2)), (F(3), F(4 + i))) for i in range(2))
    twist = ((F(1), F(1)), (F(0), F(1)))
    for cls, roles, actions in (
            (C.HOM_MALCEV, (ProductRole.BRACKET,), (ActionRole.RHO,)),
            (C.HOM_PRE_MALCEV, (ProductRole.DOT, ProductRole.STAR), PRE_MALCEV_ACTIONS),
            (C.HOM_PRE_ALTERNATIVE, (ProductRole.PREC, ProductRole.SUCC),
             PRE_ALTERNATIVE_ACTIONS)):
        base = make_structure(2, twist=twist, products=dict.fromkeys(roles, dense))
        rep = Representation(base=base, module_dim=2, module_twist=slices[1],
                             actions=dict.fromkeys(actions, slice_tensor(slices)))
        check_rep(rep, cls, equivariance=True)
        check_operator(base, OperatorWitness(kind=KIND_O_OPERATOR, matrix=slices[0], rep=rep))
        check_oop_endomorphism(OperatorWitness(kind=KIND_O_OPERATOR, matrix=slices[0], rep=rep),
                               twist, slices[1])
        for weight in (F(0), F(1)):
            check_operator(base, OperatorWitness(kind=KIND_ROTA_BAXTER, matrix=slices[0],
                                                 weight=weight))
        check_morphism(twist, base, base)
        check(base, cls, multiplicativity=True)
    check_hessian(make_structure(2, twist=twist, products={ProductRole.DOT: dense}),
                  BilinearForm(matrix=slices[1]))
    labels = {label.split("-")[0] for label, _, _ in compiled}
    assert {"MREP", "PMREP", "PABM", "PA", "OOP", "ENDO", "RB", "MORPH", "MULT",
            "HESS"} <= labels
    for law in compiled:
        assert_reads_every_index(*law)
