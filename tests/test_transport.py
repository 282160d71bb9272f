"""Every construction recipe commutes with a random change of basis.

A fixture's inputs moved by random invertible rational matrices (P on the
algebra, Q on a representation's module, see ``support.transport_*``) are
inputs again, so each recipe is exercised on instances no fixture holds.
For every recipe and every fixture that carries its inputs:

- the output on the moved inputs passes the recipe's target class;
- the output moves along: ``P`` (``Q`` when the output lives on the module)
  is a morphism from the output on the fixture to the output on the moved
  inputs;
- a Rota-Baxter recipe gives on the moved inputs what its O-operator twin
  gives on the adjoint or regular representation.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import support
from homalg import (
    INDUCE_RECIPES,
    KIND_O_OPERATOR,
    PAIR_RECIPES,
    SPLIT_DIRECTIONS,
    OperatorWitness,
    StructureClass,
    adjoint_rep,
    check,
    check_morphism,
    induce,
    induce_pair,
    quadri_split,
    regular_alternative_rep,
    regular_pre_alternative_rep,
    regular_pre_malcev_rep,
    verify_diagram,
    yau_twist,
)
from homalg.exact import mat_identity, mat_inverse

F = Fraction
C = StructureClass

#: report the first failing example drawn (see ``test_differential.py``)
UNSHRUNK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)

#: the class each recipe's output is built to satisfy
TARGET = {
    "malcev-to-premalcev-rb": C.HOM_PRE_MALCEV,
    "malcev-to-premalcev-oop": C.HOM_PRE_MALCEV,
    "premalcev-to-mdendriform-rb": C.HOM_M_DENDRIFORM,
    "premalcev-to-mdendriform-oop": C.HOM_M_DENDRIFORM,
    "premalcev-compatible-dendriform": C.HOM_M_DENDRIFORM,
    "alternative-to-prealt-rb": C.HOM_PRE_ALTERNATIVE,
    "alternative-to-prealt-oop": C.HOM_PRE_ALTERNATIVE,
    "prealt-to-quadri-rb": C.HOM_ALT_QUADRI,
    "prealt-to-quadri-oop": C.HOM_ALT_QUADRI,
    "malcev-pair-to-mdendriform": C.HOM_M_DENDRIFORM,
    "alternative-pair-to-quadri": C.HOM_ALT_QUADRI,
}

#: each Rota-Baxter recipe's O-operator twin, and the representation on
#: which a Rota-Baxter map is that twin's operator
TWIN = {
    "malcev-to-premalcev-rb": ("malcev-to-premalcev-oop", adjoint_rep),
    "premalcev-to-mdendriform-rb": ("premalcev-to-mdendriform-oop", regular_pre_malcev_rep),
    "alternative-to-prealt-rb": ("alternative-to-prealt-oop", regular_alternative_rep),
    "prealt-to-quadri-rb": ("prealt-to-quadri-oop", regular_pre_alternative_rep),
}


def _fixture(name, *ops):
    bundle = support.load_fixture_bundle(name)
    return bundle.structure, [bundle.operators[i] for i in ops]


def _prealt(name, first, second):
    """The pre-alternative structure the fixture's operator ``first``
    induces, with its operator ``second``."""
    s, (r1, r2) = _fixture(name, first, second)
    return induce(s, r1, "alternative-to-prealt-rb"), [r2]


def _splitting():
    horiz, bimod = support.splitting_bimodule(
        support.load_fixture_bundle("mdendri_sl2").structure)
    return horiz, [OperatorWitness(KIND_O_OPERATOR, mat_identity(horiz.dim), rep=bimod)]


#: the Rota-Baxter inputs of each Rota-Baxter and pair recipe
RB_INSTANCES = {
    "malcev-to-premalcev-rb": [("lie_dim2", 0), ("sl2_malcev", 0), ("sl2_malcev", 1)],
    "premalcev-to-mdendriform-rb": [("premalcev_dim2", 0), ("premalcev_sl2", 0)],
    "alternative-to-prealt-rb": [("assoc_t2", 0), ("assoc_t2", 1),
                                 ("assoc_trunc_poly", 0), ("octonions", 0),
                                 ("octonions", 1)],
    "malcev-pair-to-mdendriform": [("sl2_malcev", 0, 1)],
    "alternative-pair-to-quadri": [("assoc_t2", 0, 1), ("octonions", 0, 1)],
}


def _cases():
    cases = []
    for recipe, instances in RB_INSTANCES.items():
        cases += [(recipe, "-".join(map(str, (name, *ops))),
                   lambda name=name, ops=ops: _fixture(name, *ops))
                  for name, *ops in instances]
    cases += [("prealt-to-quadri-rb", f"prealt({name}-{a})-{b}",
               lambda name=name, a=a, b=b: _prealt(name, a, b))
              for name, a, b in [("assoc_t2", 0, 1), ("assoc_trunc_poly", 0, 0),
                                 ("octonions", 0, 1)]]
    # each O-operator recipe on the regular representation of every input
    # of its Rota-Baxter twin; the fixtures' own representations and
    # O-operators (lie_dim2, premalcev_dim2) are among these
    for recipe, case, build in list(cases):
        if recipe in TWIN:
            twin, regular = TWIN[recipe]

            def on_regular(build=build, regular=regular):
                s, (r,) = build()
                return s, [OperatorWitness(KIND_O_OPERATOR, r.matrix, rep=regular(s))]
            cases.append((twin, f"{case}-regular", on_regular))
    return cases + [("premalcev-compatible-dendriform", "splitting(mdendri_sl2)", _splitting)]


CASES = _cases()

entry_st = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 3)])
pivot_st = st.sampled_from([F(1), F(-1), F(2), F(-1, 2), F(3)])


@st.composite
def invertible_st(draw, n: int):
    """A random invertible rational ``n x n`` matrix ``L U``: ``L`` unit
    lower triangular, ``U`` upper triangular with a nonzero diagonal."""
    lower = [[F(1) if r == c else draw(entry_st) if r > c else F(0) for c in range(n)]
             for r in range(n)]
    upper = [[draw(pivot_st) if r == c else draw(entry_st) if r < c else F(0)
              for c in range(n)] for r in range(n)]
    return support.mat_product(lower, upper)


def _induce(recipe, structure, ops):
    return (induce if recipe in INDUCE_RECIPES else induce_pair)(structure, *ops, recipe)


def test_cases_cover_every_recipe():
    assert {recipe for recipe, _, _ in CASES} == {*INDUCE_RECIPES, *PAIR_RECIPES} == set(TARGET)


@pytest.mark.parametrize("recipe, case, build", CASES,
                         ids=[f"{recipe}-{case}" for recipe, case, _ in CASES])
@settings(max_examples=3, deadline=None, phases=UNSHRUNK)
@given(data=st.data())
def test_recipe_commutes_with_basis_change(recipe, case, build, data):
    structure, ops = build()
    p = data.draw(invertible_st(structure.dim), label="P")
    reps = {w.rep.module_dim for w in ops if w.rep is not None}
    q = data.draw(invertible_st(reps.pop()), label="Q") if reps else p
    moved = support.transport_structure(structure, p)
    moved_ops = [support.transport_operator(w, moved, p, q) for w in ops]

    out, moved_out = _induce(recipe, structure, ops), _induce(recipe, moved, moved_ops)
    assert check(moved_out, TARGET[recipe]).passed
    on_module = recipe.endswith("-oop")
    assert check_morphism(q if on_module else p, out, moved_out).passed
    if recipe in TWIN:
        twin, regular = TWIN[recipe]
        (r,) = moved_ops
        w = OperatorWitness(KIND_O_OPERATOR, r.matrix, rep=regular(moved))
        assert induce(moved, w, twin).products == moved_out.products


# ---------------------------------------------------------------------------
# quadri splits, Yau twists and the closing diagram
# ---------------------------------------------------------------------------

#: the class each quadri split direction lands in
SPLIT_TARGET = {
    "mdendriform": C.HOM_M_DENDRIFORM,
    "prealt-horizontal": C.HOM_PRE_ALTERNATIVE,
    "prealt-vertical": C.HOM_PRE_ALTERNATIVE,
}

def _pair_quadri(structure, ops):
    return induce_pair(structure, *ops, "alternative-pair-to-quadri")


#: quadri-algebras: the fixture, and the ones the commuting pairs of t2 and
#: M2 induce (M2's has ne != sw, so a split that swaps them shows)
QUADRIS = {
    "quadri_trunc_poly": lambda: support.load_fixture_bundle("quadri_trunc_poly").structure,
    "pair(assoc_t2)": lambda: _pair_quadri(*_fixture("assoc_t2", 0, 1)),
    "pair(m2)": lambda: _pair_quadri(support.m2(), support.m2_rb_ops()),
}


@pytest.mark.parametrize("direction", SPLIT_DIRECTIONS)
@pytest.mark.parametrize("name", sorted(QUADRIS))
@settings(max_examples=3, deadline=None, phases=UNSHRUNK)
@given(data=st.data())
def test_quadri_split_commutes_with_basis_change(name, direction, data):
    quadri = QUADRIS[name]()
    p = data.draw(invertible_st(quadri.dim), label="P")
    moved = quadri_split(support.transport_structure(quadri, p), direction)
    assert moved.products == support.transport_structure(
        quadri_split(quadri, direction), p).products
    assert check(moved, SPLIT_TARGET[direction]).passed


#: (structure, automorphism, class) inputs of the Yau twist
YAU_CASES = {
    "lie2": (support.lie2, support.dense(2, (0, 0, 1), (1, 1, 2)), C.HOM_MALCEV),
    "sl2": (support.sl2, support.dense(3, (0, 0, 1), (1, 1, 2), (2, 2, F(1, 2))),
            C.HOM_MALCEV),
    "premalcev2": (support.premalcev2, support.dense(2, (0, 0, 2), (1, 1, 4)),
                   C.HOM_PRE_MALCEV),
    "t2": (support.t2, support.dense(3, (0, 0, 1), (1, 1, 3), (2, 2, 1)),
           C.HOM_ASSOCIATIVE),
}


@pytest.mark.parametrize("name", sorted(YAU_CASES))
@settings(max_examples=3, deadline=None, phases=UNSHRUNK)
@given(data=st.data())
def test_yau_twist_commutes_with_basis_change(name, data):
    build, gamma, cls = YAU_CASES[name]
    structure = build()
    p = data.draw(invertible_st(structure.dim), label="P")
    moved = yau_twist(support.transport_structure(structure, p),
                      support.mat_product(p, gamma, mat_inverse(p)))
    want = support.transport_structure(yau_twist(structure, gamma), p)
    assert (moved.products, moved.twist) == (want.products, want.twist)
    assert check(moved, cls).passed


#: commuting Rota-Baxter pairs on alternative algebras small enough to move
DIAGRAMS = {
    "assoc_t2": lambda: _fixture("assoc_t2", 0, 1),
    "m2": lambda: (support.m2(), list(support.m2_rb_ops())),
}


def _verdicts(report):
    return ({name: node.passed for name, node in report.nodes.items()},
            report.edges, report.paths_equal)


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
@settings(max_examples=3, deadline=None, phases=UNSHRUNK)
@given(data=st.data())
def test_diagram_verdicts_survive_basis_change(name, data):
    alt, ops = DIAGRAMS[name]()
    p = data.draw(invertible_st(alt.dim), label="P")
    moved = support.transport_structure(alt, p)
    moved_ops = [support.transport_operator(w, moved, p, p) for w in ops]
    assert _verdicts(verify_diagram(moved, *moved_ops)) == _verdicts(verify_diagram(alt, *ops))
