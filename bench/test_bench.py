"""Tests of the benchmark's own generator and reference evaluator.

    python3 -m pytest bench/test_bench.py

Run from the repository root.  The violation counts come from the
Cayley-Dickson oracle in ``tests/oracles.py``, which never imports homalg;
nothing here imports homalg either.
"""
from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

import gen  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def _imaginary_bracket(table: dict) -> dict:
    """Commutator of the octonion product on the imaginary units e1..e7,
    re-indexed from 0."""
    out = {}
    for i in range(1, 8):
        for j in range(1, 8):
            ij, ji = table.get((i, j), {}), table.get((j, i), {})
            cell = {k - 1: ij.get(k, 0) - ji.get(k, 0) for k in set(ij) | set(ji)}
            cell = {k: v for k, v in cell.items() if v}
            if cell:
                out[(i - 1, j - 1)] = cell
    return out


def test_reference_reproduces_octonion_assoc_violations():
    alg = reference.Algebra(8, oracles.octonion_table())
    assert len(reference.violations(alg, "hom-associative")) == 168
    assert reference.violations(alg, "hom-alternative") == {}


def test_reference_reproduces_imaginary_octonion_jacobi_violations():
    alg = reference.Algebra(7, _imaginary_bracket(oracles.octonion_table()))
    found = reference.violations(alg, "hom-lie")
    assert {label for label, _ in found} == {"JACOBI"}
    assert len(found) == 168


def test_fixture_parse_matches_oracle_table():
    octo = gen.load("octonions", ROOT)
    assert octo["products"]["star"] == oracles.octonion_table()


def test_generator_is_deterministic_per_seed(tmp_path):
    for make_round in (workloads.dense_rational, workloads.block_sparse,
                       workloads.cli_fixtures):
        texts = []
        for run in ("a", "b"):
            workdir = tmp_path / f"{make_round.__name__}-{run}"
            workdir.mkdir()
            ops = make_round(5, workdir)
            texts.append(([op.argv[0] for op in ops],
                          {p.name: p.read_text() for p in sorted(workdir.iterdir())}))
        assert texts[0] == texts[1]


def test_different_seeds_give_different_bases():
    octo = gen.load("octonions", ROOT)

    def moved(seed):
        g = workloads.dense_basis(random.Random(seed), "octonions", 8)
        return gen.dumps(gen.change_basis(octo, g))

    assert moved(1) == moved(1)
    assert moved(1) != moved(2)


def test_change_of_basis_preserves_reference_verdicts():
    """Verdicts are invariant under isomorphism."""
    rng = random.Random(3)
    octo = gen.load("octonions", ROOT)
    moved = gen.change_basis(octo, gen.random_basis(rng, 8))
    alg = reference.Algebra(8, moved["products"]["star"], moved["twist"])
    assert reference.violations(alg, "hom-alternative") == {}
    assert reference.violations(alg, "hom-associative")


def test_change_of_basis_round_trip():
    rng = random.Random(4)
    s = gen.load("premalcev_dim2", ROOT)
    g = gen.random_basis(rng, 2)
    back = gen.change_basis(gen.change_basis(s, g), gen.inverse(g))
    for key in ("twist", "products", "reps", "operators", "forms"):
        assert back[key] == s[key]


def test_sign_automorphism_is_an_automorphism():
    octo = gen.load("octonions", ROOT)
    sigma = gen.sign_automorphism(8)
    star = octo["products"]["star"]
    for (i, j), cell in star.items():
        lhs = gen.apply(sigma, cell)
        si, sj = sigma[i][i], sigma[j][j]
        assert lhs == {k: si * sj * v for k, v in cell.items()}


def test_direct_sum_blocks():
    a = gen.load("assoc_t2", ROOT)
    s = gen.direct_sum(a, a)
    assert s["dim"] == 6
    assert s["products"]["star"][(3, 3)] == {3: Fraction(1)}
    assert len(s["operators"]) == 2
    assert s["operators"][0]["matrix"][4][3] == Fraction(1)


def test_tuple_count_formula():
    assert workloads.tuple_count("hom-m-dendriform", 10) == 4 * 10 ** 4
    assert workloads.tuple_count("hom-alternative", 8, 1, True) == 2 * 512 + 64
