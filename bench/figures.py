"""Reference figures for bench/README.md: microseconds per tuple of
``homalg.check`` for each class, on a fixture in its sparse fixture basis and
in a dense rational basis, and the cost of one multiply-add.

    python3 bench/figures.py

Run from the repository root.  Each figure is the median of five timed
checks.
"""
from __future__ import annotations

import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent), "src"]

import gen  # noqa: E402
import workloads  # noqa: E402
from homalg import StructureClass, check  # noqa: E402
from homalg.bundle import loads_bundle  # noqa: E402

#: one passing fixture per class (quaternary classes stay at dim <= 3 dense)
CASES = (
    ("hom-lie", "lie_dim2_yau"),
    ("hom-malcev", "sl2_malcev"),
    ("hom-malcev-admissible", "assoc_t2"),
    ("hom-pre-malcev", "premalcev_sl2"),
    ("hom-m-dendriform", "mdendri_sl2"),
    ("hom-associative", "assoc_trunc_poly"),
    ("hom-alternative", "octonions"),
    ("hom-pre-alternative", "prealt_t2"),
    ("hom-alt-quadri", "quadri_trunc_poly"),
)


def us_per_tuple(s: dict, cls: str) -> float:
    structure = loads_bundle(gen.dumps(s)).structure
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        report = check(structure, StructureClass(cls))
        samples.append((time.perf_counter() - started) / report.tuples_checked)
        assert report.passed, (cls, s["dim"])
    return 1e6 * statistics.median(samples)


def multiply_add_us(values) -> float:
    a, b, c = values
    samples = []
    for _ in range(5):
        acc = c
        started = time.perf_counter()
        for _ in range(20000):
            acc = acc + a * b
            acc = acc - a * b
        samples.append((time.perf_counter() - started) / 40000)
    return 1e6 * statistics.median(samples)


def main() -> None:
    rng = random.Random(1)
    print(f"{'class':24s} {'fixture':18s} {'dim':>3s} {'sparse us':>10s} "
          f"{'dense us':>10s}")
    for cls, name in CASES:
        s = gen.load(name)
        dense = gen.change_basis(s, workloads.dense_basis(rng, name, s["dim"]))
        print(f"{cls:24s} {name:18s} {s['dim']:3d} {us_per_tuple(s, cls):10.1f} "
              f"{us_per_tuple(dense, cls):10.1f}")
    g7 = workloads.g7_structure(10)
    print(f"{'hom-m-dendriform':24s} {'G7 (block-sparse)':18s} {10:3d} "
          f"{us_per_tuple(g7, 'hom-m-dendriform'):10.1f}")
    frac = (Fraction(-37, 12), Fraction(55, 91), Fraction(1234, 567))
    print(f"multiply-add: Fraction {multiply_add_us(frac):.2f} us, "
          f"int {multiply_add_us((37, 55, 1234)):.3f} us")


if __name__ == "__main__":
    main()
