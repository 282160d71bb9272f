"""Time class checks of dense random structures, a ladder of dimensions.

    python3 scripts/dense_ladder.py --out FILE [--runs N] [--max-dim D]

For each of the dimensions 6, 8 and 12 up to ``--max-dim``, builds one random
structure per class (pre-Malcev, m-dendriform, Malcev-admissible) from the
fixed seed ``SEED``: every structure constant and every twist entry is
``n/d`` with ``-9 <= n <= 9`` and ``1 <= d <= 9``, so the products and the
twist are dense and every check fails at most tuples.  Each structure is checked ``--runs`` times in this
process; the JSON written to ``--out`` gives, per case, the median and the
minimum wall time in seconds with the tuple and violation counts, which
repeat from run to run.  Uses the ``src/`` next to this script; standard
library only.
"""
from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from homalg.structures import CLASS_ROLES, StructureClass, check, make_structure  # noqa: E402

SEED = 1
DIMS = (6, 8, 12)
CLASSES = (StructureClass.HOM_PRE_MALCEV, StructureClass.HOM_M_DENDRIFORM,
           StructureClass.HOM_MALCEV_ADMISSIBLE)


def random_structure(cls: StructureClass, dim: int, seed: int):
    """A dense random structure carrying the product roles of ``cls``."""
    rng = random.Random(f"{seed}/{cls.value}/{dim}")

    def entry() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    products = {role: {(i, j): {k: entry() for k in range(dim)}
                       for i in range(dim) for j in range(dim)}
                for role in sorted(CLASS_ROLES[cls], key=lambda r: r.value)}
    twist = [[entry() for _ in range(dim)] for _ in range(dim)]
    return make_structure(dim, twist=twist, products=products)


def ladder(dims: list[int], runs: int, seed: int) -> list[dict]:
    cases = []
    for dim in dims:
        for cls in CLASSES:
            structure = random_structure(cls, dim, seed)
            times = []
            for _ in range(runs):
                start = time.perf_counter()
                report = check(structure, cls)
                times.append(time.perf_counter() - start)
            cases.append({"class": cls.value, "dim": dim,
                          "tuples": report.tuples_checked,
                          "violations": len(report.violations),
                          "median_s": round(statistics.median(times), 6),
                          "min_s": round(min(times), 6)})
            print(json.dumps(cases[-1]), file=sys.stderr, flush=True)
    return cases


def run(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--max-dim", type=int, default=12)
    parser.add_argument("--out", type=Path, required=True,
                        help="the JSON file to write; a committed record is "
                             "never a default")
    opts = parser.parse_args(args)
    dims = [d for d in DIMS if d <= opts.max_dim]
    result = {"python": platform.python_version(), "runs": opts.runs,
              "seed": SEED, "cases": ladder(dims, opts.runs, SEED)}
    opts.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
