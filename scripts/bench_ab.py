"""A/B comparison of this checkout against an earlier revision on one
benchmark workload, by alternating pairs of runs.

    python3 scripts/bench_ab.py REV --workload W --pairs N --seed S

``REV`` is exported with ``git archive`` into a temporary directory (nothing
is written to ``.git``).  Each pair runs this checkout's ``bench/run.py
--trace 0`` once with the working directory set to the exported tree and
once with it set to this checkout, so both sides use the same benchmark
code; pair ``i`` runs the exported tree first when ``i`` is even.  The run
length is ``run_seconds`` from ``BENCHMARK.json``.

For every end-to-end metric it prints each side's median and quartiles,
how many pairs the change won (ties count for neither side) and a verdict:

- ``gain``: the change won at least nine pairs in ten and its median is
  better than the revision's by more than the revision's interquartile
  spread;
- ``worse``: the change's median is worse by more than the metric's bound;
- ``unresolved``: neither, and the revision's interquartile spread is wider
  than the bound, so "unchanged" cannot be told apart from noise;
- ``within bound``: otherwise.

Failed and attempted operation counts of both sides close the report.
Standard library only.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the samples."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[int, str]:
    """Wins of the change over ``len(parent)`` pairs and the verdict for one
    metric; ``parent[i]`` and ``change[i]`` are pair ``i``, ``better`` is
    ``"lower"`` or ``"higher"`` and ``bound`` the allowed relative worsening."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gained = sign * (p_med - c_med)
    if 10 * wins >= 9 * len(parent) and gained > p_q3 - p_q1:
        return wins, "gain"
    if -gained > bound * abs(p_med):
        return wins, "worse"
    if p_q3 - p_q1 > bound * abs(p_med):
        return wins, "unresolved"
    return wins, "within bound"


def export(rev: str, into: Path) -> None:
    """Write the tree of ``rev`` into ``into`` with ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench/run.py in {tree} printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="revision to compare against, e.g. HEAD~1")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        parent_tree = Path(tmp)
        export(args.rev, parent_tree)
        for i in range(args.pairs):
            order = [("parent", parent_tree), ("change", ROOT)]
            if i % 2:
                order.reverse()
            for side, tree in order:
                result = run_once(tree, args.workload, args.seed,
                                  spec["run_seconds"])
                runs[side].append(result)
                print(f"pair {i + 1} {side}: run_s "
                      f"{result['metrics']['run_s']['value']:.4f}",
                      file=sys.stderr)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"{args.rev} (parent) vs this checkout (change)")
    print(f"{'metric':<14} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>6}  verdict")
    for m in metrics:
        name = m["name"]
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        wins, word = verdict(p, c, m["better"], m["bound"])
        cols = []
        for xs in (p, c):
            q1, med, q3 = quartiles(xs)
            cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{name:<14} {cols[0]:>32} {cols[1]:>32} "
              f"{wins:>3}/{args.pairs:<2}  {word}")
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        print(f"{side}: failed {failed} of {attempted} operations, "
              f"correct {str(correct).lower()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
