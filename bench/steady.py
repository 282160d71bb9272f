"""Steadiness report: two sets of runs of the same code, compared against the
bounds in BENCHMARK.json.

    python3 bench/steady.py [--runs 10] [--workload NAME ...]

Run from the repository root.  For every workload, each set runs the
benchmark ``--runs`` times for BENCHMARK.json's ``run_seconds``, untraced,
each run with its own seed (the first set 1..runs, the second
runs+1..2*runs).  For every end-to-end metric it prints each set's median
and spread - the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median - the
shift of the second median against the first in the metric's worse
direction, and the bound.  A metric is flagged when a spread or the shift
exceeds its bound, and marked "tight" when a spread exceeds a third of it.
It also compares the share of failed operations between the sets, which
must be identical.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in SPEC["workloads"]]

    flagged = 0
    for workload in names:
        sets = []
        for n in range(2):
            results = [run_once(workload, seed)
                       for seed in range(n * args.runs + 1, (n + 1) * args.runs + 1)]
            sets.append(results)
            for r in results:
                print(json.dumps({"workload": workload, **r}), file=sys.stderr)
        print(f"\n== {workload} ({args.runs} runs per set)")
        print(f"{'metric':14s} {'median1':>12s} {'spread1':>8s} "
              f"{'median2':>12s} {'spread2':>8s} {'shift':>7s} {'bound':>6s}")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols, notes = [], []
            medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                medians.append(statistics.median(values))
                s = spread(values)
                cols += [f"{medians[-1]:12.5g}", f"{s:8.3f}"]
                if s > bound:
                    notes.append("SPREAD>BOUND")
                elif s > bound / 3:
                    notes.append("tight")
            sign = 1 if metric["better"] == "lower" else -1
            shift = sign * (medians[1] - medians[0]) / medians[0]
            if shift > bound:
                notes.append("SHIFT>BOUND")
            flagged += any(n.isupper() for n in notes)
            print(f"{name:14s} {' '.join(cols)} {shift:7.3f} {bound:6.2f} "
                  f"{' '.join(sorted(set(notes)))}")
        shares = [{r["failed"] / r["attempted"] for r in results} for results in sets]
        print(f"failed share per set: {[sorted(s) for s in shares]}")
        if len({frozenset(s) for s in shares}) != 1 or any(len(s) != 1 for s in shares):
            flagged += 1
            print("FAILED SHARE DIFFERS")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
