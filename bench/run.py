"""Benchmark of homalg through its public entry points.

    python3 bench/run.py --workload dense-rational --seed 1 --seconds 25 --trace 0

Run from the repository root.  Set-up imports homalg from ``src/``, reads the
fixture library, and generates and writes the workload's bundles under
``.bench_work/``.  The run then repeats whole rounds of the workload's fixed
operation list - ``homalg.cli.main`` in-process, plus a few
``python -m homalg.cli`` subprocesses - in a closed loop (one process, one
thread, each operation starting after the previous one ends) until the
operations have taken ``--seconds`` of wall time.  Every output is checked.

Times are reported at a reference speed of the interpreter: each operation's
wall time is scaled by a calibration loop timed just before and just after
it (see ``Clock``), because the speed of the machine itself drifts by tens
of percent within minutes.  The process and its subprocesses are pinned to
one CPU so that the samples and the work run on the same core.  The wall
times of the rounds and the median speed go to stderr.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from spans
recorded around every layer's public functions (see ``spans.py``), and the
spans are written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

WORKLOADS = {
    "dense-rational": workloads.dense_rational,
    "block-sparse": workloads.block_sparse,
    "cli-fixtures": workloads.cli_fixtures,
}
SETUP_REPEATS = 7
IMPORT_SAMPLES = 15
SUBPROCESS_TIMEOUT_S = 120
#: the calibration loop's time at the reference speed
CALIBRATION_REF_S = 0.005


def calibration_sample() -> float:
    """Time a fixed loop of the kind of work homalg does - Fraction products
    stored in small dicts - to measure the interpreter's speed at this
    moment.  It runs no homalg code."""
    started = time.perf_counter()
    table = {}
    for n in range(1, 1500):
        table[(7 * n) % 101] = {n % 13: Fraction(n, 7) * Fraction(3, n % 5 + 1)}
    return time.perf_counter() - started


class Clock:
    """Times a step at the reference speed: its wall time times
    CALIBRATION_REF_S over the mean of the calibration samples taken just
    before and just after it.  The machine's speed drifts by tens of
    percent within minutes, and a sample next to the step tracks it."""

    def __init__(self):
        self.samples = [calibration_sample()]

    def time(self, fn):
        """Run ``fn``; return (result, raw seconds, reference seconds)."""
        before = self.samples[-1]
        started = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - started
        self.samples.append(calibration_sample())
        return result, raw, raw * CALIBRATION_REF_S * 2 / (before + self.samples[-1])


def _units() -> dict[str, str]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for key in ("end_to_end", "per_layer") for m in spec[key]}


def _subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path("src").resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Runner:
    """Runs rounds of operations and keeps their accounting.  Latencies are
    in reference seconds (see Clock); the loop is bounded by wall time."""

    def __init__(self, cli_module, env, clock: Clock):
        self.cli = cli_module
        self.env = env
        self.clock = clock
        self.ctx: dict = {"verdicts": {}}
        self.verified: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.latencies: list[float] = []
        self.cold: list[float] = []
        self.round_times: list[float] = []
        self.raw_round_times: list[float] = []
        self.tuples = 0
        self.tuple_seconds = 0.0
        self.errors: list[str] = []

    def _attempt(self, op) -> tuple[object, str, str | None]:
        try:
            if op.subprocess:
                proc = subprocess.run(
                    [sys.executable, "-m", "homalg.cli", *op.argv],
                    capture_output=True, text=True, env=self.env,
                    timeout=SUBPROCESS_TIMEOUT_S)
                return proc.returncode, proc.stdout, None
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = self.cli.main(list(op.argv))
            return status, out.getvalue(), None
        except (Exception, SystemExit) as exc:  # a traceback is a failure
            return None, "", f"{type(exc).__name__}: {exc}"

    def run_round(self, ops) -> float:
        """Run every op once; return the round's wall time."""
        spent = reference = 0.0
        for n, op in enumerate(ops):
            self.attempted += 1
            (status, stdout, error), raw, elapsed = self.clock.time(
                lambda: self._attempt(op))
            spent += raw
            reference += elapsed
            self.latencies.append(elapsed)
            if op.subprocess:
                self.cold.append(elapsed)
            if error is None:
                error = self._verify(n, op, status, stdout, elapsed)
            if error is not None:
                self.failed += 1
                self.errors.append(f"{op.name}: {error}")
        self.round_times.append(reference)
        self.raw_round_times.append(spent)
        return spent

    def _verify(self, n, op, status, stdout, elapsed) -> str | None:
        if op.expect_status is not None and status != op.expect_status:
            if op.counts_tuples and status in (0, 1):
                # the exit status of check and diagram is their verdict
                self.incorrect += 1
                return f"verdict: exit status {status}, expected {op.expect_status}"
            return f"exit status {status}, expected {op.expect_status}"
        if status not in (0, 1):
            return f"exit status {status}"
        produced = stdout
        if op.output is not None:
            produced += op.output.read_text("utf-8")
        if self.verified.get(n) != produced:
            self.ctx["status"] = status
            try:
                op.verify(stdout, self.ctx)
            except (workloads.Mismatch, ValueError, KeyError, TypeError) as exc:
                self.incorrect += 1
                return f"output check failed: {exc}"
            self.verified[n] = produced
        if op.counts_tuples:
            self.tuples += _tuples_in(stdout)
            self.tuple_seconds += elapsed
        return None


def _tuples_in(stdout: str) -> int:
    total = 0
    for entry in json.loads(stdout)["checks"]:
        if "nodes" in entry:
            total += sum(node["tuples_checked"] for node in entry["nodes"].values())
        else:
            total += entry["tuples_checked"]
    return total


def _at_reference_speed(value: float, unit: str, speed: float) -> float:
    """Scale a wall time (or divide a rate) by the run's median speed factor;
    counts and shares are left as measured."""
    if unit in ("s", "ms", "us", "ns"):
        return value * speed
    if unit.endswith("/s"):
        return value / speed
    return value


def _import_s(env, clock: Clock) -> float:
    """Median time to import homalg.cli in a fresh interpreter, at the
    reference speed: the time the child measures is scaled by the factor
    its whole subprocess got from the clock."""
    code = ("import time; t = time.perf_counter(); import homalg.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc, raw, elapsed = clock.time(lambda: subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=SUBPROCESS_TIMEOUT_S, check=True))
        samples.append(float(proc.stdout.strip()) * elapsed / raw)
    return statistics.median(samples)


def _micro_timings(seed: int) -> dict[str, float]:
    """One call of the public exact.grid_mul on dense dim-8 rational operands
    (µs) and on block-sparse operands (ns)."""
    from homalg import exact
    from homalg.bundle import loads_bundle
    from homalg.structures import ProductRole

    octo = gen.change_basis(gen.load("octonions"), workloads.dense_basis(
        random.Random(f"grid-mul/{seed}"), "octonions", 8))
    star = loads_bundle(gen.dumps(octo)).structure.products[ProductRole.STAR]
    grid = exact.tensor_grid(star, 8)
    operands = [(grid[i][j], grid[j][i]) for i in range(4) for j in range(4)]

    sparse = loads_bundle(gen.dumps(workloads.g7_structure(10))).structure
    sgrid = exact.tensor_grid(sparse.products[ProductRole.TRI_LEFT], 10)
    basis = [{i: exact.ONE} for i in range(10)]
    sparse_ops = [(basis[i], basis[j]) for i in range(10) for j in range(10)]

    def per_call(pairs, grid_, repeat):
        samples = []
        for _ in range(5):
            started = time.perf_counter()
            for _ in range(repeat):
                for u, v in pairs:
                    exact.grid_mul(grid_, u, v)
            samples.append((time.perf_counter() - started) / (repeat * len(pairs)))
        return statistics.median(samples)

    return {"exact.grid_mul.dense_us": 1e6 * per_call(operands, grid, 1),
            "exact.grid_mul.sparse_ns": 1e9 * per_call(sparse_ops, sgrid, 30)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "homalg" / "cli.py").is_file():
        print("error: run from a checkout that holds src/homalg", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    units = _units()
    env = _subprocess_env()

    # one CPU for the benchmark and its subprocesses, so that calibration
    # samples run on the core that runs the work they scale
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = Clock()
    import_s = _import_s(env, clock)
    cli_module = importlib.import_module("homalg.cli")
    from homalg import fixtures

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    def build():
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        for name in fixtures.fixture_names():
            if fixtures.load_fixture(name).structure.dim != gen.load(name)["dim"]:
                raise SystemExit(f"fixture {name}: generator and library disagree")
        return WORKLOADS[args.workload](args.seed, workdir)

    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            ops, _, elapsed = clock.time(build)
            builds.append(elapsed)
        setup_s = import_s + statistics.median(builds)

        runner = Runner(cli_module, env, clock)
        seconds = args.seconds
        if tracer is not None:
            # a discarded warm-up round (first calls, first output checks),
            # then untraced rounds for half the time to compare the traced
            # rounds of the other half with
            tracer.uninstall()
            runner.run_round(ops)
            del runner.round_times[:]
            seconds /= 2
            spent = 0.0
            while spent < seconds:
                spent += runner.run_round(ops)
            untraced = statistics.median(runner.round_times)
            del runner.round_times[:]
            tracer.install()
            tracer.start_run()
        spent = 0.0
        while spent < seconds:
            spent += runner.run_round(ops)
        rounds = len(runner.round_times)
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(root / ".bench_out"
                        / f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for line in runner.errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    speed = CALIBRATION_REF_S / statistics.median(clock.samples)
    print("round wall times (s): "
          + " ".join(f"{t:.3f}" for t in runner.raw_round_times)
          + f"; median calibration sample over the reference: {1 / speed:.3f}",
          file=sys.stderr)

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "run_s": statistics.median(runner.round_times),
            "tuples_per_s": runner.tuples / runner.tuple_seconds,
            "op_ms_p50": 1e3 * statistics.median(runner.latencies),
            "cold_cmd_ms": 1e3 * statistics.median(runner.cold),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        # spans are timed in wall time; scale them by the run's median speed
        values = layer_metrics(tracer, rounds)
        values.update(_micro_timings(args.seed))
        values = {name: _at_reference_speed(value, units[name], speed)
                  for name, value in values.items()}
        values["cli.import_ms"] = 1e3 * import_s
        traced = statistics.median(runner.round_times)
        values["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
    result = {
        "correct": runner.incorrect == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if runner.incorrect == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
