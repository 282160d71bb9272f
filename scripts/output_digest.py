"""Print one sha256 line for every output the homalg CLI gives on a set of
bundles, so that two versions of the code can be compared byte for byte.

    python3 scripts/output_digest.py [--workloads SEED] [BUNDLE_OR_DIR ...] > digests.txt
    diff digests-before.txt digests-after.txt

Runs through ``homalg.cli.main`` in-process, on every packaged fixture, on
every bundle given (a directory stands for the ``*.json`` files under it) and,
with ``--workloads SEED``, on every bundle the workloads of ``bench/`` write
at that seed, and on the ``block-sparse`` direct sums as they are before the
workload drops their representations and the operators on them (in
``block-sparse-reps/``), all generated into a temporary directory, which is
removed after:

- ``check --format json`` for every class whose product roles the bundle
  carries, and once more with ``--multiplicativity`` for its declared class;
- ``construct --recipe R`` for every recipe, with every operator, ordered
  operator pair, rep or form index the recipe can take;
- ``diagram --format json`` for every ordered pair of operators;
- ``fmt``.

Each line is ``<sha256 of stdout>  exit=<status>  <argv>``.  Commands that
do not apply to a bundle (exit status 2) print no line, so a command that
stops applying shows up as a missing line.  Fixtures are named by their path
relative to the checkout, and workload bundles by their path relative to the
temporary directory (``<workload>/<name>.json``, run from inside it), so runs
from two checkouts print the same argv.  Uses the ``src/`` and ``bench/`` next
to this script; standard library only.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from homalg.bundle import load_bundle  # noqa: E402
from homalg.cli import RECIPES, main  # noqa: E402
from homalg.fixtures import fixture_names  # noqa: E402
from homalg.operators import INDUCE_RECIPES, PAIR_RECIPES  # noqa: E402
from homalg.structures import CLASS_ROLES  # noqa: E402


def _bundle_paths(args: list[str]) -> list[str]:
    paths = [f"src/homalg/fixtures/{name}.json" for name in fixture_names()]
    for arg in args:
        path = Path(arg).resolve()
        if path.is_dir():
            paths.extend(str(p) for p in sorted(path.rglob("*.json")))
        else:
            paths.append(str(path))
    return paths


def workload_bundles(seed: int, into: Path) -> list[Path]:
    """Write the bundles of every workload in ``BENCHMARK.json`` at ``seed``
    under ``into/<workload>/`` and return their paths, in order.  The
    workloads read the fixtures relative to the checkout, so this runs from
    it."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    paths: list[Path] = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for name in (w["name"] for w in spec["workloads"]):
            workdir = into / name
            workdir.mkdir(parents=True)
            getattr(workloads, name.replace("-", "_"))(seed, workdir)
            paths.extend(sorted(workdir.glob("*.json")))
        # the block-sparse sums again, keeping their representations: only
        # the bundles that differ from the workload's own are kept
        workdir = into / "block-sparse-reps"
        workdir.mkdir()
        without_reps, workloads.without_reps = workloads.without_reps, lambda s: s
        try:
            workloads.block_sparse(seed, workdir)
        finally:
            workloads.without_reps = without_reps
        for path in sorted(workdir.glob("*.json")):
            if path.read_bytes() == (into / "block-sparse" / path.name).read_bytes():
                path.unlink()
            else:
                paths.append(path)
    finally:
        os.chdir(cwd)
    return paths


def _commands(path: str) -> list[list[str]]:
    bundle = load_bundle(path)
    ops = range(len(bundle.operators))
    pairs = [["--operator", str(i), "--operator2", str(j)]
             for i in ops for j in ops if i != j]
    index_flags = {
        "yau-twist": [["--operator", str(i)] for i in ops],
        "semidirect": [["--rep", str(i)] for i in range(len(bundle.reps))],
        "dual-rep": [["--rep", str(i)] for i in range(len(bundle.reps))],
        "hessian-dendrify": [["--form", str(i)]
                             for i in range(len(bundle.forms))],
    }
    for recipe in INDUCE_RECIPES:
        index_flags[recipe] = [["--operator", str(i)] for i in ops]
    for recipe in PAIR_RECIPES:
        index_flags[recipe] = pairs

    roles = bundle.structure.roles()
    out = [["check", path, "--class", cls.value, "--format", "json"]
           for cls, needed in CLASS_ROLES.items() if needed <= roles]
    if bundle.declared_class is not None:
        out.append(["check", path, "--multiplicativity", "--format", "json"])
    for recipe in RECIPES:
        for flags in index_flags.get(recipe, [[]]):
            out.append(["construct", path, "--recipe", recipe, *flags])
    out.extend(["diagram", path, *flags, "--format", "json"] for flags in pairs)
    out.append(["fmt", path])
    return out


def _digest(argv: list[str]) -> str | None:
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            status = main(argv)
    except Exception as exc:  # a traceback is an output too
        return f"TRACEBACK {type(exc).__name__}: {exc}  {' '.join(argv)}"
    if status == 2:
        return None
    digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
    return f"{digest}  exit={status}  {' '.join(argv)}"


def _print_digests(cwd: Path, paths: list[str]) -> None:
    os.chdir(cwd)
    for path in paths:
        for argv in _commands(path):
            line = _digest(argv)
            if line is not None:
                print(line, flush=True)


def run(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bundles", nargs="*", metavar="BUNDLE_OR_DIR")
    parser.add_argument("--workloads", type=int, metavar="SEED",
                        help="also digest the benchmark workloads' bundles")
    opts = parser.parse_args(args)
    _print_digests(ROOT, _bundle_paths(opts.bundles))
    if opts.workloads is not None:
        with tempfile.TemporaryDirectory() as tmp:
            into = Path(tmp)
            paths = workload_bundles(opts.workloads, into)
            _print_digests(into, [str(p.relative_to(into)) for p in paths])
            os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
