"""Print one sha256 line for every output the homalg CLI gives on a set of
bundles, so that two versions of the code can be compared byte for byte.

    python3 scripts/output_digest.py [BUNDLE_OR_DIR ...] > digests.txt
    diff digests-before.txt digests-after.txt

Runs through ``homalg.cli.main`` in-process, on every packaged fixture and on
every bundle given (a directory stands for the ``*.json`` files under it):

- ``check --format json`` for every class whose product roles the bundle
  carries, and once more with ``--multiplicativity`` for its declared class;
- ``construct --recipe R`` for every recipe, with every operator, ordered
  operator pair, rep or form index the recipe can take;
- ``diagram --format json`` for every ordered pair of operators;
- ``fmt``.

Each line is ``<sha256 of stdout>  exit=<status>  <argv>``.  Commands that
do not apply to a bundle (exit status 2) print no line, so a command that
stops applying shows up as a missing line.  Fixtures are named by their path
relative to the checkout, so runs from two checkouts print the same argv.
Uses the ``src/`` next to this script; standard library only.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
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


def run(args: list[str]) -> int:
    paths = _bundle_paths(args)
    os.chdir(ROOT)
    for path in paths:
        for argv in _commands(path):
            line = _digest(argv)
            if line is not None:
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
