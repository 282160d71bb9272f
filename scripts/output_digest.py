"""Print one sha256 line for every output the homalg CLI gives on a set of
bundles, so that two versions of the code can be compared byte for byte.

    python3 scripts/output_digest.py [--workloads SEED] [BUNDLE_OR_DIR ...] > digests.txt
    diff digests-before.txt digests-after.txt

Runs through ``homalg.cli.main`` in-process, on every packaged fixture, on
every bundle given (a directory stands for the ``*.json`` files under it), on
inputs built from the fixtures for the operator recipes that no fixture has
inputs for (in ``recipes/``, see :func:`recipe_bundles`) and, with ``--workloads SEED``, on
every bundle the workloads of ``bench/`` write at that seed, and on the
``block-sparse`` direct sums as they are before the workload drops their
representations and the operators on them (in ``block-sparse-reps/``), all
generated into a temporary directory, which is removed after:

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

from homalg import (  # noqa: E402
    CLASS_ROLES,
    INDUCE_RECIPES,
    KIND_O_OPERATOR,
    PAIR_RECIPES,
    ActionRole,
    Bundle,
    OperatorWitness,
    ProductRole,
    Representation,
    adjoint_rep,
    horizontal,
    induce,
    load_bundle,
    make_structure,
    regular_alternative_rep,
    regular_pre_alternative_rep,
    regular_pre_malcev_rep,
    save_bundle,
)
from homalg.cli import RECIPES, main  # noqa: E402
from homalg.exact import mat_identity  # noqa: E402
from homalg.fixtures import fixture_names, load_fixture  # noqa: E402


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


def _on_rep(structure, rep, rb_maps) -> Bundle:
    """``structure`` with ``rep`` and the O-operators on it of the same
    matrices as ``rb_maps``."""
    ops = tuple(OperatorWitness(KIND_O_OPERATOR, r.matrix, rep=rep) for r in rb_maps)
    return Bundle(structure, reps=(rep,), operators=ops, rep_indices=(0,) * len(ops))


def recipe_bundles(into: Path) -> list[Path]:
    """Write under ``into`` inputs, built from the fixtures, for the operator
    recipes that no fixture has inputs for, and return their paths, in order:

    - sl2_malcev on its adjoint representation, and assoc_t2 on its regular
      one, with their Rota-Baxter maps as O-operators;
    - the pre-alternative structure assoc_t2's first Rota-Baxter map
      induces, with the second map, as itself and as an O-operator on the
      regular representation;
    - the horizontal pre-Malcev structure of mdendri_sl2 with the identity,
      an invertible O-operator on the bimodule ``l(x) y = x < y``,
      ``r(x) y = y > x``.
    """
    sl2 = load_fixture("sl2_malcev")
    t2 = load_fixture("assoc_t2")
    r1, r2 = t2.operators
    prealt = induce(t2.structure, r1, "alternative-to-prealt-rb")
    prealt_rep = regular_pre_alternative_rep(prealt)
    md = load_fixture("mdendri_sl2").structure
    horiz = horizontal(md)

    def acting(role, side):
        half = make_structure(md.dim, twist=md.twist,
                              products={ProductRole.DOT: md.products[role]})
        return regular_pre_malcev_rep(half).actions[side]

    bimod = Representation(base=horiz, module_dim=md.dim, module_twist=md.twist, actions={
        ActionRole.LEFT: acting(ProductRole.TRI_LEFT, ActionRole.LEFT),
        ActionRole.RIGHT: acting(ProductRole.TRI_RIGHT, ActionRole.RIGHT)})
    bundles = {
        "sl2_malcev_adjoint": _on_rep(sl2.structure, adjoint_rep(sl2.structure),
                                      sl2.operators),
        "assoc_t2_regular": _on_rep(t2.structure, regular_alternative_rep(t2.structure),
                                    t2.operators),
        "prealt_t2_regular": Bundle(
            prealt, reps=(prealt_rep,), rep_indices=(None, 0),
            operators=(r2, OperatorWitness(KIND_O_OPERATOR, r2.matrix, rep=prealt_rep))),
        "mdendri_sl2_splitting": _on_rep(
            horiz, bimod, [OperatorWitness(KIND_O_OPERATOR, mat_identity(md.dim), rep=bimod)]),
    }
    into.mkdir(parents=True)
    paths = []
    for name, bundle in bundles.items():
        paths.append(into / f"{name}.json")
        save_bundle(bundle, paths[-1])
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
    with tempfile.TemporaryDirectory() as tmp:
        into = Path(tmp)
        paths = []
        if opts.workloads is not None:
            paths = workload_bundles(opts.workloads, into)
        paths += recipe_bundles(into / "recipes")
        _print_digests(into, [str(p.relative_to(into)) for p in paths])
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
