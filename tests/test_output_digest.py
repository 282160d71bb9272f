"""The workload bundles ``scripts/output_digest.py --workloads SEED`` digests."""
from __future__ import annotations

import importlib.util
from pathlib import Path

from homalg import INDUCE_RECIPES, PAIR_RECIPES, load_bundle

_SPEC = importlib.util.spec_from_file_location(
    "output_digest", Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digest)


def test_workload_bundles_are_collected_per_workload_and_repeat(tmp_path):
    first = output_digest.workload_bundles(1, tmp_path / "a")
    again = output_digest.workload_bundles(1, tmp_path / "b")
    names = [p.relative_to(tmp_path / "a").as_posix() for p in first]
    assert names == [p.relative_to(tmp_path / "b").as_posix() for p in again]
    # cli-fixtures runs the packaged fixtures, which are digested anyway
    assert {name.split("/")[0] for name in names} == {
        "dense-rational", "block-sparse", "block-sparse-reps"}
    assert (tmp_path / "a" / "cli-fixtures").is_dir()
    assert {"block-sparse/g7_dim16.json", "block-sparse/octonions_im_x2.json",
            "dense-rational/octonions_yau.json"} <= set(names)
    # the sums whose workload bundles drop their reps, with them
    with_reps = {name for name in names if name.startswith("block-sparse-reps/")}
    assert with_reps == {"block-sparse-reps/prealt_t2_x4.json",
                         "block-sparse-reps/premalcev_dim2_x3.json",
                         "block-sparse-reps/premalcev_sl2_x4.json"}
    for a, b in zip(first, again):
        assert a.read_bytes() == b.read_bytes()
        bundle = load_bundle(a)
        if a.relative_to(tmp_path / "a").as_posix() in with_reps:
            assert bundle.reps


def test_every_operator_recipe_has_a_passing_construct_line(tmp_path, monkeypatch):
    # fixtures are named relative to the checkout, as the script runs them
    monkeypatch.chdir(output_digest.ROOT)
    recipes = set(INDUCE_RECIPES + PAIR_RECIPES)
    paths = output_digest._bundle_paths([])
    paths += map(str, output_digest.recipe_bundles(tmp_path / "recipes"))
    passed = set()
    for path in paths:
        for argv in output_digest._commands(path):
            if argv[0] == "construct" and argv[3] in recipes - passed:
                line = output_digest._digest(argv)
                if line is not None and line.split()[1] == "exit=0":
                    passed.add(argv[3])
    assert passed == recipes
