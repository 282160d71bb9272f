"""Smoke test of ``scripts/dense_ladder.py`` at small dimensions."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "dense_ladder", Path(__file__).resolve().parents[1] / "scripts" / "dense_ladder.py")
dense_ladder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(dense_ladder)

#: tuples of each class's sweep at dimension n
TUPLES = {"hom-pre-malcev": lambda n: n ** 4,
          "hom-m-dendriform": lambda n: 4 * n ** 4,
          "hom-malcev-admissible": lambda n: n ** 2 + n ** 3 + n ** 4}


def test_ladder_gives_one_case_per_class_and_dimension():
    cases = dense_ladder.ladder([2, 3], 1, dense_ladder.SEED)
    assert [(c["dim"], c["class"]) for c in cases] == [
        (n, cls) for n in (2, 3) for cls in TUPLES]
    for case in cases:
        assert case["tuples"] == TUPLES[case["class"]](case["dim"])
        # dense random structures fail their class
        assert 0 < case["violations"] <= case["tuples"]
        assert 0 < case["min_s"] <= case["median_s"]


def test_run_writes_the_cases_below_max_dim(tmp_path):
    out = tmp_path / "ladder.json"
    assert dense_ladder.run(["--runs", "1", "--max-dim", "5", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {
        "python": dense_ladder.platform.python_version(), "runs": 1,
        "seed": dense_ladder.SEED, "cases": []}


def test_run_without_out_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        dense_ladder.run(["--runs", "1", "--max-dim", "5"])
    assert exit_.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_random_structures_repeat_per_seed():
    cls = dense_ladder.CLASSES[1]
    first = dense_ladder.random_structure(cls, 3, 7)
    assert first == dense_ladder.random_structure(cls, 3, 7)
    assert first != dense_ladder.random_structure(cls, 3, 8)
    # dense: a structure constant is zero only where n = 0 was drawn
    constants = [v for tensor in first.products.values() for cell in tensor.values()
                 for v in cell.values()]
    assert len(constants) > 0.8 * 2 * 3 ** 3
