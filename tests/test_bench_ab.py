"""The A/B verdict of ``scripts/bench_ab.py`` on fixed numbers."""
from __future__ import annotations

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).resolve().parents[1] / "scripts" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)
verdict = bench_ab.verdict

PARENT = [1.30, 1.32, 1.31, 1.33, 1.29, 1.35, 1.31, 1.30, 1.34, 1.32]


def test_quartiles():
    assert bench_ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread():
    change = [x - 0.3 for x in PARENT]
    assert verdict(PARENT, change, "lower", 0.2) == (10, "gain")
    # nine wins of ten still claim the gain
    nine = change[:9] + [PARENT[9] + 0.01]
    assert verdict(PARENT, nine, "lower", 0.2) == (9, "gain")
    # eight do not, however large the gap
    eight = change[:8] + [PARENT[8], PARENT[9] + 0.01]
    assert verdict(PARENT, eight, "lower", 0.2) == (8, "within bound")
    # ties count for neither side
    assert verdict(PARENT, PARENT, "lower", 0.2) == (0, "within bound")
    # ten wins by less than the parent's interquartile spread: no gain
    close = [x - 0.005 for x in PARENT]
    assert verdict(PARENT, close, "lower", 0.2) == (10, "within bound")


def test_direction_of_better():
    higher = [x + 0.3 for x in PARENT]
    assert verdict(PARENT, higher, "higher", 0.2) == (10, "gain")
    assert verdict(PARENT, higher, "lower", 0.2) == (0, "worse")


def test_worse_beyond_bound_and_unresolved_spread():
    # 10% worse: beyond a 5% bound, within a 20% one
    slower = [x * 1.1 for x in PARENT]
    assert verdict(PARENT, slower, "lower", 0.05) == (0, "worse")
    assert verdict(PARENT, slower, "lower", 0.2) == (0, "within bound")
    # the parent's own quartiles lie further apart than the bound allows
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert verdict(noisy, noisy, "lower", 0.2) == (0, "unresolved")
