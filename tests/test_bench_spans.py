"""``bench/spans.py`` wraps homalg functions found by name: installing its
tracer finds every name it lists, and uninstalling puts every original back."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import homalg.cli  # noqa: F401  (imported before the tracer, as bench/run.py does)
from homalg import fixtures, structures

_SPEC = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)


def _package():
    return {name: module for name, module in sys.modules.items()
            if (name == "homalg" or name.startswith("homalg.")) and module is not None}


def test_tracer_finds_every_name_and_uninstall_restores_every_attribute():
    before = {name: dict(vars(module)) for name, module in _package().items()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = {(module.__name__, attr) for module, attr, _, _ in tracer._patches}
        for layer, names in spans.SPANNED.items():
            assert {(f"homalg.{layer}", name) for name in names} <= patched, layer
        # every counted primitive a caller holds is wrapped (no caller holds
        # sv_add since HM-JAC's Jacobian became three terms); the table
        # builds and composed grids hold the other two
        exact = sys.modules["homalg.exact"]
        for name in spans.COUNTED:
            assert all(vars(sys.modules[f"homalg.{caller}"]).get(name) is not getattr(exact, name)
                       for caller in spans.COUNTED_CALLERS), name
        for name in ("grid_mul", "apply_cols"):
            assert any((f"homalg.{caller}", name) in patched
                       for caller in spans.COUNTED_CALLERS), name
        tracer.start_run()
        structure = fixtures.load_fixture("sl2_malcev").structure
        assert structures.check(structure, structures.StructureClass.HOM_MALCEV).passed
    finally:
        tracer.uninstall()
    assert {"fixtures.load_fixture", "structures.check"} <= {s[0] for s in tracer.spans}
    assert tracer.counts["grid_mul"][0] > 0
    after = _package()
    assert sorted(after) == sorted(before)
    for name, attrs in before.items():
        now = vars(after[name])
        assert all(attr in now and now[attr] is value for attr, value in attrs.items()), name
