"""In-memory tracing of homalg's public functions, installed from outside the
package.

Every wrapped function is replaced in each ``homalg`` module that refers to
it, so calls between modules and calls from the benchmark both go through
the wrapper.  Spanned functions record ``[name, start, end, parent, phase,
tuples, violations, size]``; counted functions (the ``exact`` primitives,
far too many calls for spans) only bump a counter, and only where
``structures``, ``reps`` and ``operators`` call them.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

#: layer -> public functions recorded as spans
SPANNED = {
    "cli": ("main",),
    "bundle": ("loads_bundle", "dumps_bundle", "check_payload",
               "diagram_payload"),
    "structures": ("check", "check_morphism"),
    "reps": ("check_rep",),
    "operators": ("check_operator", "induce", "induce_pair", "check_hessian",
                  "hessian_dendrify"),
    "functors": ("verify_diagram", "commutator", "horizontal", "vertical",
                 "transpose", "yau_twist"),
    "fixtures": ("load_fixture",),
}

#: exact primitives counted at their call sites in these modules
COUNTED = ("grid_mul", "apply_cols", "sv_add")
COUNTED_CALLERS = ("structures", "reps", "operators")

CONSTRUCTIONS = ("commutator", "horizontal", "vertical", "transpose",
                 "yau_twist")

_CHECKS = {"structures.check", "structures.check_morphism", "reps.check_rep",
           "operators.check_operator", "operators.check_hessian"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts = {name: [0] for name in COUNTED}
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_check = name in _CHECKS
        is_loads = name == "bundle.loads_bundle"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1,
                      self.phase, 0, 0, len(args[0]) if is_loads else 0]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if is_check:
                record[5] = result.tuples_checked
                record[6] = len(result.violations)
            return result

        return wrapper

    @staticmethod
    def _counted(cell: list, fn):
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, replacement, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, replacement))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        import homalg  # noqa: F401  (loads every submodule)

        mods = {name[len("homalg."):]: module
                for name, module in sys.modules.items()
                if name.startswith("homalg.") and module is not None}
        package = [sys.modules["homalg"], *mods.values()]
        for layer, names in SPANNED.items():
            for fname in names:
                original = getattr(mods[layer], fname)
                self._replace_everywhere(
                    original, self._span(f"{layer}.{fname}", original), package)
        callers = [mods[name] for name in COUNTED_CALLERS]
        for fname in COUNTED:
            original = getattr(mods["exact"], fname)
            self._replace_everywhere(
                original, self._counted(self.counts[fname], original), callers)

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def start_run(self) -> None:
        self.phase = "run"
        for cell in self.counts.values():
            cell[0] = 0

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "phase", "tuples",
                       "violations", "size"],
            "spans": self.spans,
            "counts": {k: v[0] for k, v in self.counts.items()},
        }))


# ---------------------------------------------------------------------------
# per-layer figures from the spans
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, list[tuple[float, float, int, int, int]]] = {}
    for n, (name, start, end, parent, phase, tuples, viol, size) in enumerate(spans):
        if phase == "run" or name == "fixtures.load_fixture":
            dur = end - start
            by_name.setdefault(name, []).append(
                (dur, dur - child_time[n], tuples, viol, size))

    def rows(name):
        return by_name.get(name, [])

    def mean_ms(*names):
        durs = [r[0] for name in names for r in rows(name)]
        return 1e3 * sum(durs) / len(durs) if durs else 0.0

    def median_self_ms(name):
        selfs = [r[1] for r in rows(name)]
        return 1e3 * statistics.median(selfs) if selfs else 0.0

    def per_round(value):
        return value / rounds

    def us_per_tuple(name):
        tuples = sum(r[2] for r in rows(name))
        return 1e6 * sum(r[0] for r in rows(name)) / tuples if tuples else 0.0

    loads = rows("bundle.loads_bundle")
    loads_s = sum(r[0] for r in loads)
    checks = rows("structures.check")
    counts = {k: v[0] for k, v in tracer.counts.items()}
    return {
        "cli.main.self_ms": median_self_ms("cli.main"),
        "bundle.loads_bundle.ms": mean_ms("bundle.loads_bundle"),
        "bundle.loads_bundle.kb_per_s":
            sum(r[4] for r in loads) / 1e3 / loads_s if loads_s else 0.0,
        "bundle.dumps_bundle.ms": mean_ms("bundle.dumps_bundle"),
        "bundle.check_payload.ms": mean_ms("bundle.check_payload"),
        "structures.check.self_s": per_round(sum(r[1] for r in checks)),
        "structures.check.us_per_tuple": us_per_tuple("structures.check"),
        "structures.check.calls": per_round(len(checks)),
        "structures.check.tuples": per_round(sum(r[2] for r in checks)),
        "structures.check.violations": per_round(sum(r[3] for r in checks)),
        "structures.check_morphism.ms": mean_ms("structures.check_morphism"),
        "exact.grid_mul.calls": per_round(counts["grid_mul"]),
        "exact.apply_cols.calls": per_round(counts["apply_cols"]),
        "exact.sv_add.calls": per_round(counts["sv_add"]),
        "reps.check_rep.self_s":
            per_round(sum(r[1] for r in rows("reps.check_rep"))),
        "reps.check_rep.us_per_tuple": us_per_tuple("reps.check_rep"),
        "operators.check_operator.ms": mean_ms("operators.check_operator"),
        "operators.induce.ms": mean_ms("operators.induce"),
        "operators.induce_pair.ms": mean_ms("operators.induce_pair"),
        "operators.check_hessian.ms": mean_ms("operators.check_hessian"),
        "functors.verify_diagram.self_ms":
            median_self_ms("functors.verify_diagram"),
        "functors.constructions.ms":
            mean_ms(*(f"functors.{name}" for name in CONSTRUCTIONS)),
        "fixtures.load_fixture.ms": mean_ms("fixtures.load_fixture"),
    }
