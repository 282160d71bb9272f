"""Canonical on-disk interchange for structures, representations, operators,
and bilinear forms, plus deterministic report payloads.

A bundle is one self-contained JSON document.  Canonical form has a fixed key
order, sparse entries sorted ascending, and every rational rendered as
``"p/q"`` with the fraction reduced and the denominator positive (``"/1"``
mandatory for integers).  ``load → save`` is byte-identical on canonical
files; ``save → load`` is the identity on in-memory values.
The loader parses each distinct rational string once per load; files and
reports are written by :func:`dumps_json`, in one pass.
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Any

from .exact import Matrix, Tensor
from .operators import (
    KIND_O_OPERATOR,
    KIND_ROTA_BAXTER,
    OPERATOR_KINDS,
    BilinearForm,
    OperatorWitness,
)
from .reps import ActionRole, Representation
from .structures import (
    CheckReport,
    HomStructure,
    ProductRole,
    Record,
    StructureClass,
)

SCHEMA_VERSION = 1

_escape = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[+-]?\d+)?$")

_PRODUCT_ROLES = {role.value: role for role in ProductRole}
_ACTION_ROLES = {role.value: role for role in ActionRole}
_CLASSES = {cls.value: cls for cls in StructureClass}

_TOP_KEYS = frozenset(
    {"schema_version", "class", "dim", "basis", "twist", "products",
     "reps", "operators", "forms", "meta"}
)
_REP_KEYS = frozenset({"module_dim", "module_twist", "actions"})
_OPERATOR_KEYS = frozenset({"kind", "weight", "rep_index", "matrix"})


class BundleError(ValueError):
    """The file is not a valid bundle; the message names the offending
    field or index."""


# ---------------------------------------------------------------------------
# rational and matrix plumbing
# ---------------------------------------------------------------------------

def format_rational(value: Fraction) -> str:
    """Canonical ``"p/q"`` string: reduced, positive denominator, ``/1``
    mandatory."""
    f = value if isinstance(value, Fraction) else Fraction(value)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError as exc:  # more digits than int -> str allows
        raise BundleError(f"cannot write a rational with more than "
                          f"{sys.get_int_max_str_digits()} digits") from exc


def parse_rational(text: Any, where: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise BundleError(f"{where}: expected a rational string 'p/q', got {text!r}")
    num, _, den = text.partition("/")
    try:
        n, d = int(num), int(den or "1")
    except ValueError as exc:  # more digits than str -> int allows
        raise BundleError(f"{where}: more than {sys.get_int_max_str_digits()} "
                          f"digits in {text[:20]}...") from exc
    if d == 0:
        raise BundleError(f"{where}: zero denominator in {text!r}")
    return Fraction(n, d)


def _require_index(value: Any, bound: int, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise BundleError(f"{where}: expected an integer index, got {value!r}")
    if not 0 <= value < bound:
        raise BundleError(f"{where}: index {value} out of range [0, {bound})")
    return value


def _rational(text: Any, rationals: dict[str, Fraction], where: str, n: int) -> Fraction:
    """``text`` parsed once per load into ``rationals``; the location
    ``where[n]`` is formatted only for an error."""
    value = rationals.get(text) if type(text) is str else None
    if value is None:
        value = rationals[text] = parse_rational(text, f"{where}[{n}]")
    return value


def _flat_matrix(values: Any, rows: int, cols: int, where: str,
                 rationals: dict[str, Fraction]) -> Matrix:
    if not isinstance(values, list) or len(values) != rows * cols:
        got = len(values) if isinstance(values, list) else type(values).__name__
        raise BundleError(
            f"{where}: expected a flat row-major list of {rows * cols} "
            f"rationals, got {got}"
        )
    entries = [_rational(v, rationals, where, n) for n, v in enumerate(values)]
    return tuple(tuple(entries[r * cols:(r + 1) * cols]) for r in range(rows))


def _matrix_to_flat(mat: Matrix) -> list[str]:
    return [format_rational(v) for row in mat for v in row]


# ---------------------------------------------------------------------------
# sparse entry lists
# ---------------------------------------------------------------------------

def _tensor_to_entries(tensor: Tensor, action: bool = False) -> list[list[Any]]:
    """The sorted ``[i, j, k, 'p/q']`` entries of the cells ``(i, j) -> {k:
    value}``, or for an ``action`` ``(i, k) -> {j: value}``."""
    return [[*key, format_rational(v)] for key, v in sorted(
        ((i, k, j) if action else (i, j, k), v)
        for (i, j), cell in tensor.items() for k, v in cell.items())]


def _entries(entries: Any, bounds: tuple[int, int, int], where: str, shape: str,
             rationals: dict[str, Fraction], zeros: bool):
    """Each ``[x, y, z, 'p/q']`` entry of a sparse list as ``(x, y, z,
    value)``: each index below its bound, no key twice (a zero entry counts
    only if ``zeros``, checked then before the value), and each distinct
    rational string parsed once, where first seen.  An entry whose indices
    do not pass these checks at once is checked again in order, naming it."""
    if not isinstance(entries, list):
        raise BundleError(f"{where}: expected a list of {shape} entries")
    (bx, by, bz), get, seen = bounds, rationals.get, set()
    for n, entry in enumerate(entries):
        if type(entry) is list and len(entry) == 4:
            x, y, z, text = entry
            if (type(x) is type(y) is type(z) is int and 0 <= x < bx and 0 <= y < by
                    and 0 <= z < bz and (x, y, z) not in seen and type(text) is str):
                value = get(text)
                if value is None:
                    value = _rational(text, rationals, where, n)
                if zeros or value:
                    seen.add((x, y, z))
                yield x, y, z, value
                continue
        spot = f"{where}[{n}]"
        if not isinstance(entry, list) or len(entry) != 4:
            raise BundleError(f"{spot}: expected {shape}, got {entry!r}")
        key = tuple(_require_index(v, b, spot) for v, b in zip(entry, bounds))
        value = None if zeros else _rational(entry[3], rationals, where, n)
        if key in seen:
            raise BundleError(f"{spot}: duplicate entry for {key}")
        value = _rational(entry[3], rationals, where, n) if zeros else value
        if zeros or value:
            seen.add(key)
        yield *key, value


# ---------------------------------------------------------------------------
# the bundle container
# ---------------------------------------------------------------------------

class Bundle(Record):
    """A structure with any attached representations, operator witnesses, and
    bilinear forms, exactly as loaded from (or destined for) one file."""

    structure: HomStructure
    declared_class: StructureClass | None
    reps: tuple[Representation, ...]
    operators: tuple[OperatorWitness, ...]
    rep_indices: tuple[int | None, ...]
    forms: tuple[BilinearForm, ...]

    def __init__(self, structure: HomStructure,
                 declared_class: StructureClass | None = None,
                 reps: tuple[Representation, ...] = (),
                 operators: tuple[OperatorWitness, ...] = (),
                 rep_indices: tuple[int | None, ...] = (),
                 forms: tuple[BilinearForm, ...] = ()):
        d = self.__dict__
        d["structure"], d["declared_class"] = structure, declared_class
        d["reps"], d["operators"] = tuple(reps), tuple(operators)
        d["rep_indices"], d["forms"] = rep_indices, tuple(forms)
        indices = tuple(self.rep_indices)
        if not indices and self.operators:
            indices = tuple(None for _ in self.operators)
        if len(indices) != len(self.operators):
            raise BundleError(
                f"rep_indices: {len(indices)} entries for "
                f"{len(self.operators)} operators"
            )
        for n, (witness, idx) in enumerate(zip(self.operators, indices)):
            if witness.kind == KIND_O_OPERATOR:
                if idx is None or not 0 <= idx < len(self.reps):
                    raise BundleError(
                        f"operators[{n}]: rep_index {idx!r} does not point at "
                        f"one of {len(self.reps)} reps"
                    )
            elif idx is not None:
                raise BundleError(
                    f"operators[{n}]: rep_index is only meaningful for "
                    f"'{KIND_O_OPERATOR}' witnesses"
                )
        d["rep_indices"] = indices


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def bundle_payload(bundle: Bundle) -> dict[str, Any]:
    """The canonical JSON-ready mapping (fixed key order)."""
    s = bundle.structure
    payload: dict[str, Any] = {"schema_version": SCHEMA_VERSION}
    if bundle.declared_class is not None:
        payload["class"] = bundle.declared_class.value
    payload["dim"] = s.dim
    payload["basis"] = list(s.basis)
    payload["twist"] = _matrix_to_flat(s.twist)
    payload["products"] = {
        role.value: _tensor_to_entries(tensor)
        for role, tensor in sorted(s.products.items(), key=lambda kv: kv[0].value)
    }
    if bundle.reps:
        payload["reps"] = [
            {
                "module_dim": rep.module_dim,
                "module_twist": _matrix_to_flat(rep.module_twist),
                "actions": {
                    role.value: _tensor_to_entries(t, action=True)
                    for role, t in sorted(rep.actions.items(), key=lambda kv: kv[0].value)
                },
            }
            for rep in bundle.reps
        ]
    if bundle.operators:
        ops = []
        for witness, idx in zip(bundle.operators, bundle.rep_indices):
            entry: dict[str, Any] = {"kind": witness.kind}
            if witness.kind == KIND_ROTA_BAXTER:
                entry["weight"] = format_rational(witness.weight)
            else:
                entry["rep_index"] = idx
            entry["matrix"] = _matrix_to_flat(witness.matrix)
            ops.append(entry)
        payload["operators"] = ops
    if bundle.forms:
        payload["forms"] = [_matrix_to_flat(form.matrix) for form in bundle.forms]
    if s.meta:
        payload["meta"] = {key: s.meta[key] for key in sorted(s.meta)}
    return payload


def dumps_json(payload: Any) -> str:
    """Exactly ``json.dumps(payload, indent=2) + "\n"`` for a payload of
    dicts with string keys, lists, strings, ints, bools and None, written in
    one pass: ``json.dumps`` falls back to its pure-Python encoder whenever
    it indents.  Strings are escaped to ASCII by the C encoder's escaper.  Any
    other value (a float among them) raises TypeError."""
    out: list[str] = []
    put = out.append

    def write(x: Any, pad: str) -> None:
        if isinstance(x, str):
            return put(_escape(x))
        if x is None or x is True or x is False:
            return put(_CONSTANTS[x])
        if isinstance(x, int):
            return put(int.__repr__(x))
        if not isinstance(x, (list, tuple, dict)):
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        ends, inner = "{}" if isinstance(x, dict) else "[]", pad + "  "
        if not x:
            return put(ends)
        if ends == "[]" and all(type(v) is str or type(v) is int for v in x):  # leaves
            return put("[" + inner + ("," + inner).join(
                [_escape(v) if type(v) is str else int.__repr__(v) for v in x]) + pad + "]")
        put(ends[0] + inner)
        for n, v in enumerate(x.items() if ends == "{}" else x):
            if n:
                put("," + inner)
            if ends == "{}":
                if not isinstance(v[0], str):
                    raise TypeError(f"keys must be str, not {type(v[0]).__name__}")
                put(_escape(v[0]) + ": ")
                v = v[1]
            write(v, inner)
        put(pad + ends[1])

    write(payload, "\n")
    put("\n")
    return "".join(out)


def dumps_bundle(bundle: Bundle) -> str:
    return dumps_json(bundle_payload(bundle))


def save_bundle(bundle: Bundle, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_bundle(bundle))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _object(raw: Any, keys: frozenset[str], where: str) -> None:
    """``raw`` must be an object with no key outside ``keys``."""
    if not isinstance(raw, dict):
        raise BundleError(f"{where}: expected an object")
    extra = set(raw) - keys
    if extra:
        raise BundleError(f"{where}: unknown keys {sorted(extra)}")


def _parse_rep(raw: Any, structure: HomStructure, where: str,
               rationals: dict[str, Fraction]) -> Representation:
    _object(raw, _REP_KEYS, where)
    for key in ("module_dim", "module_twist", "actions"):
        if key not in raw:
            raise BundleError(f"{where}: missing key '{key}'")
    module_dim = raw["module_dim"]
    if not isinstance(module_dim, int) or isinstance(module_dim, bool) or module_dim < 1:
        raise BundleError(f"{where}.module_dim: expected a positive integer, "
                          f"got {module_dim!r}")
    module_twist = _flat_matrix(raw["module_twist"], module_dim, module_dim,
                                f"{where}.module_twist", rationals)
    if not isinstance(raw["actions"], dict):
        raise BundleError(f"{where}.actions: expected an object")
    actions: dict[ActionRole, Tensor] = {}
    for name, entries in raw["actions"].items():
        role = _ACTION_ROLES.get(name)
        if role is None:
            raise BundleError(
                f"{where}.actions: unknown action role {name!r}; expected one "
                f"of {sorted(_ACTION_ROLES)}"
            )
        actions[role] = tensor = {}
        for i, a, b, value in _entries(entries, (structure.dim, module_dim, module_dim),
                                       f"{where}.actions.{name}", "[i, a, b, 'p/q']",
                                       rationals, True):
            if value:
                tensor.setdefault((i, b), {})[a] = value
    return Representation(base=structure, module_dim=module_dim,
                          module_twist=module_twist, actions=actions)


def _parse_operator(raw: Any, structure: HomStructure,
                    reps: tuple[Representation, ...], where: str,
                    rationals: dict[str, Fraction]) -> tuple[OperatorWitness, int | None]:
    _object(raw, _OPERATOR_KEYS, where)
    kind = raw.get("kind")
    if kind not in OPERATOR_KINDS:
        raise BundleError(f"{where}.kind: expected one of "
                          f"{sorted(OPERATOR_KINDS)}, got {kind!r}")
    if "matrix" not in raw:
        raise BundleError(f"{where}: missing key 'matrix'")
    if kind == KIND_ROTA_BAXTER:
        if "rep_index" in raw:
            raise BundleError(f"{where}: '{KIND_ROTA_BAXTER}' witnesses carry "
                              f"no rep_index")
        weight = (parse_rational(raw["weight"], f"{where}.weight")
                  if "weight" in raw else Fraction(0))
        mat = _flat_matrix(raw["matrix"], structure.dim, structure.dim,
                           f"{where}.matrix", rationals)
        return OperatorWitness(kind=kind, matrix=mat, weight=weight), None
    if "weight" in raw:
        raise BundleError(f"{where}: '{KIND_O_OPERATOR}' witnesses carry no weight")
    if "rep_index" not in raw:
        raise BundleError(f"{where}: missing key 'rep_index'")
    idx = _require_index(raw["rep_index"], len(reps), f"{where}.rep_index")
    rep = reps[idx]
    mat = _flat_matrix(raw["matrix"], structure.dim, rep.module_dim,
                       f"{where}.matrix", rationals)
    return OperatorWitness(kind=kind, matrix=mat, rep=rep), idx


def loads_bundle(text: str) -> Bundle:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers with more digits
        # than str -> int allows; RecursionError, nesting too deep to parse
        raise BundleError(f"not valid JSON: {exc}") from exc
    _object(raw, _TOP_KEYS, "top level")
    for key in ("schema_version", "dim", "basis", "twist", "products"):
        if key not in raw:
            raise BundleError(f"top level: missing key '{key}'")
    if raw["schema_version"] != SCHEMA_VERSION:
        raise BundleError(
            f"schema_version: expected {SCHEMA_VERSION}, got {raw['schema_version']!r}"
        )
    dim = raw["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise BundleError(f"dim: expected a positive integer, got {dim!r}")
    basis = raw["basis"]
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(b, str) for b in basis)):
        raise BundleError(f"basis: expected a list of {dim} strings")
    rationals: dict[str, Fraction] = {}   # each distinct string, parsed once
    twist = _flat_matrix(raw["twist"], dim, dim, "twist", rationals)
    if not isinstance(raw["products"], dict):
        raise BundleError("products: expected an object")
    products: dict[ProductRole, Tensor] = {}
    for name, entries in raw["products"].items():
        role = _PRODUCT_ROLES.get(name)
        if role is None:
            raise BundleError(f"products: unknown product role {name!r}; "
                              f"expected one of {sorted(_PRODUCT_ROLES)}")
        products[role] = tensor = {}
        for i, j, k, value in _entries(entries, (dim,) * 3, f"products.{name}",
                                       "[i, j, k, 'p/q']", rationals, False):
            if value:
                tensor.setdefault((i, j), {})[k] = value

    declared: StructureClass | None = None
    if "class" in raw:
        declared = _CLASSES.get(raw["class"])
        if declared is None:
            raise BundleError(f"class: unknown structure class {raw['class']!r}; "
                              f"expected one of {sorted(_CLASSES)}")

    meta: dict[str, str] = {}
    if "meta" in raw:
        if (not isinstance(raw["meta"], dict)
                or not all(isinstance(k, str) and isinstance(v, str)
                           for k, v in raw["meta"].items())):
            raise BundleError("meta: expected an object mapping strings to strings")
        meta = dict(raw["meta"])

    structure = HomStructure(dim=dim, twist=twist, products=products,
                             basis=tuple(basis), meta=meta)

    reps: list[Representation] = []
    if "reps" in raw:
        if not isinstance(raw["reps"], list):
            raise BundleError("reps: expected a list")
        for n, entry in enumerate(raw["reps"]):
            reps.append(_parse_rep(entry, structure, f"reps[{n}]", rationals))

    operators: list[OperatorWitness] = []
    rep_indices: list[int | None] = []
    if "operators" in raw:
        if not isinstance(raw["operators"], list):
            raise BundleError("operators: expected a list")
        for n, entry in enumerate(raw["operators"]):
            witness, idx = _parse_operator(entry, structure, tuple(reps),
                                           f"operators[{n}]", rationals)
            operators.append(witness)
            rep_indices.append(idx)

    forms: list[BilinearForm] = []
    if "forms" in raw:
        if not isinstance(raw["forms"], list):
            raise BundleError("forms: expected a list")
        for n, entry in enumerate(raw["forms"]):
            forms.append(BilinearForm(_flat_matrix(entry, dim, dim, f"forms[{n}]",
                                                   rationals)))

    return Bundle(structure=structure, declared_class=declared, reps=tuple(reps),
                  operators=tuple(operators), rep_indices=tuple(rep_indices),
                  forms=tuple(forms))


def load_bundle(path) -> Bundle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BundleError(f"cannot read {path}: {exc}") from exc
    return loads_bundle(text)


# ---------------------------------------------------------------------------
# deterministic report payloads
# ---------------------------------------------------------------------------

def check_payload(report: CheckReport) -> dict[str, Any]:
    """The deterministic section of a check report (no timing)."""
    return {
        "target": report.target,
        "passed": report.passed,
        "tuples_checked": report.tuples_checked,
        "violations": [
            {
                "identity": v.identity,
                "args": list(v.args),
                "residual": [[k, format_rational(val)]
                             for k, val in sorted(v.residual.items())],
            }
            for v in report.violations
        ],
    }


def diagram_payload(report) -> dict[str, Any]:
    """The deterministic section of a diagram report (no timing)."""
    return {
        "nodes": {name: check_payload(node)
                  for name, node in sorted(report.nodes.items())},
        "edges": [[label, bool(ok)] for label, ok in report.edges],
        "paths_equal": report.paths_equal,
    }
