"""Command-line front end: batch-check bundles, run constructions, verify the
closing diagram, and canonicalize files.

Exit codes: 0 all checks pass; 1 the input is well-formed but an identity or
math precondition fails; 2 the input is malformed (schema, unknown
names/roles, bad indices).
"""
from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Any, Sequence

from . import functors, operators, reps, structures
from .bundle import (
    Bundle,
    BundleError,
    check_payload,
    diagram_payload,
    dumps_bundle,
    dumps_json,
    load_bundle,
)
from .records import (
    INDUCE_RECIPES,
    PAIR_RECIPES,
    HomStructure,
    InputError,
    MathError,
    ProductRole,
    StructureClass,
    UnknownKind,
)

_CLASSES = {cls.value: cls for cls in StructureClass}

#: construct recipes that take a single structure and nothing else
_PLAIN_RECIPES = ("commutator", "horizontal", "vertical", "transpose")

RECIPES: tuple[str, ...] = (
    _PLAIN_RECIPES
    + ("yau-twist", "semidirect", "dual-rep", "hessian-dendrify")
    + INDUCE_RECIPES
    + PAIR_RECIPES
)

#: class the output of each recipe is built to satisfy, an operator recipe
#: named without its "-oop" or "-rb" form (absent: the input's)
_RECIPE_TARGET_CLASS: dict[str, StructureClass] = {
    "commutator": StructureClass.HOM_MALCEV,
    "horizontal": StructureClass.HOM_PRE_MALCEV,
    "vertical": StructureClass.HOM_PRE_MALCEV,
    "transpose": StructureClass.HOM_M_DENDRIFORM,
    "hessian-dendrify": StructureClass.HOM_M_DENDRIFORM,
    "malcev-to-premalcev": StructureClass.HOM_PRE_MALCEV,
    "premalcev-to-mdendriform": StructureClass.HOM_M_DENDRIFORM,
    "premalcev-compatible-dendriform": StructureClass.HOM_M_DENDRIFORM,
    "alternative-to-prealt": StructureClass.HOM_PRE_ALTERNATIVE,
    "prealt-to-quadri": StructureClass.HOM_ALT_QUADRI,
    "malcev-pair-to-mdendriform": StructureClass.HOM_M_DENDRIFORM,
    "alternative-pair-to-quadri": StructureClass.HOM_ALT_QUADRI,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs more than a small command."""
    parser = argparse.ArgumentParser(
        prog="homalg",
        description="Exact-arithmetic checks and constructions for twisted "
                    "algebra bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="run every applicable identity check in a bundle")
    p_check.add_argument("bundle", help="path to a bundle file")
    p_check.add_argument("--class", dest="cls", metavar="TAG", default=None,
                         help="structure class to check (overrides the "
                              "bundle's declared class)")
    p_check.add_argument("--multiplicativity", action="store_true",
                         help="also require the twist to be a product morphism")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("-o", "--output", default=None,
                         help="write the report here instead of stdout")

    p_construct = sub.add_parser(
        "construct", help="run a construction recipe and write the result")
    p_construct.add_argument("bundle", help="path to a bundle file")
    p_construct.add_argument("--recipe", required=True, metavar="LABEL",
                             help="one of: " + ", ".join(RECIPES))
    p_construct.add_argument("--operator", type=int, default=0, metavar="I",
                             help="index into the bundle's operators (default 0)")
    p_construct.add_argument("--operator2", type=int, default=1, metavar="J",
                             help="second operator index for pair recipes "
                                  "(default 1)")
    p_construct.add_argument("--rep", type=int, default=0, metavar="K",
                             help="index into the bundle's reps (default 0)")
    p_construct.add_argument("--form", type=int, default=0, metavar="F",
                             help="index into the bundle's forms (default 0)")
    p_construct.add_argument("-o", "--output", default=None,
                             help="write the constructed bundle here instead "
                                  "of stdout")

    p_diagram = sub.add_parser(
        "diagram", help="verify the commuting construction diagram")
    p_diagram.add_argument("bundle", help="path to a bundle file")
    p_diagram.add_argument("--operator", type=int, default=0, metavar="I",
                           help="first Rota-Baxter operator index (default 0)")
    p_diagram.add_argument("--operator2", type=int, default=1, metavar="J",
                           help="second Rota-Baxter operator index (default 1)")
    p_diagram.add_argument("--format", choices=("text", "json"), default="text")
    p_diagram.add_argument("-o", "--output", default=None,
                           help="write the report here instead of stdout")

    p_fmt = sub.add_parser("fmt", help="rewrite a bundle in canonical form")
    p_fmt.add_argument("bundle", help="path to a bundle file")
    p_fmt.add_argument("-o", "--output", default=None,
                       help="write the canonical bundle here instead of stdout")

    return parser


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise BundleError(f"cannot write {output}: {exc}") from exc


def _pick(items: Sequence, index: int, flag: str):
    if not 0 <= index < len(items):
        raise BundleError(
            f"--{flag} {index}: bundle carries {len(items)} "
            f"{'entry' if len(items) == 1 else 'entries'} of that kind"
        )
    return items[index]


def _report_text(command: Sequence[str], entries: list[dict[str, Any]],
                 notes: list[str], exit_status: int) -> str:
    lines = ["command: " + " ".join(command)]
    for entry in entries:
        if "nodes" in entry:
            lines.extend(_diagram_text(entry))
        else:
            lines.extend(_check_text(entry))
    lines.extend(notes)
    lines.append(f"exit: {exit_status}")
    return "\n".join(lines) + "\n"


def _check_text(entry: dict[str, Any], limit: int = 10) -> list[str]:
    verdict = "PASS" if entry["passed"] else "FAIL"
    lines = [
        f"[{entry['subject']}] {entry['target']}: {verdict} "
        f"(tuples={entry['tuples_checked']}, violations={len(entry['violations'])})"
    ]
    for v in entry["violations"][:limit]:
        residual = " ".join(f"{k}={val}" for k, val in v["residual"])
        lines.append(f"  {v['identity']} {tuple(v['args'])}: {residual}")
    hidden = len(entry["violations"]) - limit
    if hidden > 0:
        lines.append(f"  ... and {hidden} more")
    return lines


def _diagram_text(entry: dict[str, Any]) -> list[str]:
    lines = [f"[{entry['subject']}] paths_equal: "
             f"{'true' if entry['paths_equal'] else 'false'}"]
    for name, node in entry["nodes"].items():
        verdict = "PASS" if node["passed"] else "FAIL"
        lines.append(f"  node {name}: {node['target']}: {verdict} "
                     f"(tuples={node['tuples_checked']}, "
                     f"violations={len(node['violations'])})")
    for label, ok in entry["edges"]:
        lines.append(f"  edge {label}: {'true' if ok else 'false'}")
    return lines


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args, command: Sequence[str]) -> int:
    bundle = load_bundle(args.bundle)
    structure = bundle.structure
    if args.cls is not None:
        cls = _CLASSES.get(args.cls)
        if cls is None:
            raise UnknownKind(f"--class {args.cls!r}: expected one of "
                              f"{sorted(_CLASSES)}")
    else:
        cls = bundle.declared_class
        if cls is None:
            raise BundleError("the bundle declares no class; pass --class TAG")

    entries: list[dict[str, Any]] = []
    notes: list[str] = []

    report = structures.check(structure, cls, multiplicativity=args.multiplicativity)
    entries.append({"subject": "structure", **check_payload(report)})

    for n, rep in enumerate(bundle.reps):
        rep_cls = reps._rep_class(rep)
        # pre-Malcev rep axioms are stated over a dot product
        if rep_cls is None or (rep_cls is StructureClass.HOM_PRE_MALCEV
                               and ProductRole.DOT not in structure.products):
            notes.append(
                f"note: reps[{n}] skipped (roles "
                f"{sorted(r.value for r in rep.roles())} have no rep axioms "
                f"on this structure)"
            )
            continue
        rep_report = reps.check_rep(rep, rep_cls)
        entries.append({"subject": f"reps[{n}]", **check_payload(rep_report)})

    for n, witness in enumerate(bundle.operators):
        op_report = operators.check_operator(structure, witness)
        entries.append({"subject": f"operators[{n}]", **check_payload(op_report)})

    for n, form in enumerate(bundle.forms):
        form_report = operators.check_hessian(structure, form)
        entries.append({"subject": f"forms[{n}]", **check_payload(form_report)})

    exit_status = 0 if all(e["passed"] for e in entries) else 1
    if args.format == "json":
        _emit(dumps_json({"command": command, "checks": entries,
                          "exit_status": exit_status}), args.output)
    else:
        _emit(_report_text(command, entries, notes, exit_status), args.output)
    return exit_status


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def _cmd_construct(args, command: Sequence[str]) -> int:
    label = args.recipe
    if label not in RECIPES:
        raise UnknownKind(f"--recipe {label!r}: expected one of {list(RECIPES)}")
    bundle = load_bundle(args.bundle)
    structure = bundle.structure
    provenance = {"recipe": label}

    def pick(items: Sequence, flag: str):
        """The entry ``items[--flag]``, its index recorded in the provenance."""
        provenance[flag] = str(getattr(args, flag))
        return _pick(items, getattr(args, flag), flag)

    declared = _RECIPE_TARGET_CLASS.get(label.removesuffix("-oop").removesuffix("-rb"),
                                        bundle.declared_class)
    result, reps_out = structure, ()
    if label in _PLAIN_RECIPES:
        result = getattr(functors, label)(structure)
    elif label == "yau-twist":
        result = functors.yau_twist(structure, pick(bundle.operators, "operator").matrix)
    elif label == "semidirect":
        rep = pick(bundle.reps, "rep")
        declared = reps._rep_class(rep)
        result = reps.semidirect(structure, rep)
    elif label == "dual-rep":
        reps_out = (reps._dual_rep(pick(bundle.reps, "rep")),)
    elif label == "hessian-dendrify":
        result = operators.hessian_dendrify(structure, pick(bundle.forms, "form"))
    elif label in INDUCE_RECIPES:
        result = operators.induce(structure, pick(bundle.operators, "operator"), label)
    else:
        result = operators.induce_pair(structure, pick(bundle.operators, "operator"),
                                       pick(bundle.operators, "operator2"), label)

    out = HomStructure(result.dim, result.twist, result.products, result.basis,
                       {**result.meta, **provenance})
    _emit(dumps_bundle(Bundle(out, declared, reps_out)), args.output)
    return 0


# ---------------------------------------------------------------------------
# diagram
# ---------------------------------------------------------------------------

def _cmd_diagram(args, command: Sequence[str]) -> int:
    bundle = load_bundle(args.bundle)
    first = _pick(bundle.operators, args.operator, "operator")
    second = _pick(bundle.operators, args.operator2, "operator2")
    report = functors.verify_diagram(bundle.structure, first, second)
    entry = {"subject": "diagram", **diagram_payload(report)}
    nodes_pass = all(node["passed"] for node in entry["nodes"].values())
    exit_status = 0 if (nodes_pass and report.paths_equal) else 1
    if args.format == "json":
        _emit(dumps_json({"command": command, "checks": [entry],
                          "exit_status": exit_status}), args.output)
    else:
        _emit(_report_text(command, [entry], [], exit_status), args.output)
    return exit_status


# ---------------------------------------------------------------------------
# fmt
# ---------------------------------------------------------------------------

def _cmd_fmt(args, command: Sequence[str]) -> int:
    bundle = load_bundle(args.bundle)
    _emit(dumps_bundle(bundle), args.output)
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "construct": _cmd_construct,
    "diagram": _cmd_diagram,
    "fmt": _cmd_fmt,
}


def main(argv: Sequence[str] | None = None) -> int:
    command = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(command)
    started = time.perf_counter()
    try:
        status = _COMMANDS[args.command](args, command)
    except (InputError, MathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1
    print(f"# elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
