"""The import contract: ``import homalg`` registers every engine module and
runs none of them, ``import homalg.cli``, a cold command and an error exit
compile and run only the modules they use, and the public names and the
``--help`` texts are the same as when every module is loaded."""
from __future__ import annotations

import contextlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homalg
import homalg.cli as cli
from homalg import operators
from homalg.fixtures import fixture_path

SRC = Path(homalg.__file__).resolve().parents[1]
ENGINE = ("exact", "records", "structures", "reps", "operators", "functors", "bundle")

#: a ``-c`` driver: imports the module its one argument names if that is a
#: ``homalg`` module, else runs its arguments as ``python -m homalg.cli``
#: does, and writes the homalg module bodies that ran (each ``<module>``
#: frame of a homalg source file, as the profiler sees it) as the last
#: stderr line
DRIVER = """\
import importlib, runpy, sys
ran = []
def profile(frame, event, arg):
    name = frame.f_globals.get("__name__", "")
    if (event == "call" and frame.f_code.co_name == "<module>"
            and name.startswith("homalg") and frame.f_code.co_filename.endswith(".py")):
        ran.append(name)
sys.setprofile(profile)
try:
    if sys.argv[1].startswith("homalg"):
        importlib.import_module(sys.argv[1])
    else:
        runpy.run_module("homalg.cli", run_name="__main__", alter_sys=True)
finally:
    sys.setprofile(None)
    print("ran:", *ran, file=sys.stderr)
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with warnings as errors and no bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _in_process(argv: list[str]) -> tuple[object, str]:
    """The exit status (or SystemExit code) and stdout of ``cli.main(argv)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue()


def _ran(traced: subprocess.CompletedProcess) -> set[str]:
    """The homalg module bodies a run of :data:`DRIVER` reports."""
    return set(traced.stderr.splitlines()[-1].split()[1:])


@pytest.mark.parametrize("argv, runs", [
    (["fmt", "premalcev_dim2"], set()),
    (["check", "zero_dim2"], {"exact", "structures"}),
], ids=["fmt-premalcev_dim2", "check-zero_dim2"])
def test_cold_command_runs_only_the_modules_it_uses(argv, runs):
    """``premalcev_dim2`` carries reps, operators and a form, which ``fmt``
    parses and dumps with the record layer alone, compiling no kernel;
    ``zero_dim2`` carries no rep or operator, so its ``check`` needs only
    the kernel and the sweep."""
    argv = [argv[0], fixture_path(argv[1])]
    status, expected = _in_process(argv)
    cold = _python("-m", "homalg.cli", *argv)
    assert status == cold.returncode == 0 and cold.stdout == expected
    # no warning, so no module was imported twice: the elapsed line alone
    assert [line.split(":")[0] for line in cold.stderr.splitlines()] == ["# elapsed"]

    traced = _python("-c", DRIVER, *argv)
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == expected
    # homalg.cli is not listed: it runs once, as __main__
    assert _ran(traced) == {"homalg", "homalg.bundle", "homalg.records",
                            *(f"homalg.{name}" for name in runs)}


@pytest.mark.parametrize("argv, message", [
    (["fmt", None], "error: cannot read "),
    (["check", "table_dim4"], "error: the bundle declares no class; pass --class TAG"),
], ids=["fmt-missing-file", "check-table_dim4-without-class"])
def test_cold_error_exit_runs_no_kernel_or_engine_module(argv, message, tmp_path):
    """``main`` catches the record layer's two error bases, so an input
    error reads no exception class of an engine module and loads none."""
    path = str(tmp_path / "missing.json") if argv[1] is None else fixture_path(argv[1])
    argv = [argv[0], path]
    assert _in_process(argv) == (2, "")
    traced = _python("-c", DRIVER, *argv)
    assert (traced.returncode, traced.stdout) == (2, "")
    error, _ = traced.stderr.splitlines()
    assert error.startswith(message)
    assert _ran(traced) == {"homalg", "homalg.bundle", "homalg.records"}


def test_import_registers_every_engine_module_and_runs_none():
    done = _python("-c", DRIVER + "print(*sorted(m for m in sys.modules "
                   "if m.startswith('homalg')), file=sys.stderr)\n", "homalg")
    assert done.returncode == 0, done.stderr
    ran, registered = done.stderr.splitlines()
    assert ran.split() == ["ran:", "homalg"]
    assert registered.split() == sorted(["homalg", *(f"homalg.{m}" for m in ENGINE)])


def test_cli_import_runs_only_the_record_layer():
    """The parser and the error handling of ``cli`` read only names of the
    record layer and ``bundle``, so importing it compiles no kernel."""
    done = _python("-c", DRIVER, "homalg.cli")
    assert done.returncode == 0, done.stderr
    assert _ran(done) == {"homalg", "homalg.bundle", "homalg.records", "homalg.cli"}


def test_every_public_name_resolves_to_its_home_module():
    homes = {name: importlib.import_module(f"homalg.{module}")
             for name, module in homalg._HOME.items()}
    assert sorted(homes) == homalg.__all__
    listed = dir(homalg)
    star: dict = {}
    exec("from homalg import *", star)
    for name, home in homes.items():
        value = getattr(homalg, name)
        assert value is getattr(home, name), name
        assert name in listed and star[name] is value, name
        # a module that imports the name holds the same object
        for module in ENGINE:
            held = getattr(importlib.import_module(f"homalg.{module}"), name, value)
            assert held is value, (module, name)
    for module in ENGINE:
        assert getattr(homalg, module) is sys.modules[f"homalg.{module}"]
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        homalg.nonesuch


def test_recipe_names_are_those_of_the_operator_tables():
    """The record layer names the recipes that ``operators`` writes as
    formulas, so ``--recipe`` needs no law to list them."""
    induce = [f"{family}-{form}" for family in operators._FAMILIES for form in ("oop", "rb")]
    assert homalg.INDUCE_RECIPES == tuple(sorted(induce + [operators._COMPATIBLE]))
    assert homalg.PAIR_RECIPES == tuple(sorted(operators._PAIRS))
    assert cli.RECIPES[-len(homalg.INDUCE_RECIPES + homalg.PAIR_RECIPES):] == (
        homalg.INDUCE_RECIPES + homalg.PAIR_RECIPES)


@pytest.mark.parametrize("command", ["", "check", "construct", "diagram", "fmt"])
def test_help_is_the_same_cold_and_with_every_module_loaded(command):
    argv = [command, "--help"] if command else ["--help"]
    status, expected = _in_process(argv)
    assert status == 0 and expected.startswith("usage: homalg")
    cold = _python("-m", "homalg.cli", *argv)
    assert (cold.returncode, cold.stdout, cold.stderr) == (0, expected, "")
    if command == "construct":     # argparse wraps the list at spaces and hyphens
        assert "oneof:" + ",".join(cli.RECIPES) in "".join(expected.split())
