"""The eight public value types behave as frozen records, and importing the
command-line front end stays off ``dataclasses`` and ``inspect``."""
from __future__ import annotations

import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import homalg
from homalg import (
    BilinearForm,
    Bundle,
    CheckReport,
    DiagramReport,
    HomStructure,
    OperatorWitness,
    Representation,
    StructureClass,
    Violation,
    check,
    verify_diagram,
)
from homalg.fixtures import load_fixture

RECORD_TYPES = (HomStructure, Violation, CheckReport, Representation,
                OperatorWitness, BilinearForm, Bundle, DiagramReport)

#: field -> value stored when the argument is left out, for each type
DEFAULTS = {
    "HomStructure": {"basis": ("e0", "e1"), "meta": {}},
    "OperatorWitness": {"weight": Fraction(0), "rep": None},
    "Bundle": {"declared_class": None, "reps": (), "operators": (),
               "rep_indices": (), "forms": ()},
}

HASHABLE = {"OperatorWitness", "BilinearForm"}


@pytest.fixture(scope="module")
def records():
    bundle = load_fixture("premalcev_dim2")
    report = check(load_fixture("octonions_im").structure, StructureClass.HOM_LIE)
    assert not report.passed
    alt = load_fixture("octonions")
    built = {
        "HomStructure": bundle.structure,
        "Violation": report.violations[0],
        "CheckReport": report,
        "Representation": bundle.reps[0],
        "OperatorWitness": bundle.operators[0],
        "BilinearForm": bundle.forms[0],
        "Bundle": bundle,
        "DiagramReport": verify_diagram(alt.structure, *alt.operators),
    }
    assert built["OperatorWitness"].rep is None
    assert built["HomStructure"].meta == {}
    return built


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda c: c.__name__)
def test_record_semantics(cls, records):
    name = cls.__name__
    obj = records[name]
    assert type(obj) is cls
    fields = list(cls.__annotations__)
    values = tuple(getattr(obj, f) for f in fields)

    for attr in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
    with pytest.raises(AttributeError):
        delattr(obj, fields[0])
    assert getattr(obj, fields[0]) is values[0]

    params = list(inspect.signature(cls.__init__).parameters)[1:]
    assert params == fields
    positional = cls(*values)
    keyword = cls(**dict(zip(fields, values)))
    assert positional == keyword == obj
    assert not (obj != positional)
    assert obj != values and values != obj

    defaults = DEFAULTS.get(name, {})
    bare = cls(**{f: v for f, v in zip(fields, values) if f not in defaults})
    for field, expected in defaults.items():
        assert getattr(bare, field) == expected

    for clone in (copy.copy(obj), copy.deepcopy(obj),
                  pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls and clone == obj

    if name in HASHABLE:
        assert hash(obj) == hash(positional) == hash(copy.deepcopy(obj))
    else:
        with pytest.raises(TypeError):
            hash(obj)

    assert repr(obj).startswith(f"{name}({fields[0]}=")


def test_structures_never_share_meta(records):
    s = records["HomStructure"]
    a = HomStructure(s.dim, s.twist, s.products)
    b = HomStructure(s.dim, s.twist, s.products)
    assert a.meta == b.meta == {} and a.meta is not b.meta
    meta = {"construction": "x"}
    c = HomStructure(s.dim, s.twist, s.products, meta=meta)
    assert c.meta == meta and c.meta is not meta


def test_cli_import_path_stays_off_dataclasses():
    """``Tracer.install`` in ``bench/spans.py`` relies on ``import homalg``
    registering every submodule; the command line should not pay for
    ``dataclasses`` or the ``inspect`` module it imports."""
    src = Path(homalg.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import homalg\n"
        "package = set(sys.modules)\n"
        "import homalg.cli\n"
        "print(' '.join(sorted(package - before)))\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    package, loaded = (set(line.split()) for line in done.stdout.splitlines())
    assert {"homalg.bundle", "homalg.structures", "homalg.reps",
            "homalg.operators", "homalg.functors", "homalg.exact"} <= package
    assert "homalg.cli" in loaded
    assert not {"dataclasses", "inspect"} & loaded
