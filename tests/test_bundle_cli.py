"""Bundle file format (round trips, loader strictness, canonical form) and
the command-line front end (check / construct / diagram / fmt)."""
from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import support
from homalg import (
    BilinearForm,
    Bundle,
    BundleError,
    KIND_O_OPERATOR,
    KIND_ROTA_BAXTER,
    OperatorWitness,
    ProductRole,
    StructureClass,
    adjoint_rep,
    check,
    induce,
    make_structure,
    regular_alternative_rep,
    verify_diagram,
)
from homalg.fixtures import (
    fixture_names,
    fixture_path,
    fixture_text,
    load_fixture,
)
from homalg import bundle as bundle_module
from homalg.bundle import (
    bundle_payload,
    check_payload,
    diagram_payload,
    dumps_bundle,
    dumps_json,
    format_rational,
    loads_bundle,
    parse_rational,
    save_bundle,
)
from homalg.cli import RECIPES, main

F = Fraction
R = ProductRole
C = StructureClass

EXPECTED_FIXTURES = (
    "assoc_t2",
    "assoc_trunc_poly",
    "lie_dim2",
    "lie_dim2_yau",
    "mdendri_sl2",
    "octonions",
    "octonions_im",
    "prealt_t2",
    "premalcev_dim2",
    "premalcev_dim2_yau",
    "premalcev_sl2",
    "quadri_trunc_poly",
    "sl2_malcev",
    "table_dim4",
    "table_dim5",
    "zero_dim2",
)


def minimal_payload() -> dict:
    """A small well-formed bundle mapping used as a base for mutations."""
    return {
        "schema_version": 1,
        "class": "hom-lie",
        "dim": 2,
        "basis": ["e0", "e1"],
        "twist": ["1/1", "0/1", "0/1", "1/1"],
        "products": {"bracket": [[0, 1, 1, "1/1"], [1, 0, 1, "-1/1"]]},
    }


def loads_payload(payload: dict) -> Bundle:
    return loads_bundle(json.dumps(payload))


def run_cli(argv, capsys):
    """Invoke the CLI in-process; return (exit_status, stdout, stderr)."""
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# ---------------------------------------------------------------------------
# rational strings
# ---------------------------------------------------------------------------

def test_format_rational_canonical():
    assert format_rational(F(1, 3)) == "1/3"
    assert format_rational(F(2)) == "2/1"
    assert format_rational(F(-1, 2)) == "-1/2"
    assert format_rational(F(2, -4)) == "-1/2"
    assert format_rational(F(0)) == "0/1"
    assert format_rational(3) == "3/1"


def test_parse_rational_values():
    assert parse_rational("1/3", "here") == F(1, 3)
    assert parse_rational("2/6", "here") == F(1, 3)
    assert parse_rational("-4/2", "here") == F(-2)
    assert parse_rational("7", "here") == F(7)


def test_parse_rational_errors():
    with pytest.raises(BundleError, match="here: zero denominator in '1/0'"):
        parse_rational("1/0", "here")
    with pytest.raises(BundleError,
                       match="expected a rational string 'p/q', got 1"):
        parse_rational(1, "here")
    with pytest.raises(BundleError):
        parse_rational("1.5", "here")
    with pytest.raises(BundleError):
        parse_rational("a/b", "here")


def test_parse_rational_oversized_names_the_field():
    big = "9" * 5000
    for text in (big, f"-{big}/7", f"7/{big}"):
        with pytest.raises(BundleError, match=r"^here: more than \d+ digits"):
            parse_rational(text, "here")


# ---------------------------------------------------------------------------
# packaged fixtures and round trips
# ---------------------------------------------------------------------------

def test_fixture_inventory():
    assert fixture_names() == EXPECTED_FIXTURES


def test_unknown_fixture_name():
    with pytest.raises(BundleError, match="unknown fixture"):
        fixture_path("does_not_exist")


@pytest.mark.parametrize("name", EXPECTED_FIXTURES)
def test_fixture_round_trips_byte_identical(name):
    text = fixture_text(name)
    assert dumps_bundle(loads_bundle(text)) == text


def test_fixture_declared_classes():
    declared = {name: load_fixture(name).declared_class
                for name in EXPECTED_FIXTURES}
    assert declared == {
        "assoc_t2": C.HOM_ASSOCIATIVE,
        "assoc_trunc_poly": C.HOM_ASSOCIATIVE,
        "lie_dim2": C.HOM_LIE,
        "lie_dim2_yau": C.HOM_LIE,
        "mdendri_sl2": C.HOM_M_DENDRIFORM,
        "octonions": C.HOM_ALTERNATIVE,
        "octonions_im": C.HOM_MALCEV,
        "prealt_t2": C.HOM_PRE_ALTERNATIVE,
        "premalcev_dim2": C.HOM_PRE_MALCEV,
        "premalcev_dim2_yau": C.HOM_PRE_MALCEV,
        "premalcev_sl2": C.HOM_PRE_MALCEV,
        "quadri_trunc_poly": C.HOM_ALT_QUADRI,
        "sl2_malcev": C.HOM_MALCEV,
        "table_dim4": None,
        "table_dim5": None,
        "zero_dim2": C.HOM_MALCEV,
    }


def test_in_memory_round_trip_full_bundle():
    """A bundle carrying a rep, both operator kinds, and a form survives
    dumps -> loads with payload equality, and dumps deterministically."""
    s = support.lie2()
    rep = adjoint_rep(s)
    rb = OperatorWitness(kind=KIND_ROTA_BAXTER,
                         matrix=support.dense(2, (1, 0, 1)))
    oop = OperatorWitness(kind=KIND_O_OPERATOR,
                          matrix=support.dense(2, (1, 0, 1)), rep=rep)
    form = BilinearForm(matrix=((F(0), F(1)), (F(1), F(0))))
    bundle = Bundle(structure=s, declared_class=C.HOM_LIE, reps=(rep,),
                    operators=(rb, oop), rep_indices=(None, 0), forms=(form,))
    text = dumps_bundle(bundle)
    loaded = loads_bundle(text)
    assert bundle_payload(loaded) == bundle_payload(bundle)
    assert dumps_bundle(loaded) == text
    assert loaded.structure == s
    assert loaded.reps[0].actions == rep.actions
    assert loaded.rep_indices == (None, 0)
    assert loaded.operators[1].rep is loaded.reps[0]
    assert loaded.forms[0].matrix == form.matrix


def test_bundle_rep_index_validation():
    s = support.lie2()
    rep = adjoint_rep(s)
    oop = OperatorWitness(kind=KIND_O_OPERATOR,
                          matrix=support.eye(2), rep=rep)
    with pytest.raises(BundleError, match="rep_index"):
        Bundle(structure=s, reps=(), operators=(oop,), rep_indices=(0,))
    rb = OperatorWitness(kind=KIND_ROTA_BAXTER, matrix=support.eye(2))
    with pytest.raises(BundleError, match="only meaningful"):
        Bundle(structure=s, reps=(rep,), operators=(rb,), rep_indices=(0,))


# ---------------------------------------------------------------------------
# loader strictness
# ---------------------------------------------------------------------------

def test_loader_rejects_unknown_top_key():
    payload = minimal_payload()
    payload["bogus"] = 1
    with pytest.raises(BundleError,
                       match=r"top level: unknown keys \['bogus'\]"):
        loads_payload(payload)


def test_loader_rejects_missing_key():
    payload = minimal_payload()
    del payload["dim"]
    with pytest.raises(BundleError, match="missing key 'dim'"):
        loads_payload(payload)


def test_loader_rejects_wrong_schema_version():
    payload = minimal_payload()
    payload["schema_version"] = 2
    with pytest.raises(BundleError,
                       match="schema_version: expected 1, got 2"):
        loads_payload(payload)


def test_loader_rejects_not_json():
    with pytest.raises(BundleError, match="not valid JSON"):
        loads_bundle("{not json")
    with pytest.raises(BundleError, match="top level: expected an object"):
        loads_bundle("[1, 2]")


def test_loader_rejects_bad_basis():
    payload = minimal_payload()
    payload["basis"] = ["e0"]
    with pytest.raises(BundleError,
                       match="basis: expected a list of 2 strings"):
        loads_payload(payload)


def test_loader_rejects_duplicate_product_entry():
    payload = minimal_payload()
    payload["products"]["bracket"].append([0, 1, 1, "2/1"])
    with pytest.raises(
            BundleError,
            match=r"products.bracket\[2\]: duplicate entry for \(0, 1, 1\)"):
        loads_payload(payload)


def test_loader_rejects_out_of_range_index():
    payload = minimal_payload()
    payload["products"]["bracket"][0] = [5, 1, 1, "1/1"]
    with pytest.raises(
            BundleError,
            match=r"products.bracket\[0\]: index 5 out of range \[0, 2\)"):
        loads_payload(payload)


def test_loader_rejects_bool_index():
    payload = minimal_payload()
    payload["products"]["bracket"][0] = [True, 1, 1, "1/1"]
    with pytest.raises(BundleError,
                       match="expected an integer index, got True"):
        loads_payload(payload)


def test_loader_rejects_zero_denominator():
    payload = minimal_payload()
    payload["twist"][0] = "1/0"
    with pytest.raises(BundleError,
                       match=r"twist\[0\]: zero denominator in '1/0'"):
        loads_payload(payload)


def test_loader_rejects_non_string_rational():
    payload = minimal_payload()
    payload["twist"][0] = 1
    with pytest.raises(
            BundleError,
            match=r"twist\[0\]: expected a rational string 'p/q', got 1"):
        loads_payload(payload)


def test_loader_rejects_rep_index_on_rota_baxter():
    payload = minimal_payload()
    payload["operators"] = [{
        "kind": "rota-baxter",
        "weight": "0/1",
        "rep_index": 0,
        "matrix": ["0/1", "0/1", "0/1", "0/1"],
    }]
    with pytest.raises(BundleError,
                       match="'rota-baxter' witnesses carry no rep_index"):
        loads_payload(payload)


def test_loader_rejects_o_operator_without_rep_index():
    payload = minimal_payload()
    payload["reps"] = [{
        "module_dim": 2,
        "module_twist": ["1/1", "0/1", "0/1", "1/1"],
        "actions": {"rho": [[0, 1, 1, "1/1"], [1, 1, 0, "-1/1"]]},
    }]
    payload["operators"] = [{
        "kind": "o-operator",
        "matrix": ["0/1", "0/1", "0/1", "0/1"],
    }]
    with pytest.raises(BundleError,
                       match=r"operators\[0\]: missing key 'rep_index'"):
        loads_payload(payload)


def test_loader_rejects_weight_on_o_operator():
    payload = minimal_payload()
    payload["reps"] = [{
        "module_dim": 2,
        "module_twist": ["1/1", "0/1", "0/1", "1/1"],
        "actions": {"rho": [[0, 1, 1, "1/1"], [1, 1, 0, "-1/1"]]},
    }]
    payload["operators"] = [{
        "kind": "o-operator",
        "rep_index": 0,
        "weight": "0/1",
        "matrix": ["0/1", "0/1", "0/1", "0/1"],
    }]
    with pytest.raises(BundleError,
                       match="'o-operator' witnesses carry no weight"):
        loads_payload(payload)


def test_loader_rejects_out_of_range_rep_index():
    payload = minimal_payload()
    payload["reps"] = [{
        "module_dim": 2,
        "module_twist": ["1/1", "0/1", "0/1", "1/1"],
        "actions": {"rho": [[0, 1, 1, "1/1"], [1, 1, 0, "-1/1"]]},
    }]
    payload["operators"] = [{
        "kind": "o-operator",
        "rep_index": 5,
        "matrix": ["0/1", "0/1", "0/1", "0/1"],
    }]
    with pytest.raises(
            BundleError,
            match=r"operators\[0\].rep_index: index 5 out of range \[0, 1\)"):
        loads_payload(payload)


def test_loader_rejects_unknown_kind_and_role():
    payload = minimal_payload()
    payload["operators"] = [{"kind": "bogus",
                             "matrix": ["0/1", "0/1", "0/1", "0/1"]}]
    with pytest.raises(BundleError):
        loads_payload(payload)
    payload = minimal_payload()
    payload["products"] = {"bogus": []}
    with pytest.raises(BundleError):
        loads_payload(payload)


def test_loader_accepts_non_canonical_and_dump_canonicalizes():
    payload = minimal_payload()
    payload["products"]["bracket"] = [[1, 0, 1, "-2/2"], [0, 1, 1, "3/3"]]
    payload["twist"] = ["2/2", "0/1", "0/1", "1/1"]
    bundle = loads_payload(payload)
    text = dumps_bundle(bundle)
    assert '"-1/1"' in text and '"-2/2"' not in text
    assert text.index('[\n        0,\n        1,') < \
        text.index('[\n        1,\n        0,')
    assert dumps_bundle(loads_bundle(text)) == text
    assert bundle.structure == support.lie2()


def premalcev_dim2_payload() -> dict:
    """premalcev_dim2 as a mapping: a product, a rep, two operators and a form."""
    return json.loads(fixture_text("premalcev_dim2"))


@pytest.mark.parametrize("path, bad, message", [
    (("products", "dot"), [[0, 0, 1, "-1/1"], [1, 1, 0, "x"]],
     "products.dot[1]: expected a rational string 'p/q', got 'x'"),
    (("products", "dot"), [[0, 0, 1, "-1/1"], [1, 2, 0, "1/1"]],
     "products.dot[1]: index 2 out of range [0, 2)"),
    (("products", "dot"), [[0, 0, 1, "-1/1"], [0, 0, 1, "-1/1"]],
     "products.dot[1]: duplicate entry for (0, 0, 1)"),
    (("products", "dot"), [[0, 0, 1, "-1/1"], [0, 0, 1]],
     "products.dot[1]: expected [i, j, k, 'p/q'], got [0, 0, 1]"),
    (("reps", 0, "actions", "right"), [[0, 1, 0, "-1/1"], [1, 0, 0, "1/0"]],
     "reps[0].actions.right[1]: zero denominator in '1/0'"),
    (("reps", 0, "actions", "left"), [[0, 1, 0, "-1/1"], [0, 1, 0, "x"]],
     "reps[0].actions.left[1]: duplicate entry for (0, 1, 0)"),
    (("reps", 0, "actions", "left"), [[0, 1, 0, "-1/1"], [1, 1, True, "1/1"]],
     "reps[0].actions.left[1]: expected an integer index, got True"),
    (("operators", 0, "matrix"), ["0/1", "0/1", "1/1", 2],
     "operators[0].matrix[3]: expected a rational string 'p/q', got 2"),
    (("operators", 1, "matrix"), ["0/1", "0/1", "1/1", "1.5"],
     "operators[1].matrix[3]: expected a rational string 'p/q', got '1.5'"),
    (("forms", 0), ["0/1", "1/0", "1/1", "0/1"],
     "forms[0][1]: zero denominator in '1/0'"),
])
def test_loader_names_the_first_bad_entry(path, bad, message):
    """A bad entry after good ones is named by its field and its index, in
    the same words for every kind of entry list."""
    payload = premalcev_dim2_payload()
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    with pytest.raises(BundleError) as err:
        loads_payload(payload)
    assert str(err.value) == message


def test_loader_reports_a_repeated_bad_rational_at_its_first_place():
    payload = premalcev_dim2_payload()
    payload["twist"] = ["1/1", "1/0", "0/1", "1/0"]
    payload["forms"] = [["1/0", "1/1", "1/1", "0/1"]]
    with pytest.raises(BundleError) as err:
        loads_payload(payload)
    assert str(err.value) == "twist[1]: zero denominator in '1/0'"
    # a string that failed once fails wherever it appears again
    payload["twist"] = ["1/1", "0/1", "0/1", "1/1"]
    payload["products"]["dot"] = [[0, 0, 1, "x"], [1, 1, 0, "x"]]
    with pytest.raises(BundleError) as err:
        loads_payload(payload)
    assert str(err.value) == "products.dot[0]: expected a rational string 'p/q', got 'x'"


def test_loader_reads_non_canonical_rationals_as_their_values():
    payload = premalcev_dim2_payload()
    payload["twist"] = ["2/4", "-0/5", "+3", "4/-8"]
    payload["products"]["dot"] = [[0, 0, 1, "2/4"], [1, 0, 1, "-0/5"], [1, 1, 0, "+3"]]
    payload["forms"] = [["2/4", "+3", "+3", "-0/5"]]
    bundle = loads_payload(payload)
    s = bundle.structure
    assert s.twist == ((F(1, 2), F(0)), (F(3), F(-1, 2)))
    assert all(type(v) is F for row in s.twist for v in row)
    assert s.products[R.DOT] == {(0, 0): {1: F(1, 2)}, (1, 1): {0: F(3)}}
    assert bundle.forms[0].matrix == ((F(1, 2), F(3)), (F(3), F(0)))
    assert bundle.operators[0].matrix == ((F(0), F(0)), (F(1), F(0)))


def test_loader_reads_first_seen_rationals_without_checking_again(monkeypatch):
    """A valid bundle whose entries are all distinct rationals is read on the
    loader's fast path alone: no entry is checked again index by index."""
    calls = []
    require_index = bundle_module._require_index
    monkeypatch.setattr(bundle_module, "_require_index",
                        lambda *args: calls.append(args) or require_index(*args))
    star = {(i, j): {k: F(1 + i + 3 * j + 9 * k, 7) for k in range(3)}
            for i in range(3) for j in range(3)}
    s = make_structure(3, products={R.STAR: star})
    assert loads_bundle(dumps_bundle(Bundle(structure=s))).structure == s
    assert calls == []


JSON_LEAVES = (st.none() | st.booleans() | st.text()
               | st.integers(min_value=-10 ** 60, max_value=10 ** 60))
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(JSON_PAYLOADS)
@example({"k\u00e9y\n": ["\x00\x1f\"\\/\u2028\U0001f600", -2 ** 200, 0, True, False, None]})
@example([[], {}, [[]], {"": {}}, [{}, []], {"a": {"b": []}}])
@example("")
def test_dumps_json_is_json_dumps_indented(payload):
    """Every payload of dicts, lists, strings, ints, bools and None is
    written byte for byte as ``json.dumps`` indents it, escaped to ASCII."""
    assert dumps_json(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("payload", [
    1.5, [0, 2.0], {"a": {"b": float("nan")}}, {"a": [object()]}, {1: "x"}, F(1, 2),
], ids=["float", "float-in-list", "nan-in-dict", "object", "int-key", "fraction"])
def test_dumps_json_refuses_other_values(payload):
    with pytest.raises(TypeError):
        dumps_json(payload)


# ---------------------------------------------------------------------------
# deterministic report payloads
# ---------------------------------------------------------------------------

def test_check_payload_shape_passing():
    payload = check_payload(check(support.lie2(), C.HOM_LIE))
    assert payload == {"target": "hom-lie", "passed": True,
                       "tuples_checked": 12, "violations": []}
    assert list(payload) == ["target", "passed", "tuples_checked",
                             "violations"]


def test_check_payload_shape_failing():
    bad = make_structure(2, products={R.BRACKET: support.tensor((0, 1, 1, 1))})
    payload = check_payload(check(bad, C.HOM_LIE))
    assert payload["passed"] is False
    first = payload["violations"][0]
    assert list(first) == ["identity", "args", "residual"]
    assert first["identity"] == "SKEW"
    assert isinstance(first["args"], list)
    for coord, value in first["residual"]:
        assert isinstance(coord, int)
        assert parse_rational(value, "residual") != 0
    coords = [coord for coord, _ in first["residual"]]
    assert coords == sorted(coords)
    assert json.loads(json.dumps(payload)) == payload


def test_diagram_payload_shape():
    t2 = support.t2()
    r1, r2 = support.t2_rb_ops()
    payload = diagram_payload(verify_diagram(t2, r1, r2))
    assert list(payload) == ["nodes", "edges", "paths_equal"]
    names = list(payload["nodes"])
    assert names == sorted(names)
    assert names == ["alternative", "m-dendriform", "malcev",
                     "pre-alternative", "pre-malcev", "quadri"]
    assert all(payload["nodes"][n]["passed"] for n in names)
    edge_map = dict(payload["edges"])
    assert len(payload["edges"]) == 9
    assert edge_map["m-dendriform-horizontal-equals-pre-malcev-node"] is False
    assert sum(1 for _, ok in payload["edges"] if ok) == 8
    assert payload["paths_equal"] is False
    assert json.loads(json.dumps(payload)) == payload


# ---------------------------------------------------------------------------
# CLI: check
# ---------------------------------------------------------------------------

def test_cli_check_pass_text(capsys):
    path = fixture_path("premalcev_dim2")
    status, out, err = run_cli(["check", path], capsys)
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == f"command: check {path}"
    assert f"[structure] hom-pre-malcev: PASS (tuples=16, violations=0)" \
        in lines
    assert "[reps[0]] rep:hom-pre-malcev: PASS (tuples=72, violations=0)" \
        in lines
    assert "[operators[0]] operator:rota-baxter: PASS (tuples=6, " \
        "violations=0)" in lines
    assert "[operators[1]] operator:o-operator: PASS (tuples=6, " \
        "violations=0)" in lines
    assert "[forms[0]] hessian: PASS (tuples=14, violations=0)" in lines
    assert lines[-1] == "exit: 0"
    assert err.startswith("# elapsed: ")
    assert err.strip().endswith("s")


def test_cli_check_fail_truncates_violations(capsys):
    path = fixture_path("octonions")
    status, out, _ = run_cli(
        ["check", path, "--class", "hom-associative"], capsys)
    assert status == 1
    assert "[structure] hom-associative: FAIL (tuples=512, violations=168)" \
        in out
    violation_lines = [l for l in out.splitlines() if "ASSOC (" in l]
    assert len(violation_lines) == 10
    assert "  ... and 158 more" in out
    assert out.splitlines()[-1] == "exit: 1"


def test_cli_check_class_override_beats_declared(capsys):
    path = fixture_path("octonions")
    status, out, _ = run_cli(["check", path], capsys)
    assert status == 0
    assert "hom-alternative: PASS" in out
    status, _, _ = run_cli(
        ["check", path, "--class", "hom-malcev-admissible"], capsys)
    assert status == 0
    # the plain Malcev class needs a stored bracket; requesting it on a
    # structure that only carries the full product is a usage error
    status, _, err = run_cli(["check", path, "--class", "hom-malcev"], capsys)
    assert status == 2
    assert err.startswith("error: ")


def test_cli_check_unknown_class(capsys):
    status, out, err = run_cli(
        ["check", fixture_path("octonions"), "--class", "bogus"], capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "bogus" in err


def test_cli_check_no_declared_class(capsys):
    status, _, err = run_cli(["check", fixture_path("table_dim4")], capsys)
    assert status == 2
    assert "declares no class; pass --class TAG" in err


def test_cli_check_missing_file(capsys):
    status, _, err = run_cli(["check", "/nonexistent/bundle.json"], capsys)
    assert status == 2
    assert err.startswith("error: cannot read")


@pytest.mark.parametrize("command", ["check", "fmt"])
def test_cli_non_utf8_file_is_an_input_error(command, tmp_path, capsys):
    path = tmp_path / "bundle.json"
    path.write_bytes(b"\xff\xfe")
    status, out, err = run_cli([command, str(path)], capsys)
    assert status == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: ")
    assert len(err.splitlines()) == 1


def test_cli_check_json_deterministic(capsys):
    path = fixture_path("premalcev_dim2")
    status1, out1, err1 = run_cli(["check", path, "--format", "json"], capsys)
    status2, out2, _ = run_cli(["check", path, "--format", "json"], capsys)
    assert status1 == status2 == 0
    assert out1 == out2
    assert "# elapsed" not in out1 and "# elapsed" in err1
    payload = json.loads(out1)
    assert list(payload) == ["command", "checks", "exit_status"]
    assert payload["command"] == ["check", path, "--format", "json"]
    assert payload["exit_status"] == 0
    subjects = [entry["subject"] for entry in payload["checks"]]
    assert subjects == ["structure", "reps[0]", "operators[0]",
                        "operators[1]", "forms[0]"]
    for entry in payload["checks"]:
        assert list(entry) == ["subject", "target", "passed",
                               "tuples_checked", "violations"]
        assert entry["passed"] is True


def test_cli_check_multiplicativity_flag(tmp_path, capsys):
    shear = ((F(1), F(1)), (F(0), F(1)))
    s = make_structure(
        2, twist=shear,
        products={R.BRACKET: support.tensor((0, 1, 1, 1), (1, 0, 1, -1))})
    path = tmp_path / "shear.json"
    save_bundle(Bundle(structure=s, declared_class=C.HOM_LIE), path)
    status, _, _ = run_cli(["check", str(path)], capsys)
    assert status == 0
    status, out, _ = run_cli(
        ["check", str(path), "--multiplicativity"], capsys)
    assert status == 1
    assert "MULT-bracket" in out


def test_cli_check_skips_rep_without_axioms(tmp_path, capsys):
    t2 = support.t2()
    rep = regular_alternative_rep(t2)
    path = tmp_path / "t2reg.json"
    save_bundle(Bundle(structure=t2, declared_class=C.HOM_ASSOCIATIVE,
                       reps=(rep,)), path)
    status, out, _ = run_cli(["check", str(path)], capsys)
    assert status == 0
    assert "note: reps[0] skipped" in out
    assert "no rep axioms" in out
    assert "[reps[0]]" not in out
    status, out, _ = run_cli(["check", str(path), "--format", "json"], capsys)
    assert status == 0
    subjects = [e["subject"] for e in json.loads(out)["checks"]]
    assert subjects == ["structure"]


def test_cli_check_output_file(tmp_path, capsys):
    path = fixture_path("lie_dim2")
    out_file = tmp_path / "report.json"
    status, out, _ = run_cli(
        ["check", path, "--format", "json", "-o", str(out_file)], capsys)
    assert status == 0
    assert out == ""
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert payload["exit_status"] == 0


@pytest.mark.parametrize("argv", [
    ["check", "lie_dim2", "--format", "json"],
    ["construct", "mdendri_sl2", "--recipe", "horizontal"],
    ["diagram", "octonions", "--format", "json"],
    ["fmt", "lie_dim2"],
], ids=lambda argv: argv[0])
def test_cli_output_into_missing_directory(argv, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "out.json"
    command = [argv[0], fixture_path(argv[1]), *argv[2:], "-o", str(target)]
    status, out, err = run_cli(command, capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("error: cannot write ")
    assert err.count("\n") == 1
    assert not target.parent.exists()


# ---------------------------------------------------------------------------
# CLI: construct
# ---------------------------------------------------------------------------

CONSTRUCT_CASES = [
    ("commutator", "octonions", [], C.HOM_MALCEV),
    ("horizontal", "mdendri_sl2", [], C.HOM_PRE_MALCEV),
    ("vertical", "mdendri_sl2", [], C.HOM_PRE_MALCEV),
    ("transpose", "mdendri_sl2", [], C.HOM_M_DENDRIFORM),
    ("yau-twist", "lie_dim2", ["--operator", "0"], C.HOM_LIE),
    ("semidirect", "lie_dim2", ["--rep", "0"], C.HOM_MALCEV),
    ("hessian-dendrify", "premalcev_dim2", ["--form", "0"],
     C.HOM_M_DENDRIFORM),
    ("malcev-to-premalcev-rb", "sl2_malcev", ["--operator", "0"],
     C.HOM_PRE_MALCEV),
    ("premalcev-to-mdendriform-rb", "premalcev_sl2", ["--operator", "0"],
     C.HOM_M_DENDRIFORM),
    ("premalcev-to-mdendriform-oop", "premalcev_dim2", ["--operator", "1"],
     C.HOM_M_DENDRIFORM),
    ("alternative-to-prealt-rb", "assoc_t2", ["--operator", "0"],
     C.HOM_PRE_ALTERNATIVE),
    ("malcev-pair-to-mdendriform", "sl2_malcev", [], C.HOM_M_DENDRIFORM),
    ("alternative-pair-to-quadri", "assoc_t2", [], C.HOM_ALT_QUADRI),
]


@pytest.mark.parametrize("recipe,fixture,extra,target",
                         CONSTRUCT_CASES,
                         ids=[case[0] + "-" + case[1]
                              for case in CONSTRUCT_CASES])
def test_cli_construct_then_check(recipe, fixture, extra, target,
                                  tmp_path, capsys):
    out_file = tmp_path / "out.json"
    argv = ["construct", fixture_path(fixture), "--recipe", recipe,
            *extra, "-o", str(out_file)]
    status, out, _ = run_cli(argv, capsys)
    assert status == 0
    assert out == ""
    built = loads_bundle(out_file.read_text(encoding="utf-8"))
    assert built.declared_class == target
    assert built.structure.meta["recipe"] == recipe
    for flag, value in zip(extra[::2], extra[1::2]):
        assert built.structure.meta[flag.lstrip("-")] == value
    status, _, _ = run_cli(["check", str(out_file)], capsys)
    assert status == 0


def test_cli_construct_prealt_to_quadri(tmp_path, capsys):
    """The quadri induction needs a pre-alternative bundle carrying a
    Rota-Baxter witness; build one from the induced triangular structure."""
    t2 = support.t2()
    r1, r2 = support.t2_rb_ops()
    prealt = induce(t2, r1, "alternative-to-prealt-rb")
    src = tmp_path / "prealt.json"
    save_bundle(Bundle(structure=prealt,
                       declared_class=C.HOM_PRE_ALTERNATIVE,
                       operators=(r2,)), src)
    out_file = tmp_path / "quadri.json"
    status, _, _ = run_cli(
        ["construct", str(src), "--recipe", "prealt-to-quadri-rb",
         "-o", str(out_file)], capsys)
    assert status == 0
    built = loads_bundle(out_file.read_text(encoding="utf-8"))
    assert built.declared_class == C.HOM_ALT_QUADRI
    assert set(built.structure.products) == {R.NW, R.NE, R.SW, R.SE}
    status, _, _ = run_cli(["check", str(out_file)], capsys)
    assert status == 0


def test_cli_construct_dual_rep(tmp_path, capsys):
    out_file = tmp_path / "dual.json"
    status, out, _ = run_cli(
        ["construct", fixture_path("lie_dim2"), "--recipe", "dual-rep",
         "--rep", "0", "-o", str(out_file)], capsys)
    assert status == 0
    assert out == ""
    built = loads_bundle(out_file.read_text(encoding="utf-8"))
    assert built.declared_class == C.HOM_LIE
    assert len(built.reps) == 1
    assert built.structure.meta["recipe"] == "dual-rep"
    assert built.structure.meta["rep"] == "0"
    assert built.structure.products == \
        load_fixture("lie_dim2").structure.products
    status, out, _ = run_cli(["check", str(out_file)], capsys)
    assert status == 0
    assert "[reps[0]] rep:hom-malcev: PASS" in out


def test_cli_construct_to_stdout(capsys):
    status, out, _ = run_cli(
        ["construct", fixture_path("mdendri_sl2"), "--recipe", "horizontal"],
        capsys)
    assert status == 0
    built = loads_bundle(out)
    assert built.declared_class == C.HOM_PRE_MALCEV


def test_cli_construct_unknown_recipe(capsys):
    status, _, err = run_cli(
        ["construct", fixture_path("octonions"), "--recipe", "bogus"], capsys)
    assert status == 2
    assert "--recipe 'bogus'" in err
    assert "expected one of" in err
    for label in RECIPES:
        assert label in err


def test_cli_construct_bad_operator_index(capsys):
    status, _, err = run_cli(
        ["construct", fixture_path("sl2_malcev"), "--recipe",
         "malcev-to-premalcev-rb", "--operator", "7"], capsys)
    assert status == 2
    assert "--operator 7" in err
    assert "2 entries" in err


def test_cli_construct_role_mismatch(capsys):
    status, _, err = run_cli(
        ["construct", fixture_path("mdendri_sl2"), "--recipe", "commutator"],
        capsys)
    assert status == 2
    assert err.startswith("error: ")


def test_cli_construct_math_error_exit1(tmp_path, capsys):
    src = tmp_path / "badop.json"
    bad = OperatorWitness(kind=KIND_ROTA_BAXTER, matrix=support.eye(2))
    save_bundle(Bundle(structure=support.lie2(), declared_class=C.HOM_LIE,
                       operators=(bad,)), src)
    status, _, err = run_cli(
        ["construct", str(src), "--recipe", "malcev-to-premalcev-rb"], capsys)
    assert status == 1
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# CLI: diagram
# ---------------------------------------------------------------------------

def test_cli_diagram_octonions_pass(capsys):
    path = fixture_path("octonions")
    status, out, _ = run_cli(["diagram", path, "--format", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["exit_status"] == 0
    entry = payload["checks"][0]
    assert entry["subject"] == "diagram"
    assert entry["paths_equal"] is True
    assert len(entry["edges"]) == 9
    assert all(ok for _, ok in entry["edges"])
    assert all(node["passed"] for node in entry["nodes"].values())


def test_cli_diagram_honest_negative(capsys):
    status, out, _ = run_cli(["diagram", fixture_path("assoc_t2")], capsys)
    assert status == 1
    assert "[diagram] paths_equal: false" in out
    assert "edge m-dendriform-horizontal-equals-pre-malcev-node: false" in out
    assert out.count(": false") == 2
    assert "FAIL" not in out
    assert out.splitlines()[-1] == "exit: 1"


def test_cli_diagram_bad_second_index(capsys):
    status, _, err = run_cli(
        ["diagram", fixture_path("octonions"), "--operator2", "9"], capsys)
    assert status == 2
    assert "--operator2 9" in err


def test_cli_diagram_noncommuting_exit1(tmp_path, capsys):
    src = tmp_path / "noncomm.json"
    r1, _ = support.t2_rb_ops()
    other = OperatorWitness(kind=KIND_ROTA_BAXTER,
                            matrix=support.dense(3, (0, 1, -1)))
    save_bundle(Bundle(structure=support.t2(),
                       declared_class=C.HOM_ASSOCIATIVE,
                       operators=(r1, other)), src)
    status, _, err = run_cli(["diagram", str(src)], capsys)
    assert status == 1
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# CLI: fmt
# ---------------------------------------------------------------------------

def test_cli_fmt_canonical_fixture_unchanged(capsys):
    name = "premalcev_dim2"
    status, out, _ = run_cli(["fmt", fixture_path(name)], capsys)
    assert status == 0
    assert out == fixture_text(name)


def test_cli_fmt_normalizes_and_is_idempotent(tmp_path, capsys):
    payload = minimal_payload()
    payload["products"]["bracket"] = [[1, 0, 1, "-2/2"], [0, 1, 1, "2/2"]]
    payload["twist"] = ["3/3", "0/1", "0/2", "1/1"]
    src = tmp_path / "messy.json"
    src.write_text(json.dumps(payload), encoding="utf-8")
    first = tmp_path / "first.json"
    status, _, _ = run_cli(["fmt", str(src), "-o", str(first)], capsys)
    assert status == 0
    canonical = first.read_text(encoding="utf-8")
    assert canonical == dumps_bundle(
        Bundle(structure=support.lie2(), declared_class=C.HOM_LIE))
    status, out, _ = run_cli(["fmt", str(first)], capsys)
    assert status == 0
    assert out == canonical


def test_cli_fmt_parse_error(tmp_path, capsys):
    src = tmp_path / "broken.json"
    src.write_text("{broken", encoding="utf-8")
    status, _, err = run_cli(["fmt", str(src)], capsys)
    assert status == 2
    assert err.startswith("error: not valid JSON")


def test_cli_fmt_oversized_rational(tmp_path, capsys):
    payload = minimal_payload()
    payload["products"]["bracket"][1][3] = "-" + "9" * 5000 + "/1"
    src = tmp_path / "big.json"
    src.write_text(json.dumps(payload), encoding="utf-8")
    status, out, err = run_cli(["fmt", str(src)], capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("error: products.bracket[1]: more than ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_check_oversized_residual(fmt, tmp_path, capsys):
    """e0 e0 = N e1 and e1 e0 = N e1 leave ASSOC(0, 0, 0) = N^2 e1, which
    has twice as many digits as N: readable input, unwritable residual."""
    n = "7" * 2500
    payload = {
        "schema_version": 1,
        "class": "hom-associative",
        "dim": 2,
        "basis": ["e0", "e1"],
        "twist": ["1/1", "0/1", "0/1", "1/1"],
        "products": {"star": [[0, 0, 1, f"{n}/1"], [1, 0, 1, f"{n}/1"]]},
    }
    src = tmp_path / "big.json"
    src.write_text(json.dumps(payload), encoding="utf-8")
    status, out, err = run_cli(["check", str(src), "--format", fmt], capsys)
    assert status == 2
    assert out == ""
    assert err.startswith("error: cannot write a rational with more than ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", ["[" * 100000, '{"dim": ' + "9" * 5000 + "}"],
                         ids=["deep-nesting", "huge-integer"])
def test_cli_unparsable_json_is_one_line(text, tmp_path, capsys):
    with pytest.raises(BundleError, match="^not valid JSON: "):
        loads_bundle(text)
    src = tmp_path / "bad.json"
    src.write_text(text, encoding="utf-8")
    for argv in (["fmt", str(src)], ["check", str(src)]):
        status, out, err = run_cli(argv, capsys)
        assert status == 2
        assert out == ""
        assert err.startswith("error: not valid JSON: ")
        assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# CLI: argparse surface
# ---------------------------------------------------------------------------

def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_cli_rejects_unknown_format(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", fixture_path("lie_dim2"), "--format", "xml"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_cli_parser_is_reused_across_commands(capsys, monkeypatch, tmp_path):
    """Consecutive commands, argument errors among them, give the same exit
    status and output with the one shared parser as with a fresh parser
    each time."""
    import homalg.cli as cli

    bad_out = str(tmp_path / "missing" / "out.json")
    commands = [
        ["check", fixture_path("octonions"), "--format", "json"],
        ["check", fixture_path("lie_dim2"), "--format", "xml"],
        ["fmt", fixture_path("lie_dim2")],
        [],
        ["construct", fixture_path("premalcev_dim2"), "--recipe", "bogus"],
        ["diagram", fixture_path("octonions")],
        ["check", fixture_path("lie_dim2"), "--operator", "1"],
        ["check", fixture_path("octonions"), "--class", "hom-associative"],
        ["fmt", fixture_path("octonions"), "-o", bad_out],
    ]

    def run_all():
        results = []
        for argv in commands:
            try:
                status = main(argv)
            except SystemExit as exc:
                status = ("exit", exc.code)
            captured = capsys.readouterr()
            err = [line for line in captured.err.splitlines()
                   if not line.startswith("# elapsed:")]
            results.append((status, captured.out, err))
        return results

    shared = run_all()
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert shared == run_all()
    assert [r[0] for r in shared] == [0, ("exit", 2), 0, ("exit", 2), 2, 0,
                                      ("exit", 2), 1, 2]
