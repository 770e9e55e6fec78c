import copy
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qsteenrod import cells, cli, manifold_io, oracles
from qsteenrod.cli import main
from qsteenrod.endo import GradedEndomorphism, identity_endo
from qsteenrod.errors import QSteenrodError
from qsteenrod.manifold_io import (
    dump_manifold,
    dump_result,
    load_manifold,
    load_result,
    ring_from_data,
)
from qsteenrod.oracles import builtin_manifold, builtin_ring
from qsteenrod.ring import QuantumRing, basis_class, zero_element
from qsteenrod.solver import SolveReport, _residuals

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_golden_compute_s2_qst():
    code, text = run_cli(
        ["compute", "--manifold", "builtin:s2", "--prime", "3", "--class", "h", "--op", "qst"]
    )
    assert code == 0
    assert text == (GOLDEN / "compute_s2_p3_qst_h.txt").read_text()
    assert "QSt(h) = q*t*1 - t^2*h + q*h" in text


def test_golden_compute_cubic_qst_h4():
    code, text = run_cli(
        ["compute", "--manifold", "builtin:cubic_surface", "--prime", "2",
         "--class", "h_4", "--op", "qst"]
    )
    assert code == 0
    assert text == (GOLDEN / "compute_cubic_p2_qst_h4.txt").read_text()
    assert "t^2*h_4" in text


def test_golden_compute_cubic_qsigma_strict():
    code, text = run_cli(
        ["compute", "--manifold", "builtin:cubic_surface", "--prime", "3",
         "--class", "h_2", "--op", "qsigma", "--strict"]
    )
    assert code == 2
    assert text == (GOLDEN / "compute_cubic_p3_qsigma_h2.txt").read_text()
    assert "(h_2 -> 1, q^3 t)" in text


def test_strict_only_changes_exit_code():
    loose_code, loose_text = run_cli(
        ["compute", "--manifold", "builtin:cubic_surface", "--prime", "3",
         "--class", "h_2", "--op", "qsigma"]
    )
    assert loose_code == 0
    _, strict_text = run_cli(
        ["compute", "--manifold", "builtin:cubic_surface", "--prime", "3",
         "--class", "h_2", "--op", "qsigma", "--strict"]
    )
    assert loose_text == strict_text


def test_text_and_json_agree_term_for_term():
    code, text = run_cli(
        ["compute", "--manifold", "builtin:s2", "--prime", "3", "--class", "h",
         "--op", "qst", "--format", "json"]
    )
    assert code == 0
    data = json.loads(text)
    terms = {(r["to"], r["q"], r["t"]): r["coeff"] for r in data["result"]}
    assert terms == {("1", 1, 1): 1, ("h", 0, 2): 2, ("h", 1, 0): 1}
    assert data["taint"] == []


def test_golden_json_and_result_roundtrip():
    code, text = run_cli(
        ["compute", "--manifold", "builtin:quadric_intersection", "--prime", "3",
         "--class", "h_2", "--op", "qsigma", "--format", "json"]
    )
    assert code == 0
    assert text == (GOLDEN / "compute_quadrics_p3_qsigma_h2.json").read_text()
    data = load_result(text)
    assert dump_result(data) == text  # lossless round trip
    assert data["degree"] == 6 and data["prime"] == 3


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("compute_cubic_p3_qsigma_h2.json", ["--prime", "3", "--class", "h_2", "--op", "qsigma"]),
        ("compute_cubic_p2_qst_h4.json", ["--prime", "2", "--class", "h_4", "--op", "qst"]),
    ],
)
def test_golden_json_of_a_tainted_operator_and_an_element(golden, argv):
    code, text = run_cli(
        ["compute", "--manifold", "builtin:cubic_surface", *argv, "--format", "json"]
    )
    assert code == 0
    assert text == (GOLDEN / golden).read_text()
    assert dump_result(load_result(text)) == text


def _stdlib_dump(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("p", [2, 3, 31, 211])
def test_dump_result_matches_the_stdlib_layout_on_every_payload(p):
    count = 0
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        data = builtin_manifold(name)
        divisors = [d["name"] for d in data["divisors"]]
        for b in data["basis"]:
            for op in ["qsigma", "qst"] + ["qpi:" + d for d in divisors]:
                code, text = run_cli(
                    ["compute", "--manifold", "builtin:" + name, "--prime", str(p),
                     "--class", b["name"], "--op", op, "--format", "json"]
                )
                payload = json.loads(text)
                assert code == 0 and text == dump_result(payload) == _stdlib_dump(payload)
                count += bool(payload["result"]) + bool(payload["taint"])
    assert count > 27


def _payload(result, taint, cls="h"):
    return {
        "manifold": "s2", "prime": 3, "class": cls, "op": "qsigma", "truncation": 2,
        "degree": 6, "result": result, "taint": taint, "report": {},
    }


def test_dump_result_escapes_as_the_stdlib_does():
    rows = [
        {"from": 'h"2', "to": "\u00e9", "q": 1, "t": 0, "theta": 0, "coeff": 2},
        {"from": "\u00e9", "to": "a\nb}", "q": 0, "t": 1, "theta": 0, "coeff": 1},
    ]
    taint = [{"from": 'h"2', "to": "},\n      {", "q": 3}]
    for data in (_payload(rows, taint, 'h"2'), _payload(rows, taint, "\u00e9")):
        assert dump_result(data) == _stdlib_dump(data)
        assert load_result(dump_result(data)) == data


def test_dump_result_lays_out_empty_and_nested_rows_as_the_stdlib_does():
    nested = [{"from": "1", "to": "h", "q": 0, "terms": [1, {"t": 2}]}, {}]
    for result, taint in (([], []), (nested, []), ([], [{"q": True}, {"q": 1.5}])):
        data = _payload(result, taint)
        assert dump_result(data) == _stdlib_dump(data)
    assert dump_result({}) == "{}\n"


@pytest.mark.parametrize(
    "call, value, got",
    [
        (load_result, "3", "3"),
        (load_result, "null", "None"),
        (load_result, "[]", "[]"),
        (dump_result, [], "[]"),
        (dump_result, "manifold", "'manifold'"),
    ],
    ids=["load_int", "load_null", "load_list", "dump_list", "dump_str"],
)
def test_a_result_that_is_not_an_object_is_rejected(call, value, got):
    with pytest.raises(manifold_io.ManifoldFormatError) as info:
        call(value)
    assert str(info.value) == "result: expected an object, got " + got
    assert info.value.field == "result"


@pytest.mark.parametrize(
    "call, text, message",
    [
        (load_manifold, '{\n  "name": "s2",\n  oops\n}',
         "line 3: Expecting property name enclosed in double quotes"),
        (load_result, '{"prime": 3,}', "line 1: Expecting property name enclosed in double quotes"),
        (load_result, '{"prime": 3, "extra": 1}', "unknown result field 'extra'"),
        (dump_result, {"prime": 3, "extra": 1}, "unknown result field 'extra'"),
    ],
    ids=["manifold_json", "result_json", "load_field", "dump_field"],
)
def test_an_unreadable_file_names_the_cause(call, text, message):
    with pytest.raises(manifold_io.ManifoldFormatError) as info:
        call(text)
    assert str(info.value) == message


def test_invalid_json_manifold_exits_one_naming_the_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(dump_manifold(builtin_manifold("s2"))[:-3])
    code, text = run_cli(["compute", "--manifold", str(path), "--prime", "3", "--class", "h"])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == "error: line 36: Expecting ',' delimiter\n"


def test_escaped_class_names_are_written_as_the_stdlib_does(tmp_path):
    name = 'h"\\\n\t\u00e9'
    path = tmp_path / "s2_escaped.json"
    data = json.loads(json.dumps(builtin_manifold("s2")).replace('"h"', json.dumps(name)))
    path.write_text(dump_manifold(data))
    named = 0
    for p in (2, 3):
        for op in ("qsigma", "qpi:" + name, "qst"):
            code, text = run_cli(
                ["compute", "--manifold", str(path), "--prime", str(p), "--class", name,
                 "--op", op, "--format", "json"]
            )
            assert code == 0
            data = json.loads(text)
            assert text == _stdlib_dump(data)
            assert load_result(text) == data and dump_result(data) == text
            rows = data["result"] + data["taint"]
            named += any(name in (row["from"], row["to"]) for row in rows)
    assert named == 6


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    calls = [
        ["compute", "--manifold", "builtin:s2", "--prime", "3", "--class", "h", "--op", "qst"],
        ["compute", "--manifold", "builtin:s2", "--prime"],
        ["verify", "--manifold", "builtin:s2", "--prime", "3", "--suite", "ring"],
        ["export", "--manifold", "builtin:s2", "--out", str(tmp_path / "s2.json")],
    ]
    here = []
    for argv in calls:
        try:
            code, text = run_cli(argv)
        except SystemExit as exc:
            code, text = exc.code, ""
        here.append((code, text, capsys.readouterr().err))
    assert len(built) == 1 and here[1][0] == 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    fresh = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "qsteenrod.cli"] + argv,
            capture_output=True,
            text=True,
            cwd=root,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert here == fresh


def test_json_taint_survives_serialization():
    code, text = run_cli(
        ["compute", "--manifold", "builtin:cubic_surface", "--prime", "3",
         "--class", "h_2", "--op", "qsigma", "--format", "json"]
    )
    data = load_result(text)
    assert {(t["from"], t["to"], t["q"]) for t in data["taint"]} == {
        ("h_2", "1", 3), ("h_4", "1", 3), ("h_4", "h_2", 3),
    }
    assert dump_result(data) == text


def test_qpi_op():
    code, text = run_cli(
        ["compute", "--manifold", "builtin:s2", "--prime", "3", "--class", "h",
         "--op", "qpi:h"]
    )
    assert code == 0
    assert "QPi[h](h)" in text
    assert "(h -> 1) = -q^2" in text  # 2 q^2 rendered balanced


def test_export_reload_identity_and_stability(tmp_path):
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        out1 = tmp_path / ("%s_1.json" % name)
        out2 = tmp_path / ("%s_2.json" % name)
        assert run_cli(["export", "--manifold", "builtin:%s" % name, "--out", str(out1)])[0] == 0
        assert run_cli(["export", "--manifold", "builtin:%s" % name, "--out", str(out2)])[0] == 0
        assert out1.read_bytes() == out2.read_bytes()  # byte-stable
        assert out1.read_bytes() == (GOLDEN / ("manifold_%s.json" % name)).read_bytes()
        if name == "quadric_intersection":
            assert '"q_degree": 4' in out1.read_text()
        data = load_manifold(out1.read_text())
        for p in (2, 3, 5):
            reloaded = ring_from_data(data, p)
            original = ring_from_data(builtin_manifold(name), p)
            assert reloaded.basis == original.basis
            assert reloaded._sc == original._sc
            assert reloaded.divisors == original.divisors
            assert reloaded.steenrod == original.steenrod


def test_tampered_manifold_fails_verification(tmp_path):
    data = builtin_manifold("cubic_surface")
    for pr in data["products"]:
        for term in pr["terms"]:
            if term["coeff"] == 180:
                term["coeff"] = 181
    bad = tmp_path / "bad.json"
    bad.write_text(dump_manifold(data))
    code, text = run_cli(
        ["verify", "--manifold", str(bad), "--prime", "7", "--suite", "ring"]
    )
    assert code == 1
    assert "FAIL ring" in text and "associativity" in text


def test_ring_suite_reads_the_integer_table(tmp_path):
    """180 -> 187 leaves the cubic associative mod 7 but not over Z: the ring suite fails."""
    data = builtin_manifold("cubic_surface")
    for pr in data["products"]:
        for term in pr["terms"]:
            if term["coeff"] == 180:
                term["coeff"] = 187
    bad = tmp_path / "bad.json"
    bad.write_text(dump_manifold(data))
    code, text = run_cli(
        ["verify", "--manifold", str(bad), "--prime", "7", "--suite", "ring"]
    )
    assert code == 1
    assert text.startswith("FAIL ring: ring: associativity fails on (h_2,h_2,h_4)\n")


def test_bad_inputs_exit_one():
    assert run_cli(["compute", "--manifold", "builtin:nope", "--prime", "3",
                    "--class", "h"])[0] == 1
    assert run_cli(["compute", "--manifold", "builtin:s2", "--prime", "4",
                    "--class", "h"])[0] == 1
    assert run_cli(["compute", "--manifold", "builtin:s2", "--prime", "3",
                    "--class", "nope"])[0] == 1


def test_unknown_op_and_a_missing_manifold_exit_one_naming_them(capsys):
    code, text = run_cli(["compute", "--manifold", "builtin:s2", "--prime", "3", "--class", "h",
                          "--op", "qsgima"])
    assert (code, text, capsys.readouterr().err) == (1, "", "error: unknown op 'qsgima'\n")
    code, text = run_cli(["verify", "--prime", "3", "--suite", "constancy"])
    assert (code, text, capsys.readouterr().err) == (
        1, "", "error: --manifold is required for suite 'constancy'\n"
    )


def test_unknown_class_exits_one_naming_the_manifold(capsys):
    code, text = run_cli(
        ["compute", "--manifold", "builtin:cubic_surface", "--prime", "3", "--class", "x"]
    )
    assert code == 1 and text == ""
    assert capsys.readouterr().err == "error: cubic_surface has no basis element 'x'\n"


def test_unknown_class_in_verify_is_one_unquoted_finding(tmp_path, monkeypatch):
    # a file named s2 whose class h is called x is not the built-in sphere,
    # so no oracle table applies to it
    data = json.loads(json.dumps(builtin_manifold("s2")).replace('"h"', '"x"'))
    path = tmp_path / "renamed.json"
    path.write_text(dump_manifold(data))
    argv = ["verify", "--manifold", str(path), "--prime", "3", "--suite", "oracle"]
    assert run_cli(argv) == (0, "PASS oracle: no oracle tables for 's2' (built-in data only)\n")

    def looks_up_h(ring, data, args, failures):
        ring.index("h")

    # a suite's KeyError is one finding, without the quotes str() adds
    monkeypatch.setitem(cli._SUITES, "oracle", looks_up_h)
    assert run_cli(argv) == (1, "FAIL oracle: error: s2 has no basis element 'h'\n")


@pytest.mark.parametrize("name", ["p1", "s2"])
def test_oracle_suite_runs_only_on_builtin_data(tmp_path, name):
    # the sphere's data renamed p1, and a file named s2 with h*h = 2q: the
    # oracle tables are the built-in sphere's, so neither is held to them
    data = builtin_manifold("s2")
    data["name"] = name
    if name == "s2":
        data["products"][0]["terms"][0]["coeff"] = 2
    path = tmp_path / "sphere.json"
    path.write_text(dump_manifold(data))
    code, text = run_cli(["verify", "--manifold", str(path), "--prime", "3", "--suite", "all"])
    assert code == 0 and text.count("PASS") == 5
    assert "PASS oracle: no oracle tables for %r (built-in data only)\n" % name in text
    exported = tmp_path / "exported.json"
    run_cli(["export", "--manifold", "builtin:s2", "--out", str(exported)])
    code, text = run_cli(["verify", "--manifold", str(exported), "--prime", "3", "--suite", "oracle"])
    assert (code, text) == (0, "PASS oracle: closed forms, rational pipeline, tabulated values\n")


def test_verify_loads_the_manifold_once(tmp_path, monkeypatch):
    path = tmp_path / "s2.json"
    run_cli(["export", "--manifold", "builtin:s2", "--out", str(path)])
    calls, real = [], cli._parse_manifold
    monkeypatch.setattr(cli, "_parse_manifold", lambda text: calls.append(text) or real(text))
    code, text = run_cli(["verify", "--manifold", str(path), "--prime", "3", "--suite", "all"])
    assert code == 0 and text.count("PASS") == 5
    assert "PASS oracle: closed forms, rational pipeline, tabulated values\n" in text
    assert len(calls) == 1  # the oracle suite compares the data the ring was built from


@pytest.mark.parametrize("command", [
    ["compute", "--class", "h_2", "--op", "qsigma"],
    ["verify", "--suite", "all", "--cap", "2"],
])
def test_a_manifold_file_is_validated_once(tmp_path, monkeypatch, command):
    # load_manifold validated it, and then the ring built from it validated it again
    path = tmp_path / "quadric.json"
    run_cli(["export", "--manifold", "builtin:quadric_intersection", "--out", str(path)])
    calls, real = [], manifold_io.validate_manifold_data

    def counted(data):
        if all(data is not table for table in oracles._BUILTINS.values()):  # the oracle suite's
            calls.append(data)
        return real(data)

    monkeypatch.setattr(manifold_io, "validate_manifold_data", counted)
    argv = command[:1] + ["--manifold", str(path), "--prime", "3"] + command[1:]
    assert run_cli(argv)[0] == 0
    assert len(calls) == 1


def _broken(name, change):
    data = builtin_manifold("cubic_surface")
    change(data)
    return name, json.dumps(data)


# (file, its text, the error of compute, the error of verify), each at --prime 4:
# compute reads the file first, verify the prime
PRECEDENCE = [
    ("not JSON", '{\n  "name": "s2",\n  oops\n}',
     "line 3: Expecting property name enclosed in double quotes", "not a prime: 4"),
    _broken("a missing field", lambda d: d["basis"][1].pop("degree"))
    + ("basis[1]: missing field 'degree'", "not a prime: 4"),
    _broken("a duplicate class", lambda d: d["basis"].append(dict(d["basis"][1])))
    + ("basis[3].name: duplicate class 'h_2'", "not a prime: 4"),
    # the ring's own checks come after the prime's, under both commands
    _broken("a duplicate product", lambda d: d["products"].append(dict(d["products"][0])))
    + ("not a prime: 4", "not a prime: 4"),
    _broken("an odd degree", lambda d: d["basis"][1].__setitem__("degree", 3))
    + ("not a prime: 4", "not a prime: 4"),
]


@pytest.mark.parametrize("name, text, compute_error, verify_error", PRECEDENCE,
                         ids=[case[0] for case in PRECEDENCE])
def test_a_bad_file_and_a_bad_prime_report_one_error(tmp_path, capsys, name, text,
                                                     compute_error, verify_error):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for command, error in ((["compute", "--class", "h_2"], compute_error),
                           (["verify", "--suite", "ring"], verify_error)):
        argv = command[:1] + ["--manifold", str(path), "--prime", "4"] + command[1:]
        assert run_cli(argv) == (1, "")
        assert capsys.readouterr().err == "error: %s\n" % error


def test_the_oracle_suite_builds_each_sphere_closed_form_once(monkeypatch):
    calls, real = [], oracles.s2_closed_form

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(cli, "s2_closed_form", counted)
    monkeypatch.setattr(oracles, "s2_closed_form", counted)  # expected_results' own
    argv = ["verify", "--manifold", "builtin:s2", "--prime", "3", "--suite", "oracle"]
    assert run_cli(argv) == (0, "PASS oracle: closed forms, rational pipeline, tabulated values\n")
    assert sorted(calls) == [3, 3, 5, 7, 11]  # the sphere block's four, expected_results' one


def _product(left, right, q, basis, coeff):
    return {"left": left, "right": right, "q": q, "terms": [{"basis": basis, "coeff": coeff}]}


# Every rejection of a ring definition, on the quadric intersection: the
# change to its file, the one error line that names the cause and, where it
# differs from that line, the case's id
REJECTED = [
    (lambda d: d["basis"].append({"name": "h_2", "degree": 8}),
     "basis[4].name: duplicate class 'h_2'"),
    (lambda d: d["basis"].reverse(), 'basis must start with the unit "1" of degree 0'),
    (lambda d: d["basis"].append({"name": "u", "degree": 0}), "exactly one degree-0 class allowed"),
    (lambda d: d["basis"][3].update(degree=7), "odd or negative degree class 'h_6'"),
    (lambda d: d["basis"].append({"name": "m", "degree": -2}), "odd or negative degree class 'm'"),
    (lambda d: d.update(q_degree=3), "q_degree must be a positive even integer"),
    (lambda d: d.update(dimension_top=4),
     "bad dimension_top 4: must be even and at least the top basis degree 6"),
    (lambda d: d["divisors"][0].update(name="h_4"), "divisor h_4 has degree != 2"),
    (lambda d: d["divisors"][0].update(primary=False), "exactly one divisor must be flagged primary"),
    (lambda d: d["products"].append(_product("1", "h_2", 0, "h_2", 1)),
     "products of the unit are implied, not stored: (1, h_2, q^0)",
     "products of the unit are implied, not stored"),
    (lambda d: d["products"].append(_product("h_2", "h_2", -1, "h_6", 1)),
     "negative q-order in product (h_2, h_2, q^-1)", "negative q-order"),
    (lambda d: d["basis"].append({"name": "x", "degree": 3}), "odd or negative degree class 'x'"),
    (lambda d: d["products"].append(_product("h_4", "h_2", 0, "h_6", 2)),
     "conflicting product entry (h_4, h_2, q^0)"),
    (lambda d: d.update(products=[e for e in d["products"] if e["left"] + e["right"] != "h_2h_6"]),
     "missing product entry for (h_2, h_6)"),
    (lambda d: d["products"].append(_product("h_2", "h_2", 0, "h_4", 4)),
     "duplicate product entry (h_2, h_2, q^0)"),
    # two faults: the error names the one the checks reach first
    (lambda d: (d["basis"][3].update(degree=7),
                d["products"].append(_product("h_2", "h_2", 0, "h_4", 4))),
     "duplicate product entry (h_2, h_2, q^0)", "odd degree and a duplicate entry"),
    (lambda d: (d.update(q_degree=3),
                d.update(products=[e for e in d["products"] if e["left"] + e["right"] != "h_2h_6"])),
     "q_degree must be a positive even integer", "bad q_degree and a missing entry"),
]


@pytest.mark.parametrize(
    "change, message", [case[:2] for case in REJECTED], ids=[case[-1] for case in REJECTED]
)
def test_rejected_ring_definition_names_the_cause(tmp_path, capsys, change, message):
    data = builtin_manifold("quadric_intersection")
    change(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(["compute", "--manifold", str(path), "--prime", "5", "--class", "h_2"])
    # one error line and no traceback
    assert (code, out, capsys.readouterr().err) == (1, "", "error: %s\n" % message)
    with pytest.raises((QSteenrodError, ValueError)) as info:  # built directly: the same text
        QuantumRing(data, 5)
    assert str(info.value) == message


def test_tainted_qst_lists_its_taint():
    argv = ["compute", "--manifold", "builtin:cubic_surface", "--prime", "3", "--class", "h_4"]
    text = "QSt(h_4) = t^4*h_4\ntaint:\n  (1, q^3)\n  (h_2, q^3)\n  (h_4, q^3)\n"
    assert run_cli(argv + ["--op", "qst"]) == (0, text)
    assert run_cli(argv + ["--op", "qst", "--strict"]) == (2, text)


def test_unknown_field_rejected(tmp_path):
    data = builtin_manifold("s2")
    data["extra"] = 1
    path = tmp_path / "weird.json"
    path.write_text(json.dumps(data))
    code, _ = run_cli(
        ["compute", "--manifold", str(path), "--prime", "3", "--class", "h"]
    )
    assert code == 1


def _drop(key):
    return lambda obj: obj.pop(key)


def _put(key, value):
    return lambda obj: obj.__setitem__(key, value)


# (where in the cubic surface's file, the change, the error message)
MALFORMED = [
    (["basis", 1], _drop("degree"), "basis[1]: missing field 'degree'"),
    (["divisors", 0], _drop("pairing"), "divisors[0]: missing field 'pairing'"),
    (["products", 0], _drop("q"), "products[0]: missing field 'q'"),
    (["products", 0, "terms", 0], _drop("coeff"), "products[0].terms[0]: missing field 'coeff'"),
    (["steenrod", "2", "h_2", 0], _drop("theta"), "steenrod.2.h_2[0]: missing field 'theta'"),
    ([], _drop("basis"), "manifold: missing field 'basis'"),
    (["divisors", 0], _put("name", "zz"), "divisors[0].name: unknown class 'zz'"),
    (
        ["steenrod", "2", "h_2", 0],
        _put("basis", "zz"),
        "steenrod.2.h_2[0].basis: unknown class 'zz'",
    ),
    (["products", 0], _put("q", "1"), "products[0].q: expected an integer, got '1'"),
    ([], _put("q_degree", "4"), "manifold.q_degree: expected an integer, got '4'"),
    (
        ["products", 0, "terms", 0],
        _put("coeff", "1"),
        "products[0].terms[0].coeff: expected an integer, got '1'",
    ),
    (
        ["products", 0, "terms", 0],
        _put("coeff", 1.5),
        "products[0].terms[0].coeff: expected an integer, got 1.5",
    ),
    (["divisors", 0], _put("pairing", 1.0), "divisors[0].pairing: expected an integer, got 1.0"),
    (["basis", 1], _put("degree", True), "basis[1].degree: expected an integer, got True"),
    (["divisors", 0], _put("primary", 1), "divisors[0].primary: expected true or false, got 1"),
    (
        [],
        _put("default_leading_steenrod", 0),
        "manifold.default_leading_steenrod: expected true or false, got 0",
    ),
    (["products", 0], _put("terms", {}), "products[0].terms: expected a list, got {}"),
    (["steenrod", "2"], _put("h_2", {}), "steenrod.2.h_2: expected a list, got {}"),
    (["steenrod"], _put("3a", {}), "steenrod: prime keys must be digit strings"),
    (
        ["steenrod"],
        _put("03", {"h_2": [{"basis": "h_2", "t": 2, "theta": 0, "coeff": 1}]}),
        "steenrod: prime key '03' is not a prime in plain decimal form",
    ),
    (["steenrod"], _put("4", {}), "steenrod: prime key '4' is not a prime in plain decimal form"),
]


@pytest.mark.parametrize("where, change, message", MALFORMED, ids=[m for _, _, m in MALFORMED])
def test_malformed_manifold_is_rejected_by_field(tmp_path, capsys, where, change, message):
    data = builtin_manifold("cubic_surface")
    obj = data
    for key in where:
        obj = obj[key]
    change(obj)
    text = json.dumps(data)
    for call in (load_manifold, lambda text: QuantumRing(json.loads(text), 2)):
        with pytest.raises(manifold_io.ManifoldFormatError) as info:
            call(text)
        assert str(info.value) == message
    path = tmp_path / "malformed.json"
    path.write_text(text)
    code, out = run_cli(["compute", "--manifold", str(path), "--prime", "2", "--class", "h_2"])
    assert (code, out, capsys.readouterr().err) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize(
    "change, field",
    [
        (_put("03", {"h_2": [{"basis": "h_2", "t": 2, "theta": 0, "coeff": 1}]}), "steenrod.03"),
        (_put("4", {}), "steenrod.4"),
        (_put("\u0663", {}), "steenrod.\u0663"),  # ARABIC-INDIC DIGIT THREE: a digit, not plain
    ],
    ids=["leading zero", "not a prime", "not ascii"],
)
def test_a_steenrod_prime_key_must_be_a_prime_in_plain_decimal_form(change, field):
    # "03" once replaced the cubic's "3" entry on loading, and "4" was taken without comment
    data = builtin_manifold("cubic_surface")
    change(data["steenrod"])
    for call in (load_manifold, lambda text: ring_from_data(json.loads(text), 3)):
        with pytest.raises(manifold_io.ManifoldFormatError) as info:
            call(json.dumps(data))
        assert info.value.field == field


def test_a_long_steenrod_prime_key_loads_at_once():
    # primality was trial division: this 19-digit prime took minutes
    data = builtin_manifold("cubic_surface")
    data["steenrod"]["1000000000000000003"] = {}
    start = time.perf_counter()
    load_manifold(json.dumps(data))
    assert time.perf_counter() - start < 0.1


def test_a_steenrod_prime_key_past_the_primality_bound_names_its_field():
    data = builtin_manifold("cubic_surface")
    key = "3317044064679887385961981"
    data["steenrod"][key] = {}
    with pytest.raises(manifold_io.ManifoldFormatError) as info:
        load_manifold(json.dumps(data))
    assert info.value.field == "steenrod." + key
    assert str(info.value) == "steenrod: prime key '%s': primality is decided only below %s, got %s" % (
        key, key, key)


def test_a_divisor_listed_twice_is_rejected(tmp_path, capsys):
    # it was once checked twice per solve and reported twice per flatness finding
    data = builtin_manifold("cubic_surface")
    data["divisors"].append(dict(data["divisors"][0], primary=False))
    with pytest.raises(manifold_io.ManifoldFormatError) as info:
        ring_from_data(data, 5)
    assert info.value.field == "divisors[1].name"
    assert str(info.value) == "divisors[1].name: duplicate divisor 'h_2'"
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(data))
    argv = ["verify", "--manifold", str(path), "--prime", "5", "--suite", "ring"]
    assert run_cli(argv) == (1, "")
    assert capsys.readouterr().err == "error: divisors[1].name: duplicate divisor 'h_2'\n"


def test_export_needs_the_builtin_prefix(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, text = run_cli(["export", "--manifold", "cubic_surface", "--out", str(out)])
    assert code == 1 and text == "" and not out.exists()
    assert capsys.readouterr().err == (
        "error: export needs --manifold builtin:NAME, got 'cubic_surface'\n"
    )


def _ungraded_cubic(tmp_path, coeff=1):
    """The cubic surface with an extra q^0 product h_2*h_2 -> coeff*h_2."""
    data = builtin_manifold("cubic_surface")
    for product in data["products"]:
        if (product["left"], product["right"], product["q"]) == ("h_2", "h_2", 0):
            product["terms"].append({"basis": "h_2", "coeff": coeff})
    bad = tmp_path / "bad.json"
    bad.write_text(dump_manifold(data))
    return bad


def _ungraded_s2(tmp_path):
    """The sphere with an extra q^2 product h*h -> h."""
    data = builtin_manifold("s2")
    data["products"].append(
        {"left": "h", "right": "h", "q": 2, "terms": [{"basis": "h", "coeff": 1}]}
    )
    bad = tmp_path / "bad.json"
    bad.write_text(dump_manifold(data))
    return bad


def test_ungraded_q0_product_exits_one_naming_it(tmp_path, capsys):
    bad = _ungraded_cubic(tmp_path)
    code, text = run_cli(
        ["compute", "--manifold", str(bad), "--prime", "5", "--class", "h_4", "--op", "qsigma"]
    )
    assert code == 1 and text == ""
    # one error line and no traceback
    assert capsys.readouterr().err == (
        "error: (h_2, h_2, q^0) -> h_2 violates the grading; see verify --suite ring\n"
    )


def test_ungraded_constant_zero_mod_p_exits_one_naming_it(tmp_path, capsys):
    """5*h_2 vanishes mod 5, but the grading is checked on the integer table."""
    bad = _ungraded_cubic(tmp_path, coeff=5)
    code, text = run_cli(["compute", "--manifold", str(bad), "--prime", "5", "--class", "h_2"])
    assert code == 1 and text == ""
    assert capsys.readouterr().err == (
        "error: (h_2, h_2, q^0) -> h_2 violates the grading; see verify --suite ring\n"
    )


def test_ungraded_q2_product_exits_one_naming_it(tmp_path, capsys):
    bad = _ungraded_s2(tmp_path)
    code, text = run_cli(
        ["compute", "--manifold", str(bad), "--prime", "3", "--class", "h", "--op", "qst"]
    )
    assert code == 1 and text == ""
    assert capsys.readouterr().err == (
        "error: (h, h, q^2) -> h violates the grading; see verify --suite ring\n"
    )


def test_steenrod_entry_vanishing_mod_p_exits_one_naming_it(tmp_path, capsys):
    """St(h_2) = 3 t^2 h_2 mod 3 has no leading term: compute and verify ring both fail."""
    data = builtin_manifold("cubic_surface")
    data["steenrod"]["3"]["h_2"] = [{"basis": "h_2", "t": 2, "theta": 0, "coeff": 3}]
    bad = tmp_path / "bad.json"
    bad.write_text(dump_manifold(data))
    message = "St(h_2) mod 3 has no leading term t^2*h_2"
    code, text = run_cli(["compute", "--manifold", str(bad), "--prime", "3", "--class", "h_2"])
    assert code == 1 and text == ""
    assert capsys.readouterr().err == "error: %s\n" % message
    code, text = run_cli(["verify", "--manifold", str(bad), "--prime", "3", "--suite", "ring"])
    assert code == 1
    assert text == "FAIL ring: ring: steenrod table: %s\n" % message


def test_negative_steenrod_t_exponent_exits_one_naming_it(tmp_path, capsys):
    """St(h_2) + t^-1 h_6 is homogeneous at p = 2 but has no slot: it once passed the ring
    suite and failed compute on a dead slot."""
    data = builtin_manifold("quadric_intersection")
    data["steenrod"]["2"]["h_2"].append({"basis": "h_6", "t": -1, "theta": 0, "coeff": 1})
    bad = tmp_path / "bad.json"
    bad.write_text(dump_manifold(data))
    message = "St(h_2) mod 2 has a negative t-exponent t^-1"
    argv = ["--manifold", str(bad), "--prime", "2"]
    code, text = run_cli(["compute"] + argv + ["--class", "h_2", "--op", "qsigma"])
    assert (code, text, capsys.readouterr().err) == (1, "", "error: %s\n" % message)
    code, text = run_cli(["verify"] + argv + ["--suite", "ring"])
    assert (code, text) == (1, "FAIL ring: ring: steenrod table: %s\n" % message)


def test_primary_pairing_vanishing_mod_p_exits_one_naming_it(tmp_path, capsys):
    """The sphere with pairing 3: at p = 3 the t-part of nabla_h vanishes, so no order is pinned."""
    data = builtin_manifold("s2")
    data["divisors"][0]["pairing"] = 3
    bad = tmp_path / "bad.json"
    bad.write_text(dump_manifold(data))
    message = "primary divisor h has pairing 3, which vanishes mod 3"
    code, text = run_cli(["compute", "--manifold", str(bad), "--prime", "3", "--class", "h"])
    assert (code, text, capsys.readouterr().err) == (1, "", "error: %s\n" % message)
    code, text = run_cli(["verify", "--manifold", str(bad), "--prime", "3", "--suite", "constancy"])
    assert (code, text) == (1, "FAIL constancy: error: %s\n" % message)
    assert run_cli(["compute", "--manifold", str(bad), "--prime", "5", "--class", "h"])[0] == 0


def test_verify_runs_every_suite_past_a_raising_one(tmp_path):
    bad = _ungraded_cubic(tmp_path)
    code, text = run_cli(["verify", "--manifold", str(bad), "--prime", "5", "--suite", "all"])
    assert code == 1
    heads = [line.split(":")[0] for line in text.splitlines() if not line.startswith(" ")]
    assert heads == [
        "FAIL ring", "FAIL constancy", "FAIL compose", "PASS oracle", "PASS cells"
    ]
    error = "error: (h_2, h_2, q^0) -> h_2 violates the grading; see verify --suite ring"
    assert "FAIL constancy: %s\n" % error in text
    assert "FAIL compose: %s\n" % error in text


def test_verify_constancy_reports_an_entry_on_a_dead_slot(monkeypatch):
    """An entry on a dead slot is the constancy suite's FAIL line, not a TypeError."""
    real = cli.solve_qsigma

    def with_dead_entry(b, ring, trunc=None):
        endo, report = real(b, ring, trunc)
        if b != "h":
            return endo, report
        row = list(endo.rows.get((0, 1), (0,) * (endo.trunc + 1)))
        row[2] = 1  # 1 -> h at q^2 needs t^-2 in degree 6
        rows = dict(sorted({**endo.rows, (0, 1): tuple(row)}.items()))
        dead = GradedEndomorphism._trusted(ring, endo.degree, endo.trunc, rows, endo.taint_rows)
        return dead, report

    monkeypatch.setattr(cli, "solve_qsigma", with_dead_entry)
    code, text = run_cli(
        ["verify", "--manifold", "builtin:s2", "--prime", "3", "--suite", "constancy"]
    )
    assert code == 1
    assert text == "FAIL constancy: constancy[h]: entry on a dead slot (1 -> h, q^2 t^-2)\n"


@pytest.mark.parametrize(
    "extra, slot",
    [({(1, 1, 0): 1}, "(h -> h, t^3)"), ({(1, 1, 0): 1, (0, 1, 0): 1}, "(1 -> h, t^2)")],
    ids=["extra_entry", "two_slots"],
)
def test_verify_constancy_compares_the_q0_layer_both_ways(monkeypatch, extra, slot):
    """A solve with an entry where cup St(b) is zero fails too, in one line naming the first slot.

    (0 -> 1, q^0) = 2 + 1 vanishes mod 3, so the second case also drops an entry.
    """
    real = cli.solve_qsigma

    def with_extra(b, ring, trunc=None):
        endo, report = real(b, ring, trunc)
        if b != "h":
            return endo, report
        assert (1, 1, 0) not in endo.entries and endo.entries[(0, 1, 0)] == 2  # h cup St(h) = 0
        entries = dict(endo.entries)
        for s, c in extra.items():
            entries[s] = entries.get(s, 0) + c
        return GradedEndomorphism(ring, endo.degree, endo.trunc, entries, endo.taint), report

    monkeypatch.setattr(cli, "solve_qsigma", with_extra)
    code, text = run_cli(
        ["verify", "--manifold", "builtin:s2", "--prime", "3", "--suite", "constancy"]
    )
    assert code == 1
    assert text == "FAIL constancy: constancy[h]: q^0 layer differs from cup St at %s\n" % slot


def test_ring_suite_names_an_ungraded_cup_constant_without_the_hint(tmp_path, capsys):
    """verify --suite ring does not point at itself; compute still points at it."""
    data = builtin_manifold("quadric_intersection")
    for product in data["products"]:
        if (product["left"], product["right"], product["q"]) == ("h_2", "h_4", 0):
            product["terms"].append({"basis": "h_4", "coeff": 1})
    data["steenrod"]["5"] = {"h_2": [{"basis": "h_2", "t": 4, "theta": 0, "coeff": 1}]}
    bad = tmp_path / "bad.json"
    bad.write_text(dump_manifold(data))
    message = "(h_4, h_2, q^0) -> h_4 violates the grading"
    code, text = run_cli(["verify", "--manifold", str(bad), "--prime", "5", "--suite", "ring"])
    assert code == 1
    assert text.endswith("\n     ring: steenrod table: %s\n" % message)
    assert "see verify" not in text
    code, text = run_cli(
        ["compute", "--manifold", str(bad), "--prime", "5", "--class", "h_2", "--op", "qsigma"]
    )
    assert code == 1 and text == ""
    # the divisor map reads the constant first, as h_2 * h_4
    err = "error: (h_2, h_4, q^0) -> h_4 violates the grading; see verify --suite ring\n"
    assert capsys.readouterr().err == err


def _bend(endo, slot, taint):
    """endo with one slot raised by 1, or with that slot tainted instead of stored."""
    entries = dict(endo.entries)
    if taint:
        entries.pop(slot, None)
    else:
        entries[slot] = entries.get(slot, 0) + 1
    return GradedEndomorphism(
        endo.ring, endo.degree, endo.trunc, entries, endo.taint | ({slot} if taint else set())
    )


@pytest.mark.parametrize(
    "target, cls, slot, taint, line",
    [
        ("solve_qsigma", "h", (1, 1, 1), False, "constancy[h, a=h]: residual 2 at (1 -> h, q)"),
        (
            "initial_layer", "h", (1, 1, 0), False,
            "constancy[h]: q^0 layer differs from cup St at (h -> h, t^3)",
        ),
        ("solve_qsigma", "h", (1, 0, 2), True, "constancy[h]: tainted t^0 slot (h -> 1, q^2)"),
        (
            "tzero_layer", "h", (1, 0, 2), False,
            "constancy[h]: t^0 layer differs from b^(*p) at (h -> 1, q^2)",
        ),
        ("solve_qsigma", "1", (1, 0, 0), True, "constancy: QSigma_1 is not the identity"),
    ],
    ids=["residual", "q0_layer", "tainted_t0_slot", "t0_layer", "qsigma_1"],
)
def test_verify_constancy_fails_on_one_bent_slot(monkeypatch, target, cls, slot, taint, line):
    """Each comparison of the constancy suite reports a solve or seed bent at one slot.

    A bent solve carries the residuals of the bent operator, as a real one would.
    """
    real = getattr(cli, target)

    def solve(b, ring, trunc=None):
        endo, report = real(b, ring, trunc)
        if b != cls:
            return endo, report
        bent = _bend(endo, slot, taint)
        return bent, SolveReport(**dict(vars(report), residual_failures=_residuals(bent, ring)[1]))

    def initial(b, ring, trunc=None):
        layer = real(b, ring, trunc)
        return _bend(layer, slot, taint) if b == cls else layer

    def tzero(b, ring, trunc=None):
        seeds = dict(real(b, ring, trunc))
        if b == cls:
            seeds[slot] += 1
        return seeds

    bent = {"solve_qsigma": solve, "initial_layer": initial, "tzero_layer": tzero}[target]
    monkeypatch.setattr(cli, target, bent)
    code, text = run_cli(
        ["verify", "--manifold", "builtin:s2", "--prime", "3", "--suite", "constancy"]
    )
    assert code == 1
    assert text.splitlines()[0] == "FAIL constancy: " + line



@pytest.mark.parametrize("target", ["tzero_layer", "solve_qsigma"], ids=["differ", "tainted"])
def test_verify_constancy_names_the_first_bent_t0_seed_once(monkeypatch, target):
    """Both t^0 seeds of QSigma_h on s2 bent, (1 -> h, q) and (h -> 1, q^2): one line, the first."""
    real = getattr(cli, target)
    slots = [(0, 1, 1), (1, 0, 2)]

    def solve(b, ring, trunc=None):
        endo, report = real(b, ring, trunc)
        for slot in slots if b == "h" else ():
            endo = _bend(endo, slot, True)
        return endo, report

    def tzero(b, ring, trunc=None):
        seeds = dict(real(b, ring, trunc))
        for slot in slots if b == "h" else ():
            seeds[slot] += 1
        return seeds

    monkeypatch.setattr(cli, target, {"solve_qsigma": solve, "tzero_layer": tzero}[target])
    code, text = run_cli(
        ["verify", "--manifold", "builtin:s2", "--prime", "3", "--suite", "constancy"]
    )
    what = {"tzero_layer": "t^0 layer differs from b^(*p) at", "solve_qsigma": "tainted t^0 slot"}
    assert code == 1
    assert text == "FAIL constancy: constancy[h]: %s (1 -> h, q)\n" % what[target]

def _tainted_rows(real):
    return lambda name, p: [
        oracles.ExpectedResult(e.manifold, e.prime, e.op, e.input_class, e.expected, ((0, 0),),
                               e.source)
        for e in real(name, p)
    ]


@pytest.mark.parametrize(
    "manifold, prime, module, target, bend, line",
    [
        ("s2", 3, cli, "quantum_product", lambda real: lambda x, y: zero_element(x.ring, x.trunc),
         "FAIL compose: compose: QSigma_h o QSigma_1 nonzero"),
        ("s2", 3, cli, "equal_on_untainted", lambda real: lambda x, y: False,
         "FAIL compose: compose: QSigma_h o QSigma_1 != sign * QSigma_{h * 1}"),
        ("s2", 3, cli, "classical_product",
         lambda real: lambda x, y: real(x, y) + basis_class(x.ring, "h", x.trunc),
         "FAIL compose: compose: Cartan relation fails at q=0 for 1"),
        ("s2", 3, cli, "xi_series", lambda real: lambda trunc: real(trunc) * real(trunc),
         "FAIL oracle: oracle: (t q d/dq)^2 xi != q xi"),
        ("s2", 3, cli, "s2_closed_form",
         lambda real: lambda p: real(p) if p < 11 else identity_endo(builtin_ring("s2", p)),
         "FAIL oracle: oracle: solver differs from the closed form at p=11"),
        ("s2", 3, cli, "reduce_mod_p", lambda real: lambda x, p: None,
         "FAIL oracle: oracle: rational pipeline differs at p=3"),
        ("cubic_surface", 2, cli, "expected_results", _tainted_rows,
         "FAIL oracle: oracle: qst of h_2 differs from the tabulated value"
         " (degree-2 squares on the cubic surface: QSt(c) = c*c + tc)"),
        ("s2", 3, cells, "product_boundary", lambda real: lambda chain, p: {},
         "FAIL cells: cells: primitive for 'even' k=0 fails to bound its relation"),
    ],
    ids=["compose_nonzero", "compose_rule", "cartan", "xi_equation", "closed_form",
         "rational_pipeline", "tabulated_value", "cells_relation"],
)
def test_verify_fail_lines_of_the_compose_oracle_and_cells_suites(
    monkeypatch, manifold, prime, module, target, bend, line
):
    """Each FAIL line, with one dependency bent; the other suites still run and pass."""
    monkeypatch.setattr(module, target, bend(getattr(module, target)))
    code, text = run_cli(
        ["verify", "--manifold", "builtin:" + manifold, "--prime", str(prime), "--suite", "all"]
    )
    assert code == 1
    assert line in text.splitlines()
    suite = line.split(":")[0][len("FAIL "):]
    heads = [s.split(":")[0] for s in text.splitlines() if not s.startswith(" ")]
    assert heads == [("FAIL " if s == suite else "PASS ") + s for s in cli._SUITES]


def test_verify_suites_pass():
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        for p in (2, 3, 5):
            code, text = run_cli(
                ["verify", "--manifold", "builtin:%s" % name, "--prime", str(p),
                 "--suite", "all"]
            )
            assert code == 0, text
            assert text.count("PASS") == 5


def test_builtin_tables_are_shared_but_never_changed():
    """builtin:NAME rings read the shared tables; builtin_manifold hands out copies."""
    tables = copy.deepcopy(oracles._BUILTINS)
    for name in tables:
        code, text = run_cli(
            ["verify", "--manifold", "builtin:%s" % name, "--prime", "3", "--suite", "all"]
        )
        assert code == 0, text
        data = builtin_manifold(name)
        data["basis"].append({"name": "x", "degree": 2})
        data["products"][0]["terms"].clear()
        data["steenrod"].setdefault("3", {})["1"] = []
    assert oracles._BUILTINS == tables


def test_verify_cells_without_manifold():
    code, text = run_cli(["verify", "--prime", "5", "--suite", "cells"])
    assert code == 0
    assert "PASS cells" in text


def test_verify_cells_cap_below_two_fails():
    for cap in ("1", "0", "-5"):
        code, text = run_cli(["verify", "--prime", "3", "--suite", "cells", "--cap", cap])
        assert code == 1
        assert text == "FAIL cells: error: the cells cap must be at least 2, got cap=%s\n" % cap


def test_truncation_env_override():
    code, text = run_cli(
        ["compute", "--manifold", "builtin:s2", "--prime", "3", "--class", "h",
         "--op", "qsigma", "--truncate", "2"]
    )
    assert "q-truncation 2" in text


def test_truncation_env_variable_is_ignored(monkeypatch):
    argv = ["compute", "--manifold", "builtin:s2", "--prime", "3", "--class", "h", "--op", "qsigma"]
    default = run_cli(argv)
    assert default[0] == 0 and "q-truncation 2" in default[1]
    for value in ("1", "abc"):
        monkeypatch.setenv("QSROD_TRUNCATE_DEFAULT", value)
        assert run_cli(argv) == default


def test_negative_truncation_exits_one(capsys):
    code, text = run_cli(
        ["compute", "--manifold", "builtin:s2", "--prime", "3", "--class", "h",
         "--op", "qst", "--truncate", "-1"]
    )
    assert code == 1 and text == ""
    assert "truncation must be non-negative, got trunc=-1" in capsys.readouterr().err


def test_console_entry_point_subprocess():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # the child imports the package from src/ even when it is not installed
    path = [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-m", "qsteenrod.cli", "compute", "--manifold", "builtin:s2",
         "--prime", "3", "--class", "h", "--op", "qst"],
        capture_output=True,
        text=True,
        cwd=root,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "compute_s2_p3_qst_h.txt").read_text()


# Modules the package must not load on import: dataclasses (which brings inspect),
# typing and copy are never needed, and fractions only by the rational pipeline.
NOT_ON_IMPORT = ("dataclasses", "inspect", "typing", "fractions", "copy")


def test_a_fresh_import_loads_no_heavy_modules_and_the_oracle_suite_still_runs():
    # -S keeps site, whose .pth files may import typing, out of the child
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    child = "\n".join([
        "import sys",
        "sys.path.insert(0, %r)" % src,
        "from qsteenrod import cli",
        "print(sorted(set(%r) & set(sys.modules)))" % (NOT_ON_IMPORT,),
        "code = cli.main(['verify', '--manifold', 'builtin:s2', '--prime', '3', '--suite', 'oracle'])",
        "print(code, 'fractions' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-S", "-c", child], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, report, result = proc.stdout.splitlines()
    assert loaded == "[]"
    assert report.startswith("PASS oracle:")
    assert result == "0 True"  # the rational pipeline loaded fractions when it ran


def test_compute_out_file(tmp_path):
    out = tmp_path / "result.json"
    code, text = run_cli(
        ["compute", "--manifold", "builtin:s2", "--prime", "3", "--class", "h",
         "--op", "qst", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text() == text
