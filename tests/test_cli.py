import io
import json
import os
import subprocess
import sys
from pathlib import Path


from qsteenrod.cli import main
from qsteenrod.manifold_io import (
    dump_manifold,
    dump_result,
    load_manifold,
    load_result,
    ring_from_data,
)
from qsteenrod.oracles import builtin_manifold

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


def test_bad_inputs_exit_one():
    assert run_cli(["compute", "--manifold", "builtin:nope", "--prime", "3",
                    "--class", "h"])[0] == 1
    assert run_cli(["compute", "--manifold", "builtin:s2", "--prime", "4",
                    "--class", "h"])[0] == 1
    assert run_cli(["compute", "--manifold", "builtin:s2", "--prime", "3",
                    "--class", "nope"])[0] == 1


def test_unknown_field_rejected(tmp_path):
    data = builtin_manifold("s2")
    data["extra"] = 1
    path = tmp_path / "weird.json"
    path.write_text(json.dumps(data))
    code, _ = run_cli(
        ["compute", "--manifold", str(path), "--prime", "3", "--class", "h"]
    )
    assert code == 1


def test_export_needs_the_builtin_prefix(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, text = run_cli(["export", "--manifold", "cubic_surface", "--out", str(out)])
    assert code == 1 and text == "" and not out.exists()
    assert capsys.readouterr().err == (
        "error: export needs --manifold builtin:NAME, got 'cubic_surface'\n"
    )


def test_ungraded_q0_product_exits_one_naming_it(tmp_path, capsys):
    data = builtin_manifold("cubic_surface")
    for product in data["products"]:
        if (product["left"], product["right"], product["q"]) == ("h_2", "h_2", 0):
            product["terms"].append({"basis": "h_2", "coeff": 1})
    bad = tmp_path / "bad.json"
    bad.write_text(dump_manifold(data))
    code, text = run_cli(
        ["compute", "--manifold", str(bad), "--prime", "5", "--class", "h_4", "--op", "qsigma"]
    )
    assert code == 1 and text == ""
    # one error line and no traceback
    assert capsys.readouterr().err == (
        "error: (h_2, h_2, q^0) -> h_2 violates the grading; see verify --suite ring\n"
    )


def test_verify_suites_pass():
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        for p in (2, 3, 5):
            code, text = run_cli(
                ["verify", "--manifold", "builtin:%s" % name, "--prime", str(p),
                 "--suite", "all"]
            )
            assert code == 0, text
            assert text.count("PASS") == 5


def test_verify_cells_without_manifold():
    code, text = run_cli(["verify", "--prime", "5", "--suite", "cells"])
    assert code == 0
    assert "PASS cells" in text


def test_truncation_env_override(monkeypatch):
    monkeypatch.setenv("QSROD_TRUNCATE_DEFAULT", "1")
    code, text = run_cli(
        ["compute", "--manifold", "builtin:s2", "--prime", "3", "--class", "h",
         "--op", "qsigma"]
    )
    assert code == 0
    assert "q-truncation 1" in text
    monkeypatch.delenv("QSROD_TRUNCATE_DEFAULT")
    code, text = run_cli(
        ["compute", "--manifold", "builtin:s2", "--prime", "3", "--class", "h",
         "--op", "qsigma", "--truncate", "2"]
    )
    assert "q-truncation 2" in text


def test_negative_truncation_exits_one(capsys):
    code, text = run_cli(
        ["compute", "--manifold", "builtin:s2", "--prime", "3", "--class", "h",
         "--op", "qst", "--truncate", "-1"]
    )
    assert code == 1 and text == ""
    assert "truncation must be non-negative, got trunc=-1" in capsys.readouterr().err


def test_bad_truncation_env_names_the_variable(monkeypatch, capsys):
    for value in ("abc", "-2"):
        monkeypatch.setenv("QSROD_TRUNCATE_DEFAULT", value)
        code, text = run_cli(
            ["compute", "--manifold", "builtin:s2", "--prime", "3", "--class", "h",
             "--op", "qsigma"]
        )
        assert code == 1 and text == ""
        err = capsys.readouterr().err
        assert "QSROD_TRUNCATE_DEFAULT must be a non-negative integer, got %r" % value in err


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


def test_compute_out_file(tmp_path):
    out = tmp_path / "result.json"
    code, text = run_cli(
        ["compute", "--manifold", "builtin:s2", "--prime", "3", "--class", "h",
         "--op", "qst", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text() == text
