"""Tier-1 gates on the benchmark: its self-test and its correctness checks.

The self-test (bench/selftest.py) checks that the benchmark tracer still
reaches every wrapped function and that the solve_qsigma call and
distinct-problem counts of four CLI commands are unchanged, so a refactor
that breaks ``bench/run.py --trace 1`` fails here.  The library-session
round runs every op of the ``library_session`` workload once through its own
checks (the digests in bench/reference.json and the tabulated p = 3
answers), so a wrong cached solve or composition fails here too.  The
divisor-ladder round does the same for the p = 31, 101, 211 solves (digests
and the sphere's closed form), the sizes the small goldens never reach.  The
verify-sweep round runs every suite, the oracle suite's qst_auto included,
on built-in and exported manifolds.
"""

import importlib.util
import os
import random
import subprocess
import sys

import pytest

import qsteenrod
import qsteenrod.cli  # noqa: F401  (the workloads reach the CLI as pkg.cli)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    if not os.path.isfile(os.path.join(ROOT, "bench", "selftest.py")):
        pytest.skip("no bench/ in this checkout")
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("PASS "), proc.stdout


def _run_checked_round(name, out_dir=None):
    """Run every op of one round of the named workload through its own check;
    returns the number of ops.  out_dir receives the files the workload
    writes (verify_sweep exports the built-in manifolds there)."""
    path = os.path.join(ROOT, "bench", "workloads.py")
    if not os.path.isfile(path):
        pytest.skip("no bench/ in this checkout")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    units = workloads.build(
        name, qsteenrod, random.Random(0), out_dir, workloads.load_reference()
    )
    checked = 0
    for unit in units:
        ctx = {}
        for op in unit:
            assert op.check(op.call(ctx)) is None
            checked += 1
    return checked


def test_bench_library_session_round_passes_its_checks():
    # per prime: the cubic-surface and quadric sessions
    assert _run_checked_round("library_session") == 6 * (10 + 14)


def test_bench_divisor_ladder_round_passes_its_checks():
    # compute qsigma|qst|qpi, text and json, for three manifolds at three primes
    assert _run_checked_round("divisor_ladder") == 3 * 3 * 3 * 2


def test_bench_verify_sweep_round_passes_its_checks(tmp_path):
    # four suites at five primes for three manifolds, half of them read from
    # the exported files, plus the cells suite at three primes
    n = _run_checked_round("verify_sweep", str(tmp_path))
    assert n == 63
    assert sorted(os.listdir(tmp_path)) == [
        "cubic_surface.json", "quadric_intersection.json", "s2.json"
    ]
