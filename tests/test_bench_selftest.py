"""Tier-1 gate on the benchmark's self-test (bench/selftest.py).

The self-test checks that the benchmark tracer still reaches every wrapped
function and that the solve_qsigma call and distinct-problem counts of four
CLI commands are unchanged, so a refactor that breaks ``bench/run.py --trace
1`` fails here.
"""

import os
import subprocess
import sys

import pytest

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
