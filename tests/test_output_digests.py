"""compute's and verify's outputs and solve_qsigma's results at p <= 31 against
the committed digests of tests/output_digests.py."""

import time
from pathlib import Path

import output_digests

GOLDEN = Path(__file__).parent / "golden" / "output_digests.txt"
PRIMES = [p for p in output_digests.PRIMES if p <= 31]


def test_compute_outputs_match_the_committed_digests():
    want = [line for line in GOLDEN.read_text().splitlines()
            if int(line.split()[1][len("p="):]) in PRIMES]
    start = time.perf_counter()
    got = output_digests.digest_lines(PRIMES)
    elapsed = time.perf_counter() - start
    assert got == want
    # each built-in has one divisor: 3 ops in 2 formats, verify, 4 truncations of the
    # solver, 3 library calls and 2 composite-class groups
    assert len(got) == 3 * len(PRIMES) * (6 + 1 + len(output_digests.TRUNCATIONS) + 3 + 2)
    assert elapsed < 3.0
