"""One sha256 per (manifold, prime, group) of what ``qsteenrod compute`` writes
and of what ``solve_qsigma`` returns.

Each line reads ``MANIFOLD p=PRIME OP FORMAT DIGEST``: DIGEST is 16 hex digits
of a sha256 over, for every class of the built-in manifold in basis order, the
class name, the exit code, standard output and standard error of

    compute --manifold builtin:MANIFOLD --prime PRIME --class CLASS --op OP --format FORMAT

for OP in qst, qsigma and qpi:DIVISOR for each divisor.  The verify group
writes OP ``verify`` and FORMAT ``cap=3``: its digest is over the exit code,
standard output and standard error of

    verify --manifold builtin:MANIFOLD --prime PRIME --cap 3

The solver group
writes OP ``solve`` and FORMAT ``trunc=T`` for T in default, 0, 1 and 3: its
digest is over, for every class, the class name and either the entries, taint
and report of ``solve_qsigma(CLASS, ring, T)`` or the error it raised.  A diff
of two runs names what moved.  Run from the root of a source checkout:

    PYTHONPATH=src python tests/output_digests.py > tests/golden/output_digests.txt

Arguments, if given, are the primes to run (default: the whole ladder).
tests/test_output_digests.py compares the lines at p <= 31 with the golden.
"""

import contextlib
import hashlib
import io
import sys

from qsteenrod import QSteenrodError, solve_qsigma
from qsteenrod.cli import main
from qsteenrod.oracles import builtin_manifold, builtin_ring

MANIFOLDS = ("s2", "cubic_surface", "quadric_intersection")
PRIMES = (2, 3, 5, 7, 11, 13, 31, 101, 211)
TRUNCATIONS = (None, 0, 1, 3)


def _line(name, p, op, fmt, parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() + b"\0")
    return "%s p=%d %s %s %s" % (name, p, op, fmt, h.hexdigest()[:16])


def _compute_parts(name, p, classes, op, fmt):
    for cls in classes:
        out, err = io.StringIO(), io.StringIO()
        argv = ["compute", "--manifold", "builtin:" + name, "--prime", str(p),
                "--class", cls, "--op", op, "--format", fmt]
        with contextlib.redirect_stderr(err):
            code = main(argv, out=out)
        yield from (cls, str(code), out.getvalue(), err.getvalue())


def _verify_parts(name, p):
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--manifold", "builtin:" + name, "--prime", str(p), "--cap", "3"]
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return str(code), out.getvalue(), err.getvalue()


def _solve_parts(ring, classes, trunc):
    for cls in classes:
        try:
            endo, report = solve_qsigma(cls, ring, trunc)
        except QSteenrodError as exc:
            yield from (cls, "%s: %s" % (type(exc).__name__, exc))
        else:
            yield from (cls, repr(sorted(endo.entries.items())), repr(sorted(endo.taint)),
                        repr(report))


def digest_lines(primes=PRIMES):
    """The lines for every built-in manifold at each prime, manifold-major."""
    lines = []
    for name in MANIFOLDS:
        data = builtin_manifold(name)
        classes = [b["name"] for b in data["basis"]]
        ops = ["qst", "qsigma"] + ["qpi:" + d["name"] for d in data["divisors"]]
        for p in primes:
            for op in ops:
                for fmt in ("text", "json"):
                    lines.append(_line(name, p, op, fmt, _compute_parts(name, p, classes, op, fmt)))
            lines.append(_line(name, p, "verify", "cap=3", _verify_parts(name, p)))
            ring = builtin_ring(name, p)
            for trunc in TRUNCATIONS:
                fmt = "trunc=%s" % ("default" if trunc is None else trunc)
                lines.append(_line(name, p, "solve", fmt, _solve_parts(ring, classes, trunc)))
    return lines


if __name__ == "__main__":
    primes = [int(a) for a in sys.argv[1:]] or PRIMES
    print("\n".join(digest_lines(primes)))
