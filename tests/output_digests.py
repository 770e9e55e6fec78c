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
and report of ``solve_qsigma(CLASS, ring, T)`` or the error it raised.  The
library group writes three lines, FORMAT ``library``, each digest over a label
per call and then either its result or the error it raised:

- OP ``qst_auto``: ``qst_auto(CLASS, ring)`` for every class, as the element,
  its sorted taint and its route;
- OP ``qsigma_apply``: ``qsigma_apply(B, e_K, ring)`` for every pair of classes,
  e_K at QSigma_B's default truncation, as the element and its sorted taint;
- OP ``qst_via_generators``: the fixed expressions of ``words`` below, each as
  the element and its sorted taint.

The composite group writes two lines, FORMAT ``composite``, each digest over a
label per call and then either the operator's sorted rows, its sorted taint
rows and, for a solve, its report, or the error it raised:

- OP ``qsigma_lambda``: ``qsigma_lambda(a * e_B, ring)`` for the primary divisor
  a and every class B, a * e_B the quantum product the compose suite of
  ``verify`` builds;
- OP ``scaled``: ``solve_qsigma(c e_K, ring, T)`` for c in 2 and p - 1, every
  class K and T in default and 3.

An element is its truncation and its sorted pieces.  A diff of two runs names
what moved.  Run from the root of a source checkout:

    PYTHONPATH=src python tests/output_digests.py > tests/golden/output_digests.txt

Arguments, if given, are the primes to run (default: the whole ladder).
tests/test_output_digests.py compares the lines at p <= 31 with the golden.
"""

import contextlib
import hashlib
import io
import sys

from qsteenrod import (
    QSteenrodError,
    qsigma_apply,
    qsigma_lambda,
    qst_auto,
    qst_via_generators,
    solve_qsigma,
)
from qsteenrod.cli import main
from qsteenrod.oracles import builtin_manifold, builtin_ring
from qsteenrod.ring import basis_class, quantum_product

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


def words(ring):
    """The qst_via_generators expressions of the library group: for the primary divisor a
    and every class c, a c and a a c; a c minus each class c' of its degree times q^m,
    m >= 1; the unit; and the last class squared, which raises NotGenerated where that
    class is no divisor."""
    a, classes = ring.basis[ring.primary.index].name, ring.basis
    exprs = [[(1, 0, (a, c.name))] for c in classes] + [[(1, 0, (a, a, c.name))] for c in classes]
    exprs += [[(1, 0, (a, c.name)), (-1, m, (e.name,))] for c in classes for e in classes
              for m in range(1, 3) if e.degree + ring.q_degree * m == c.degree + 2]
    exprs += [[(1, 0, ())], [(1, 0, (classes[-1].name, classes[-1].name))]]
    return exprs


def _element_parts(elem, taint):
    return repr(elem.trunc), repr(sorted((key, sorted(rows.items()))
                                         for key, rows in elem.pieces.items())), repr(sorted(taint))


def _library_parts(calls):
    """For each (label, call): the label and either call()'s element parts or its error."""
    for label, call in calls:
        try:
            result = call()
        except QSteenrodError as exc:
            yield from (label, "%s: %s" % (type(exc).__name__, exc))
        else:
            yield from (label,) + _element_parts(*result[:2]) + tuple(result[2:])


def _library_lines(name, p, ring, classes):
    trunc = {b: solve_qsigma(b, ring)[0].trunc for b in classes}
    groups = {
        "qst_auto": [(c, lambda c=c: qst_auto(c, ring)) for c in classes],
        "qsigma_apply": [("%s(%s)" % (b, k), lambda b=b, k=k: qsigma_apply(
            b, basis_class(ring, k, trunc[b]), ring)) for b in classes for k in classes],
        "qst_via_generators": [(repr(e), lambda e=e: qst_via_generators(e, ring))
                               for e in words(ring)],
    }
    return [_line(name, p, op, "library", _library_parts(calls)) for op, calls in groups.items()]


def _operator_parts(calls):
    """For each (label, call): the label and either the operator call() returns (with
    its report, for a solve) or the error it raised."""
    for label, call in calls:
        try:
            result = call()
        except (QSteenrodError, ValueError) as exc:
            yield from (label, "%s: %s" % (type(exc).__name__, exc))
        else:
            endo, rest = result if isinstance(result, tuple) else (result, None)
            yield from (label, repr(sorted(endo.rows.items())), repr(sorted(endo.taint_rows.items())))
            if rest is not None:
                yield repr(rest)


def _composite_lines(name, p, ring, classes):
    a_name = ring.basis[ring.primary.index].name
    trunc = max(ring.default_truncation(b.degree) for b in ring.basis) + ring.max_q_order()
    a = basis_class(ring, a_name, trunc)
    groups = {
        "qsigma_lambda": [(b, lambda b=b: qsigma_lambda(
            quantum_product(a, basis_class(ring, b, trunc)), ring)) for b in classes],
        "scaled": [("%d %s trunc=%s" % (c, k, t), lambda c=c, k=k, t=t: solve_qsigma(
            basis_class(ring, k, 0).scale(c), ring, t))
            for c in (2, p - 1) for k in classes for t in (None, 3)],
    }
    return [_line(name, p, op, "composite", _operator_parts(calls)) for op, calls in groups.items()]


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
            lines += _library_lines(name, p, ring, classes)
            lines += _composite_lines(name, p, ring, classes)
    return lines


if __name__ == "__main__":
    primes = [int(a) for a in sys.argv[1:]] or PRIMES
    print("\n".join(digest_lines(primes)))
