"""The benchmark's three workloads, generated from a seed, and their checks.

A workload is a list of *units* that make up one round.  A unit is a list of
ops run in order with a shared context dict: one CLI invocation for
``divisor_ladder`` and ``verify_sweep``, one library session for
``library_session``.  Every round runs the whole stated set, so throughput is
comparable across seeds; the seed fixes the order of the units in each round,
the class order inside a library session and, for ``verify_sweep``, which
half of each manifold's ops name it as a file exported in set-up rather than
as ``builtin:NAME``.

Each op is checked after it has been timed.  Independent references are used
where they exist (the sphere's closed form, the tabulated p = 3 answers, the
PASS lines of the verify suites); every other output is compared with a
digest recorded by ``record.py``.
"""

import hashlib
import io
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

LADDER_MANIFOLDS = (("s2", "h"), ("cubic_surface", "h_2"), ("quadric_intersection", "h_2"))
LADDER_PRIMES = (31, 101, 211)
LIBRARY_MANIFOLDS = ("cubic_surface", "quadric_intersection")
LIBRARY_PRIMES = (3, 5, 11, 31, 53, 101)
VERIFY_MANIFOLDS = ("s2", "cubic_surface", "quadric_intersection")
VERIFY_PRIMES = (2, 3, 5, 7, 11)
VERIFY_SUITES = ("ring", "constancy", "compose", "oracle")
CELLS_PRIMES = (2, 3, 5)

# op_tail_ms is this percentile of the op times: the highest of 95 and 99
# that leaves at least ten samples beyond it in a 30 s run of the baseline
# (about 380, 860 and 2800 ops).  It is fixed per workload so that two
# commits are compared at the same percentile.
TAIL_PERCENTILE = {"divisor_ladder": 95, "library_session": 95, "verify_sweep": 99}


class Op:
    """One timed call: ``call(ctx)`` runs it, ``check(result)`` returns an
    error string or None."""

    __slots__ = ("key", "kind", "call", "check")

    def __init__(self, key, kind, call, check):
        self.key = key
        self.kind = kind
        self.call = call
        self.check = check


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def load_reference():
    with open(REFERENCE, "r", encoding="utf-8") as handle:
        return json.load(handle)["digests"]


# -- canonical forms of library results ----------------------------------------


def canon_element(x):
    return repr(
        (
            x.trunc,
            sorted(
                (k, f.trunc, sorted(f.terms.items())) for k, f in x.components.items()
            ),
        )
    )


def canon_endo(e):
    return repr((e.degree, e.trunc, sorted(e.entries.items()), sorted(e.taint)))


def canon_report(r):
    return repr(
        (
            r.taint,
            r.taint_text,
            r.seed_checks,
            r.seeds_resolving_taint,
            r.residual_checked,
            sorted((k, list(v)) for k, v in r.residual_failures.items()),
        )
    )


def digest_text(kind, result):
    """The text whose digest stands for an op's output."""
    if not kind.startswith("api."):
        return result[1]
    if kind == "api.builtin_ring":
        return repr((result.name, result.prime, result.basis, result.q_degree))
    if kind == "api.solve_qsigma":
        endo, report = result
        return canon_endo(endo) + canon_report(report)
    if kind == "api.qst":
        return canon_element(result.element) + repr(result.taint)
    if kind == "api.qst_auto":
        elem, taint, route = result
        return canon_element(elem) + repr(sorted(taint)) + route
    return canon_endo(result)


# -- checks -------------------------------------------------------------------


def _digest_check(key, text, reference):
    want = reference.get(key)
    if want is None:
        return "no reference digest for %r" % key
    if digest(text) != want:
        return "output differs from the reference digest for %r" % key
    return None


class S2Oracle:
    """QSigma_h of the sphere from the closed-form factorial sums, per prime."""

    def __init__(self, pkg):
        self.pkg = pkg
        self._cache = {}

    def endo(self, p):
        if p not in self._cache:
            self._cache[p] = self.pkg.s2_closed_form(p)
        return self._cache[p]

    def text(self, p):
        e = self.endo(p)
        header = "QSigma(h) on s2 mod %d (degree %d, q-truncation %d)" % (
            p,
            e.degree,
            e.trunc,
        )
        return header + "\n" + self.pkg.format_endo(e) + "\n"

    def matches_json(self, p, text):
        data = json.loads(text)
        e = self.endo(p)
        names = [b.name for b in e.ring.basis]
        got = {}
        for row in data["result"]:
            key = (names.index(row["from"]), names.index(row["to"]), row["q"])
            got[key] = row["coeff"] % p
        want = {s: c % p for s, c in e.entries.items() if c % p}
        return got == want and not data["taint"]


def cli_op(pkg, argv, kind, check):
    def call(ctx):
        buf = io.StringIO()
        code = pkg.cli.main(argv, out=buf)
        return code, buf.getvalue()

    return Op(" ".join(argv), kind, call, check)


# -- divisor_ladder -----------------------------------------------------------


def divisor_ladder(pkg, rng, out_dir, reference):
    """compute --op qsigma|qst|qpi of the degree-2 divisor at large p."""
    oracle = S2Oracle(pkg)
    units = []
    for manifold, cls in LADDER_MANIFOLDS:
        for p in LADDER_PRIMES:
            for op in ("qsigma", "qst", "qpi:" + cls):
                for fmt in ("text", "json"):
                    argv = [
                        "compute", "--manifold", "builtin:" + manifold,
                        "--prime", str(p), "--class", cls, "--op", op,
                        "--format", fmt,
                    ]
                    key = " ".join(argv)
                    s2_qsigma = manifold == "s2" and op == "qsigma"
                    check = _ladder_check(key, reference, oracle, p, fmt, s2_qsigma)
                    kind = "compute.%s.%s" % (op.split(":")[0], fmt)
                    units.append([cli_op(pkg, argv, kind, check)])
    return units


def _ladder_check(key, reference, oracle, p, fmt, s2_qsigma):
    def check(result):
        code, text = result
        if code != 0:
            return "exit code %d for %r" % (code, key)
        if s2_qsigma:
            if fmt == "text" and text != oracle.text(p):
                return "sphere operator differs from the closed form at p=%d" % p
            if fmt == "json" and not oracle.matches_json(p, text):
                return "sphere operator (json) differs from the closed form at p=%d" % p
        return _digest_check(key, digest_text("compute", result), reference)

    return check


# -- library_session ----------------------------------------------------------


def _store(ctx, key, value):
    ctx[key] = value
    return value


def session_ops(pkg, manifold, p, classes, divisor, reference, expected):
    """The README/demo sequence on one ring; classes in the given order."""
    prefix = "lib %s %d " % (manifold, p)

    def op(label, kind, call, exp=None):
        key = prefix + label

        def check(result):
            if exp is not None:
                msg = exp(result)
                if msg:
                    return "%s: %s" % (key, msg)
            return _digest_check(key, digest_text(kind, result), reference)

        return Op(key, kind, call, check)

    ops = [
        op(
            "builtin_ring",
            "api.builtin_ring",
            lambda ctx: _store(ctx, "ring", pkg.builtin_ring(manifold, p)),
        )
    ]
    for c in classes:
        ops.append(
            op(
                "solve_qsigma " + c,
                "api.solve_qsigma",
                lambda ctx, c=c: _store(ctx, c, pkg.solve_qsigma(c, ctx["ring"])),
                expected.get(("qsigma", c)),
            )
        )
        ops.append(
            op(
                "qst " + c,
                "api.qst",
                lambda ctx, c=c: pkg.qst(c, ctx["ring"]),
                expected.get(("qst", c)),
            )
        )
        ops.append(
            op(
                "qst_auto " + c,
                "api.qst_auto",
                lambda ctx, c=c: pkg.qst_auto(c, ctx["ring"]),
                expected.get(("qst_auto", c)),
            )
        )
    ops.append(
        op("qpi " + divisor, "api.qpi", lambda ctx: pkg.qpi(divisor, ctx[divisor][0]))
    )
    for c in classes:
        ops.append(
            op(
                "compose %s %s" % (divisor, c),
                "api.compose",
                lambda ctx, c=c: pkg.compose(ctx[divisor][0], ctx[c][0]),
            )
        )
    return ops


def expected_checks(pkg, manifold, p):
    """Checks from ``oracles.expected_results``, keyed (op, class)."""
    out = {}
    for exp in pkg.expected_results(manifold, p):
        if exp.op == "qsigma":
            out[("qsigma", exp.input_class)] = (
                lambda r, e=exp: None if r[0] == e.expected else "differs from " + e.source
            )
        elif exp.op == "qst":
            out[("qst", exp.input_class)] = (
                lambda r, e=exp: None
                if r.element == e.expected and r.taint == e.expected_taint
                else "differs from " + e.source
            )
        else:
            out[("qst_auto", exp.input_class)] = (
                lambda r, e=exp: None
                if r[0] == e.expected and tuple(sorted(r[1])) == e.expected_taint
                else "differs from " + e.source
            )
    return out


def library_session(pkg, rng, out_dir, reference):
    """builtin_ring then solve_qsigma/qst/qst_auto of each class, qpi, compose."""
    units = []
    for manifold in LIBRARY_MANIFOLDS:
        data = pkg.builtin_manifold(manifold)
        classes = [b["name"] for b in data["basis"][1:]]
        divisor = next(d["name"] for d in data["divisors"] if d["primary"])
        for p in LIBRARY_PRIMES:
            expected = expected_checks(pkg, manifold, p) if p == 3 else {}
            order = list(classes)
            rng.shuffle(order)
            units.append(
                session_ops(pkg, manifold, p, order, divisor, reference, expected)
            )
    return units


# -- verify_sweep -------------------------------------------------------------


def export_manifolds(pkg, out_dir):
    """Write each built-in manifold with ``qsteenrod export``; returns paths."""
    paths = {}
    for manifold in VERIFY_MANIFOLDS:
        path = os.path.join(out_dir, "%s.json" % manifold)
        buf = io.StringIO()
        code = pkg.cli.main(["export", "--manifold", "builtin:" + manifold, "--out", path], out=buf)
        if code != 0:
            raise RuntimeError("export of %s failed with exit code %d" % (manifold, code))
        paths[manifold] = path
    return paths


def _verify_check(key):
    def check(result):
        code, text = result
        lines = text.splitlines()
        if code != 0:
            return "exit code %d for %r" % (code, key)
        if not lines or not all(line.startswith("PASS") for line in lines):
            return "verify output is not all PASS for %r" % key
        return None

    return check


def verify_sweep(pkg, rng, out_dir, reference):
    """verify --suite S, one suite per op, builtin or exported manifold."""
    files = export_manifolds(pkg, out_dir)
    units = []
    for manifold in VERIFY_MANIFOLDS:
        # Exactly half of the manifold's ops read the file, so that the cost
        # of a round does not depend on the seed.
        n = len(VERIFY_PRIMES) * len(VERIFY_SUITES)
        from_file = [i < n // 2 for i in range(n)]
        rng.shuffle(from_file)
        for p in VERIFY_PRIMES:
            for suite in VERIFY_SUITES:
                source = files[manifold] if from_file.pop() else "builtin:" + manifold
                argv = ["verify", "--manifold", source, "--prime", str(p), "--suite", suite]
                units.append([cli_op(pkg, argv, "verify." + suite, _verify_check(" ".join(argv)))])
    for p in CELLS_PRIMES:
        argv = ["verify", "--prime", str(p), "--suite", "cells"]
        units.append([cli_op(pkg, argv, "verify.cells", _verify_check(" ".join(argv)))])
    return units


BUILDERS = {
    "divisor_ladder": divisor_ladder,
    "library_session": library_session,
    "verify_sweep": verify_sweep,
}
NAMES = tuple(BUILDERS)

# Every op kind a workload can produce, for the per-kind root-span rows.
OP_KINDS = (
    tuple(
        "compute.%s.%s" % (op, fmt)
        for op in ("qsigma", "qst", "qpi")
        for fmt in ("text", "json")
    )
    + tuple("verify." + s for s in VERIFY_SUITES + ("cells",))
    + tuple(
        "api." + k
        for k in ("builtin_ring", "solve_qsigma", "qst", "qst_auto", "qpi", "compose")
    )
)


def build(name, pkg, rng, out_dir, reference):
    """One round of the named workload: a list of units, each a list of ops."""
    return BUILDERS[name](pkg, rng, out_dir, reference)
