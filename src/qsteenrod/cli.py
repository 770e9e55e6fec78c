"""Command line surface: compute, verify, export.

Exit codes: 0 success; 1 parse/validation errors or failed verification;
2 when --strict is given and undetermined (tainted) slots remain.
"""

import argparse
import functools
import sys

from .errors import QSteenrodError
from .endo import (
    compose,
    equal_on_untainted,
    format_endo,
    identity_endo,
    qpi as qpi_endo,
)
from .fp import require_prime
from .manifold_io import (
    _element_result_text,
    _endo_result_text,
    _parse_manifold,
    dump_manifold,
    ring_from_data,
)
from .oracles import (
    _BUILTINS,
    RationalSeries,
    _builtin_data,
    builtin_manifold,
    builtin_ring,
    expected_results,
    reduce_mod_p,
    s2_closed_form,
    xi_matrix,
    xi_series,
)
from .ring import (
    basis_class,
    classical_product,
    format_element,
    quantum_product,
    verify_ring,
)
from .solver import (
    initial_layer,
    qsigma_lambda,
    qst,
    qst_auto,
    solve_qsigma,
    tzero_layer,
)

def _load_data(source):
    """The manifold description of builtin:NAME or of a file, parsed but not validated:
    ring_from_data validates it."""
    if source.startswith("builtin:"):
        return _builtin_data(source[len("builtin:"):])  # read, never changed
    with open(source, "r", encoding="utf-8") as handle:
        return _parse_manifold(handle.read())


def cmd_compute(args, out):
    # the ring checks the data, then the prime; verify checks the prime first
    ring = ring_from_data(_load_data(args.manifold), args.prime)
    trunc = args.truncate
    meta = {
        "manifold": ring.name,
        "prime": ring.prime,
        "class": args.cls,
        "op": args.op,
    }
    tainted = False
    if args.op == "qst":
        elem, taint, route = qst_auto(args.cls, ring, trunc)
        tainted = bool(taint)
        if args.format == "json":
            used_trunc = elem.trunc if elem.trunc is not None else 0
            deg = ring.prime * ring.degree(ring.index(args.cls))
            text = _element_result_text(elem, taint, meta, deg, used_trunc)
        else:
            lines = ["QSt(%s) = %s" % (args.cls, format_element(elem))]
            if taint:
                lines.append("taint:")
                for (j, d) in sorted(taint):
                    lines.append("  (%s, q^%d)" % (ring.basis[j].name, d))
            text = "\n".join(lines) + "\n"
    elif args.op == "qsigma" or args.op.startswith("qpi:"):
        endo, report = solve_qsigma(args.cls, ring, trunc)
        label = "QSigma"
        if args.op.startswith("qpi:"):
            endo = qpi_endo(args.op[len("qpi:"):], endo)
            label = "QPi[%s]" % args.op[len("qpi:"):]
        tainted = bool(endo.taint_rows)
        if args.format == "json":
            text = _endo_result_text(endo, meta, report)
        else:
            header = "%s(%s) on %s mod %d (degree %d, q-truncation %d)" % (
                label,
                args.cls,
                ring.name,
                ring.prime,
                endo.degree,
                endo.trunc,
            )
            text = header + "\n" + format_endo(endo) + "\n"
    else:
        raise QSteenrodError("unknown op %r" % (args.op,))
    out.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.strict and tainted:
        return 2
    return 0


def _suite_ring(ring, data, args, failures):
    for finding in verify_ring(ring):
        failures.append("ring: %s" % finding)
    return "ring structure (homogeneity, unit, commutativity, associativity, flatness)"


def _suite_constancy(ring, data, args, failures):
    ident = identity_endo(ring)
    for b in ring.basis:
        endo, report = solve_qsigma(b.name, ring)
        rows, zeros = endo.rows, (0,) * (endo.trunc + 1)
        for div, fails in report.residual_failures.items():
            for f in fails:
                failures.append("constancy[%s, a=%s]: %s" % (b.name, div, f))
        for (i, j), row in rows.items():
            for d in [d for d, c in enumerate(row) if c and endo.kappa(i, j, d) is None]:
                failures.append(
                    "constancy[%s]: entry on a dead slot %s" % (b.name, endo.slot_text(i, j, d))
                )
        init, layer = ({(i, j, 0): r[0] for (i, j), r in x.rows.items() if r[0]}
                       for x in (initial_layer(b.name, ring, 0), endo))
        differ = sorted(s for s in init.keys() | layer.keys() if init.get(s) != layer.get(s))
        if differ:
            line = "constancy[%s]: q^0 layer differs from cup St at %s"
            failures.append(line % (b.name, endo.slot_text(*differ[0])))
        seeds = tzero_layer(b.name, ring, endo.trunc)
        taint = endo.taint_rows
        tainted = sorted(s for s in seeds if taint.get(s[:2], 0) >> s[2] & 1)
        if tainted:
            line = "constancy[%s]: tainted t^0 slot %s"
            failures.append(line % (b.name, endo.slot_text(*tainted[0])))
        differ = sorted(
            (i, j, d) for (i, j, d), c in seeds.items()
            if not taint.get((i, j), 0) >> d & 1 and rows.get((i, j), zeros)[d] != c % ring.prime
        )
        if differ:
            line = "constancy[%s]: t^0 layer differs from b^(*p) at %s"
            failures.append(line % (b.name, endo.slot_text(*differ[0])))
    one, _ = solve_qsigma("1", ring)
    if one != ident:
        failures.append("constancy: QSigma_1 is not the identity")
    return "covariant constancy, layer seeds, QSigma_1 = id"


def _suite_compose(ring, data, args, failures):
    a_name = ring.basis[ring.primary.index].name
    s_div, _ = solve_qsigma(a_name, ring)
    trunc = max(ring.default_truncation(b.degree) for b in ring.basis) + ring.max_q_order()
    a, st = basis_class(ring, a_name, trunc), ring.steenrod_of
    for b in ring.basis:
        s_b, _ = solve_qsigma(b.name, ring)
        left = compose(s_div, s_b)
        e_b = basis_class(ring, b.name, trunc)
        beta = quantum_product(a, e_b)
        if beta.is_zero():
            if left.rows:
                failures.append("compose: QSigma_%s o QSigma_%s nonzero" % (a_name, b.name))
            continue
        # the sign, compose_sign(2, |b|, p), is +1 for every class and prime
        if not equal_on_untainted(left, qsigma_lambda(beta, ring)):
            failures.append(
                "compose: QSigma_%s o QSigma_%s != sign * QSigma_{%s * %s}"
                % (a_name, b.name, a_name, b.name)
            )
        # Cartan at q = 0: cup St(a) St(b) vs St(a cup b)
        if classical_product(st(a), st(e_b)) != st(classical_product(a, e_b)):
            failures.append("compose: Cartan relation fails at q=0 for %s" % b.name)
    return "composition rule and q^0 Cartan relation"


def _suite_oracle(ring, data, args, failures):
    # the tables are keyed by name, so they hold only for the built-in data itself
    if data != _BUILTINS.get(ring.name):
        return "no oracle tables for %r (built-in data only)" % ring.name
    if ring.name == "s2":
        xi = xi_series(20)
        lhs = xi.tqd().tqd()
        rhs = RationalSeries(xi.trunc, {(q + 1, t): c for (q, t), c in xi.terms.items()})
        if lhs != rhs:
            failures.append("oracle: (t q d/dq)^2 xi != q xi")
        closed = {p: s2_closed_form(p) for p in (3, 5, 7, 11)}
        for p, form in closed.items():
            solved, rep = solve_qsigma("h", builtin_ring("s2", p))
            if solved != form or rep.taint:
                failures.append("oracle: solver differs from the closed form at p=%d" % p)
        for p in (3, 5, 7):
            if reduce_mod_p(xi_matrix(p - 1), p) != closed[p]:
                failures.append("oracle: rational pipeline differs at p=%d" % p)
    for exp in expected_results(ring.name, ring.prime):
        if exp.op == "qsigma":
            endo, _ = solve_qsigma(exp.input_class, ring)
            ok = endo == exp.expected
        elif exp.op == "qst":
            r = qst(exp.input_class, ring)
            ok = r.element == exp.expected and r.taint == exp.expected_taint
        else:
            elem, taint, _ = qst_auto(exp.input_class, ring)
            ok = elem == exp.expected and tuple(sorted(taint)) == exp.expected_taint
        if not ok:
            failures.append(
                "oracle: %s of %s differs from the tabulated value (%s)"
                % (exp.op, exp.input_class, exp.source)
            )
    return "closed forms, rational pipeline, tabulated values"


def _suite_cells(ring, data, args, failures):
    from .cells import verify_cells

    for f in verify_cells(args.prime, args.cap):
        failures.append("cells: %s" % f)
    return "equivariant cell complexes, relations, homotopies"


# verify's suites, run in this order by --suite all: each is given the ring, the
# manifold data it was built from (both None for cells alone), the arguments and
# a list, appends its failures to the list and returns its PASS description.
_SUITES = {
    "ring": _suite_ring,
    "constancy": _suite_constancy,
    "compose": _suite_compose,
    "oracle": _suite_oracle,
    "cells": _suite_cells,
}


def cmd_verify(args, out):
    prime = require_prime(args.prime)
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    ring = data = None
    if set(suites) - {"cells"}:
        if not args.manifold:
            raise QSteenrodError("--manifold is required for suite %r" % (args.suite,))
        data = _load_data(args.manifold)
        ring = ring_from_data(data, prime)
    status = 0
    for suite in suites:
        failures = []
        # a suite that raises fails on its own; the later suites still run
        try:
            desc = _SUITES[suite](ring, data, args, failures)
        except (QSteenrodError, ValueError, KeyError) as exc:
            failures.append("error: %s" % _message(exc))
        if failures:
            status = 1
            out.write("FAIL %s: %s\n" % (suite, failures[0]))
            for extra in failures[1:]:
                out.write("     %s\n" % extra)
        else:
            out.write("PASS %s: %s\n" % (suite, desc))
    return status


def _message(exc):
    """str(exc), without the quotes str() puts around a KeyError's message."""
    return str(exc.args[0]) if isinstance(exc, KeyError) and len(exc.args) == 1 else str(exc)


def cmd_export(args, out):
    if not args.manifold.startswith("builtin:"):
        raise QSteenrodError("export needs --manifold builtin:NAME, got %r" % (args.manifold,))
    data = builtin_manifold(args.manifold[len("builtin:"):])
    text = dump_manifold(data)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    out.write("wrote %s\n" % args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsteenrod",
        description="Quantum Steenrod operations from small quantum cohomology data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="run one computation")
    c.add_argument("--manifold", required=True, help="builtin:NAME or a file path")
    c.add_argument("--prime", type=int, required=True)
    c.add_argument("--class", dest="cls", required=True)
    c.add_argument("--truncate", type=int, default=None)
    c.add_argument("--op", default="qst", help="qst | qsigma | qpi:DIVISOR")
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.add_argument("--strict", action="store_true")
    c.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--manifold", default=None)
    v.add_argument("--prime", type=int, required=True)
    v.add_argument(
        "--suite",
        default="all",
        choices=(*_SUITES, "all"),
    )
    v.add_argument("--cap", type=int, default=9)

    e = sub.add_parser("export", help="write a builtin manifold file")
    e.add_argument("--manifold", required=True, help="builtin:NAME")
    e.add_argument("--out", required=True)
    return parser


@functools.cache
def _parser():
    """The parser of main, built on first use; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None, out=None):
    out = out or sys.stdout
    args = _parser().parse_args(argv)
    try:
        if args.command == "compute":
            return cmd_compute(args, out)
        if args.command == "verify":
            return cmd_verify(args, out)
        if args.command == "export":
            return cmd_export(args, out)
    except (QSteenrodError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write("error: %s\n" % _message(exc))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
