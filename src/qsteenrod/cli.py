"""Command line surface: compute, verify, export.

Exit codes: 0 success; 1 parse/validation errors or failed verification;
2 when --strict is given and undetermined (tainted) slots remain.
"""

import argparse
import os
import sys

from .errors import QSteenrodError
from .endo import (
    GradedEndomorphism,
    compose,
    compose_sign,
    equal_on_untainted,
    format_endo,
    identity_endo,
    qpi as qpi_endo,
)
from .fp import require_prime
from .manifold_io import (
    dump_manifold,
    dump_result,
    element_result_data,
    endo_result_data,
    load_manifold,
    ring_from_data,
)
from .oracles import (
    RationalSeries,
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

ENV_TRUNCATE = "QSROD_TRUNCATE_DEFAULT"


def _load_ring(source, prime):
    if source.startswith("builtin:"):
        data = builtin_manifold(source[len("builtin:"):])
    else:
        with open(source, "r", encoding="utf-8") as handle:
            data = load_manifold(handle.read())
    return data, ring_from_data(data, prime)


def _truncation(args):
    if args.truncate is not None:
        return args.truncate
    env = os.environ.get(ENV_TRUNCATE)
    if env is None:
        return None
    if not env.strip().isdecimal():
        raise ValueError("%s must be a non-negative integer, got %r" % (ENV_TRUNCATE, env))
    return int(env)


def cmd_compute(args, out):
    data, ring = _load_ring(args.manifold, require_prime(args.prime))
    trunc = _truncation(args)
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
            payload = element_result_data(elem, taint, meta, deg, used_trunc)
            text = dump_result(payload)
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
        tainted = bool(endo.taint)
        if args.format == "json":
            text = dump_result(endo_result_data(endo, meta, report))
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


def _suite_ring(ring, failures):
    for finding in verify_ring(ring):
        failures.append("ring: %s" % finding)
    return "ring structure (homogeneity, unit, commutativity, associativity, flatness)"


def _suite_constancy(ring, failures):
    ident = identity_endo(ring)
    for b in ring.basis:
        endo, report = solve_qsigma(b.name, ring)
        for div, fails in report.residual_failures.items():
            for f in fails:
                failures.append("constancy[%s, a=%s]: %s" % (b.name, div, f))
        for (i, j, d) in endo.entries:
            if endo.kappa(i, j, d) < 0:
                failures.append("constancy[%s]: negative t-exponent" % b.name)
        init = initial_layer(b.name, ring, endo.trunc)
        for (i, j, d), c in init.entries.items():
            if endo.entries.get((i, j, d)) != c:
                failures.append("constancy[%s]: q^0 layer differs from cup St" % b.name)
        seeds = tzero_layer(b.name, ring, endo.trunc)
        for slot, val in seeds.items():
            if slot in endo.taint:
                failures.append("constancy[%s]: tainted t^0 slot %r" % (b.name, slot))
            elif endo.entries.get(slot, 0) != val % ring.prime:
                failures.append("constancy[%s]: t^0 layer differs at %r" % (b.name, slot))
    one, _ = solve_qsigma("1", ring)
    if one != ident:
        failures.append("constancy: QSigma_1 is not the identity")
    return "covariant constancy, layer seeds, QSigma_1 = id"


def _suite_compose(ring, failures):
    a_name = ring.basis[ring.primary.index].name
    s_div, _ = solve_qsigma(a_name, ring)
    trunc = max(ring.default_truncation(b.degree) for b in ring.basis) + ring.max_q_order()
    for b in ring.basis:
        s_b, _ = solve_qsigma(b.name, ring)
        left = compose(s_div, s_b)
        beta = quantum_product(
            basis_class(ring, a_name, trunc), basis_class(ring, b.name, trunc)
        )
        sign = compose_sign(2, b.degree, ring.prime)
        if beta.is_zero():
            if left.entries:
                failures.append("compose: QSigma_%s o QSigma_%s nonzero" % (a_name, b.name))
            continue
        right = qsigma_lambda(beta, ring)
        signed = GradedEndomorphism(
            right.ring,
            right.degree,
            right.trunc,
            {s: sign * c for s, c in right.entries.items()},
            right.taint,
        )
        if not equal_on_untainted(left, signed):
            failures.append(
                "compose: QSigma_%s o QSigma_%s != sign * QSigma_{%s * %s}"
                % (a_name, b.name, a_name, b.name)
            )
        # Cartan at q = 0: cup St(a) St(b) vs sign * cup St(a cup b)
        st_a = ring.steenrod_of(basis_class(ring, a_name, trunc))
        st_b = ring.steenrod_of(basis_class(ring, b.name, trunc))
        cup_ab = classical_product(
            basis_class(ring, a_name, trunc), basis_class(ring, b.name, trunc)
        )
        lhs = classical_product(st_a, st_b)
        rhs = ring.steenrod_of(cup_ab).scale(sign) if not cup_ab.is_zero() else cup_ab
        if lhs != rhs:
            failures.append("compose: Cartan relation fails at q=0 for %s" % b.name)
    return "composition rule and q^0 Cartan relation"


def _suite_oracle(ring, failures):
    if ring.name == "s2":
        xi = xi_series(20)
        lhs = xi.tqd().tqd()
        rhs = RationalSeries(xi.trunc, {(q + 1, t): c for (q, t), c in xi.terms.items()})
        if lhs != rhs:
            failures.append("oracle: (t q d/dq)^2 xi != q xi")
        for p in (3, 5, 7, 11):
            solved, rep = solve_qsigma("h", builtin_ring("s2", p))
            if solved != s2_closed_form(p) or rep.taint:
                failures.append("oracle: solver differs from the closed form at p=%d" % p)
        for p in (3, 5, 7):
            if reduce_mod_p(xi_matrix(p - 1), p) != s2_closed_form(p):
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


def _suite_cells(prime, cap, failures):
    from .cells import verify_cells

    for f in verify_cells(prime, cap):
        failures.append("cells: %s" % f)
    return "equivariant cell complexes, relations, homotopies, diagonal"


def cmd_verify(args, out):
    prime = require_prime(args.prime)
    suites = (
        ["ring", "constancy", "compose", "oracle", "cells"]
        if args.suite == "all"
        else [args.suite]
    )
    ring = None
    if set(suites) - {"cells"}:
        if not args.manifold:
            raise QSteenrodError("--manifold is required for suite %r" % (args.suite,))
        _, ring = _load_ring(args.manifold, prime)
    status = 0
    for suite in suites:
        failures = []
        if suite == "ring":
            desc = _suite_ring(ring, failures)
        elif suite == "constancy":
            desc = _suite_constancy(ring, failures)
        elif suite == "compose":
            desc = _suite_compose(ring, failures)
        elif suite == "oracle":
            desc = _suite_oracle(ring, failures)
        elif suite == "cells":
            desc = _suite_cells(prime, args.cap, failures)
        else:
            raise QSteenrodError("unknown suite %r" % (suite,))
        if failures:
            status = 1
            out.write("FAIL %s: %s\n" % (suite, failures[0]))
            for extra in failures[1:]:
                out.write("     %s\n" % extra)
        else:
            out.write("PASS %s: %s\n" % (suite, desc))
    return status


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
        choices=("ring", "constancy", "compose", "oracle", "cells", "all"),
    )
    v.add_argument("--cap", type=int, default=9)

    e = sub.add_parser("export", help="write a builtin manifold file")
    e.add_argument("--manifold", required=True, help="builtin:NAME")
    e.add_argument("--out", required=True)
    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return cmd_compute(args, out)
        if args.command == "verify":
            return cmd_verify(args, out)
        if args.command == "export":
            return cmd_export(args, out)
    except (QSteenrodError, ValueError, KeyError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
