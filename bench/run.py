"""qsteenrod benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a source checkout:

    python3 bench/run.py --workload divisor_ladder --seed 1 --seconds 30 --trace 0

It imports the package from ``src/`` of that checkout and drives it in one
process and one thread, as a closed loop with one client: an op starts when
the previous one has returned and been checked.  It uses
``qsteenrod.cli.main(argv, out=buffer)`` (the CLI minus interpreter start-up)
and the public library API.

Set-up (``setup_s``) imports the package, generates the workload, exports the
manifold files ``verify_sweep`` reads and runs one warm-up unit; it is
repeated ``SETUP_REPEATS`` times and the median reported.

The timed end-to-end metrics are given at a fixed reference speed.  The
machine's speed drifts in steps of up to a quarter within and between runs on
a shared host, and it moves every part of the program alike.  So a short
pure-Python reference kernel (``reference_kernel``) is timed just before every
op and every set-up, and each time is multiplied by ``REF_KERNEL_S`` over the
median kernel time around it (``SPEED_WINDOW`` samples on each side): a time
in ms reads as on a machine where the kernel takes exactly 1 ms.  The kernel
is not part of any op's time.  The raw wall-clock figures and the speed
factor are printed on ``#`` lines.

A run is made of whole *rounds*; each round runs every op of the workload
once, in an order drawn from the seed.  Rounds repeat until ``--seconds`` have
passed, and the round in progress is finished, so every run measures the
same mix.  Each op is checked after it is timed; ``success_ratio`` is
1 - fail_ratio, the share of ops that returned the expected output.

``--trace 0`` prints the end-to-end metrics (see ``END_TO_END``).
``--trace 1`` runs one round untraced and the same round traced, and prints
the per-layer metrics (see ``per_layer_rows``): counts, total and self time of the
wrapped public functions, root-span time per op kind, and the tracing
overhead.  The spans are written to ``.bench_out/``.  ``--seconds`` does not
apply to a traced run, whose counts must repeat exactly.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
PACKAGE = "qsteenrod"
ENV_TRUNCATE = "QSROD_TRUNCATE_DEFAULT"
SETUP_REPEATS = 31
REF_KERNEL_S = 1e-3
SPEED_WINDOW = 5

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "success_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_layer_rows():
    """(name, unit, better, what it should move) for every per-layer metric."""
    lib_verify = "ops_per_s, op_tail_ms on library_session and verify_sweep"
    ladder = "op_p50_ms, ops_per_s on divisor_ladder"
    ladder_nil = "divisor_ladder; near nil on verify_sweep"
    library = "ops_per_s, op_tail_ms on library_session"
    sweep = "op_p50_ms on verify_sweep"
    rows = [
        ("solver.solve_qsigma.calls", "count", "lower", lib_verify),
        ("solver.solve_qsigma.distinct", "count", "lower", lib_verify),
        ("solver.solve_qsigma.useful_ratio", "ratio", "higher",
         lib_verify + "; stays 1.0 on divisor_ladder"),
        ("solver.solve_qsigma.s", "s", "lower", ladder),
        ("solver.solve_qsigma.self_s", "s", "lower", ladder),
        ("solver.tzero_layer.s", "s", "lower", ladder),
        ("solver.initial_layer.s", "s", "lower", ladder),
        ("solver.verify_covariant_constancy.s", "s", "lower", ladder),
        ("solver.verify_covariant_constancy.calls", "count", "lower", ladder),
        ("solver.qst.calls", "count", "lower", library),
        ("solver.qst_auto.calls", "count", "lower", library),
        ("solver.qst_auto.s", "s", "lower", library),
        ("solver.qst_auto.route.direct", "count", "higher", library),
        ("solver.qst_auto.route.generators", "count", "higher", library),
        ("solver.qst_auto.route.tainted", "count", "lower", library),
        ("solver.qsigma_apply.s", "s", "lower", library),
        ("solver.qsigma_apply.calls", "count", "lower", library),
        ("solver.qsigma_lambda.s", "s", "lower", sweep),
        ("solver.qsigma_lambda.calls", "count", "lower", sweep),
        ("ring.pfold_power.s", "s", "lower", ladder_nil),
        ("ring.pfold_power.calls", "count", "lower", ladder_nil),
        ("ring.pfold_power.share_of_solve", "ratio", "lower", ladder_nil),
        ("ring.quantum_product.s", "s", "lower", ladder_nil),
        ("ring.quantum_product.calls", "count", "lower", ladder_nil),
        ("ring.QuantumRing.sc.calls", "count", "lower", ladder_nil),
        ("ring.connection_apply.s", "s", "lower", library),
        ("ring.connection_apply.calls", "count", "lower", library),
        ("ring.verify_ring.s", "s", "lower", sweep),
        ("series.series_mul.calls", "count", "lower", ladder_nil),
        ("series.SeriesElement.created", "count", "lower", ladder_nil),
        ("endo.GradedEndomorphism.column.s", "s", "lower", library),
        ("endo.GradedEndomorphism.column.calls", "count", "lower", library),
        ("endo.GradedEndomorphism.apply.s", "s", "lower", library),
        ("endo.GradedEndomorphism.apply.calls", "count", "lower", library),
        ("endo.compose.s", "s", "lower", library),
        ("endo.compose.calls", "count", "lower", library),
        ("endo.qpi.s", "s", "lower", library),
        ("endo.format_endo.s", "s", "lower", "op_p50_ms on divisor_ladder"),
        ("endo.format_endo.calls", "count", "lower", "op_p50_ms on divisor_ladder"),
        ("manifold_io.dump_result.s", "s", "lower", "op_p50_ms on divisor_ladder"),
        ("manifold_io.ring_from_data.s", "s", "lower", sweep),
        ("manifold_io.ring_from_data.calls", "count", "lower", sweep),
        ("manifold_io.load_manifold.s", "s", "lower", sweep),
        ("manifold_io.load_manifold.calls", "count", "lower", sweep),
        ("cli.main.s", "s", "lower", sweep),
        ("cli.main.self_s", "s", "lower", sweep),
        ("cli.main.calls", "count", "lower", sweep),
        ("oracles.builtin_ring.s", "s", "lower", library),
        ("oracles.s2_closed_form.s", "s", "lower", sweep),
        ("oracles.xi_matrix.s", "s", "lower", sweep),
        ("oracles.reduce_mod_p.s", "s", "lower", sweep),
        ("cells.verify_cells.s", "s", "lower", sweep),
        ("fp.fp_inv.calls", "count", "lower", sweep),
        ("fp.factorial_ratio.calls", "count", "lower", sweep),
    ]
    for kind in workloads.OP_KINDS:
        rows.append(("op.%s.s" % kind, "s", "lower", "op_p50_ms, ops_per_s of its workload"))
    rows += [
        ("trace.ops", "count", "higher", "none: size of the traced round"),
        ("trace.spans", "count", "lower", "none: spans recorded"),
        ("trace.untraced_ops_per_s", "1/s", "higher", "ops_per_s"),
        ("trace.traced_ops_per_s", "1/s", "higher", "none: traced throughput"),
        ("trace.overhead_ratio", "ratio", "lower", "none: 1 - traced/untraced ops_per_s"),
        ("trace.selftest_ok", "count", "higher", "none: 1 when the binding self-test passes"),
        ("info.src_lines", "count", "lower", "none: ungated line count of src/"),
    ]
    return rows


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "r", encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


# -- set-up -------------------------------------------------------------------


def import_package():
    """Import qsteenrod afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    origin = os.path.realpath(pkg.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError("imported %s from %s, not from %s" % (PACKAGE, origin, SRC))
    return pkg


def reference_kernel():
    """Seconds taken by a fixed pure-Python loop of integer and dict work."""
    t0 = time.perf_counter()
    table = {}
    x = 1
    for i in range(1500):
        x = (x * 48271 + i) % 2147483647
        table[x & 1023] = table.get(x & 1023, 0) + x % 211
    return time.perf_counter() - t0


def setup_once(workload, seed, reference):
    """Import, generate the workload, export files and run one warm-up unit.

    Returns (seconds, package, units, seeded rng, warm-up failures)."""
    t0 = time.perf_counter()
    pkg = import_package()
    rng = random.Random(seed)
    units = workloads.build(workload, pkg, rng, OUT, reference)
    failures = run_unit(units[0], [])
    return time.perf_counter() - t0, pkg, units, rng, failures


def run_unit(unit, records, tracer=None, op_base=0, session=0):
    """Run and check the ops of one unit.

    Appends (key, kind, dt, error, kernel) per op, where kernel is the time
    of ``reference_kernel`` run just before the op."""
    ctx = {}
    failures = []
    for n, op in enumerate(unit):
        if tracer is not None:
            tracer.begin_op(op_base + n, session, "op." + op.kind)
        error = None
        kernel = reference_kernel()
        t0 = time.perf_counter()
        try:
            result = op.call(ctx)
        except Exception as exc:  # an op that raises counts as failed
            dt = time.perf_counter() - t0
            error = "%s raised %s: %s" % (op.key, type(exc).__name__, exc)
        else:
            dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if error is None:
            error = op.check(result)
        records.append((op.key, op.kind, dt, error, kernel))
        if error is not None:
            failures.append(error)
            if op.kind == "api.builtin_ring":
                break
    return failures


def run_round(units, rng, records, tracer=None):
    order = list(units)
    rng.shuffle(order)
    for session, unit in enumerate(order):
        run_unit(unit, records, tracer, op_base=len(records), session=session)


# -- statistics ---------------------------------------------------------------


def percentile(values, pct):
    """Linear-interpolated percentile (the "inclusive" method) of values."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def at_reference_speed(records):
    """Each op's time scaled by REF_KERNEL_S over the median kernel time of
    the 2 * SPEED_WINDOW + 1 ops around it."""
    kernel = [r[4] for r in records]
    scaled = []
    for i, r in enumerate(records):
        nearby = kernel[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1]
        scaled.append(r[2] * REF_KERNEL_S / statistics.median(nearby))
    return scaled


def timed_metrics(records, times, tail_pct):
    """op_p50_ms, op_tail_ms and ops_per_s of the given per-op times."""
    per_op = {}
    for r, dt in zip(records, times):
        per_op.setdefault(r[0], []).append(dt)
    return {
        # Median over the round's ops of each op's median over the rounds:
        # the op mix has a steep slope at its median, where the median of the
        # raw samples jumps between neighbouring ops.
        "op_p50_ms": statistics.median(statistics.median(v) for v in per_op.values()) * 1e3,
        "op_tail_ms": percentile(times, tail_pct) * 1e3,
        "ops_per_s": len(times) / sum(times),
    }


def end_to_end(records, rounds, setup_times, setup_kernels, tail_pct):
    """The end-to-end metrics at reference speed, and informational fields
    that include the same metrics in raw wall-clock time."""
    scaled = at_reference_speed(records)
    raw = [r[2] for r in records]
    setup_scaled = [t * REF_KERNEL_S / k for t, k in zip(setup_times, setup_kernels)]
    failed = sum(1 for r in records if r[3] is not None)
    tail_v = percentile(scaled, tail_pct)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"setup_s": statistics.median(setup_scaled)}
    values.update(timed_metrics(records, scaled, tail_pct))
    values["success_ratio"] = 1.0 - failed / len(records)
    values["peak_rss_mb"] = rss_kb / 1024.0
    values = {name: values[name] for name in END_TO_END}
    info = {
        "rounds": rounds,
        "ops": len(records),
        "failed": failed,
        "fail_ratio": failed / len(records),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": sum(1 for t in scaled if t > tail_v),
        "speed_factor": statistics.median(r[4] for r in records) / REF_KERNEL_S,
        "wall_setup_s": statistics.median(setup_times),
    }
    for name, value in timed_metrics(records, raw, tail_pct).items():
        info["wall_" + name] = value
    return values, info


def per_layer(tracer, records_traced, untraced_s, traced_s, selftest_ok):
    agg = tracer.aggregate()
    counts = tracer.counts
    values = {}
    none = [0, 0.0, 0.0]
    for name, _, _, _ in per_layer_rows():
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = agg[base][0] if base in agg else counts.get(base, 0)
        elif field == "s":
            values[name] = agg.get(base, none)[1]
        elif field == "self_s":
            values[name] = agg.get(base, none)[2]
    values["series.SeriesElement.created"] = counts.get("series.SeriesElement.created", 0)
    solves = agg.get("solver.solve_qsigma", none)
    distinct = len(tracer.problems)
    values["solver.solve_qsigma.distinct"] = distinct
    values["solver.solve_qsigma.useful_ratio"] = distinct / solves[0] if solves[0] else 1.0
    for route, n in tracer.routes.items():
        values["solver.qst_auto.route." + route] = n
    pfold = agg.get("ring.pfold_power", none)[1]
    values["ring.pfold_power.share_of_solve"] = pfold / solves[1] if solves[1] else 0.0
    values["info.src_lines"] = src_lines()
    n = len(records_traced)
    values["trace.ops"] = n
    values["trace.spans"] = len(tracer.spans)
    values["trace.untraced_ops_per_s"] = n / untraced_s
    values["trace.traced_ops_per_s"] = n / traced_s
    values["trace.overhead_ratio"] = 1.0 - untraced_s / traced_s
    values["trace.selftest_ok"] = 1 if selftest_ok else 0
    return {name: values[name] for name, _, _, _ in per_layer_rows()}


# -- output -------------------------------------------------------------------


def emit(correct, attempted, failed, values, units):
    for name, value in values.items():
        print("%-44s %16.6f %s" % (name, value, units[name]))
    metrics = {
        name: {"value": value, "unit": units[name]} for name, value in values.items()
    }
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        sys.stderr.write("error: no %s package under %s; run from a source checkout\n"
                         % (PACKAGE, SRC))
        return 2
    truncate_env = os.environ.pop(ENV_TRUNCATE, None)
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    # Set-up imports the package from bytecode cached in .bench_out, written
    # by the first set-up, whatever PYTHONDONTWRITEBYTECODE says.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = os.path.join(OUT, "pycache")
    reference = workloads.load_reference()

    print("# workload=%s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# python=%s nproc=%d %s=%s"
          % (platform.python_version(), os.cpu_count() or 0, ENV_TRUNCATE,
             "unset" if truncate_env is None else "cleared (was %r)" % truncate_env))

    setup_times = []
    setup_kernels = []
    setup_failures = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        setup_kernels.append(
            statistics.median(reference_kernel() for _ in range(2 * SPEED_WINDOW + 1))
        )
        seconds, pkg, units, rng, failures = setup_once(args.workload, args.seed, reference)
        setup_times.append(seconds)
        setup_failures += failures

    records = []
    if args.trace:
        from tracing import Tracer
        import selftest

        state = rng.getstate()
        run_round(units, rng, records)
        untraced_s = sum(r[2] for r in records)
        rng.setstate(state)
        traced = []
        tracer = Tracer().install(PACKAGE)
        try:
            run_round(units, rng, traced, tracer)
        finally:
            tracer.uninstall()
        traced_s = sum(r[2] for r in traced)
        problems = selftest.check(pkg)
        for problem in problems:
            print("# selftest: %s" % problem)
        tracer.dump(os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload, args.seed)))
        values = per_layer(tracer, traced, untraced_s, traced_s, not problems)
        units_of = {name: unit for name, unit, _, _ in per_layer_rows()}
        records += traced
        print("# traced round: %d ops, %.3f s untraced, %.3f s traced, %d spans"
              % (len(traced), untraced_s, traced_s, len(tracer.spans)))
    else:
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            run_round(units, rng, records)
            rounds += 1
        values, info = end_to_end(
            records, rounds, setup_times, setup_kernels,
            workloads.TAIL_PERCENTILE[args.workload],
        )
        units_of = {name: unit for name, (unit, _) in END_TO_END.items()}
        print("# src_lines=%d" % src_lines())
        print("# " + " ".join("%s=%s" % kv for kv in info.items()))
        path = os.path.join(OUT, "run-%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"info": info, "setup_s": setup_times, "setup_kernel_s": setup_kernels,
                       "records": records}, handle)

    failed = len(setup_failures) + sum(1 for r in records if r[3] is not None)
    for error in setup_failures + [r[3] for r in records if r[3] is not None][:20]:
        print("# FAIL %s" % error)
    attempted = len(records) + SETUP_REPEATS * len(units[0])
    emit(failed == 0, attempted, failed, values, units_of)
    return 0


if __name__ == "__main__":
    sys.exit(main())
