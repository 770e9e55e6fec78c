"""Traced breakdown of one solve_qsigma call, layer by layer.

Run from the root of a source checkout:

    python3 bench/profile_solve.py cubic_surface 211 h_2

It solves QSigma_b once untraced (to warm up), once with the benchmark's
spans only, and once with its counters too.  It prints each wrapped
function's calls, total and self time and share of the solve from the
spans-only run (counters add a cost per call that would inflate the shares),
followed by the counts.
"""

import os
import sys
import time

import run
from tracing import Tracer


def main(argv):
    manifold, prime, cls = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, run.SRC)
    os.environ.pop(run.ENV_TRUNCATE, None)
    pkg = run.import_package()
    ring = pkg.builtin_ring(manifold, prime)
    t0 = time.perf_counter()
    pkg.solve_qsigma(cls, ring)
    untraced = time.perf_counter() - t0
    tracer, counter = Tracer(), Tracer()
    for t, counters in ((tracer, False), (counter, True)):
        t.install(run.PACKAGE, counters)
        try:
            t.begin_op(0, 0, "op.solve")
            pkg.solve_qsigma(cls, ring)
            t.end_op()
        finally:
            t.uninstall()
    agg = tracer.aggregate()
    solve = agg["solver.solve_qsigma"][1]
    print("solve_qsigma(%s) on %s mod %d: %.1f ms untraced, %.1f ms traced"
          % (cls, manifold, prime, untraced * 1e3, solve * 1e3))
    print("%-36s %7s %10s %10s %7s" % ("span", "calls", "total ms", "self ms", "share"))
    for name, (calls, total, self_s) in sorted(agg.items(), key=lambda kv: -kv[1][1]):
        print("%-36s %7d %10.2f %10.2f %6.1f%%"
              % (name, calls, total * 1e3, self_s * 1e3, 100.0 * total / solve))
    for name, count in sorted(counter.counts.items()):
        print("%-36s %7d" % (name, count))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
