"""Self-test of the benchmark's tracer and metric list.

Run from the root of a source checkout:

    python3 bench/selftest.py

It checks that the tracer replaces every binding of each wrapped function,
that the ``solve_qsigma`` call and distinct-problem counts of four CLI
commands are the ones measured when the benchmark was defined, and that
``BENCHMARK.json`` lists exactly the metrics ``run.py`` prints.  ``run.py
--trace 1`` runs the first two checks and reports them as
``trace.selftest_ok``.  Exit code 0 when every check passes.
"""

import io
import json
import os
import sys

from tracing import Tracer

# argv -> (solve_qsigma calls, distinct problems)
SOLVE_COUNTS = (
    ("verify --manifold builtin:quadric_intersection --prime 3 --suite constancy", 5, 4),
    ("verify --manifold builtin:quadric_intersection --prime 3 --suite all", 24, 9),
    ("compute --manifold builtin:quadric_intersection --prime 5 --class h_6 --op qst", 4, 3),
    ("compute --manifold builtin:cubic_surface --prime 31 --class h_4 --op qst", 5, 3),
)


def check(pkg):
    """Tracer checks against the imported package; returns a list of problems."""
    problems = []
    for n, (line, calls, distinct) in enumerate(SOLVE_COUNTS):
        tracer = Tracer().install(pkg.__name__)
        try:
            if n == 0:
                problems += ["unwrapped binding " + b
                             for b in tracer.unwrapped_bindings(pkg.__name__)]
            tracer.begin_op(0, 0, "op.selftest")
            try:
                code = pkg.cli.main(line.split(), out=io.StringIO())
            finally:
                tracer.end_op()
        finally:
            tracer.uninstall()
        got = (tracer.aggregate().get("solver.solve_qsigma", [0])[0], len(tracer.problems))
        if code != 0:
            problems.append("exit code %d for %r" % (code, line))
        if got != (calls, distinct):
            problems.append("%r: solve_qsigma calls/distinct %r, expected %r"
                            % (line, got, (calls, distinct)))
    return problems


def check_manifest(path):
    """BENCHMARK.json names the metrics run.py prints, with the same units."""
    import run

    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    problems = []
    e2e = {m["name"]: (m["unit"], m["better"]) for m in manifest["end_to_end"]}
    if e2e != run.END_TO_END:
        problems.append("end_to_end in %s differs from run.END_TO_END" % path)
    layers = {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
    rows = {name: (unit, better) for name, unit, better, _ in run.per_layer_rows()}
    if layers != rows:
        problems.append("per_layer in %s differs from run.per_layer_rows()" % path)
    return problems


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import run

    pkg = run.import_package()
    problems = check(pkg) + check_manifest(os.path.join(root, "BENCHMARK.json"))
    for problem in problems:
        print("FAIL " + problem)
    if not problems:
        print("PASS tracer bindings, solve_qsigma counts, BENCHMARK.json metric list")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
