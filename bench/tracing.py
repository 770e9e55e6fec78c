"""In-memory span tracer that wraps qsteenrod's public functions from outside.

The package imports many functions by name (``from .solver import
solve_qsigma`` in ``cli.py``, for example), so patching one module attribute
misses every call made through another binding.  ``Tracer.install`` therefore
replaces *every* module-level binding of each wrapped function in every loaded
``qsteenrod`` module, and wraps methods on their class.  ``uninstall`` puts
the originals back.

A *span* is ``[name, start, end, parent index, op id]``.  Spans are recorded
only while an op is open (``begin_op``/``end_op``), so correctness checks the
benchmark runs between ops are not attributed to the program.  Counters that
fire on hot paths (``QuantumRing.sc``, ``series_mul``, ``SeriesElement``
construction, ``fp_inv``, ``factorial_ratio``) record a count and no span.
"""

import functools
import importlib
import json
import sys
import time

SPAN = "span"
COUNT = "count"

# (module, attribute, how): attribute may be "Class.method".
WRAPPED = (
    ("cli", "main", SPAN),
    ("manifold_io", "ring_from_data", SPAN),
    ("manifold_io", "load_manifold", SPAN),
    ("manifold_io", "dump_result", SPAN),
    ("solver", "solve_qsigma", SPAN),
    ("solver", "tzero_layer", SPAN),
    ("solver", "initial_layer", SPAN),
    ("solver", "verify_covariant_constancy", SPAN),
    ("solver", "qst", SPAN),
    ("solver", "qst_auto", SPAN),
    ("solver", "qsigma_apply", SPAN),
    ("solver", "qsigma_lambda", SPAN),
    ("ring", "pfold_power", SPAN),
    ("ring", "quantum_product", SPAN),
    ("ring", "connection_apply", SPAN),
    ("ring", "verify_ring", SPAN),
    ("ring", "QuantumRing.sc", COUNT),
    ("series", "series_mul", COUNT),
    ("series", "SeriesElement.__init__", COUNT),
    ("endo", "GradedEndomorphism.column", SPAN),
    ("endo", "GradedEndomorphism.apply", SPAN),
    ("endo", "compose", SPAN),
    ("endo", "qpi", SPAN),
    ("endo", "format_endo", SPAN),
    ("fp", "fp_inv", COUNT),
    ("fp", "factorial_ratio", COUNT),
    ("oracles", "builtin_ring", SPAN),
    ("oracles", "s2_closed_form", SPAN),
    ("oracles", "xi_matrix", SPAN),
    ("oracles", "reduce_mod_p", SPAN),
    ("cells", "verify_cells", SPAN),
)


def layer_name(module, attr):
    if attr == "SeriesElement.__init__":
        return "series.SeriesElement.created"
    return "%s.%s" % (module, attr)


def problem_key(b, ring, trunc):
    """What makes two solve_qsigma calls the same problem."""
    if not isinstance(b, str):
        b = tuple(
            sorted((k, tuple(sorted(f.terms.items()))) for k, f in b.components.items())
        )
    return (ring.name, ring.prime, b, trunc)


def route_kind(route):
    if route == "direct":
        return "direct"
    if route.startswith("generators"):
        return "generators"
    return "tainted"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.problems = set()
        self.routes = {"direct": 0, "generators": 0, "tainted": 0}
        self._stack = []
        self._op = None
        self._session = None
        self._restore = []

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op_id, session, name):
        self._op = op_id
        self._session = session
        self._stack = [self._open(name)]

    def end_op(self):
        self._close(self._stack.pop())
        self._op = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        return len(self.spans) - 1

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            if name == "solver.solve_qsigma":
                b, ring = args[0], args[1]
                trunc = args[2] if len(args) > 2 else kwargs.get("trunc")
                tracer.problems.add((tracer._session, problem_key(b, ring, trunc)))
            idx = tracer._open(name)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer._close(idx)
            if name == "solver.qst_auto":
                tracer.routes[route_kind(result[2])] += 1
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is not None:
                counts = tracer.counts
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package, counters=True):
        """Wrap every binding of the functions in WRAPPED; returns self.

        With ``counters`` false only the spans are installed, which keeps the
        counters' per-call cost out of the span times.
        """
        for module, _, _ in WRAPPED:
            importlib.import_module("%s.%s" % (package, module))
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for module, attr, how in WRAPPED:
            if how == COUNT and not counters:
                continue
            owner = sys.modules["%s.%s" % (package, module)]
            name = layer_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                make = self._span_wrapper if how == SPAN else self._count_wrapper
                setattr(cls, meth, make(fn, name))
                self._restore.append((cls, meth, fn))
                continue
            fn = getattr(owner, attr)
            make = self._span_wrapper if how == SPAN else self._count_wrapper
            wrapper = make(fn, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, fn))
        return self

    def uninstall(self):
        for obj, key, fn in reversed(self._restore):
            setattr(obj, key, fn)
        self._restore = []

    def unwrapped_bindings(self, package):
        """Module bindings that still point at an original wrapped function."""
        originals = {id(fn) for _, _, fn in self._restore}
        return [
            "%s.%s" % (n, key)
            for n, mod in sorted(sys.modules.items())
            if mod is not None and (n == package or n.startswith(package + "."))
            for key, value in vars(mod).items()
            if id(value) in originals
        ]

    # -- results -------------------------------------------------------------

    def aggregate(self):
        """{name: [calls, total seconds, self seconds]} over closed spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[idx]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": self.counts,
                },
                handle,
            )
