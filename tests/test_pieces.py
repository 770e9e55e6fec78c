"""Elements stored as homogeneous pieces against the SeriesElement arithmetic they replace.

A CohomologyElement keeps pieces {(g, h): {k: row}}; its components view
rebuilds {k: SeriesElement} with Monomial keys.  The references below do each
operation on that view with test_series's series arithmetic (series_mul for the
products, through test_ring's loop references), so every result, truncation
included, must agree.  The guard then runs library sessions, every verify
suite and compute --op qst with the series form made to raise.
"""

import importlib.util
import io
import os
import random

import pytest

import qsteenrod
import qsteenrod.cli  # noqa: F401  (the workloads reach the CLI as pkg.cli)
from qsteenrod.cli import main
from qsteenrod.errors import MixedContext
from qsteenrod.oracles import builtin_ring
from qsteenrod.ring import (
    CohomologyElement,
    basis_class,
    classical_product,
    connection_apply,
    quantum_product,
    zero_element,
)
from qsteenrod.series import Monomial, SeriesElement
from test_ring import _loop_classical_product, _loop_quantum_product
from test_series import (
    add, coefficient, derivation_apply, element_of, retruncate, scale, series, times_monomial,
)

BUILTINS = ("s2", "cubic_surface", "quadric_intersection")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _form(x):
    """x as (trunc, {k: SeriesElement}), read through its components view."""
    return x.trunc, dict(x.components)


def _ref(comps):
    """(trunc, comps) without the zero series; trunc None when nothing is left."""
    comps = {k: f for k, f in comps.items() if not f.is_zero()}
    truncs = {f.trunc for f in comps.values()}
    assert len(truncs) <= 1
    return (truncs.pop() if truncs else None), comps


def _ref_add(x, y):
    out = dict(x.components)
    for k, g in y.components.items():
        out[k] = add(out[k], g) if k in out else g
    return _ref(out)


def _ref_degree(x):
    degs = {
        x.ring.degree(k) + 2 * m.t + m.theta + x.ring.q_degree * m.q
        for k, f in x.components.items() for m in f.terms
    }
    return degs.pop() if len(degs) == 1 else None


def _ref_connection(name, x):
    """nabla_a x as connection_apply built it: derivation_apply on each series, then a *."""
    ring = x.ring
    if x.is_zero():
        return zero_element(ring, 0)
    lam = ring.divisor(name).pairing
    deriv = {k: times_monomial(derivation_apply(lam, f), t=1) for k, f in x.components.items()}
    return element_of(ring, deriv) + _loop_quantum_product(
        basis_class(ring, name, x.trunc), x
    )


def _ref_steenrod(ring, b):
    """St(b) of a q,t-free b, each class's St(e_k) summed as SeriesElements."""
    p, trunc, out = ring.prime, b.trunc, {}
    for k, f in b.components.items():
        c = coefficient(f, 0, 0)
        for (j, t), v in ring._steenrod(k).items():
            term = series(p, trunc, [(0, t, 0, c * v)])
            out[j] = add(out[j], term) if j in out else term
    return _ref(out)


def _random_element(ring, rng, trunc):
    """Random series on random classes: theta terms, negative t, several degrees, q past trunc."""
    p, n = ring.prime, len(ring.basis)
    comps = {}
    for k in rng.sample(range(n), rng.randint(0, n)):
        items = [
            (rng.randrange(trunc + 3), rng.randint(-3, 3), rng.randint(0, 1), rng.randrange(p))
            for _ in range(rng.randint(1, 5))
        ]
        comps[k] = series(p, trunc, items)
    return element_of(ring, comps)


@pytest.mark.parametrize("p", [2, 3, 5, 31])
def test_piece_arithmetic_matches_series_arithmetic_on_the_view(p):
    rng = random.Random(p)
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        n, a = len(ring.basis), ring.basis[ring.primary.index].name
        for trunc in (0, 1, 3):
            xs = [_random_element(ring, rng, trunc) for _ in range(8)] + [zero_element(ring, trunc)]
            xs.append(xs[0] + xs[1].times_monomial(q=1, t=-1, coeff=2))  # inhomogeneous
            for x in xs:
                assert element_of(ring, x.components) == x
                assert x.degree == _ref_degree(x)
                c = rng.randrange(-p, 2 * p)
                assert _form(x.scale(c)) == _ref({k: scale(f, c) for k, f in x.components.items()})
                q, t = rng.randrange(3), rng.randint(-2, 2)
                assert _form(x.times_monomial(q=q, t=t, coeff=c)) == _ref(
                    {k: times_monomial(f, q=q, t=t, coeff=c) for k, f in x.components.items()}
                )
                for top in (0, trunc, trunc + 2):
                    assert _form(x.retruncate(top)) == _ref(
                        {k: retruncate(f, top) for k, f in x.components.items()}
                    )
                for _ in range(6):
                    k, q = rng.randrange(-1, n + 1), rng.randrange(-1, trunc + 2)
                    t, h = rng.randint(-3, 3), rng.randint(0, 1)
                    f = x.components.get(k)
                    assert x.coefficient(k, q, t, h) == (coefficient(f, q, t, h) if f else 0)
                assert _form(connection_apply(a, x)) == _form(_ref_connection(a, x))
                for y in xs:
                    assert _form(x + y) == _ref_add(x, y)
                    neg = {k: scale(f, -1) for k, f in y.components.items()}
                    assert _form(x - y) == _form(x + element_of(ring, neg))
                    assert (x == y) == (_form(x) == _form(y))
                    for got, want in ((quantum_product(x, y), _loop_quantum_product(x, y)),
                                      (classical_product(x, y), _loop_classical_product(x, y))):
                        assert _form(got) == _form(want), (name, x, y)
            other = _random_element(ring, rng, trunc + 1)
            if not other.is_zero() and not xs[0].is_zero():
                with pytest.raises(MixedContext):
                    xs[0] + other
                with pytest.raises(MixedContext):
                    quantum_product(xs[0], other)
            # St on q,t-free combinations of classes of any degrees
            for _ in range(4):
                b = element_of(ring, {
                    k: series(p, trunc, [(0, 0, 0, rng.randrange(p))])
                    for k in rng.sample(range(n), rng.randint(0, n))
                })
                assert _form(ring.steenrod_of(b)) == _ref_steenrod(ring, b)


def test_the_components_view_is_read_only_and_built_once():
    ring = builtin_ring("cubic_surface", 5)
    x = basis_class(ring, "h_2", 3).times_monomial(q=1, t=-1, coeff=2)
    view = x.components
    assert x.components is view
    assert dict(view) == {1: series(5, 3, [(1, -1, 0, 2)])}
    assert all(type(m) is Monomial for f in view.values() for m in f.terms)
    with pytest.raises(TypeError):
        view[0] = view[1]


# -- the element paths build no series -------------------------------------------


def _library_units():
    path = os.path.join(ROOT, "bench", "workloads.py")
    if not os.path.isfile(path):
        pytest.skip("no bench/ in this checkout")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.build(
        "library_session", qsteenrod, random.Random(0), None, workloads.load_reference()
    )


def test_the_element_paths_build_no_series_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an element path built a Monomial or a SeriesElement")

    units, done = _library_units(), []
    with monkeypatch.context() as patch:
        patch.setattr(Monomial, "__new__", refuse)
        patch.setattr(SeriesElement, "__post_init__", refuse)
        patch.setattr(CohomologyElement, "components", property(refuse))
        for unit in units:
            ctx = {}
            done += [(op, op.call(ctx)) for op in unit]
        for name in BUILTINS:
            ring = builtin_ring(name, 3)
            for p in (2, 3, 5, 7, 11):
                argv = ["verify", "--manifold", "builtin:" + name, "--prime", str(p)]
                assert main(argv, out=io.StringIO()) == 0, argv
            for b in ring.basis:
                for p in (2, 3, 5, 31):
                    for fmt in ("text", "json"):
                        argv = ["compute", "--manifold", "builtin:" + name, "--prime", str(p),
                                "--class", b.name, "--op", "qst", "--format", fmt]
                        assert main(argv, out=io.StringIO()) == 0, argv
    assert len(done) == 6 * (10 + 14)
    for op, result in done:  # the checks read the view, so they run after the guard
        assert op.check(result) is None
