"""The generated step of one q-order against the sweep it replaced.

_reference_order is the per-order loop of solve_qsigma as it was, a nested walk
over the _ad_map lists with the mask followed slot by slot, kept here as the
reference.  The step must give its values on every slot outside its mask; the
solver zeroes the masked slots after the step.
"""

import random

import pytest

from qsteenrod import solve_qsigma, solver
from qsteenrod.endo import _bits
from qsteenrod.manifold_io import ring_from_data
from qsteenrod.oracles import builtin_ring
from test_solver import _cpn

BUILTINS = ("s2", "cubic_surface", "quadric_intersection")


def _reference_order(tables, order, xs, masks, inv, p):
    """Order d = len(xs) at an invertible lambda*d, from the orders xs[:d] and their
    masks, as the solver's loop did it: (values, mask)."""
    d, ad0 = len(xs), tables[0]
    reach = {f: [sum(1 << t for t, _ in ts) for ts in tab] for f, tab in tables.items()}
    x = [0] * len(order)
    mask = 0
    for e, table in tables.items():
        if 1 <= e <= d:
            for s, c in enumerate(xs[d - e]):
                if c:
                    for t, v in table[s]:
                        x[t] -= c * v
            if masks[d - e]:
                for s in _bits(masks[d - e]):
                    mask |= reach[e][s]
    for s in order:
        if mask and mask >> s & 1:
            mask |= reach[0][s]
            x[s] = 0
            continue
        c = x[s] = x[s] * inv % p
        if c:
            for t, v in ad0[s]:
                x[t] -= c * v
    return x, mask


def _step(tables, order):
    return solver._compile_step(tuple((e, tuple(t)) for e, t in tables.items()), tuple(order))


def _order(ring):
    """The solver's sweep order: flat slots by increasing degree shift, ties by index."""
    n, degrees = len(ring.basis), ring._degrees
    return sorted(range(n * n), key=lambda s: degrees[s % n] - degrees[s // n])


def _check_windows(tables, order, p, rng, windows):
    """The step against the reference on random windows; the count of tainted ones."""
    step, m, n2 = _step(tables, order), max(tables), len(order)
    tainted = 0
    for w in range(windows):
        d = rng.randint(1, m + 2)  # below the top block too
        xs = [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n2)] for _ in range(d)]
        masks = [sum(1 << s for s in range(n2) if rng.random() < 0.15) if w % 2 else 0
                 for _ in range(d)]
        inv = rng.randrange(1, p)
        want, mask = _reference_order(tables, order, xs, masks, inv, p)
        got = step(*([[0] * n2] * m + xs)[d:], inv, p)
        assert [0 if mask >> s & 1 else c for s, c in enumerate(got)] == want
        tainted += bool(mask)
    return tainted


@pytest.mark.parametrize("p", [2, 3, 5, 31, 211])
def test_step_matches_the_reference_on_the_builtins(p):
    rng = random.Random(p)
    cancelled = tainted = 0
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        tables = solver._divisor_map(ring, ring.primary)[1]
        cancelled += sum(not v for table in tables.values() for pairs in table for _, v in pairs)
        tainted += _check_windows(tables, _order(ring), p, rng, 40)
    # h_2 -> h_2 under A_1 on the cubic surface, whose q-terms all vanish mod 3
    assert cancelled or p == 3
    assert tainted


@pytest.mark.parametrize("n, p", [(8, 5), (8, 211), (16, 3), (16, 31)])
def test_step_matches_the_reference_on_cpn(n, p):
    ring = ring_from_data(_cpn(n), p)
    tables = solver._divisor_map(ring, ring.primary)[1]
    assert _check_windows(tables, _order(ring), p, random.Random(n * p), 10)


def test_rings_built_alike_share_one_step():
    solver._compile_step.cache_clear()
    for _ in range(2):  # two fresh rings with equal tables
        solve_qsigma("h_2", builtin_ring("cubic_surface", 211))
    info = solver._compile_step.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    solve_qsigma("h_2", builtin_ring("cubic_surface", 101))  # another prime, other tables
    info = solver._compile_step.cache_info()
    assert (info.misses, info.hits) == (2, 1)


def test_a_slot_of_thousands_of_terms_compiles_and_matches():
    # One block A_1 sends every slot into slot 0, and A_0 chains every slot
    # into the next and into the last, so slot 0 sums n^2 products of x_1
    # and the last slot n^2 - 1 products of earlier slots: one expression of
    # either would be too deep for CPython's compiler.
    n2, p = 72 * 72, 211
    rng = random.Random(5)
    coeff = lambda: rng.randrange(-2 * p, 2 * p)
    ad0 = [((s + 1, coeff()),) + (((n2 - 1, coeff()),) if s < n2 - 2 else ())
           for s in range(n2 - 1)] + [()]
    tables = {0: ad0, 1: [((0, coeff()),) for _ in range(n2)]}
    assert sum(t == n2 - 1 for pairs in ad0 for t, _ in pairs) >= 5000
    assert _check_windows(tables, list(range(n2)), p, rng, 4)


@pytest.mark.parametrize("name, b, steps", [("cubic_surface", "h_4", 101),
                                            ("quadric_intersection", "h_6", 100)])
def test_an_order_tainted_on_every_slot_calls_no_step(monkeypatch, name, b, steps):
    # Past q^p these solves are tainted on every slot at almost every order,
    # where the step's values would all be zeroed: the step runs on the others.
    calls = []
    compile_step = solver._compile_step

    def counted(tables, order):
        step = compile_step(tables, order)

        def counted_step(*args):
            calls.append(args)
            return step(*args)
        return counted_step

    monkeypatch.setattr(solver, "_compile_step", counted)
    endo, report = solve_qsigma(b, builtin_ring(name, 101))
    assert endo.trunc > 150 and len(report.taint) > 800
    assert len(calls) == steps
