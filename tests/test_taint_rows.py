"""Operator taint stored as bit rows {(i, j): mask}, against the slot-set rules it replaces.

The references below are the rules as they were stated on sets of (i, j, d)
slots: the re-check with its skip set packed with _pack_series and the column
(test_rows), and the application taint read off the slot set.  compose's
taint product and qsigma_lambda's shifted slot maps are compared with theirs
in test_tainted_paths.
"""

import io
import random

import pytest

from qsteenrod.cli import main
from qsteenrod.endo import (
    GradedEndomorphism,
    _bits,
    _or_product,
    _reach,
    _slots,
    compose,
    equal_on_untainted,
    format_endo,
    qpi,
)
from qsteenrod.errors import MissingSteenrodData
from qsteenrod.manifold_io import _endo_result_text, ring_from_data
from qsteenrod.oracles import builtin_manifold, builtin_ring
from qsteenrod.ring import basis_class, quantum_product
from qsteenrod.series import Monomial, SeriesElement
from qsteenrod.solver import (
    qsigma_apply,
    qsigma_lambda,
    qst,
    qst_auto,
    qst_via_generators,
    solve_qsigma,
    verify_covariant_constancy,
)
from test_rows import _reference_column, _reference_residuals

BUILTINS = ("s2", "cubic_surface", "quadric_intersection")


# -- references ----------------------------------------------------------------


def _set_apply_taint(s, x, trunc):
    """apply's taint as it was: x's slots through the tainted slots by source."""
    by_source = {}
    for i, j, d in s.taint:
        by_source.setdefault(i, []).append((j, d))
    return _reach(_slots(x), by_source, trunc)


def _set_equal_on_untainted(s1, s2):
    """equal_on_untainted as it was: slot dicts {(i, j, d): c} off the slots either taints."""
    if s1.ring._context != s2.ring._context or s1.degree != s2.degree:
        return False
    top, t1, t2 = min(s1.trunc, s2.trunc) + 1, s1.taint_rows, s2.taint_rows
    bad = {s: t1.get(s, 0) | t2.get(s, 0) for s in t1.keys() | t2.keys()}
    a, b = ({(i, j, d): c for (i, j), row in s.rows.items() for d, c in enumerate(row[:top])
             if c and not bad.get((i, j), 0) >> d & 1} for s in (s1, s2))
    return a == b


def _bent(s):
    """s with 1 added to every live untainted slot within trunc, so that residuals show."""
    entries = dict(s.entries)
    for i in range(len(s.ring.basis)):
        for j in range(len(s.ring.basis)):
            for d in range(s.trunc + 1):
                if s.kappa(i, j, d) is not None and (i, j, d) not in s.taint:
                    entries[i, j, d] = entries.get((i, j, d), 0) + 1
    return GradedEndomorphism(s.ring, s.degree, s.trunc, entries, s.taint)


def _well_formed(s):
    """taint_rows as the constructor leaves them, and equal to the slot-set view."""
    rows = s.taint_rows
    assert list(rows) == sorted(rows) and all(rows.values())
    assert all(m >> (s.trunc + 1) == 0 for m in rows.values())
    assert not any(s.rows.get(key, ()) and any(
        s.rows[key][d] for d in range(s.trunc + 1) if m >> d & 1) for key, m in rows.items())
    assert s.taint == {(i, j, d) for (i, j), m in rows.items()
                       for d in range(s.trunc + 1) if m >> d & 1}


# -- bit rows against the set rules ---------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 31, 101, 211])
def test_taint_rows_match_the_set_rules(p):
    tainted = {"solve": 0, "skip": 0, "apply": 0}
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        names = [b.name for b in ring.basis]
        a_name = names[ring.primary.index]
        for b in names:
            for trunc in (None, 1, 3):
                s, report = solve_qsigma(b, ring, trunc)
                _well_formed(s)
                assert report.taint == tuple(sorted(s.taint))
                tainted["solve"] += bool(s.taint)
                bent = _bent(s)
                checked, failures = _reference_residuals(
                    ring, s.degree, s.trunc, dict(bent.entries), set(s.taint))
                got = [verify_covariant_constancy(bent, ring.basis[div.index].name, ring)
                       for div in ring.divisors]
                assert sum(r.checked for r in got) == checked
                assert {ring.basis[div.index].name: list(r.failures)
                        for div, r in zip(ring.divisors, got)} == failures
                slots = len(names) ** 2 * (s.trunc + 1) - len(s.taint)
                tainted["skip"] += checked < len(ring.divisors) * slots  # taint reached further
                for k, c in enumerate(names):
                    for top in (s.trunc, 1):
                        assert s.column(c, top) == _reference_column(s, k, top)
                        x = basis_class(ring, c, top)
                        x = x + quantum_product(x, basis_class(ring, a_name, top))
                        got_x, got_taint = s.apply(x)
                        assert got_taint == _set_apply_taint(s, x, top)
                        tainted["apply"] += bool(got_taint)
    if p > 2:
        assert all(tainted.values()), tainted


def test_or_product_is_the_support_product():
    rows = [0, 1, 0b1011, 0b111000, (1 << 40) - (1 << 3), 1 << 70 | 0b110011]
    for a in rows:
        for b in rows:
            want = {d1 + d2 for d1 in range(80) if a >> d1 & 1 for d2 in range(80) if b >> d2 & 1}
            assert _or_product(a, b) == sum(1 << d for d in want)


def test_bits_are_the_set_bits_lowest_first():
    rng = random.Random(7)
    masks = [0, 1, 2, 0b1011, (1 << 300) - 1, 1 << 299]
    masks += [sum(1 << rng.randrange(300) for _ in range(5)) for _ in range(20)]  # sparse
    masks += [rng.getrandbits(300) | rng.getrandbits(300) for _ in range(20)]  # dense
    for mask in masks:
        assert _bits(mask) == [d for d, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def test_equal_on_untainted_matches_the_slot_dicts_on_random_rows():
    # s2 is s1 with a few slots changed or one row dropped, the changed slots
    # tainted in one operator half the time; the two truncations differ
    rng = random.Random(11)
    ring = builtin_ring("cubic_surface", 5)
    g, seen = 10, dict.fromkeys([True, False, "a row in one operator", "equal, rows apart",
                                "truncations apart"], 0)
    shape, n = GradedEndomorphism(ring, g, 7), len(ring.basis)
    live = [(i, j, d) for i in range(n) for j in range(n) for d in range(8)
            if shape.kappa(i, j, d) is not None]
    for _ in range(300):
        t1, t2 = rng.randrange(1, 8), rng.randrange(1, 8)
        entries = {s: rng.randrange(1, 5) for s in live if rng.random() < 0.6}
        taints = [{s for s in live if rng.random() < 0.04} for _ in range(2)]
        changed = dict(entries)
        if rng.random() < 0.3:
            i, j, _ = rng.choice(live)
            bent = [s for s in live if s[:2] == (i, j)]
            changed = {s: c for s, c in changed.items() if s[:2] != (i, j)}
        else:
            bent = rng.sample(live, rng.randrange(3))
            changed.update((s, changed.get(s, 0) + rng.randrange(1, 5)) for s in bent)
        if rng.random() < 0.5:
            taints[rng.randrange(2)].update(bent)
        s1 = GradedEndomorphism(ring, g, t1, entries, taints[0])
        s2 = GradedEndomorphism(ring, g, t2, changed, taints[1])
        want = _set_equal_on_untainted(s1, s2)
        assert equal_on_untainted(s1, s2) == equal_on_untainted(s2, s1) == want
        top = min(t1, t2) + 1
        cut = [{key: row[:top] for key, row in x.rows.items() if any(row[:top])} for x in (s1, s2)]
        seen[want] += 1
        seen["a row in one operator"] += cut[0].keys() != cut[1].keys()
        seen["equal, rows apart"] += want and cut[0] != cut[1]
        seen["truncations apart"] += t1 != t2
    assert min(seen.values()) > 30, seen


# -- a session that never reads the taint view -----------------------------------


def test_the_package_never_reads_the_taint_view(monkeypatch):
    def refuse(self):
        raise AssertionError("taint read")

    monkeypatch.setattr(GradedEndomorphism, "taint", property(refuse))
    for name in BUILTINS:
        for p in (3, 31, 101):
            ring = builtin_ring(name, p)
            names = [b.name for b in ring.basis]
            a_name = names[ring.primary.index]
            sigma_a, _ = solve_qsigma(a_name, ring)
            for c in names:
                s, report = solve_qsigma(c, ring)
                low, _ = solve_qsigma(c, ring, 1)
                qst(c, ring)
                qst_auto(c, ring)
                compose(sigma_a, s)
                compose(s, solve_qsigma(a_name, ring, 2)[0])
                compose(low, sigma_a)
                qsigma_apply(c, basis_class(ring, c, s.trunc), ring)
                s.apply(basis_class(ring, c, 2))
                low.column(c, 3)
                format_endo(s)
                _endo_result_text(s, {}, report)
                verify_covariant_constancy(s, a_name, ring, qpi(a_name, s))
                assert s == solve_qsigma(c, ring, s.trunc + 1)[0] and repr(s)
                assert equal_on_untainted(s, low)
                beta = quantum_product(basis_class(ring, a_name, 9), basis_class(ring, c, 9))
                if not beta.is_zero():
                    qsigma_lambda(beta, ring)
                qst_via_generators([(1, 0, (a_name, c))], ring)
            qpi(a_name, sigma_a)
    for name in BUILTINS:
        for p in (3, 5):
            out = io.StringIO()
            argv = ["verify", "--manifold", "builtin:" + name, "--prime", str(p), "--suite", "all"]
            assert main(argv, out=out) == 0, out.getvalue()


def test_taint_view_is_built_once_per_operator():
    ring = builtin_ring("quadric_intersection", 5)
    first, report = solve_qsigma("h_6", ring)
    assert report.taint and first._taint_view is None  # built on first use, not by the solve
    first.column("1")
    format_endo(first)
    compose(first, first)
    assert first._taint_view is None  # the package reads the bit rows
    view = first.taint
    assert isinstance(view, frozenset) and view == set(report.taint)
    assert first.taint is view
    hit, _ = solve_qsigma("h_6", ring)
    assert hit._taint_view is None and hit.taint == view  # a cache hit is a new operator
    assert qpi("h_2", first).taint == view  # same taint
    low, _ = solve_qsigma("h_6", ring, 2)
    assert low.taint != view and solve_qsigma("h_6", ring, 2)[0].taint == low.taint
    with pytest.raises(AttributeError, match="read-only"):
        first.taint_rows = {}


# -- the constructor checks entries and taint alike ------------------------------


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"entries": {(0, 0, -1): 1}}, r"entry at \(0,0,-1\): negative q-order"),
        ({"entries": {(-1, 0, 0): 1}}, r"entry at \(-1,0,0\): basis indices run 0 .. 1"),
        ({"entries": {(0, 7, 0): 1}}, r"entry at \(0,7,0\): basis indices run 0 .. 1"),
        ({"taint": {(0, 7, 0)}}, r"taint at \(0,7,0\): basis indices run 0 .. 1"),
        ({"taint": {(1, 0, -2)}}, r"taint at \(1,0,-2\): negative q-order"),
        ({"entries": {(0, 1, 0): 1}}, r"entry on a dead slot \(0,1,0\)"),
        ({"taint": {(0, 1, 0)}}, r"taint on a dead slot \(0,1,0\)"),
    ],
)
def test_the_constructor_rejects_bad_slots_by_name(kwargs, message):
    ring = builtin_ring("s2", 3)
    with pytest.raises(ValueError, match=message):
        GradedEndomorphism(ring, 0, 1, **kwargs)


def test_the_constructor_drops_late_slots_and_tainted_values():
    ring = builtin_ring("s2", 3)
    late = GradedEndomorphism(ring, 0, 1, {(0, 0, 5): 1, (1, 0, 0): 0}, {(0, 0, 5), (1, 0, 9)})
    assert (late.rows, late.taint_rows, late.taint) == ({}, {}, frozenset())
    assert format_endo(late) == "" and repr(late).endswith("entries=0 taint=0>")
    both = GradedEndomorphism(ring, 6, 1, {(0, 0, 0): 1, (1, 1, 0): 2}, {(0, 0, 0), (0, 0, 1)})
    assert both.rows == {(1, 1): (2, 0)} and both.taint_rows == {(0, 0): 0b11}
    assert dict(both.entries) == {(1, 1, 0): 2} and both.taint == {(0, 0, 0), (0, 0, 1)}
    assert format_endo(both) == "  (h -> h) = -t^3\ntaint:\n  (1 -> 1, t^3)\n  (1 -> 1, q t)"


# -- an incomplete operator's image stops at its truncation -----------------------


def test_an_incomplete_operator_reads_no_orders_past_its_truncation():
    ring = builtin_ring("cubic_surface", 31)
    low, _ = solve_qsigma("h_2", ring, 2)
    full, _ = solve_qsigma("h_2", ring)
    assert not low.is_complete and full.is_complete and full.trunc >= 5
    image, taint = low.column("1", 5)
    assert image.trunc == 2 and image == low.column("1")[0] == full.column("1", 2)[0]
    x = basis_class(ring, "h_2", 5)
    value, taint = low.apply(x)
    assert value.trunc == 2 and value == full.apply(x, 2)[0]
    assert full.column("1", 5)[0].trunc == 5  # a complete operator is zero past its bound
    wide, _ = full.column("1", full.trunc + 2)
    assert wide.trunc == full.trunc + 2 and wide.retruncate(full.trunc) == full.column("1")[0]


def test_column_builds_its_series_without_normalising_them(monkeypatch):
    # column reads the operator's rows into one piece: it builds no SeriesElement
    # and no Monomial at all
    ring = builtin_ring("quadric_intersection", 31)
    s, _ = solve_qsigma("h_4", ring)
    calls = []
    real, real_new = SeriesElement.__post_init__, Monomial.__new__
    monkeypatch.setattr(SeriesElement, "__post_init__", lambda self: calls.append(1) or real(self))
    monkeypatch.setattr(Monomial, "__new__", lambda cls, *a: calls.append(1) or real_new(cls, *a))
    got = [s.column(b.name, 3) for b in ring.basis]
    assert not calls
    assert got == [_reference_column(s, k, 3) for k in range(len(ring.basis))]


# -- St(e_i) is computed once per ring -------------------------------------------


def test_steenrod_is_cached_per_ring_and_a_failure_is_not():
    ring = builtin_ring("cubic_surface", 211)
    first = [ring._steenrod(i) for i in range(len(ring.basis))]
    assert all(ring._steenrod(i) is st for i, st in enumerate(first))
    assert builtin_ring("cubic_surface", 211)._steenrod(0) is not first[0]
    data = builtin_manifold("s2")
    data["default_leading_steenrod"] = False
    bad = ring_from_data(data, 3)
    for _ in range(2):
        with pytest.raises(MissingSteenrodData, match="no Steenrod entry for h mod 3"):
            bad._steenrod(1)
    assert 1 not in bad._st
