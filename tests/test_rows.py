"""Operators stored as per-(from, to) rows against the slot-map path they replace.

The references below are the solver's order-major layers turned into a slot
map {(i, j, d): c}, the re-check on that map packed with _pack_series, and
compose, qpi, column, format_endo and the result rows on the map, kept here
as they were so that every result and every byte can be compared with them.
"""

from types import MappingProxyType

import pytest

from qsteenrod import solver
from qsteenrod.endo import (
    GradedEndomorphism,
    _packed_matmul,
    compose,
    equal_on_untainted,
    format_endo,
    identity_endo,
    qpi,
)
from qsteenrod.errors import InconsistentSeed, NegativePowerResidue
from qsteenrod.fp import fp_inv
from qsteenrod.manifold_io import _endo_result_text, load_result
from qsteenrod.oracles import builtin_ring
from qsteenrod.ring import QuantumRing, element_from_terms
from qsteenrod.series import Monomial, _pack, _slot_bytes, _unpack
from qsteenrod.solver import SolveReport, initial_layer, solve_qsigma, tzero_layer
from test_output import _old_format_terms

BUILTINS = ("s2", "cubic_surface", "quadric_intersection")


# -- references ----------------------------------------------------------------


def _pack_series(entries, k, trunc):
    """{(a, b): _pack(row, k)} with row[d] = c for each ((a, b, d), c) of entries, d <= trunc.

    On a slot map {(i, j, d): c} this packs each (i, j) series into one int.
    """
    rows = {}
    for (a, b, d), c in entries.items():
        if d <= trunc:
            rows.setdefault((a, b), [0] * (trunc + 1))[d] = c
    return {key: _pack(row, k) for key, row in rows.items()}


def _unpack_series(packed, k, trunc):
    """The nonzero coefficients {(a, b, d): c}, d <= trunc, of a packed map {(a, b): int}."""
    unpacked = ((a, b, _unpack(z, k, trunc + 1)) for (a, b), z in packed.items())
    return {(a, b, d): c for a, b, row in unpacked for d, c in enumerate(row) if c}


def _reference_solve(b, ring, trunc):
    """The solve as it was: layers of nonzero (s, c), then entries {(i, j, d): c}."""
    p, n = ring.prime, len(ring.basis)
    deg = ring.basis[ring.index(b)].degree
    g, lam = p * deg, ring.primary.pairing % p
    trunc = ring.default_truncation(deg) if trunc is None else trunc
    tables = solver._divisor_map(ring, ring.primary)[1]
    ad0 = tables[0]
    degrees = ring._degrees
    exps = [(g + degrees[i] - degrees[j]) // 2 for i in range(n) for j in range(n)]
    order = sorted(range(n * n), key=exps.__getitem__, reverse=True)
    live_end = n * n
    seeds = {i * n + j: c for (i, j, _), c in tzero_layer(b, ring, trunc).items()}
    init = initial_layer(b, ring, trunc)
    layers = [[(i * n + j, c) for (i, j, _), c in init.entries.items()]]
    masks = [set()]
    seed_checks = seeds_resolving = 0
    for d in range(1, trunc + 1):
        floor = ring.q_degree // 2 * d
        while live_end and exps[order[live_end - 1]] <= floor:
            live_end -= 1
        x = [0] * (n * n)
        mask = set()
        if (lam * d) % p:
            for e, table in tables.items():
                if 1 <= e <= d:
                    for s, c in layers[d - e]:
                        for t, v in table[s]:
                            x[t] -= c * v
                    for s in masks[d - e]:
                        mask.update(t for t, _ in table[s])
            inv = fp_inv(lam * d, p)
            for s in order:
                if s in mask:
                    mask.update(t for t, _ in ad0[s])
                    x[s] = 0
                    continue
                c = x[s] = x[s] * inv % p
                if c:
                    for t, v in ad0[s]:
                        x[t] -= c * v
        else:
            mask.update(s for s in order if exps[s] >= floor)
        errors = []
        for s in order[live_end:]:
            if exps[s] < floor:
                if x[s]:
                    errors.append(s)
                continue
            if s in mask:
                seeds_resolving += 1
                x[s] = seeds[s]
            else:
                seed_checks += 1
                if x[s] != seeds[s]:
                    errors.append(s)
        if errors:
            s = min(errors)
            raise (NegativePowerResidue if exps[s] < floor else InconsistentSeed)(s, d)
        layers.append([(s, c) for s, c in enumerate(x) if c])
        masks.append(mask.intersection(order[:live_end]) if mask else mask)
    entries = {divmod(s, n) + (d,): c for d, layer in enumerate(layers) for s, c in layer}
    taint = {divmod(s, n) + (d,) for d, mask in enumerate(masks) for s in mask}
    return g, trunc, entries, taint, seed_checks, seeds_resolving


def _reference_residuals(ring, g, trunc, entries, taint):
    """The re-check as it was, S packed from the slot map; (checked, failures) per divisor."""
    p, n, count = ring.prime, len(ring.basis), trunc + 1
    endo = GradedEndomorphism(ring, g, trunc, entries, taint)
    checked, failures = 0, {}
    for div in ring.divisors:
        _, _, k, plus, minus = solver._divisor_map(ring, div)
        series = _pack_series(entries, k, trunc)
        com = _packed_matmul([(series, plus), (minus, series)])
        mask = set()
        if taint:
            ones = _pack_series(dict.fromkeys(taint, 1), k, trunc)
            mask = set(_unpack_series(_packed_matmul([(ones, plus), (minus, ones)]), k, trunc))
        skip = mask.union(s for s in taint if s[2] <= trunc)
        out = []
        for s in series.keys() | com.keys():
            u, v = _unpack(series.get(s, 0), k, count), _unpack(com.get(s, 0), k, count)
            for d in range(count):
                r = (div.pairing * d * u[d] + v[d]) % p
                if r and s + (d,) not in skip:
                    out.append((d,) + s + (r,))
        checked += n * n * count - len(skip)
        failures[ring.basis[div.index].name] = [
            "residual %d at %s" % (r, endo.slot_text(i, j, d)) for d, i, j, r in sorted(out)
        ]
    return checked, failures


def _reference_compose(s1, s2):
    """compose as it was, on the slot maps; (trunc, entries, taint)."""
    ring, p, n = s1.ring, s1.ring.prime, len(s1.ring.basis)
    g = s1.degree + s2.degree
    if s1.is_complete and s2.is_complete:
        trunc = (g + ring.dimension_top) // ring.q_degree
    else:
        trunc = min(s1.trunc, s2.trunc)
    k = _slot_bytes((n * (trunc + 1) * (p - 1) ** 2).bit_length() + 1)
    pair = _pack_series(s2.entries, k, trunc), _pack_series(s1.entries, k, trunc)
    products = _unpack_series(_packed_matmul([pair]), k, trunc)
    taint = set()
    if s1.taint or s2.taint:
        k = _slot_bytes((2 * n * (trunc + 1)).bit_length() + 1)

        def ones(slots):
            return _pack_series(dict.fromkeys(slots, 1), k, trunc)

        pairs = [
            (ones(s2.taint), ones(set(s1.entries) | s1.taint)),
            (ones(s2.entries), ones(s1.taint)),
        ]
        taint = set(_unpack_series(_packed_matmul(pairs), k, trunc))
    entries = {s: c % p for s, c in products.items() if c % p and s not in taint}
    return trunc, entries, taint


def _reference_column(s, k, trunc):
    """The image of e_k term by term, each t-exponent kappa; (element, taint)."""
    terms = {}
    for (i, j, d), c in s.entries.items():
        if i == k and d <= trunc:
            terms.setdefault(j, {})[Monomial(d, s.kappa(i, j, d), 0)] = c
    taint = {(j, d) for i, j, d in s.taint if i == k and d <= trunc}
    return element_from_terms(s.ring, trunc, terms), taint


def _reference_series_rows(s):
    """The slot map regrouped by (i, j) and sorted, as format_endo and dump read it."""
    degrees, half = s.ring._degrees, s.ring.q_degree // 2
    rows = {}
    for (i, j, d), c in s.entries.items():
        rows.setdefault((i, j), []).append((d, c))
    out = {}
    for i, j in sorted(rows):
        top = (s.degree + degrees[i] - degrees[j]) // 2
        out[i, j] = [((d, top - half * d, 0), c) for d, c in sorted(rows[i, j])]
    return out


def _reference_format(s):
    names = [b.name for b in s.ring.basis]
    rows = _reference_series_rows(s)
    lines = [
        "  (%s -> %s) = %s" % (names[i], names[j], text)
        for (i, j), text in zip(rows, _old_format_terms(rows.values(), s.ring.prime))
    ]
    if s.taint:
        lines.append("taint:")
        lines += ["  " + s.slot_text(*slot) for slot in sorted(s.taint)]
    return "\n".join(lines)


def _reference_result_rows(s):
    names = [b.name for b in s.ring.basis]
    return [
        {"from": names[i], "to": names[j], "q": d, "t": t, "theta": 0, "coeff": c}
        for (i, j), terms in _reference_series_rows(s).items()
        for (d, t, _), c in terms
    ]


# -- the rows against the references -------------------------------------------


def _outcome(solve):
    try:
        return solve()
    except (InconsistentSeed, NegativePowerResidue) as exc:
        return type(exc)


@pytest.mark.parametrize("p", [2, 3, 5, 31, 211])
def test_rows_match_the_slot_map_path(p):
    solved = 0
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        a_name = ring.basis[ring.primary.index].name
        for b in ring.basis:
            for trunc in (None, 0, 1, 3):
                want = _outcome(lambda: _reference_solve(b.name, ring, trunc))
                got = _outcome(lambda: solve_qsigma(b.name, ring, trunc))
                if not isinstance(want, tuple):
                    assert got is want
                    continue
                g, t, entries, taint, seed_checks, seeds_resolving = want
                s, report = got
                assert (s.degree, s.trunc, s.taint) == (g, t, taint)
                assert s.entries == entries and list(s.entries) == list(entries)
                assert all(len(row) == t + 1 and any(row) for row in s.rows.values())
                assert list(s.rows) == sorted(s.rows)
                checked, failures = _reference_residuals(ring, g, t, entries, taint)
                assert report == SolveReport(
                    taint=tuple(sorted(taint)),
                    taint_text=tuple(s.slot_text(*slot) for slot in sorted(taint)),
                    seed_checks=seed_checks,
                    seeds_resolving_taint=seeds_resolving,
                    residual_checked=checked,
                    residual_failures=failures,
                )
                pi = qpi(a_name, s)
                for x in (s, pi) if trunc is None else (s,):
                    assert format_endo(x) == _reference_format(x)
                    data = load_result(_endo_result_text(x, {}, report))
                    assert data["result"] == _reference_result_rows(x)
                assert pi.entries == {
                    slot: v for slot, c in entries.items()
                    if (v := ring.primary.pairing * slot[2] * c % p)
                }
                for k, e in enumerate(ring.basis):
                    assert s.column(e.name) == _reference_column(s, k, t)
                assert s.column("1", min(t, 1)) == _reference_column(s, 0, min(t, 1))
                sigma_a = solve_qsigma(a_name, ring, trunc)[0]
                c = compose(sigma_a, s)
                assert (c.trunc, dict(c.entries), set(c.taint)) == _reference_compose(sigma_a, s)
                solved += 1
    assert solved == 36


def test_operators_differing_only_in_trunc_compare_equal():
    ring = builtin_ring("cubic_surface", 5)
    assert identity_endo(ring, 1) == identity_endo(ring, 4)
    for b in ring.basis:
        short, _ = solve_qsigma(b.name, ring)
        assert short.is_complete
        long, _ = solve_qsigma(b.name, ring, short.trunc + 2)
        assert len(next(iter(long.rows.values()))) == short.trunc + 3
        assert short == long


def test_equal_on_untainted_compares_up_to_the_smaller_truncation():
    ring = builtin_ring("quadric_intersection", 5)
    full, _ = solve_qsigma("h_2", ring)
    low, _ = solve_qsigma("h_2", ring, 3)
    assert (full.trunc, low.trunc) == (4, 3) and full != low and equal_on_untainted(full, low)
    bent = dict(full.entries)
    (slot, c), *_ = [(s, c) for s, c in bent.items() if s[2] == 4]
    bent[slot] = c + 1
    bent = GradedEndomorphism(ring, full.degree, full.trunc, bent, full.taint)
    assert equal_on_untainted(bent, low) and not equal_on_untainted(bent, full)


def _reachable(obj):
    """Everything obj holds through containers, views and dataclass fields."""
    seen, stack = set(), [obj]
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            yield x
            if isinstance(x, (tuple, list, set, frozenset)):
                stack.extend(x)
            elif isinstance(x, (dict, MappingProxyType)):
                stack.extend(x.items())
            elif isinstance(x, SolveReport):
                stack.extend(vars(x).values())


def test_a_cache_entry_holds_no_ring():
    ring = builtin_ring("quadric_intersection", 5)
    s, _ = solve_qsigma("h_2", ring)
    assert s.entries and s.column("1")  # the views, built on first use, stay on the operator
    assert isinstance(s.taint, frozenset)
    (entry,) = ring._solved.values()
    assert len(entry) == 3  # rows, taint bit rows, report
    held = {type(x) for x in _reachable(entry)}
    assert SolveReport in held and held <= {
        tuple, dict, frozenset, list, int, str, MappingProxyType, SolveReport
    }
    assert not any(isinstance(x, (QuantumRing, GradedEndomorphism)) for x in _reachable(entry))
