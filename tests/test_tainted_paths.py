"""The tainted paths against the code they replaced, and a package that never reads entries.

The references below are kept here as they were before each q-order's taint
became a bitmask, before nabla_a acted on pieces, and before compose read its
taint rule's supports off rows: the sweep with one set of flat slots per
q-order, nabla_a on CohomologyElement series, the rewriting of a class in
the connection powers that used it, and compose's taint product on the
slot map.  Every taint set, report, error message and rewriting must agree.
"""

import io

import pytest

from qsteenrod import solver
from qsteenrod.cli import main
from qsteenrod.endo import (
    GradedEndomorphism,
    _apply_rows,
    _packed_matmul,
    compose,
    format_endo,
    qpi,
)
from qsteenrod.errors import InconsistentSeed, NegativePowerResidue
from qsteenrod.fp import fp_inv, solve_mod_p
from qsteenrod.manifold_io import _endo_result_text, ring_from_data
from qsteenrod.oracles import builtin_ring
from qsteenrod.ring import basis_class, connection_apply, element, quantum_product, zero_element
from qsteenrod.series import _slot_bytes
from qsteenrod.solver import (
    SolveReport,
    initial_layer,
    qsigma_apply,
    qsigma_lambda,
    qst,
    qst_auto,
    qst_via_generators,
    solve_qsigma,
    tzero_layer,
)
from test_rows import _pack_series, _unpack_series
from test_series import derivation_apply, element_of, times_monomial
from test_solver import _cpn

BUILTINS = ("s2", "cubic_surface", "quadric_intersection")


# -- references ----------------------------------------------------------------


def _set_mask_solve(b, ring, trunc):
    """The sweep with one set of tainted flat slots per q-order: (rows, taint, counts)."""
    p, n = ring.prime, len(ring.basis)
    deg = ring.degree(ring.index(b))
    g, lam = p * deg, ring.primary.pairing % p
    trunc = ring.default_truncation(deg) if trunc is None else trunc
    tables = solver._divisor_map(ring, ring.primary)[1]
    ad0 = tables[0]
    degrees = ring._degrees
    exps = [(g + degrees[i] - degrees[j]) // 2 for i in range(n) for j in range(n)]
    order = sorted(range(n * n), key=exps.__getitem__, reverse=True)
    live_end = n * n

    seeds = {i * n + j: c for (i, j, _), c in tzero_layer(b, ring, trunc).items()}
    x = [0] * (n * n)
    for (i, j), row in initial_layer(b, ring, 0).rows.items():
        x[i * n + j] = row[0]
    xs, masks = [x], [set()]
    seed_checks = 0
    seeds_resolving = 0

    for d in range(1, trunc + 1):
        floor = ring.q_degree // 2 * d
        while live_end and exps[order[live_end - 1]] <= floor:
            live_end -= 1
        x = [0] * (n * n)
        mask = set()
        if (lam * d) % p:
            for e, table in tables.items():
                if 1 <= e <= d:
                    for s, c in enumerate(xs[d - e]):
                        if c:
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
            names = ring.basis[s // n].name, ring.basis[s % n].name, d
            if exps[s] < floor:
                raise NegativePowerResidue(
                    "nonzero value forced onto dead slot (%s -> %s, q^%d)" % names
                )
            raise InconsistentSeed(
                "recurrence gives %d but the p-fold power seeds %d at (%s -> %s, q^%d)"
                % ((x[s], seeds[s]) + names)
            )
        xs.append(x)
        masks.append(mask.intersection(order[:live_end]) if mask else mask)

    rows = {divmod(s, n): row for s, row in enumerate(zip(*xs)) if any(row)}
    taint = {divmod(s, n) + (d,) for d, mask in enumerate(masks) for s in mask}
    return g, trunc, rows, taint, seed_checks, seeds_resolving


def _element_nabla(ring, x):
    """nabla_a x = t lambda_a q d/dq x + a * x on an element, a * x on A's rows."""
    lam = ring.primary.pairing
    deriv = {k: times_monomial(derivation_apply(lam, f), t=1) for k, f in x.components.items()}
    a_x = _apply_rows(ring, 2, solver._divisor_map(ring, ring.primary)[0], x, x.trunc)
    return element_of(ring, deriv) + a_x


def _element_rewrite(ring, target_index):
    """e_k as sum c q^m t^s nabla_a^n(1), solved over (basis, q, t) slots of elements."""
    deg = ring.degree(target_index)
    search_trunc = ring.dimension_top // ring.q_degree + ring.max_q_order() + 1
    powers = [basis_class(ring, "1", search_trunc)]
    for _ in range(deg // 2):
        powers.append(_element_nabla(ring, powers[-1]))
    candidates = []
    for n in range(deg // 2 + 1):
        for s in range((deg - 2 * n) // 2 + 1):
            m, r = divmod(deg - 2 * n - 2 * s, ring.q_degree)
            if not r:
                candidates.append((n, m, s))
    candidates.sort(key=lambda cand: cand[2] > 0)
    cols = []
    for n, m, s in candidates:
        shifted = powers[n].times_monomial(q=m, t=s)
        cols.append(
            {
                (j, mono.q, mono.t): c
                for j, f in shifted.components.items()
                for mono, c in f.terms.items()
            }
        )
    slots = sorted(set().union(*cols) | {(target_index, 0, 0)})
    rows = [[col.get(slot, 0) for col in cols] for slot in slots]
    rhs = [1 if slot == (target_index, 0, 0) else 0 for slot in slots]
    sol = solve_mod_p(rows, rhs, ring.prime)
    if sol is None:
        return None
    return [cand + (c,) for cand, c in zip(candidates, sol) if c]


def _entries_compose_taint(s1, s2, trunc):
    """compose's taint product on the slot maps: supports from entries."""
    k = _slot_bytes((2 * len(s1.ring.basis) * (trunc + 1)).bit_length() + 1)

    def ones(slots):
        return _pack_series(dict.fromkeys(slots, 1), k, trunc)

    pairs = [
        (ones(s2.taint), ones(set(s1.entries) | s1.taint)),
        (ones(s2.entries), ones(s1.taint)),
    ]
    return set(_unpack_series(_packed_matmul(pairs), k, trunc))


def _entries_qsigma_lambda(beta, ring):
    """qsigma_lambda on the slot maps: each sub-solve's entries shifted by p d0."""
    p = ring.prime
    g = p * beta.degree
    trunc = (g + ring.dimension_top) // ring.q_degree
    by_order = {}
    for i, f in beta.components.items():
        for mono, c in f.terms.items():
            by_order.setdefault(mono.q, {})[i] = c
    entries, taint = {}, set()
    for d0, comps in sorted(by_order.items()):
        layer = element(ring, 0, [(ring.basis[i].name, 0, 0, c) for i, c in comps.items()])
        if layer.is_zero():
            continue
        sub, _ = solve_qsigma(layer, ring)
        shift = p * d0
        for (i, j, d), c in sub.entries.items():
            if d + shift <= trunc:
                key = (i, j, d + shift)
                entries[key] = (entries.get(key, 0) + c) % p
        for (i, j, d) in sub.taint:
            if d + shift <= trunc:
                taint.add((i, j, d + shift))
    entries = {s: c for s, c in entries.items() if s not in taint}
    return GradedEndomorphism(ring, g, trunc, entries, frozenset(taint))


def _rows(x, trunc):
    """A homogeneous theta-free element as rows {j: (c_0 .. c_trunc)}."""
    out = {}
    for j, f in x.components.items():
        row = [0] * (trunc + 1)
        for mono, c in f.terms.items():
            row[mono.q] = c
        out[j] = tuple(row)
    return out


def _outcome(solve):
    try:
        return solve()
    except (InconsistentSeed, NegativePowerResidue) as exc:
        return type(exc), str(exc)


# -- the bitmask sweep against the set-mask sweep --------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 31, 101, 211])
def test_bitmask_taint_matches_the_set_mask_sweep(p):
    problems = []
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        problems += [(ring, b.name, t) for b in ring.basis for t in (None, 0, 1, 3, 7)]
    if p in (2, 3):
        cp8 = ring_from_data(_cpn(8), p)  # the leading-term default is wrong on CP^n
        problems += [(cp8, b.name, None) for b in cp8.basis]
    kinds = set()
    for ring, b, trunc in problems:
        want = _outcome(lambda: _set_mask_solve(b, ring, trunc))
        got = _outcome(lambda: solve_qsigma(b, ring, trunc))
        if not isinstance(want[0], int):  # an error: the same type and message
            assert got == want
            kinds.add(want[0])
            continue
        g, t, rows, taint, seed_checks, seeds_resolving = want
        s, report = got
        assert (s.degree, s.trunc, s.rows, s.taint) == (g, t, rows, taint)
        checked, failures = solver._residuals(s, ring)
        assert report == SolveReport(
            taint=tuple(sorted(taint)),
            taint_text=tuple(s.slot_text(*slot) for slot in sorted(taint)),
            seed_checks=seed_checks,
            seeds_resolving_taint=seeds_resolving,
            residual_checked=checked,
            residual_failures=failures,
        )
        kinds.add(bool(taint))
    assert True in kinds
    if p in (2, 3):
        assert {InconsistentSeed, NegativePowerResidue} <= kinds


# -- nabla_a on rows against nabla_a on elements --------------------------------


@pytest.mark.parametrize("p", [3, 5, 31, 101])
def test_row_nabla_matches_the_element_nabla(p):
    chains = 0
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        a_name = ring.basis[ring.primary.index].name
        for b in ring.basis:
            endo = solve_qsigma(b.name, ring)[0]
            for trunc in (endo.trunc, 1):
                x = y = endo.column("1", trunc)[0]
                for _ in range(4):  # nabla_a^n QSt(b), as the connection chain builds it
                    x, y = _element_nabla(ring, x), connection_apply(a_name, y)
                    rows = next(iter(y.pieces.values()), {})  # the chain's one piece
                    assert len(y.pieces) <= 1 and rows == _rows(x, trunc)
                    chains += bool(rows)
        for k in range(len(ring.basis)):
            assert solver._rewrite_in_connection_powers(ring, k) == _element_rewrite(ring, k)
    assert chains


# -- compose's taint rule from rows against the rule on entries ------------------


@pytest.mark.parametrize("p", [2, 3, 5, 31, 101, 211])
def test_compose_taint_from_rows_matches_the_entries_rule(p):
    tainted = 0
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        ops = [solve_qsigma(b.name, ring, trunc)[0] for b in ring.basis for trunc in (None, 2)]
        for s1 in ops:
            for s2 in ops:
                got = compose(s1, s2)
                assert set(got.taint) == _entries_compose_taint(s1, s2, got.trunc)
                tainted += bool(got.taint)
    assert tainted


# -- qsigma_lambda's row shifts against the shifted slot maps ---------------------


@pytest.mark.parametrize("p", [2, 3, 5, 31, 101, 211])
def test_qsigma_lambda_rows_match_the_shifted_entries(p):
    tainted_shifts = 0
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        degrees = {b.degree for b in ring.basis}
        for top in sorted(degrees):  # every class of degree top with each q^m, m >= 0
            terms = [
                (b.name, m) for b in ring.basis for m in range(top // ring.q_degree + 1)
                if b.degree + ring.q_degree * m == top
            ]
            for coeff in (1, p - 1):
                beta = element(ring, 9, [(b, m, 0, coeff + m) for b, m in terms])
                if beta.is_zero():
                    continue
                got, want = qsigma_lambda(beta, ring), _entries_qsigma_lambda(beta, ring)
                assert (got.trunc, got.rows, got.taint) == (want.trunc, want.rows, want.taint)
                assert got.entries == want.entries and repr(got) == (
                    "<GradedEndomorphism deg=%d trunc=%d entries=%d taint=%d>"
                    % (got.degree, got.trunc, len(want.entries), len(want.taint))
                )
                shifted = [solve_qsigma(b, ring)[0] for b, m in terms if m]
                tainted_shifts += any(s.taint for s in shifted) and len(terms) > 1
    assert tainted_shifts


# -- a session that never reads entries ------------------------------------------


def test_the_package_never_reads_entries(monkeypatch):
    def refuse(self):
        raise AssertionError("entries read")

    monkeypatch.setattr(GradedEndomorphism, "entries", property(refuse))
    for name in ("cubic_surface", "quadric_intersection"):
        for p in (3, 5, 31, 101):
            ring = builtin_ring(name, p)
            names = [b.name for b in ring.basis]
            a_name = names[ring.primary.index]
            sigma_a, _ = solve_qsigma(a_name, ring)
            for c in names:
                s, report = solve_qsigma(c, ring)
                qst(c, ring)
                qst_auto(c, ring)
                compose(sigma_a, s)
                compose(s, solve_qsigma(a_name, ring, 2)[0])
                qsigma_apply(c, basis_class(ring, c, s.trunc), ring)
                format_endo(s)
                _endo_result_text(s, {}, report)
                assert s == solve_qsigma(c, ring, s.trunc + 1)[0] and repr(s)
                beta = quantum_product(basis_class(ring, a_name, 9), basis_class(ring, c, 9))
                if not beta.is_zero():
                    qsigma_lambda(beta, ring)
                qst_via_generators([(1, 0, (a_name, c))], ring)
            qpi(a_name, sigma_a)
    for name in BUILTINS:
        out = io.StringIO()
        assert main(["verify", "--manifold", "builtin:" + name, "--prime", "5"], out=out) == 0


# -- rejected inputs name their cause --------------------------------------------


def test_a_zero_beta_is_rejected_as_zero():
    ring = builtin_ring("cubic_surface", 5)
    with pytest.raises(ValueError, match="beta must be nonzero"):
        qsigma_lambda(zero_element(ring, 3), ring)


def test_an_empty_expression_is_rejected_as_empty():
    ring = builtin_ring("cubic_surface", 5)
    with pytest.raises(ValueError, match="expression must have at least one term"):
        qst_via_generators([], ring)
