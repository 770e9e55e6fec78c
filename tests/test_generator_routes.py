"""The generator strategy: its golden outputs, its taint rule and its repair."""

import hashlib
import random
from pathlib import Path

import pytest

from qsteenrod import solver
from qsteenrod.endo import _columns, _reach, _supports
from qsteenrod.oracles import builtin_ring
from qsteenrod.ring import _class_product, basis_class, element_from_terms, zero_element
from qsteenrod.series import Monomial
from qsteenrod.solver import qsigma_apply, qst_auto, solve_qsigma

GOLDEN = Path(__file__).parent / "golden" / "generator_routes.txt"
BUILTINS = ("s2", "cubic_surface", "quadric_intersection")


def _digest(elem, taint):
    """16 hex digits of sha256 over the element's terms and the sorted taint."""
    terms = sorted(
        (k, m.q, m.t, m.theta, c) for k, f in elem.components.items() for m, c in f.terms.items()
    )
    text = repr((terms, elem.trunc, sorted(taint)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def generator_route_lines():
    """One line per qst_auto(c) and per qsigma_apply(b, e_k) on the built-ins."""
    lines = []
    for name in BUILTINS:
        for p in (2, 3, 5, 7, 11, 31):
            ring = builtin_ring(name, p)
            head = "%s p=%d" % (name, p)
            names = [b.name for b in ring.basis]
            for c in names:
                elem, taint, route = qst_auto(c, ring)
                lines.append(
                    "%s qst_auto %s: %s | taint %d | %s"
                    % (head, c, route, len(taint), _digest(elem, taint))
                )
            for b in names:
                trunc = solve_qsigma(b, ring)[0].trunc
                for k in names:
                    elem, taint = qsigma_apply(b, basis_class(ring, k, trunc), ring)
                    lines.append(
                        "%s qsigma_apply %s(%s): qsigma_apply | taint %d | %s"
                        % (head, b, k, len(taint), _digest(elem, taint))
                    )
    return lines


def test_generator_routes_golden():
    assert generator_route_lines() == GOLDEN.read_text().splitlines()


def _untainted_terms(elem, bad):
    terms = ((k, m, c) for k, f in elem.components.items() for m, c in f.terms.items())
    return {(k, m): c for k, m, c in terms if (k, m.q) not in bad}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
def test_qsigma_apply_agrees_with_the_solved_columns(p):
    # the repair of a tainted column rewrites e_k over q^m t^s nabla_a^n(1),
    # so it must agree with the solve wherever both are determined; on the
    # quadric, rewriting in the powers a^(*n) missed the 4tq in nabla^3(1)
    tainted_columns = 0
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        for b in ring.basis:
            endo, _ = solve_qsigma(b.name, ring)
            for e in ring.basis:
                col, col_taint = endo.column(e.name)
                got, taint = qsigma_apply(b.name, basis_class(ring, e.name, endo.trunc), ring)
                bad = set(col_taint) | set(taint)
                assert _untainted_terms(got, bad) == _untainted_terms(col, bad), (name, b, e)
                tainted_columns += bool(col_taint)
    assert tainted_columns


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31])
def test_qsigma_apply_is_never_more_tainted_than_the_solved_column(p):
    # the repair replaces a tainted column only when its own taint is a
    # subset; on the cubic, the repair of QSigma_h_4(h_4) is more tainted
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        for b in ring.basis:
            endo, _ = solve_qsigma(b.name, ring)
            for e in ring.basis:
                _, taint = qsigma_apply(b.name, basis_class(ring, e.name, endo.trunc), ring)
                assert taint <= endo.column(e.name)[1], (name, b.name, e.name)


# -- the taint rule against the three statements of it that _reach replaced ------


def _step_taint_reference(taint, divisor_index, ring, trunc):
    """Image of taint slots (k, q) under one connection application."""
    out = set()
    for (k, qv) in taint:
        if qv <= trunc:
            out.add((k, qv))  # the t*d/dq part
        for d in ring.q_orders(divisor_index, k):
            if qv + d > trunc:
                break
            for k2 in ring.sc(divisor_index, k, d):
                out.add((k2, qv + d))
    return out


def _push_taint_reference(taint, endo, trunc):
    """Output slots that tainted input slots (k, q) reach through endo."""
    out = set()
    for k, qv in taint:
        reach = [(j, d) for i, j, d in endo.entries.keys() | endo.taint if i == k]
        out.update((j, qv + d) for j, d in reach if qv + d <= trunc)
    return out


def _apply_taint_reference(endo, x, trunc):
    """The taint of endo.apply(x, trunc): tainted rows over x's terms."""
    taint = set()
    for i, f in x.components.items():
        for j, d in [(j, d) for h, j, d in endo.taint if h == i]:
            for mono in f.terms:
                if mono.q + d <= trunc:
                    taint.add((j, mono.q + d))
    return taint


@pytest.mark.parametrize("p", [2, 3, 5, 31, 211])
def test_reach_matches_the_taint_rules_it_replaced(p):
    rng = random.Random(p)
    cases = 0
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        n = len(ring.basis)
        a = ring.primary.index
        a_name = ring.basis[a].name
        sigma_a = solve_qsigma(a_name, ring)[0]
        rows = solver._divisor_map(ring, ring.primary)[0]
        # a * e_k as qsigma_apply's nabla columns and qst_auto's peel read it, through
        # _class_product, against the scans of A's rows that they replaced
        products = [_class_product(ring, {(a, 0): 1}, {(k, 0): 1}) for k in range(n)]
        for k, product in enumerate(products):
            assert product == {(j, e): c for (i, j), row in rows.items() if i == k
                               for e, c in enumerate(row) if c}
        nabla = {k: [(k, 0)] + list(product) for k, product in enumerate(products)}
        identity = {(k, k): 1 for k in range(n)}
        assert {k: sorted(col) for k, col in nabla.items()} == {
            k: sorted(col) for k, col in _columns(_supports(rows, identity)).items()
        }
        for b in ring.basis:
            endo = solve_qsigma(b.name, ring)[0]
            trunc = endo.trunc
            # the taint of every column, then seeded random taint sets
            sets = [set(endo.column(e.name)[1]) for e in ring.basis]
            for _ in range(5):
                sets.append({(rng.randrange(n), rng.randrange(trunc + 1)) for _ in range(5)})
            for taint in sets:
                assert _reach(taint, nabla, trunc) == _step_taint_reference(taint, a, ring, trunc)
                zero = zero_element(ring, trunc)
                word = [(1, 0, (a_name, a_name))]  # QSigma_a of the leaf
                assert solver._word_sum(word, lambda _: (zero, taint), ring, trunc) == (
                    zero, _push_taint_reference(taint, sigma_a, trunc)
                )
                terms = {}
                for k, qv in taint:
                    terms.setdefault(k, {})[Monomial(qv, rng.randrange(3), 0)] = 1
                x = element_from_terms(ring, trunc, terms)
                cut = rng.randrange(trunc + 1)
                assert endo.apply(x, cut)[1] == _apply_taint_reference(endo, x, cut)
                cases += 1
    assert cases == 74
