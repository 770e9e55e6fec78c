import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from qsteenrod.endo import GradedEndomorphism
from qsteenrod.errors import NonReducible, UnknownManifold
from qsteenrod.fp import factorial_ratio
from qsteenrod.oracles import (
    RationalSeries,
    builtin_manifold,
    builtin_ring,
    expected_results,
    reduce_mod_p,
    s2_closed_form,
    xi_matrix,
    xi_series,
)
from qsteenrod.solver import qst, qst_auto, solve_qsigma

EXPECTED_GOLDEN = Path(__file__).parent / "golden" / "expected_results.txt"


def fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_xi_coefficients():
    xi = xi_series(8)
    assert [xi.coefficient(k, -2 * k) for k in range(4)] == [
        Fraction(1), Fraction(1), Fraction(1, 4), Fraction(1, 36),
    ]


def test_xi_differential_equation_to_high_order():
    xi = xi_series(20)
    lhs = xi.tqd().tqd()
    q_xi = RationalSeries(20, {(q + 1, t): c for (q, t), c in xi.terms.items()})
    assert lhs == q_xi


def test_xi_matrix_entry():
    X = xi_matrix(4)
    # the (2,1) display entry is xi^2; its q^1 t^-2 coefficient is 2
    assert X[1][0].coefficient(1, -2) == 2


def test_xi_square_binomial_identity():
    # coefficient of q^k t^-2k in xi^2 is (2k)!/(k!)^4 exactly
    sq = xi_series(8) * xi_series(8)
    for k in range(9):
        assert sq.coefficient(k, -2 * k) == Fraction(fact(2 * k), fact(k) ** 4)


def _xi_constancy_residual(trunc):
    """t q d/dq (Xi) + [M, Xi] for M = [[0, q], [1, 0]]; zero when Xi is covariantly constant."""
    X = xi_matrix(trunc)
    zero, one, q = (RationalSeries(trunc, terms) for terms in ({}, {(0, 0): 1}, {(1, 0): 1}))
    M = [[zero, q], [one, zero]]

    def matmul(A, B):
        return [[A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2)] for i in range(2)]

    MX, XM = matmul(M, X), matmul(X, M)
    return [[X[i][j].tqd() + MX[i][j] - XM[i][j] for j in range(2)] for i in range(2)]


def test_xi_matrix_covariantly_constant_over_Q():
    res = _xi_constancy_residual(8)
    assert all(res[i][j].is_zero() for i in range(2) for j in range(2))


def test_closed_form_p3_literal():
    endo = s2_closed_form(3)
    assert endo.entries == {
        (0, 0, 1): 1, (0, 1, 0): 2, (0, 1, 1): 1, (1, 0, 2): 1, (1, 1, 1): 2,
    }


def test_closed_form_p5_coefficient():
    endo = s2_closed_form(5)
    # sigma_21 coefficient of q^2 is (4)!/(2!)^4 = 3/2 -> 4 mod 5; the stored
    # entry carries the -t^(p-1) sign
    assert factorial_ratio([4], [2, 2, 2, 2], 5) == 4
    assert endo.entries[(0, 1, 2)] == (-4) % 5


def test_closed_form_t0_part_is_quantum_power():
    for p in (3, 5, 7):
        endo = s2_closed_form(p)
        t0 = {s: c for s, c in endo.entries.items() if endo.kappa(*s) == 0}
        assert t0 == {(0, 1, (p - 1) // 2): 1, (1, 0, (p + 1) // 2): 1}


def test_closed_form_rejects_p2():
    with pytest.raises(ValueError):
        s2_closed_form(2)


def test_pipeline_matches_closed_form():
    for p in (3, 5, 7, 11):
        assert reduce_mod_p(xi_matrix(p - 1), p) == s2_closed_form(p)


def test_pipeline_matches_solver():
    for p in (3, 5, 7, 11):
        endo, rep = solve_qsigma("h", builtin_ring("s2", p))
        assert endo == s2_closed_form(p)
        assert rep.taint == ()


def test_nonreducible_without_truncation():
    with pytest.raises(NonReducible):
        reduce_mod_p(xi_matrix(3), 3)


def test_reduce_mod_p_drops_orders_from_p_up():
    X = xi_matrix(2)
    X[0][0] = RationalSeries(5, {**X[0][0].terms, (3, -6): Fraction(1, 7), (4, 0): 1})
    assert reduce_mod_p(X, 3) == reduce_mod_p(xi_matrix(2), 3) == s2_closed_form(3)


def test_reduce_mod_p_rejects_a_term_off_its_geometric_slot():
    X = xi_matrix(2)
    X[1][0] = X[1][0] + RationalSeries(2, {(1, 5): 1})
    with pytest.raises(NonReducible) as info:
        reduce_mod_p(X, 3)
    assert str(info.value) == "nonzero reduced term q^1 t^5 off the geometric slot"


def test_builtin_fields():
    cubic = builtin_manifold("cubic_surface")
    assert cubic["q_degree"] == 2 and cubic["dimension_top"] == 4
    assert cubic["divisors"] == [{"name": "h_2", "pairing": 1, "primary": True}]
    quadrics = builtin_manifold("quadric_intersection")
    assert quadrics["q_degree"] == 4 and quadrics["dimension_top"] == 6
    with pytest.raises(UnknownManifold):
        builtin_manifold("k3")


def test_expected_results_reproduced_by_solver():
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        for p in (2, 3, 5):
            ring = builtin_ring(name, p)
            for exp in expected_results(name, p):
                if exp.op == "qsigma":
                    endo, _ = solve_qsigma(exp.input_class, ring)
                    assert endo == exp.expected, exp.source
                elif exp.op == "qst":
                    r = qst(exp.input_class, ring)
                    assert r.element == exp.expected, exp.source
                    assert r.taint == exp.expected_taint, exp.source
                else:
                    elem, taint, _ = qst_auto(exp.input_class, ring)
                    assert elem == exp.expected, exp.source
                    assert tuple(sorted(taint)) == exp.expected_taint, exp.source
                assert exp.source  # every entry carries its provenance string


def _expected_digest(expected):
    """16 hex digits of sha256 over an operator's entries or an element's terms."""
    if isinstance(expected, GradedEndomorphism):
        data = (expected.degree, expected.trunc, sorted(expected.entries.items()))
    else:
        data = (expected.trunc, sorted(
            (k, m.q, m.t, m.theta, c)
            for k, f in expected.components.items() for m, c in f.terms.items()
        ))
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


def expected_result_lines():
    """One line per ExpectedResult of every built-in at a ladder of primes, in order."""
    lines = []
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        for p in (2, 3, 5, 7, 11, 13, 31, 101, 211):
            for exp in expected_results(name, p):
                assert (exp.manifold, exp.prime, exp.expected_taint) == (name, p, ())
                lines.append("%s p=%d %s %s | %s | %s" % (
                    name, p, exp.op, exp.input_class, _expected_digest(exp.expected), exp.source
                ))
    return lines


def test_expected_results_golden():
    assert expected_result_lines() == EXPECTED_GOLDEN.read_text().splitlines()
