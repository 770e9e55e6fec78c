"""Acceptance gate: every criterion checked bit-exactly, one per test.

Each test prints a single PASS line on success (run with -s to see them all;
pytest -v lists the per-criterion outcomes either way).
"""

import io
from fractions import Fraction
from pathlib import Path

from qsteenrod.cells import verify_cells
from qsteenrod.cli import main
from qsteenrod.endo import GradedEndomorphism, compose, compose_sign, identity_endo, qpi
from qsteenrod.manifold_io import load_manifold, ring_from_data
from qsteenrod.oracles import (
    RationalSeries,
    builtin_manifold,
    builtin_ring,
    reduce_mod_p,
    s2_closed_form,
    xi_matrix,
    xi_series,
)
from qsteenrod.ring import basis_class, connection_apply, element, quantum_product
from qsteenrod.solver import (
    initial_layer,
    qsigma_lambda,
    qst,
    qst_via_generators,
    solve_qsigma,
    tzero_layer,
    verify_covariant_constancy,
)

GOLDEN = Path(__file__).parent / "golden"
BUILTINS = ("s2", "cubic_surface", "quadric_intersection")


def ok(n, text):
    print("PASS criterion %d: %s" % (n, text))


def test_criterion_01_sphere_solver_vs_closed_form():
    for p in (3, 5, 7, 11):
        endo, report = solve_qsigma("h", builtin_ring("s2", p))
        assert endo == s2_closed_form(p)
        assert report.taint == ()
    ok(1, "sphere solver equals the closed form for p in {3,5,7,11}, no taint")


def test_criterion_02_rational_pipeline():
    for p in (3, 5, 7):
        assert reduce_mod_p(xi_matrix(p - 1), p) == s2_closed_form(p)
    xi = xi_series(20)
    q_xi = RationalSeries(20, {(q + 1, t): c for (q, t), c in xi.terms.items()})
    assert xi.tqd().tqd() == q_xi
    assert xi.coefficient(3, -6) == Fraction(1, 36)
    ok(2, "rational reduction equals the closed form; the ODE holds to q^20")


def test_criterion_03_cubic_surface_p2():
    ring = builtin_ring("cubic_surface", 2)
    r = qst("h_2", ring)
    assert r.element == element(
        ring, 4, [("h_4", 0, 0, 1), ("h_2", 1, 0, 1), ("h_2", 0, 1, 1)]
    )
    assert r.taint == ()
    v1 = connection_apply("h_2", r.element, ring)
    assert v1 == element(ring, 4, [("h_4", 1, 0, 1), ("h_4", 0, 1, 1), ("h_2", 2, 0, 1)])
    v2 = connection_apply("h_2", v1, ring)
    assert v2 == element(ring, 4, [("h_4", 1, 1, 1), ("h_4", 2, 0, 1), ("h_2", 3, 0, 1)])
    out, taint = qst_via_generators([(1, 0, ("h_2", "h_2")), (1, 1, ("h_2",))], ring)
    assert out == element(ring, out.trunc, [("h_4", 0, 2, 1)])
    assert not taint
    ok(3, "cubic surface mod 2: QSt(h_2), both QSigma values, QSt(h_4) = t^2 h_4")


def test_criterion_04_cubic_surface_p3():
    ring = builtin_ring("cubic_surface", 3)
    endo, report = solve_qsigma("h_2", ring)
    r = qst("h_2", ring)
    assert r.element == element(ring, 5, [("h_2", 0, 2, -1)])
    assert r.taint == ()
    restricted = [s for s in report.taint if s[0] in (0, 1)]
    assert restricted == [(1, 0, 3)] and endo.kappa(1, 0, 3) == 1
    assert "(h_2 -> 1, q^3 t)" in report.taint_text
    ok(4, "cubic surface mod 3: QSt(h_2) = -t^2 h_2; taint in columns {1,h_2} "
          "is exactly the q^3 t slot")


def test_criterion_05_quadric_intersection_p2():
    ring = builtin_ring("quadric_intersection", 2)
    r2 = qst("h_2", ring)
    assert r2.element == element(ring, 2, [("h_2", 0, 1, 1)]) and r2.taint == ()
    r4 = qst("h_4", ring)
    assert r4.element == element(ring, 3, [("h_4", 0, 2, 1), ("1", 2, 0, 1)])
    assert r4.taint == ()
    out, taint = qst_via_generators([(1, 0, ("h_2", "h_4"))], ring)
    assert out == element(ring, out.trunc, [("h_6", 0, 3, 1), ("h_2", 2, 1, 1)])
    assert not taint
    ok(5, "quadric intersection mod 2: QSt(h_2), QSt(h_4), QSt(h_6), no taint")


def test_criterion_06_quadric_intersection_p3():
    ring = builtin_ring("quadric_intersection", 3)
    endo, report = solve_qsigma("h_2", ring)
    expected = GradedEndomorphism(
        ring, 6, 3,
        {
            (0, 0, 1): 1, (1, 0, 2): 1, (2, 0, 2): -1, (3, 0, 3): 1,
            (0, 1, 0): -1, (1, 1, 1): 1, (3, 1, 2): 1,
            (1, 2, 0): -1, (1, 2, 1): 1, (2, 2, 1): -1, (3, 2, 2): 1,
            (0, 3, 0): 1, (2, 3, 0): -1, (3, 3, 1): -1,
        },
    )
    assert endo == expected and report.taint == ()
    r = qst("h_2", ring)
    assert r.element == element(ring, 3, [("1", 1, 1, 1), ("h_2", 0, 2, -1), ("h_6", 0, 0, 1)])
    assert r.taint == ()
    out4, t4 = qst_via_generators([(1, 0, ("h_2", "h_2")), (-1, 1, ())], ring)
    assert out4 == element(
        ring, out4.trunc,
        [("h_2", 2, 1, 1), ("h_2", 1, 3, 1), ("h_4", 2, 0, 1), ("h_4", 1, 2, 2), ("h_4", 0, 4, 1)],
    ) and not t4
    out6, t6 = qst_via_generators([(1, 0, ("h_2", "h_4")), (1, 1, ("h_2",))], ring)
    assert out6 == element(
        ring, out6.trunc,
        [
            ("1", 4, 1, 1), ("1", 3, 3, -1), ("1", 2, 5, -1),
            ("h_2", 2, 4, 1),
            ("h_4", 2, 3, 1), ("h_4", 1, 5, 1),
            ("h_6", 3, 0, 1), ("h_6", 2, 2, -1), ("h_6", 1, 4, 1), ("h_6", 0, 6, -1),
        ],
    ) and not t6
    ok(6, "quadric intersection mod 3: the 4x4 matrix verbatim and all three "
          "QSt values, no taint")


def test_criterion_07_structural_properties():
    for name in BUILTINS:
        for p in (2, 3, 5):
            ring = builtin_ring(name, p)
            one, _ = solve_qsigma("1", ring)
            assert one == identity_endo(ring)
            for b in ring.basis:
                endo, report = solve_qsigma(b.name, ring)
                init = initial_layer(b.name, ring, endo.trunc)
                assert {s: c for s, c in endo.entries.items() if s[2] == 0} == dict(init.entries)
                seeds = tzero_layer(b.name, ring, endo.trunc)
                for slot, val in seeds.items():
                    assert slot not in endo.taint
                    assert endo.entries.get(slot, 0) == val % p
                for div in ring.divisors:
                    rep = verify_covariant_constancy(endo, ring.basis[div.index].name, ring)
                    assert rep.failures == ()
                for (i, j, d) in endo.entries:
                    assert endo.kappa(i, j, d) >= 0
    ok(7, "identity, q^0 and t^0 layers, residuals, nonnegative t, theta-free "
          "on all builtins for p in {2,3,5}")


def test_criterion_08_composition_and_divisor_relation():
    ring = builtin_ring("s2", 3)
    endo, _ = solve_qsigma("h", ring)
    square = compose(endo, endo)
    q3_id = GradedEndomorphism(ring, 12, 3, {(0, 0, 3): 1, (1, 1, 3): 1})
    assert square == q3_id
    hh = quantum_product(basis_class(ring, "h", 3), basis_class(ring, "h", 3))
    assert square == qsigma_lambda(hh, ring)
    assert compose_sign(2, 2, 3) == 1
    pi = qpi("h", endo)
    rep = verify_covariant_constancy(endo, "h", ring, pi=pi)
    assert rep.ok and rep.pi_checked > 0
    for cls in ("1", "h"):
        col, _ = endo.column(cls, 3)
        pi_col, _ = pi.column(cls, 3)
        h = basis_class(ring, "h", 3)
        c = basis_class(ring, cls, 3)
        sigma_hc, _ = endo.apply(quantum_product(h, c), 3)
        assert pi_col.times_monomial(t=1) == sigma_hc - quantum_product(h, col)
    ok(8, "QSigma_h o QSigma_h = q^3 id = QSigma_{h*h}, sign +1; the divisor "
          "relation holds for c in {1, h}")


def test_criterion_09_equivariant_cells():
    for p in (2, 3, 5):
        assert verify_cells(p, cap=9) == []
    ok(9, "cell complexes: d^2 = 0, the four relation primitives (k <= 3), "
          "homotopies, for p in {2,3,5}")


def test_criterion_10_cli_golden():
    cases = [
        (["compute", "--manifold", "builtin:s2", "--prime", "3", "--class", "h",
          "--op", "qst"], 0, "compute_s2_p3_qst_h.txt"),
        (["compute", "--manifold", "builtin:cubic_surface", "--prime", "2",
          "--class", "h_4", "--op", "qst"], 0, "compute_cubic_p2_qst_h4.txt"),
        (["compute", "--manifold", "builtin:cubic_surface", "--prime", "3",
          "--class", "h_2", "--op", "qsigma", "--strict"], 2,
         "compute_cubic_p3_qsigma_h2.txt"),
    ]
    for argv, want_code, golden in cases:
        buf = io.StringIO()
        code = main(argv, out=buf)
        assert code == want_code
        assert buf.getvalue() == (GOLDEN / golden).read_text()
    for name in BUILTINS:
        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.json")
            assert main(["export", "--manifold", "builtin:%s" % name, "--out", path],
                        out=io.StringIO()) == 0
            text1 = Path(path).read_text()
            assert main(["export", "--manifold", "builtin:%s" % name, "--out", path],
                        out=io.StringIO()) == 0
            assert Path(path).read_text() == text1
            data = load_manifold(text1)
            for p in (2, 3):
                a = ring_from_data(data, p)
                b = ring_from_data(builtin_manifold(name), p)
                assert a.basis == b.basis and a._sc == b._sc and a.steenrod == b.steenrod
    ok(10, "golden CLI outputs byte-identical with documented exit codes; "
           "export/reload round-trips")
