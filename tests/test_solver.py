import gc
import io
import random
import weakref

import pytest

from qsteenrod import cli, endo as endo_mod, solver
from qsteenrod.errors import (
    InconsistentSeed,
    MissingSteenrodData,
    NegativePowerResidue,
    NotGenerated,
)
from qsteenrod.endo import (
    GradedEndomorphism,
    compose,
    compose_sign,
    equal_on_untainted,
    format_endo,
    identity_endo,
    kappa,
    qpi,
)
from qsteenrod.manifold_io import ring_from_data
from qsteenrod.oracles import builtin_manifold, builtin_ring, s2_closed_form
from qsteenrod.ring import (
    CohomologyElement,
    basis_class,
    connection_apply,
    element,
    quantum_product,
    zero_element,
)
from qsteenrod.series import Monomial, SeriesElement, format_series, series
from qsteenrod.solver import (
    initial_layer,
    qsigma_apply,
    qsigma_lambda,
    qst,
    qst_auto,
    qst_via_generators,
    solve_qsigma,
    tzero_layer,
    verify_covariant_constancy,
)


# -- seeds ---------------------------------------------------------------------


def test_initial_layer_s2():
    ring = builtin_ring("s2", 3)
    layer = initial_layer("h", ring)
    assert layer.degree == 6
    assert {s: c for s, c in layer.entries.items() if s[2] == 0} == {(0, 1, 0): 2}
    assert layer.kappa(0, 1, 0) == 2  # the -t^2 coefficient


def test_initial_layer_cubic_p2():
    ring = builtin_ring("cubic_surface", 2)
    layer = initial_layer("h_2", ring)
    # cup by h_4 + t h_2: 1 -> h_4 + t h_2, h_2 -> t h_4
    assert layer.entries == {(0, 2, 0): 1, (0, 1, 0): 1, (1, 2, 0): 1}
    assert layer.kappa(0, 1, 0) == 1 and layer.kappa(0, 2, 0) == 0


def test_initial_layer_quadrics_h4_p2():
    ring = builtin_ring("quadric_intersection", 2)
    layer = initial_layer("h_4", ring)
    # cup by t^2 h_4: 1 -> t^2 h_4, h_2 -> t^2 h_6
    assert layer.entries == {(0, 2, 0): 1, (1, 3, 0): 1}
    assert layer.kappa(0, 2, 0) == 2


def test_initial_layer_missing_data():
    data = builtin_manifold("s2")
    data["default_leading_steenrod"] = False
    ring = ring_from_data(data, 3)
    with pytest.raises(MissingSteenrodData):
        initial_layer("h", ring)


def test_tzero_layer_s2():
    ring = builtin_ring("s2", 3)
    seeds = tzero_layer("h", ring)
    nonzero = {s: c for s, c in seeds.items() if c}
    assert nonzero == {(0, 1, 1): 1, (1, 0, 2): 1}


def test_tzero_layer_cubic_p3_vanishes():
    ring = builtin_ring("cubic_surface", 3)
    assert all(c == 0 for c in tzero_layer("h_2", ring).values())


def test_tzero_layer_unit():
    ring = builtin_ring("quadric_intersection", 3)
    seeds = tzero_layer("1", ring)
    assert {s: c for s, c in seeds.items() if c} == {(i, i, 0): 1 for i in range(4)}


@pytest.mark.parametrize("p", [2, 3, 31, 211])
def test_tzero_layer_covers_exactly_the_t0_slots(p):
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, p)
        n = len(ring.basis)
        for b in ring.basis:
            g = p * b.degree
            for trunc in (None, 1):
                bound = ring.default_truncation(b.degree) if trunc is None else trunc
                want = {
                    (i, j, d)
                    for i in range(n)
                    for j in range(n)
                    for d in range(bound + 1)
                    if kappa(ring, g, i, j, d) == 0
                }
                assert set(tzero_layer(b.name, ring, trunc)) == want


def test_tzero_layer_rejects_an_inhomogeneous_class():
    ring = builtin_ring("cubic_surface", 3)
    mixed = element(ring, 0, [("h_2", 0, 0, 1), ("h_4", 0, 0, 1)])
    for trunc in (None, 2):
        with pytest.raises(ValueError, match="homogeneous"):
            tzero_layer(mixed, ring, trunc)


# -- the solver on the worked examples ----------------------------------------


def test_solve_s2_p3_matrix():
    ring = builtin_ring("s2", 3)
    endo, report = solve_qsigma("h", ring)
    # [[qt, q^2], [q - t^2, -qt]] in (row=to, col=from) convention
    assert endo.entries == {
        (0, 0, 1): 1,
        (0, 1, 0): 2,
        (0, 1, 1): 1,
        (1, 0, 2): 1,
        (1, 1, 1): 2,
    }
    assert not endo.taint
    assert endo == s2_closed_form(3)
    assert report.residual_failures == {"h": []}


def test_solve_s2_p2():
    ring = builtin_ring("s2", 2)
    endo, _ = solve_qsigma("h", ring)
    assert endo.entries == {(0, 1, 0): 1, (0, 0, 1): 1, (1, 1, 1): 1}
    assert not endo.taint
    r = qst("h", ring)
    assert r.element == element(ring, 1, [("h", 0, 1, 1), ("1", 1, 0, 1)])


def test_solve_unit_is_identity():
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        for p in (2, 3, 5):
            ring = builtin_ring(name, p)
            endo, _ = solve_qsigma("1", ring)
            assert endo == identity_endo(ring)
            assert not endo.taint


def test_solve_quadrics_p3_full_matrix():
    ring = builtin_ring("quadric_intersection", 3)
    endo, report = solve_qsigma("h_2", ring)
    expected = GradedEndomorphism(
        ring,
        6,
        3,
        {
            (0, 0, 1): 1, (1, 0, 2): 1, (2, 0, 2): -1, (3, 0, 3): 1,
            (0, 1, 0): -1, (1, 1, 1): 1, (3, 1, 2): 1,
            (1, 2, 0): -1, (1, 2, 1): 1, (2, 2, 1): -1, (3, 2, 2): 1,
            (0, 3, 0): 1, (2, 3, 0): -1, (3, 3, 1): -1,
        },
    )
    assert endo == expected
    assert not endo.taint
    assert report.seed_checks > 0


def test_solve_cubic_p3_taint_ledger():
    ring = builtin_ring("cubic_surface", 3)
    endo, report = solve_qsigma("h_2", ring)
    assert endo.entries == {(0, 1, 0): 2}
    assert set(report.taint) == {(1, 0, 3), (2, 0, 3), (2, 1, 3)}
    assert "(h_2 -> 1, q^3 t)" in report.taint_text
    # restricted to the columns of 1 and h_2, exactly one undetermined slot
    restricted = [s for s in report.taint if s[0] in (0, 1)]
    assert restricted == [(1, 0, 3)]
    assert endo.kappa(1, 0, 3) == 1


def test_qst_values():
    ring = builtin_ring("s2", 3)
    r = qst("h", ring)
    assert r.element == element(ring, 2, [("1", 1, 1, 1), ("h", 0, 2, -1), ("h", 1, 0, 1)])
    assert r.taint == ()

    ring = builtin_ring("cubic_surface", 2)
    r = qst("h_2", ring)
    assert r.element == element(
        ring, 4, [("h_4", 0, 0, 1), ("h_2", 1, 0, 1), ("h_2", 0, 1, 1)]
    )
    assert r.taint == ()

    ring = builtin_ring("quadric_intersection", 2)
    r = qst("h_4", ring)
    assert r.element == element(ring, 3, [("h_4", 0, 2, 1), ("1", 2, 0, 1)])
    assert r.taint == ()


def test_theta_free_and_nonnegative_t():
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        for p in (2, 3, 5):
            ring = builtin_ring(name, p)
            for b in ring.basis:
                endo, _ = solve_qsigma(b.name, ring)
                for (i, j, d) in endo.entries:
                    assert endo.kappa(i, j, d) >= 0
                col, _ = endo.column("1")
                for f in col.components.values():
                    assert all(m.theta == 0 for m in f.terms)


def test_structural_layers_everywhere():
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        for p in (2, 3, 5):
            ring = builtin_ring(name, p)
            for b in ring.basis:
                endo, report = solve_qsigma(b.name, ring)
                # q^0 layer equals cup product with St(b)
                init = initial_layer(b.name, ring, endo.trunc)
                assert {s: c for s, c in endo.entries.items() if s[2] == 0} == dict(
                    init.entries
                )
                # t^0 layer equals multiplication by the p-fold power
                seeds = tzero_layer(b.name, ring, endo.trunc)
                for slot, val in seeds.items():
                    if slot not in endo.taint:
                        assert endo.entries.get(slot, 0) == val % p
                # residuals vanish for every divisor
                for div, fails in report.residual_failures.items():
                    assert fails == []


# -- error paths ---------------------------------------------------------------


def test_inconsistent_seed():
    data = builtin_manifold("s2")
    data["steenrod"] = {"3": {"h": [{"basis": "h", "t": 2, "theta": 0, "coeff": 1}]}}
    ring = ring_from_data(data, 3)
    for _ in range(2):  # a failed solve is not cached
        with pytest.raises(InconsistentSeed):
            solve_qsigma("h", ring)


def test_negative_power_residue():
    data = builtin_manifold("s2")
    data["products"].append(
        {"left": "h", "right": "h", "q": 2, "terms": [{"basis": "h", "coeff": 1}]}
    )
    ring = ring_from_data(data, 3)
    with pytest.raises(NegativePowerResidue):
        solve_qsigma("h", ring)


# -- one solve per (ring, class, truncation) -----------------------------------


def _count_solves(monkeypatch):
    """Record the solves that run past the cache: each builds the t^0 seeds once."""
    calls = []
    real = solver.tzero_layer

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "tzero_layer", counted)
    return calls


def _state(endo):
    return endo.entries, endo.taint, endo.trunc


def test_solve_cache_shares_equal_problems(monkeypatch):
    fresh, fresh_report = solve_qsigma("h_2", builtin_ring("cubic_surface", 3))
    ring = builtin_ring("cubic_surface", 3)
    solves = _count_solves(monkeypatch)
    default = ring.default_truncation(2)
    h_2 = basis_class(ring, "h_2", 0)
    for b, trunc in (("h_2", None), ("h_2", default), (h_2, None), (h_2.retruncate(3), default)):
        endo, report = solve_qsigma(b, ring, trunc)
        assert _state(endo) == _state(fresh) and report == fresh_report
    assert endo.taint and len(solves) == 1
    low, low_report = solve_qsigma("h_2", ring, 2)
    assert low.trunc == 2 and len(solves) == 2
    again, again_report = solve_qsigma(h_2, ring, 2)
    assert _state(again) == _state(low) and again_report == low_report
    solve_qsigma(h_2.scale(2), ring)
    assert len(solves) == 3


@pytest.mark.parametrize(
    "line, solves",
    [
        # solve_qsigma is called 5, 24, 4 and 5 times by these commands
        ("verify --manifold builtin:quadric_intersection --prime 3 --suite constancy", 4),
        ("verify --manifold builtin:quadric_intersection --prime 3 --suite all", 5),
        ("compute --manifold builtin:quadric_intersection --prime 5 --class h_6 --op qst", 3),
        ("compute --manifold builtin:cubic_surface --prime 31 --class h_4 --op qst", 3),
    ],
)
def test_cli_solves_each_problem_once(monkeypatch, line, solves):
    calls = _count_solves(monkeypatch)
    assert cli.main(line.split(), out=io.StringIO()) == 0
    assert len(calls) == solves


def test_solve_cache_keeps_no_cycle_through_the_ring(monkeypatch):
    refs = []
    real = cli.ring_from_data

    def tracked(data, prime):
        ring = real(data, prime)
        refs.append(weakref.ref(ring))
        return ring

    monkeypatch.setattr(cli, "ring_from_data", tracked)
    argv = "compute --manifold builtin:quadric_intersection --prime 5 --class h_6 --op qst"
    gc.disable()
    try:
        assert cli.main(argv.split(), out=io.StringIO()) == 0
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


def test_solve_cache_hit_returns_the_first_solve():
    ring = builtin_ring("quadric_intersection", 101)
    first, report = solve_qsigma("h_6", ring)
    hit, hit_report = solve_qsigma("h_6", ring)
    assert hit == first and hit.trunc == first.trunc and hit_report is report
    fresh, _ = solve_qsigma("h_6", builtin_ring("quadric_intersection", 101))
    for b in ring.basis:
        assert hit.column(b.name) == fresh.column(b.name)
        assert hit.column(b.name, 3) == fresh.column(b.name, 3)


def test_solve_cache_hit_skips_normalisation(monkeypatch):
    ring = builtin_ring("cubic_surface", 211)
    first, _ = solve_qsigma("h_2", ring)
    calls = []
    real = endo_mod.kappa

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(endo_mod, "kappa", counted)
    hit, _ = solve_qsigma("h_2", ring)
    assert hit.entries and not calls
    assert hit == first


def test_row_index_is_built_once_per_cache_key(monkeypatch):
    ring = builtin_ring("cubic_surface", 3)
    builds = []
    real = endo_mod._row_index

    def counted(s):
        builds.append(s.trunc)
        return real(s)

    monkeypatch.setattr(endo_mod, "_row_index", counted)
    first, _ = solve_qsigma("h_2", ring)
    assert not builds  # built on first use, not by the solve
    first.column("1")
    for _ in range(3):
        hit, _ = solve_qsigma("h_2", ring)
        for b in ring.basis:
            hit.column(b.name)
    assert builds == [first.trunc]
    low, _ = solve_qsigma("h_2", ring, 2)
    low.column("h_2")
    solve_qsigma("h_2", ring, 2)[0].apply(basis_class(ring, "1", 2))
    assert builds == [first.trunc, 2]


def test_negative_truncation_is_rejected():
    ring = builtin_ring("cubic_surface", 3)
    for call in (solve_qsigma, qst, qst_auto):
        with pytest.raises(ValueError, match="truncation must be non-negative, got trunc=-1"):
            call("h_2", ring, -1)
    assert not ring._solved


# -- composition, extension, divisor operation ---------------------------------


def test_compose_s2():
    ring = builtin_ring("s2", 3)
    endo, _ = solve_qsigma("h", ring)
    square = compose(endo, endo)
    assert square.degree == 12
    assert square.entries == {(0, 0, 3): 1, (1, 1, 3): 1}  # q^3 * identity
    hh = quantum_product(basis_class(ring, "h", 3), basis_class(ring, "h", 3))
    assert square == qsigma_lambda(hh, ring)
    assert compose_sign(2, 2, 3) == 1
    assert compose_sign(2, 2, 2) == 1  # exponent 4 is even


def test_compose_identity():
    ring = builtin_ring("quadric_intersection", 3)
    endo, _ = solve_qsigma("h_2", ring)
    ident = identity_endo(ring, endo.trunc)
    assert compose(ident, endo) == endo
    assert compose(endo, ident) == endo


def test_compose_relation_on_builtins():
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        for p in (2, 3):
            ring = builtin_ring(name, p)
            a = ring.basis[ring.primary.index].name
            s_a, _ = solve_qsigma(a, ring)
            for b in ring.basis:
                s_b, _ = solve_qsigma(b.name, ring)
                left = compose(s_a, s_b)
                trunc = ring.default_truncation(2 + b.degree) + ring.max_q_order()
                beta = quantum_product(
                    basis_class(ring, a, trunc), basis_class(ring, b.name, trunc)
                )
                if beta.is_zero():
                    assert not left.entries
                    continue
                right = qsigma_lambda(beta, ring)
                sign = compose_sign(2, b.degree, p)
                signed = GradedEndomorphism(
                    ring,
                    right.degree,
                    right.trunc,
                    {s: sign * c for s, c in right.entries.items()},
                    right.taint,
                )
                assert equal_on_untainted(left, signed)


def test_qsigma_lambda_examples():
    ring = builtin_ring("s2", 3)
    q_one = element(ring, 1, [("1", 1, 0, 1)])
    endo = qsigma_lambda(q_one, ring)
    assert endo.entries == {(0, 0, 3): 1, (1, 1, 3): 1}  # q^p * identity
    # beta with no q reduces to the plain solve
    h = basis_class(ring, "h", 0)
    assert qsigma_lambda(h, ring) == solve_qsigma("h", ring)[0]
    # single term with a q-coefficient: q * h_2 on the cubic mod 3
    ring = builtin_ring("cubic_surface", 3)
    qh2 = element(ring, 1, [("h_2", 1, 0, 1)])
    shifted = qsigma_lambda(qh2, ring)
    base, _ = solve_qsigma("h_2", ring)
    assert shifted.entries == {(i, j, d + 3): c for (i, j, d), c in base.entries.items()}
    assert shifted.taint == {(i, j, d + 3) for (i, j, d) in base.taint if d + 3 <= shifted.trunc}


def test_qpi():
    ring = builtin_ring("s2", 3)
    endo, _ = solve_qsigma("h", ring)
    pi = qpi("h", endo)
    # [[qt, 2q^2], [q, -qt]] in (to, from) convention
    assert pi.entries == {(0, 0, 1): 1, (0, 1, 1): 1, (1, 0, 2): 2, (1, 1, 1): 2}
    # b = 1: identity is q-constant, derivative vanishes
    one, _ = solve_qsigma("1", ring)
    assert not qpi("h", one).entries
    # tainted slots stay tainted
    ring3 = builtin_ring("cubic_surface", 3)
    endo3, _ = solve_qsigma("h_2", ring3)
    assert qpi("h_2", endo3).taint == endo3.taint


def test_pi_relation():
    ring = builtin_ring("s2", 3)
    endo, _ = solve_qsigma("h", ring)
    pi = qpi("h", endo)
    rep = verify_covariant_constancy(endo, "h", ring, pi=pi)
    assert rep.ok and rep.pi_checked > 0
    # element form: t QPi(c) = QSigma(h * c) - h * QSigma(c) for c in {1, h}
    for cls in ("1", "h"):
        col, _ = endo.column(cls, 3)
        pi_col, _ = pi.column(cls, 3)
        h = basis_class(ring, "h", 3)
        c = basis_class(ring, cls, 3)
        lhs = pi_col.times_monomial(t=1)
        sigma_hc, _ = endo.apply(quantum_product(h, c), 3)
        rhs = sigma_hc - quantum_product(h, col)
        assert lhs == rhs


def test_residual_detects_perturbation():
    ring = builtin_ring("quadric_intersection", 3)
    endo, _ = solve_qsigma("h_2", ring)
    entries = dict(endo.entries)
    entries[(0, 0, 1)] = (entries[(0, 0, 1)] + 1) % 3  # flip one entry
    bad = GradedEndomorphism(ring, 6, 3, entries)
    rep = verify_covariant_constancy(bad, "h_2", ring)
    assert rep.failures


# -- generator strategy ---------------------------------------------------------


def test_constancy_relation_reproduces_columns():
    # QSigma_b(a * c) = t d_a QSigma_b(c) + a * QSigma_b(c), the rewrite used
    # throughout the generator strategy, exercised on the cubic mod 2.
    ring = builtin_ring("cubic_surface", 2)
    r = qst("h_2", ring)
    v1 = connection_apply("h_2", r.element, ring)
    assert v1 == element(ring, 4, [("h_4", 0, 1, 1), ("h_4", 1, 0, 1), ("h_2", 2, 0, 1)])
    v2 = connection_apply("h_2", v1, ring)
    assert v2 == element(ring, 4, [("h_4", 1, 1, 1), ("h_4", 2, 0, 1), ("h_2", 3, 0, 1)])


def test_qst_via_generators_cubic_p2():
    ring = builtin_ring("cubic_surface", 2)
    out, taint = qst_via_generators([(1, 0, ("h_2", "h_2")), (1, 1, ("h_2",))], ring)
    assert out == element(ring, out.trunc, [("h_4", 0, 2, 1)])
    assert not taint


def test_qst_via_generators_quadrics_p2():
    ring = builtin_ring("quadric_intersection", 2)
    out, taint = qst_via_generators([(1, 0, ("h_2", "h_4"))], ring)
    assert out == element(ring, out.trunc, [("h_6", 0, 3, 1), ("h_2", 2, 1, 1)])
    assert not taint


def test_qst_via_generators_quadrics_p3():
    ring = builtin_ring("quadric_intersection", 3)
    out, taint = qst_via_generators([(1, 0, ("h_2", "h_2")), (-1, 1, ())], ring)
    expected = element(
        ring, out.trunc,
        [("h_2", 2, 1, 1), ("h_2", 1, 3, 1), ("h_4", 2, 0, 1), ("h_4", 1, 2, 2), ("h_4", 0, 4, 1)],
    )
    assert out == expected and not taint


def test_qst_via_generators_rejects_nondivisor_heads():
    ring = builtin_ring("quadric_intersection", 3)
    with pytest.raises(NotGenerated):
        qst_via_generators([(1, 0, ("h_4", "h_2"))], ring)


def test_qst_auto_routes():
    ring = builtin_ring("cubic_surface", 2)
    out, taint, route = qst_auto("h_4", ring)
    assert out == element(ring, out.trunc, [("h_4", 0, 2, 1)])
    assert not taint and route.startswith("generators")

    ring = builtin_ring("quadric_intersection", 2)
    out, taint, route = qst_auto("h_6", ring)
    assert out == element(ring, out.trunc, [("h_6", 0, 3, 1), ("h_2", 2, 1, 1)])
    assert not taint

    # direct route when the column is already clean
    ring = builtin_ring("quadric_intersection", 3)
    out, taint, route = qst_auto("h_2", ring)
    assert route == "direct" and not taint


def test_qsigma_apply_prefers_clean_routes():
    # applying QSigma_{h_2} to an element supported on a tainted column works
    # through the divisor-power rewrite on the cubic mod 2
    ring = builtin_ring("cubic_surface", 2)
    h4 = basis_class(ring, "h_4", 4)
    out, taint = qsigma_apply("h_2", h4, ring)
    assert not taint
    assert out.is_zero()  # QSigma_{h_2}(h_4) = 0 mod 2


def test_qst_auto_explicit_default_truncation():
    # an explicit trunc reaches the recursive calls; at the default it changes
    # nothing, on the route through the generator strategy
    ring = builtin_ring("quadric_intersection", 3)
    plain = qst_auto("h_6", ring)
    explicit = qst_auto("h_6", ring, ring.default_truncation(6))
    assert plain[2].startswith("generators")
    assert explicit == plain


# -- one-pass assembly against the term-by-term build --------------------------


def _slot_series(endo, i, j, d, c, trunc):
    return SeriesElement(endo.ring.prime, trunc, {Monomial(d, endo.kappa(i, j, d), 0): c})


def _column_term_by_term(endo, name):
    ring = endo.ring
    i = ring.index(name)
    out = zero_element(ring, endo.trunc)
    for (i2, j, d), c in endo.entries.items():
        if i2 == i:
            out = out + CohomologyElement(ring, {j: _slot_series(endo, i, j, d, c, endo.trunc)})
    return out


def _apply_term_by_term(endo, x):
    ring = endo.ring
    out = zero_element(ring, x.trunc)
    for (i, j, d), c in endo.entries.items():
        f = x.components.get(i)
        if f is not None:
            term = f.times_monomial(q=d, t=endo.kappa(i, j, d), coeff=c)
            out = out + CohomologyElement(ring, {j: term})
    return out


def _format_endo_term_by_term(endo):
    ring = endo.ring
    pairs = {}
    for (i, j, d), c in endo.entries.items():
        f = pairs.get((i, j), SeriesElement(ring.prime, endo.trunc, {}))
        pairs[(i, j)] = f + _slot_series(endo, i, j, d, c, endo.trunc)
    lines = [
        "  (%s -> %s) = %s" % (ring.basis[i].name, ring.basis[j].name, format_series(pairs[(i, j)]))
        for (i, j) in sorted(pairs)
    ]
    if endo.taint:
        lines.append("taint:")
        lines.extend("  " + endo.slot_text(*slot) for slot in sorted(endo.taint))
    return lines


def test_one_pass_assembly_cubic_p211():
    ring = builtin_ring("cubic_surface", 211)
    endo, _ = solve_qsigma("h_2", ring)
    per_pair = {}
    for (i, j, d) in endo.entries:
        per_pair[(i, j)] = per_pair.get((i, j), 0) + 1
    assert max(per_pair.values()) > 20  # far beyond the p <= 3 goldens
    for b in ring.basis:
        col, _ = endo.column(b.name)
        assert col == _column_term_by_term(endo, b.name)
        x = basis_class(ring, b.name, endo.trunc).times_series(
            series(211, endo.trunc, [(0, 0, 0, 1), (1, 1, 0, 5), (2, 0, 1, 7)])
        )
        out, _ = endo.apply(x)
        assert out == _apply_term_by_term(endo, x)
    lines = format_endo(endo).split("\n")
    assert lines == _format_endo_term_by_term(endo)


# -- compose against the all-pairs reference --------------------------------------


def _compose_all_pairs(s1, s2):
    """Slot-by-slot composition s1 after s2 over every pair of entries."""
    ring = s1.ring
    g = s1.degree + s2.degree
    if s1.is_complete and s2.is_complete:
        trunc = (g + ring.dimension_top) // ring.q_degree
    else:
        trunc = min(s1.trunc, s2.trunc)
    entries = {}
    for (i, j, d2), c2 in s2.entries.items():
        for (j1, k, d1), c1 in s1.entries.items():
            if j1 != j or d1 + d2 > trunc:
                continue
            key = (i, k, d1 + d2)
            entries[key] = (entries.get(key, 0) + c1 * c2) % ring.prime
    taint = set()
    support1 = set(s1.entries) | set(s1.taint)
    support2 = set(s2.entries) | set(s2.taint)
    for (i, j, d2) in s2.taint:
        for (j1, k, d1) in support1:
            if j1 == j and d1 + d2 <= trunc:
                taint.add((i, k, d1 + d2))
    for (i, j, d2) in support2:
        for (j1, k, d1) in s1.taint:
            if j1 == j and d1 + d2 <= trunc:
                taint.add((i, k, d1 + d2))
    entries = {s: c for s, c in entries.items() if s not in taint and c}
    return entries, taint, trunc


def _operand(ring, cls, trunc=None):
    """QSigma_cls, or for "full:cls" an operator of its degree with every
    live slot at p - 1, the largest sums a composition can meet."""
    if not cls.startswith("full:"):
        return solve_qsigma(cls, ring, trunc)[0]
    g = ring.prime * ring.degree(ring.index(cls[len("full:"):]))
    if trunc is None:
        trunc = GradedEndomorphism(ring, g, 0).complete_bound
    n = len(ring.basis)
    entries = {
        (i, j, d): ring.prime - 1
        for i in range(n)
        for j in range(n)
        for d in range(trunc + 1)
        if kappa(ring, g, i, j, d) is not None
    }
    return GradedEndomorphism(ring, g, trunc, entries)


@pytest.mark.parametrize(
    "name, p, left, right, trunc, tainted",
    [
        ("cubic_surface", 3, "h_2", "h_2", None, None),
        ("cubic_surface", 3, "h_2", "h_4", None, None),
        ("quadric_intersection", 101, "h_2", "h_6", None, 1616),
        ("quadric_intersection", 7, "h_4", "h_2", 3, None),
        ("quadric_intersection", 7, "h_4", "h_4", 3, None),
        ("quadric_intersection", 211, "full:h_2", "full:h_2", None, 0),
        ("quadric_intersection", 211, "full:h_2", "full:h_2", 3, 0),
    ],
)
def test_compose_matches_all_pairs_reference(name, p, left, right, trunc, tainted):
    ring = builtin_ring(name, p)
    s1 = _operand(ring, left, trunc)
    s2 = _operand(ring, right)
    if name == "cubic_surface":
        assert s1.taint and s2.taint
    if trunc is not None:
        assert not s1.is_complete and s2.is_complete
    for a, b in ((s1, s2), (s2, s1)):
        got = compose(a, b)
        entries, taint, bound = _compose_all_pairs(a, b)
        assert (got.entries, set(got.taint), got.trunc) == (entries, taint, bound)
        if tainted is not None:
            assert len(got.taint) == tainted


# -- the commutator map against the generic slot-map products ---------------------


def _matmul_reference(x, y, p):
    """Product of slot maps: (i, j, d1) times (j, k, d2) lands on (i, k, d1+d2)."""
    out = {}
    for (i, j, d1), c in x.items():
        for (j2, k, d2), c2 in y.items():
            if j2 == j:
                key = (i, k, d1 + d2)
                out[key] = out.get(key, 0) + c * c2
    return {s: c % p for s, c in out.items() if c % p}


def _msub_reference(x, y, p):
    out = dict(x)
    for s, c in y.items():
        out[s] = (out.get(s, 0) - c) % p
    return {s: c for s, c in out.items() if c}


def _product_mask_reference(x, x_mask, y, y_mask):
    """A masked slot taints its product with every stored or masked slot of
    the other factor."""
    sides = [(x_mask, set(y) | set(y_mask)), (x, y_mask)]
    return {
        (i, k, d1 + d2)
        for left, right in sides
        for (i, j, d1) in left
        for (j2, k, d2) in right
        if j2 == j
    }


def _commutator_reference(x, x_mask, a, p):
    com = _msub_reference(_matmul_reference(x, a, p), _matmul_reference(a, x, p), p)
    mask = _product_mask_reference(x, x_mask, a, ()) | _product_mask_reference(a, (), x, x_mask)
    return com, mask


def _commutator_by_map(x, x_mask, ad, e, p):
    values, reach = ad
    com = {}
    for (i, j, d), c in x.items():
        for (i2, j2), v in values.get((i, j), ()):
            key = (i2, j2, d + e)
            com[key] = com.get(key, 0) + c * v
    mask = {(i2, j2, d + e) for (i, j, d) in x_mask for (i2, j2) in reach.get((i, j), ())}
    return {t: c % p for t, c in com.items() if c % p}, mask


@pytest.mark.parametrize("p", [2, 3, 5, 101, 211])
def test_ad_map_matches_slot_map_products(p):
    rng = random.Random(p)
    cases = 0
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, p)
        n = len(ring.basis)
        slots = [(i, j) for i in range(n) for j in range(n)]
        for div in ring.divisors:
            for e, block in solver._divisor_blocks(ring, div).items():
                ad = solver._ad_map(block, n, p)
                a = {(i, j, e): c for (i, j), c in block.items()}
                # every unit slot alone, then seeded random masked slot maps
                xs = [({(i, j, 0): 1}, {(i, j, 0)}) for (i, j) in slots]
                for _ in range(25):
                    d = rng.randrange(3)
                    x = {(i, j, d): rng.randrange(1, p) for (i, j) in slots if rng.random() < 0.5}
                    mask = {(i, j, d) for (i, j) in slots if rng.random() < 0.3} - set(x)
                    xs.append((x, mask))
                for x, mask in xs:
                    assert _commutator_by_map(x, mask, ad, e, p) == _commutator_reference(
                        x, mask, a, p
                    )
                    cases += 1
    assert cases > 100


def test_ad_map_taint_reaches_cancelled_slots():
    # [X, A_1] on the cubic surface: A_1 = 9 q (h_2 -> h_2), so X A_1 and
    # A_1 X cancel on h_2 -> h_2, which a tainted h_2 -> h_2 still reaches
    ring = builtin_ring("cubic_surface", 211)
    h2 = ring.index("h_2")
    block = solver._divisor_blocks(ring, ring.primary)[1]
    assert block == {(h2, h2): 9}
    values, reach = solver._ad_map(block, len(ring.basis), 211)
    assert not values.get((h2, h2))
    assert reach[(h2, h2)] == ((h2, h2),)
    x = {(h2, h2, 0): 5}
    assert _commutator_reference(x, set(x), {(h2, h2, 1): 9}, 211) == ({}, {(h2, h2, 1)})
    assert _commutator_by_map(x, set(x), (values, reach), 1, 211) == ({}, {(h2, h2, 1)})


# -- the per-order sweep -------------------------------------------------------


def _neumann_reference(rhs, rhs_mask, inv, ad0, p, nmax):
    """The Neumann-series solve of lambda*d X + [X, A0] = rhs that _sweep replaced.

    X = sum_m (-1)^m inv^(m+1) [., A0]^m (rhs); the mask is rhs_mask closed
    under the reach of ad0 = _ad_map(A0).
    """
    values0, reach0 = ad0
    acc = {}
    term = rhs
    factor = inv
    for _ in range(nmax):
        if not term:
            break
        nxt = {}
        for s, c in term.items():
            acc[s] = (acc.get(s, 0) + factor * c) % p
            for t, v in values0.get(s, ()):
                nxt[t] = nxt.get(t, 0) + c * v
        term = {s: c % p for s, c in nxt.items() if c % p}
        factor = -factor * inv % p
    else:
        if term:
            raise AssertionError("ad_{A_0} failed to terminate; non-nilpotent input")
    mask = set(rhs_mask)
    frontier = set(rhs_mask)
    for _ in range(nmax):
        if not frontier:
            break
        frontier = {t for s in frontier for t in reach0.get(s, ())} - mask
        mask |= frontier
    acc = {s: c for s, c in acc.items() if c and s not in mask}
    return acc, mask


@pytest.mark.parametrize("p", [2, 3, 5, 101, 211])
def test_sweep_matches_neumann_reference(p):
    rng = random.Random(p)
    cases = 0
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, p)
        n = len(ring.basis)
        slots = [(i, j) for i in range(n) for j in range(n)]
        _, order = solver._slot_exponents(ring, 0)  # the order depends on degrees only
        for div in ring.divisors:
            ad0 = solver._ad_map(solver._divisor_blocks(ring, div)[0], n, p)
            # every unit slot alone, every masked slot alone, then seeded random problems
            problems = [({s: 1}, set()) for s in slots] + [({}, {s}) for s in slots]
            for _ in range(25):
                rhs = {s: rng.randrange(1, p) for s in slots if rng.random() < 0.5}
                problems.append((rhs, {s for s in slots if rng.random() < 0.2}))
            for rhs, rhs_mask in problems:
                inv = rng.randrange(1, p)
                want = _neumann_reference(rhs, rhs_mask, inv, ad0, p, 2 * n + 4)
                assert solver._sweep(rhs, rhs_mask, inv, ad0, order, p) == want
                cases += 1
    assert cases > 100


@pytest.mark.parametrize("p", [2, 3, 5])
def test_slot_exponents_classify_slots_as_kappa_does(p):
    degenerate = 0
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, p)
        half = ring.q_degree // 2
        for b in ring.basis:
            g = p * b.degree
            exps, order = solver._slot_exponents(ring, g)
            shifts = [ring.degree(j) - ring.degree(i) for (i, j) in order]
            assert shifts == sorted(shifts) and sorted(order) == sorted(exps)
            endo, _ = solve_qsigma(b.name, ring)
            for d in range(endo.trunc + 1):
                live = {(i, j) for (i, j) in exps if kappa(ring, g, i, j, d) is not None}
                # the degenerate-order mask, and each live slot's t-exponent
                assert {s for s, k in exps.items() if k >= half * d} == live
                for (i, j) in live:
                    assert exps[(i, j)] - half * d == kappa(ring, g, i, j, d)
                if d and not ring.primary.pairing * d % p:
                    degenerate += 1
                    taint = {(i, j) for (i, j, e) in endo.taint if e == d}
                    assert taint == {(i, j) for (i, j) in live if kappa(ring, g, i, j, d)}
    assert degenerate


def _cubic_with_ungraded_q0_product():
    data = builtin_manifold("cubic_surface")
    for product in data["products"]:
        if (product["left"], product["right"], product["q"]) == ("h_2", "h_2", 0):
            product["terms"].append({"basis": "h_2", "coeff": 1})
    return data


def test_ungraded_q0_product_is_named():
    ring = ring_from_data(_cubic_with_ungraded_q0_product(), 5)
    with pytest.raises(ValueError) as info:
        solve_qsigma("h_4", ring)
    assert str(info.value) == "(h_2, h_2, q^0) -> h_2 violates the grading; see verify --suite ring"


@pytest.mark.parametrize(
    "call",
    [
        lambda ring: qsigma_apply("h_2", basis_class(ring, "h_2", 3), ring, -1),
        lambda ring: qst_via_generators([(1, 0, ("h_2", "h_2"))], ring, -1),
        lambda ring: qsigma_lambda(basis_class(ring, "h_2", 3), ring, -1),
    ],
    ids=["qsigma_apply", "qst_via_generators", "qsigma_lambda"],
)
def test_negative_truncation_is_rejected_by_every_entry_point(call):
    ring = builtin_ring("cubic_surface", 2)
    with pytest.raises(ValueError, match="truncation must be non-negative, got trunc=-1"):
        call(ring)
    assert not ring._solved
