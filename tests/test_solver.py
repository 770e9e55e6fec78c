import pytest

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
