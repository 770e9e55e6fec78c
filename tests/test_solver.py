import gc
import io
import random
import weakref

import pytest

from qsteenrod import cli, endo as endo_mod, solver
from qsteenrod.errors import (
    InconsistentSeed,
    MissingSteenrodData,
    MixedContext,
    NegativePowerResidue,
    NotGenerated,
    QSteenrodError,
)
from qsteenrod.endo import (
    GradedEndomorphism,
    compose,
    compose_sign,
    equal_on_untainted,
    format_endo,
    identity_endo,
    kappa,
    multiplication_endo,
    multiplication_matrix,
    qpi,
)
from qsteenrod.fp import fp_inv
from qsteenrod.manifold_io import dump_manifold, ring_from_data
from qsteenrod.oracles import builtin_manifold, builtin_ring, s2_closed_form
from qsteenrod.ring import (
    _class_product,
    basis_class,
    classical_product,
    connection_apply,
    element,
    element_from_terms,
    quantum_product,
    verify_ring,
    zero_element,
)
from qsteenrod.series import Monomial, SeriesElement, _pack, _slot_bytes, _unpack, series_mul
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
from test_series import add, element_of, format_series, series, times_monomial


def _times_series(x, s):
    """Each component of x times the series s (series_mul)."""
    return element_of(x.ring, {k: series_mul(f, s) for k, f in x.components.items()})


def _divisor_blocks(ring, div):
    """Blocks A_e = {(i, j): c} of quantum multiplication by the divisor, by e."""
    blocks = {}
    for (i, j, e), c in multiplication_matrix(ring.basis[div.index].name, ring).entries.items():
        blocks.setdefault(e, {})[(i, j)] = c
    return dict(sorted(blocks.items()))


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


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_initial_layer_reads_only_q0_products(p, monkeypatch):
    """The layer is the q^0 part of the whole matrix of St(b) *, read at q^0 alone."""
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, p)
        orders, graded = set(), ring._graded_sc
        monkeypatch.setattr(ring, "_graded_sc", lambda i, j, d: orders.add(d) or graded(i, j, d))
        for i, b in enumerate(ring.basis):
            layer = initial_layer(b.name, ring)
            assert orders <= {0}
            st = {(k, 0): c for (k, _), c in ring._steenrod(i).items()}
            whole = endo_mod._multiplication_entries(ring, st)
            assert layer.entries == {s: c for s, c in whole.items() if not s[2]}
            orders.clear()


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


def _cpn(n):
    """CP^n, h_k = h^k, with the default leading-term Steenrod data."""
    names = ["1"] + ["h%d" % k for k in range(1, n + 1)]
    products = [
        {
            "left": names[i],
            "right": names[j],
            "q": (i + j) // (n + 1),
            "terms": [{"basis": names[(i + j) % (n + 1)], "coeff": 1}],
        }
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    ]
    return {
        "name": "cp%d" % n,
        "basis": [{"name": b, "degree": 2 * k} for k, b in enumerate(names)],
        "q_degree": 2 * (n + 1),
        "dimension_top": 2 * n,
        "divisors": [{"name": "h1", "pairing": 1, "primary": True}],
        "products": products,
        "steenrod": {},
    }


def _cp6_with_wrong_steenrod_h2():
    """CP^6, h_k = h^k, with St(h2) = t^4 h2 + h6 mod 3: the t^2 h4 term is missing."""
    st_h2 = [
        {"basis": "h2", "t": 4, "theta": 0, "coeff": 1},
        {"basis": "h6", "t": 0, "theta": 0, "coeff": 1},
    ]
    return dict(_cpn(6), steenrod={"3": {"h2": st_h2}})


def test_negative_power_residue():
    # a graded ring that verify_ring passes, with wrong Steenrod data
    ring = ring_from_data(_cp6_with_wrong_steenrod_h2(), 3)
    assert verify_ring(ring) == []
    with pytest.raises(NegativePowerResidue, match=r"\(1 -> 1, q\^1\)"):
        solve_qsigma("h2", ring)


# -- the seeds against the element-based code they replaced ---------------------
#
# The references build the seed layers from CohomologyElement products, as the
# solver once did: St(e_i) with its t^0 part checked against the (p-1)-product
# cup power, cup product with St through a classical multiplication
# endomorphism, and the t^0 seeds read off b^(*p) * e_i.


def _ref_cup_power(ring, i, n, trunc):
    e_i = basis_class(ring, ring.basis[i].name, trunc)
    out = e_i
    for _ in range(n - 1):
        out = classical_product(out, e_i)
    return out


def _ref_full_steenrod(ring, i, trunc):
    p = ring.prime
    deg = ring.degree(i)
    name = ring.basis[i].name
    table = ring.steenrod.get(p, {})
    if i in table:
        comps = {}
        for k, t_exp, th_exp, c in table[i]:
            if th_exp:
                raise MissingSteenrodData("theta-sector Steenrod data unsupported for even classes")
            if ring.degree(k) + 2 * t_exp != p * deg:
                raise MissingSteenrodData("inhomogeneous Steenrod entry for %s mod %d" % (name, p))
            term = series(p, trunc, [(0, t_exp, 0, c)])
            comps[k] = add(comps[k], term) if k in comps else term
        st = element_of(ring, comps)
        t_zero = element_of(
            ring,
            {
                k: SeriesElement(p, trunc, {m: c for m, c in f.terms.items() if m.t == 0})
                for k, f in st.components.items()
            },
        )
        if t_zero != _ref_cup_power(ring, i, p, trunc):
            raise MissingSteenrodData(
                "t^0 part of St(%s) must be the %d-fold cup power" % (name, p)
            )
        return st
    if not ring.default_leading_steenrod:
        raise MissingSteenrodData("no Steenrod entry for %s mod %d" % (name, p))
    lead_t = (p - 1) * deg // 2
    sign = -1 if (deg // 2) % 2 else 1
    st = _ref_cup_power(ring, i, p, trunc)
    if lead_t > 0:
        lead = series(p, trunc, [(0, lead_t, 0, sign)])
        st = st + _times_series(basis_class(ring, name, trunc), lead)
    return st


def _ref_initial_layer(name, ring, trunc):
    i = ring.index(name)
    if trunc is None:
        trunc = ring.default_truncation(ring.degree(i))
    st = _ref_full_steenrod(ring, i, trunc)
    g = st.degree
    if g is None:
        raise ValueError("multiplication by an inhomogeneous element")
    entries = {}
    for i2, b in enumerate(ring.basis):
        v = classical_product(st, basis_class(ring, b.name, trunc))
        for j, f in v.components.items():
            for mono, c in f.terms.items():
                if mono.theta:
                    raise ValueError("theta term in multiplication endomorphism")
                if kappa(ring, g, i2, j, mono.q) != mono.t:
                    raise ValueError(
                        "inhomogeneous product: slot (%d,%d,%d) t^%d" % (i2, j, mono.q, mono.t)
                    )
                entries[(i2, j, mono.q)] = (entries.get((i2, j, mono.q), 0) + c) % ring.prime
    if g != ring.prime * ring.degree(i):
        raise ValueError("classical Steenrod data has the wrong degree")
    return GradedEndomorphism(ring, g, trunc, entries)


def _ref_tzero_layer(name, ring, trunc):
    deg = ring.degree(ring.index(name))
    if trunc is None:
        trunc = ring.default_truncation(deg)
    g = ring.prime * deg
    # b^(*p) by square-and-multiply, as pfold_power once spelled it out
    n, power, square = ring.prime, None, basis_class(ring, name, trunc)
    while True:
        if n & 1:
            power = square if power is None else quantum_product(power, square)
        n >>= 1
        if not n:
            break
        square = quantum_product(square, square)
    seeds = {}
    for i, b in enumerate(ring.basis):
        col = quantum_product(power, basis_class(ring, b.name, trunc))
        for j in range(len(ring.basis)):
            d, r = divmod(g + b.degree - ring.degree(j), ring.q_degree)
            if not r and 0 <= d <= trunc:
                seeds[(i, j, d)] = col.coefficient(j, d, 0)
    return seeds


def _seed_outcome(call):
    """call()'s result, comparable across the two codes, or its exception and message."""
    try:
        result = call()
    except (ValueError, MissingSteenrodData) as exc:
        return type(exc), str(exc)
    if isinstance(result, GradedEndomorphism):
        return result.degree, result.trunc, result.entries, result.taint
    return result


def _cubic_with_steenrod_h2(st_h2):
    data = builtin_manifold("cubic_surface")
    data["steenrod"]["2"]["h_2"] = st_h2
    return data


def _seed_problems(p):
    rings = [builtin_ring(name, p) for name in ("s2", "cubic_surface", "quadric_intersection")]
    rings += [ring_from_data(_cpn(n), p) for n in (1, 2, 4, 8, 16)]
    rings.append(ring_from_data(_cp6_with_wrong_steenrod_h2(), p))
    if p == 2:
        # St(h_2) mod 2 whose t^0 part is not h_2^2 = h_4, one with a
        # theta term, and one off degree
        for term in ({"t": 1, "theta": 0}, {"t": 2, "theta": 1}, {"t": 2, "theta": 0}):
            data = _cubic_with_steenrod_h2([dict(basis="h_2", coeff=1, **term)])
            rings.append(ring_from_data(data, p))
    return rings


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 31, 101, 211])
def test_seeds_match_the_element_based_reference(p):
    kinds = set()
    for ring in _seed_problems(p):
        for i, b in enumerate(ring.basis):
            want = _seed_outcome(lambda: _ref_full_steenrod(ring, i, 2))
            got = _seed_outcome(lambda: ring.steenrod_of(basis_class(ring, b.name, 2)))
            assert got == want, (ring.name, b.name)
            kinds.add(want[0] if type(want) is tuple else "element")
            for trunc in (None, 0, 1, 3):
                for new, ref in ((initial_layer, _ref_initial_layer), (tzero_layer, _ref_tzero_layer)):
                    want = _seed_outcome(lambda: ref(b.name, ring, trunc))
                    got = _seed_outcome(lambda: new(b.name, ring, trunc))
                    assert got == want, (ring.name, b.name, trunc, new.__name__)
    assert "element" in kinds
    if p == 2:
        assert MissingSteenrodData in kinds  # the wrong table entries, each message compared


def test_ungraded_power_is_named_not_a_seed_mismatch(tmp_path):
    """An ungraded h_4 * h_4 row fails at the t^0 power with the grading message."""
    data = builtin_manifold("quadric_intersection")
    for product in data["products"]:
        if (product["left"], product["right"]) == ("h_4", "h_4"):
            product["terms"].append({"basis": "h_4", "coeff": 1})
    message = "(h_4, h_4, q^2) -> h_4 violates the grading; see verify --suite ring"
    ring = ring_from_data(data, 2)
    for call in (lambda: tzero_layer("h_4", ring), lambda: solve_qsigma("h_4", ring)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    assert "homogeneity: (h_4,h_4,q^2) -> h_4 violates the grading" in verify_ring(ring)
    bad = tmp_path / "bad.json"
    bad.write_text(dump_manifold(data))
    out = io.StringIO()
    argv = ["verify", "--manifold", str(bad), "--prime", "2", "--suite", "ring"]
    assert cli.main(argv, out=out) == 1
    assert out.getvalue().startswith(
        "FAIL ring: ring: homogeneity: (h_4,h_4,q^2) -> h_4 violates the grading\n"
    )


def test_ungraded_cup_constant_is_named_by_both_seeds():
    """An ungraded (h_2, h_4, q^0) -> h_4 term is named as the product that reads it.

    St(h_4) mod 2 is explicit and the layer's products read the term; St(h_2)
    mod 5 is the default, whose cup power h_2^5 reads it.
    """
    data = builtin_manifold("quadric_intersection")
    for product in data["products"]:
        if (product["left"], product["right"], product["q"]) == ("h_2", "h_4", 0):
            product["terms"].append({"basis": "h_4", "coeff": 1})
    message = "(h_4, h_2, q^0) -> h_4 violates the grading; see verify --suite ring"
    for p, name in ((2, "h_4"), (5, "h_2")):
        ring = ring_from_data(data, p)
        with pytest.raises(ValueError) as info:
            initial_layer(name, ring)
        assert str(info.value) == message
        assert "homogeneity: (h_4,h_2,q^0) -> h_4 violates the grading" in verify_ring(ring)
    # an explicit St(h_2) mod 5 reads the term too: one more finding, not an
    # error, and without the hint to run the suite that prints it
    data["steenrod"]["5"] = {"h_2": [{"basis": "h_2", "t": 4, "theta": 0, "coeff": 1}]}
    findings = verify_ring(ring_from_data(data, 5))
    assert "homogeneity: (h_4,h_2,q^0) -> h_4 violates the grading" in findings
    assert findings[-1] == "steenrod table: (h_4, h_2, q^0) -> h_4 violates the grading"


def test_steenrod_entry_vanishing_mod_p_has_no_leading_term():
    """St(h_2) = 3 t^2 h_2 is zero mod 3: rejected, not read as a zero q^0 layer."""
    data = builtin_manifold("cubic_surface")
    data["steenrod"]["3"]["h_2"] = [{"basis": "h_2", "t": 2, "theta": 0, "coeff": 3}]
    ring = ring_from_data(data, 3)
    message = "St(h_2) mod 3 has no leading term t^2*h_2"
    for call in (lambda: initial_layer("h_2", ring), lambda: solve_qsigma("h_2", ring)):
        with pytest.raises(MissingSteenrodData) as info:
            call()
        assert str(info.value) == message
    assert verify_ring(ring) == ["steenrod table: " + message]


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
    # 2 h_2 is read off the cached QSigma_{h_2}: no third solve
    scaled, scaled_report = solve_qsigma(h_2.scale(2), ring)
    assert len(solves) == 2
    assert scaled.entries == {s: 2 * c % 3 for s, c in fresh.entries.items()}
    assert scaled.taint == fresh.taint and scaled_report == fresh_report


@pytest.mark.parametrize(
    "line, solves",
    [
        # solve_qsigma is called 5, 24, 4 and 5 times by these commands; under
        # --suite all the compose suite's scaled class is read off a cached solve
        ("verify --manifold builtin:quadric_intersection --prime 3 --suite constancy", 4),
        ("verify --manifold builtin:quadric_intersection --prime 3 --suite all", 4),
        ("compute --manifold builtin:quadric_intersection --prime 5 --class h_6 --op qst", 3),
        ("compute --manifold builtin:cubic_surface --prime 31 --class h_4 --op qst", 3),
    ],
)
def test_cli_solves_each_problem_once(monkeypatch, line, solves):
    calls = _count_solves(monkeypatch)
    assert cli.main(line.split(), out=io.StringIO()) == 0
    assert len(calls) == solves


def _scaled_outcomes(ring_of, cls, c, trunc):
    """solve_qsigma(c e_cls) on a ring that has e_cls solved and on one that has not, and
    the recurrence run on c e_cls itself: each as (rows, taint rows, report) or the error."""

    def outcome(solve):
        try:
            return solve()
        except (QSteenrodError, ValueError) as exc:
            return type(exc), str(exc)

    def via_route(ring):
        endo, report = solve_qsigma(basis_class(ring, cls, 0).scale(c), ring, trunc)
        return endo.rows, endo.taint_rows, report

    cached = ring_of()
    outcome(lambda: solve_qsigma(cls, cached, trunc))
    direct = ring_of()
    b = basis_class(direct, cls, 0).scale(c)
    deg = b.degree
    key = (((direct.index(cls), c % direct.prime),), trunc)
    want = outcome(lambda: solver._recurrence(b, deg, direct, direct.default_truncation(deg)
                                              if trunc is None else trunc, key))
    return [outcome(lambda: via_route(ring)) for ring in (cached, ring_of())], want


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 101])
def test_a_scaled_class_solves_as_the_scaled_unit_class(p):
    # QSigma_{c e_k} = c QSigma_{e_k}: the rows scale, the taint rows and the report stay
    kinds = set()
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        for cls in [b.name for b in builtin_ring(name, p).basis]:
            for c in sorted({2 % p, p - 1} - {0}):
                for trunc in (None, 0, 1, 3):
                    got, want = _scaled_outcomes(lambda: builtin_ring(name, p), cls, c, trunc)
                    assert got == [want, want], (name, cls, c, trunc)
                    kinds.add(bool(want[1]))
    assert kinds == {True, False}  # tainted and untainted solves


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_a_scaled_class_whose_unit_solve_raises_raises_its_own_error(p):
    # the error texts print values, so the scaled class runs its own recurrence
    raised = 0
    for n in (4, 6, 8):
        for cls in ["h%d" % k for k in range(1, n + 1)]:
            for c in sorted({2 % p, p - 1} - {0}):
                got, want = _scaled_outcomes(lambda: ring_from_data(_cpn(n), p), cls, c, None)
                assert got == [want, want], (n, cls, c)
                raised += isinstance(want[0], type)
    assert raised


def test_a_scaled_class_whose_unit_solve_fails_the_re_check_is_solved_directly(monkeypatch):
    # a bent commutator map makes the re-check list failures, whose texts print values
    real = solver._ad_map
    monkeypatch.setattr(solver, "_ad_map", lambda block, n: [
        tuple((t, 2 * c) for t, c in row) for row in real(block, n)])
    failing = 0
    for name in ("cubic_surface", "quadric_intersection"):
        for cls in [b.name for b in builtin_ring(name, 5).basis[1:]]:
            got, want = _scaled_outcomes(lambda: builtin_ring(name, 5), cls, 3, None)
            assert got == [want, want], (name, cls)
            failing += len(want) == 3 and any(want[2].residual_failures.values())
    assert failing
    ring = builtin_ring("cubic_surface", 5)
    solves = _count_solves(monkeypatch)
    solve_qsigma("h_2", ring)
    solve_qsigma(basis_class(ring, "h_2", 0).scale(3), ring)
    assert len(solves) == 2


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


def test_entries_view_is_built_once_per_operator():
    ring = builtin_ring("cubic_surface", 3)
    first, _ = solve_qsigma("h_2", ring)
    assert first._view is None  # built on first use, not by the solve
    first.column("1")
    first.apply(basis_class(ring, "h_2", 2))
    assert first._view is None  # application reads the rows
    view = first.entries
    assert first.entries is view
    hit, _ = solve_qsigma("h_2", ring)
    assert hit._view is None and hit.entries == view  # a cache hit is a new operator
    low, _ = solve_qsigma("h_2", ring, 2)
    assert low._view is None and solve_qsigma("h_2", ring, 2)[0].entries == low.entries
    with pytest.raises(TypeError):
        view[(0, 0, 0)] = 1
    with pytest.raises(AttributeError, match="read-only"):
        first.trunc = 0


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


@pytest.mark.parametrize(
    "mix",
    [
        lambda s2, quad: compose(solve_qsigma("h", s2)[0], solve_qsigma("h_2", quad)[0]),
        lambda s2, quad: solve_qsigma("h", s2)[0].apply(basis_class(quad, "h_2", 2)),
        lambda s2, quad: solve_qsigma("h", s2)[0].apply(basis_class(quad, "h_4", 2)),
        lambda s2, quad: quantum_product(basis_class(s2, "h", 2), basis_class(quad, "h_2", 2)),
        lambda s2, quad: solve_qsigma(basis_class(quad, "h_2", 0), s2),
        lambda s2, quad: qsigma_apply("h", basis_class(quad, "h_2", 2), s2),
        lambda s2, quad: basis_class(s2, "h", 2) + basis_class(quad, "h_4", 2),
        lambda s2, quad: zero_element(s2, 2) + basis_class(quad, "h_4", 2),
        lambda s2, quad: basis_class(s2, "h", 2) - zero_element(quad, 2),
        lambda s2, quad: verify_covariant_constancy(solve_qsigma("h_2", quad)[0], "h", s2),
        lambda s2, quad: verify_covariant_constancy(
            solve_qsigma("h", s2)[0], "h", s2, pi=qpi("h_2", solve_qsigma("h_2", quad)[0])
        ),
        lambda s2, quad: tzero_layer(basis_class(quad, "h_2", 0), s2),
        lambda s2, quad: initial_layer(basis_class(quad, "h_2", 0), s2),
        lambda s2, quad: qsigma_lambda(basis_class(quad, "h_2", 2), s2),
        lambda s2, quad: classical_product(basis_class(s2, "h", 2), basis_class(quad, "h_2", 2)),
        lambda s2, quad: s2.steenrod_of(basis_class(quad, "h_2", 2)),
    ],
    ids=[
        "compose", "apply h_2", "apply h_4", "quantum_product", "solve", "qsigma_apply",
        "add", "add to zero", "subtract zero", "verify_covariant_constancy", "verify pi",
        "tzero_layer", "initial_layer", "qsigma_lambda", "classical_product", "steenrod_of",
    ],
)
def test_rings_with_one_prime_but_different_bases_do_not_mix(mix):
    s2, quad = builtin_ring("s2", 3), builtin_ring("quadric_intersection", 3)
    with pytest.raises(MixedContext, match="incompatible rings: s2 mod 3 and quadric"):
        mix(s2, quad)


def test_equal_on_untainted_is_false_across_incompatible_rings():
    """As == is: the same slots and values over another prime or basis are not equal."""
    three, five = identity_endo(builtin_ring("s2", 3)), identity_endo(builtin_ring("s2", 5))
    assert three.entries == five.entries and three != five
    assert not equal_on_untainted(three, five)
    assert equal_on_untainted(three, identity_endo(builtin_ring("s2", 3)))


def test_compatible_rings_mix_and_share_one_solve():
    one, two = builtin_ring("s2", 3), builtin_ring("s2", 3)
    s1, r1 = solve_qsigma("h", one)
    _, r2 = solve_qsigma(basis_class(two, "h", 0), one)
    assert r2 is r1 and list(one._solved) == [(((1, 1),), 2)] and not two._solved
    t2, _ = solve_qsigma("h", two)
    assert compose(s1, t2) == compose(s1, s1)
    x = basis_class(two, "h", 2)
    assert s1.apply(x) == t2.apply(x) == s1.apply(basis_class(one, "h", 2))
    assert qsigma_apply("h", x, one) == qsigma_apply("h", x, two)
    assert quantum_product(basis_class(one, "h", 2), x) == quantum_product(x, x)


def test_rings_that_differ_only_past_names_and_prime_are_unequal():
    s2, quad = builtin_ring("s2", 3), builtin_ring("quadric_intersection", 3)
    assert basis_class(s2, "h", 2) != basis_class(quad, "h_2", 2)
    data = builtin_manifold("s2")
    data["q_degree"] = 2  # the sphere's names and prime, another grading of q
    other = ring_from_data(data, 3)
    assert identity_endo(s2, 1) != identity_endo(other, 1)
    assert basis_class(s2, "h", 2) != basis_class(other, "h", 2)
    one, two = builtin_ring("s2", 3), builtin_ring("s2", 3)
    assert identity_endo(one) == identity_endo(two)
    total = basis_class(one, "h", 2) + basis_class(two, "1", 2)
    assert total == element(two, 2, [("1", 0, 0, 1), ("h", 0, 0, 1)])


@pytest.mark.parametrize("entry", [solve_qsigma, tzero_layer, initial_layer])
def test_a_class_with_q_terms_is_rejected_by_every_seed_entry_point(entry):
    # h_4 + q on the quadric is homogeneous of degree 4, but not q-free
    ring = builtin_ring("quadric_intersection", 5)
    b = element(ring, 2, [("h_4", 0, 0, 1), ("1", 1, 0, 1)])
    assert b.degree == 4
    with pytest.raises(ValueError, match="needs a q,t-free class; see qsigma_lambda"):
        entry(b, ring)
    assert not ring._solved
    assert entry(element(ring, 2, [("h_4", 0, 0, 1)]), ring) == entry("h_4", ring)


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


def _slot_text_by_kappa(endo, i, j, d):
    """The slot label of the slot walk; raises TypeError on a t^-1 slot."""
    k = endo.kappa(i, j, d)
    t_part = "" if k == 0 else (" t" if k == 1 else " t^%d" % k)
    q_part = "q" if d == 1 else "q^%d" % d
    names = endo.ring.basis[i].name, endo.ring.basis[j].name
    if d == 0:
        q_part = "1" if k == 0 else ""
        return "(%s -> %s, %s)" % (names + ((q_part + t_part).strip(),))
    return "(%s -> %s, %s%s)" % (names + (q_part, t_part))


def _constancy_by_slot_walk(endo, divisor_name, ring, pi=None):
    """The slot-by-slot verify_covariant_constancy that the packed one replaced."""
    div = ring.divisor(divisor_name)
    p = ring.prime
    lam = div.pairing
    n = len(ring.basis)
    trunc = endo.trunc
    com = {}
    com_mask = set()
    for e, block in _divisor_blocks(ring, div).items():
        values, reach = _ad_map_by_tuple(block, n, p)
        for (i, j, d), c in endo.entries.items():
            if d + e <= trunc:
                for (i2, j2), v in values.get((i, j), ()):
                    t = (i2, j2, d + e)
                    com[t] = com.get(t, 0) + c * v
        for (i, j, d) in endo.taint:
            if d + e <= trunc:
                com_mask.update((i2, j2, d + e) for (i2, j2) in reach.get((i, j), ()))
    checked = pi_checked = 0
    failures = []
    pi_failures = []
    for d in range(trunc + 1):
        for i in range(n):
            for j in range(n):
                s = (i, j, d)
                if s in com_mask:
                    continue
                if s not in endo.taint:
                    res = (lam * d * endo.entries.get(s, 0) + com.get(s, 0)) % p
                    checked += 1
                    if res:
                        failures.append("residual %d at %s" % (res, _slot_text_by_kappa(endo, *s)))
                if pi is not None and s not in pi.taint:
                    pi_checked += 1
                    if pi.entries.get(s, 0) % p != -com.get(s, 0) % p:
                        pi_failures.append(
                            "divisor relation fails at %s" % _slot_text_by_kappa(endo, *s)
                        )
    return solver.ResidualReport(checked, tuple(failures), pi_checked, tuple(pi_failures))


def _perturbed(s, rng):
    """s with one to three untainted live slots shifted by a nonzero amount."""
    live = [
        (i, j, d)
        for i in range(len(s.ring.basis))
        for j in range(len(s.ring.basis))
        for d in range(s.trunc + 1)
        if s.kappa(i, j, d) is not None and (i, j, d) not in s.taint
    ]
    entries = dict(s.entries)
    for slot in rng.sample(live, min(len(live), rng.randint(1, 3))):
        entries[slot] = entries.get(slot, 0) + rng.randrange(1, s.ring.prime)
    return GradedEndomorphism(s.ring, s.degree, s.trunc, entries, s.taint)


@pytest.mark.parametrize("p", [2, 3, 5, 31, 211])
def test_packed_constancy_matches_the_slot_walk(p):
    rng = random.Random(p)
    cases = raised = 0
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, p)
        for b in ring.basis:
            endo, _ = solve_qsigma(b.name, ring)
            for div in ring.divisors:
                a = ring.basis[div.index].name
                pi = qpi(a, endo)
                inputs = [(endo, None), (endo, pi)]
                inputs += [(_perturbed(endo, rng), pi) for _ in range(8)]
                inputs += [(endo, _perturbed(pi, rng)) for _ in range(3)]
                for s, pi_in in inputs:
                    got = verify_covariant_constancy(s, a, ring, pi=pi_in)
                    try:
                        want = _constancy_by_slot_walk(s, a, ring, pi=pi_in)
                    except TypeError:  # a residual on a t^-1 slot
                        raised += 1
                        assert any("t^-1)" in f for f in got.failures)
                        continue
                    assert got == want
                    cases += 1
    assert cases > 70 and raised


def test_residual_on_a_t_inverse_slot_is_reported():
    # (1 -> 1, q^5) is a t^0 slot of QSigma_h_2 at p = 5; a nonzero value
    # there leaves a residual at (1 -> h_2, q^5), one t-order below it
    ring = builtin_ring("cubic_surface", 5)
    endo, _ = solve_qsigma("h_2", ring)
    entries = dict(endo.entries)
    entries[(0, 0, 5)] = entries.get((0, 0, 5), 0) + 1
    bad = GradedEndomorphism(ring, endo.degree, endo.trunc, entries, endo.taint)
    rep = verify_covariant_constancy(bad, "h_2", ring)
    assert rep.failures == ("residual 1 at (1 -> h_2, q^5 t^-1)",)
    assert rep.checked == verify_covariant_constancy(endo, "h_2", ring).checked


def _constancy_on_ad_tables(endo, divisor_name, ring, pi=None):
    """The verify_covariant_constancy that multiplied S by commutator tables.

    [S, a*] is summed per block from the commutator values of _ad_map_by_tuple
    on slots (i, j), and the taint mask follows its reach.
    """
    div = ring.divisor(divisor_name)
    p = ring.prime
    n = len(ring.basis)
    trunc = endo.trunc
    blocks = _divisor_blocks(ring, div)
    tables = {e: _ad_map_by_tuple(block, n, p) for e, block in blocks.items()}
    k = _slot_bytes((2 * n * len(tables) * (p - 1) ** 2).bit_length() + 1)
    count = trunc + 1

    def packed(entries):
        rows = {}
        for (i, j, d), c in entries.items():
            if d < count:
                rows.setdefault((i, j), [0] * count)[d] = c
        return {s: _pack(row, k) for s, row in rows.items()}

    def residual_slots(x, weights, y, skip):
        out = []
        for s in x.keys() | y.keys():
            u, v = _unpack(x.get(s, 0), k, count), _unpack(y.get(s, 0), k, count)
            for d in range(count):
                r = (weights[d] * u[d] + v[d]) % p
                if r and s + (d,) not in skip:
                    out.append((d,) + s + (r,))
        return sorted(out)

    series_ = packed(endo.entries)
    com = {}
    com_mask = set()
    for e, (values, reach) in tables.items():
        for s, u in series_.items():
            u <<= 8 * k * e
            for t, v in values.get(s, ()):
                com[t] = com.get(t, 0) + v * u
        for (i, j, d) in endo.taint:
            if d + e <= trunc:
                com_mask.update(t + (d + e,) for t in reach.get((i, j), ()))
    slots = n * n * count
    checked = slots - len(com_mask.union(s for s in endo.taint if s[2] <= trunc))
    lam_d = [div.pairing * d % p for d in range(count)]
    failures = tuple(
        "residual %d at %s" % (r, endo.slot_text(i, j, d))
        for d, i, j, r in residual_slots(series_, lam_d, com, com_mask | endo.taint)
    )
    pi_checked, pi_failures = 0, ()
    if pi is not None:
        pi_checked = slots - len(com_mask.union(s for s in pi.taint if s[2] <= trunc))
        pi_failures = tuple(
            "divisor relation fails at %s" % endo.slot_text(i, j, d)
            for d, i, j, _ in residual_slots(
                packed(pi.entries), [1] * count, com, com_mask | pi.taint
            )
        )
    return solver.ResidualReport(checked, failures, pi_checked, pi_failures)


def _retainted(s, rng):
    """s with one to three more live slots moved from its entries to its taint."""
    live = [
        (i, j, d)
        for i in range(len(s.ring.basis))
        for j in range(len(s.ring.basis))
        for d in range(s.trunc + 1)
        if s.kappa(i, j, d) is not None and (i, j, d) not in s.taint
    ]
    taint = set(s.taint) | set(rng.sample(live, min(len(live), rng.randint(1, 3))))
    entries = {slot: c for slot, c in s.entries.items() if slot not in taint}
    return GradedEndomorphism(s.ring, s.degree, s.trunc, entries, taint)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 101, 211])
def test_recheck_by_packed_product_matches_the_ad_table_recheck(p):
    rng = random.Random(1000 + p)
    cases = 0
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, p)
        for b in ring.basis:
            endo, _ = solve_qsigma(b.name, ring)
            for div in ring.divisors:
                a = ring.basis[div.index].name
                pi = qpi(a, endo)
                inputs = [(endo, None), (endo, pi), (_perturbed(endo, rng), None)]
                inputs += [(_perturbed(endo, rng), pi), (endo, _perturbed(pi, rng))]
                inputs += [(_retainted(endo, rng), pi), (endo, _retainted(pi, rng))]
                for s, pi_in in inputs:
                    got = verify_covariant_constancy(s, a, ring, pi=pi_in)
                    assert got == _constancy_on_ad_tables(s, a, ring, pi=pi_in)
                    cases += 1
    assert cases == 7 * 9


@pytest.mark.parametrize("scale", [-1, 2])
def test_recheck_flags_a_scaled_ad_map(monkeypatch, scale):
    # The re-check multiplies by the divisor map itself, not by the sweep's
    # _ad_map lists, so a fault in those values cannot cancel out.
    cases = [
        (name, b.name, p)
        for p in (3, 5, 7, 11, 31)
        for name in ("s2", "cubic_surface", "quadric_intersection")
        for b in builtin_ring(name, p).basis[1:]
    ]
    want = {case: solve_qsigma(case[1], builtin_ring(case[0], case[2]))[0] for case in cases}
    real = solver._ad_map

    def scaled(block, n):
        return [tuple((t, scale * c) for t, c in row) for row in real(block, n)]

    monkeypatch.setattr(solver, "_ad_map", scaled)
    wrong = 0
    for case in cases:
        name, cls, p = case
        try:
            got, report = solve_qsigma(cls, builtin_ring(name, p))
        except (InconsistentSeed, NegativePowerResidue):
            continue
        if got != want[case]:
            wrong += 1
            assert any(report.residual_failures.values()), case
    assert len(cases) == 30 and wrong >= 20


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


@pytest.mark.parametrize(
    "expr, error, message",
    [
        ([(1, 0, ("h_2", "h_2")), (1, 0, ("h_4", "1"))], NotGenerated,
         "non-divisor 'h_4' in a composite factor word"),
        ([(1, 0, ("h_2", "h_2")), (1, 0, ("h_4",)), (1, 0, ("h_2",))], ValueError,
         "expression must be homogeneous"),
    ],
    ids=["non-divisor head in a later term", "inhomogeneous"],
)
def test_qst_via_generators_checks_the_whole_expression_before_any_solve(
    monkeypatch, expr, error, message
):
    # the first term alone is valid, so evaluating term by term would solve it first
    ring = builtin_ring("cubic_surface", 2)
    calls, real = [], solver.solve_qsigma
    monkeypatch.setattr(solver, "solve_qsigma", lambda *args: calls.append(args) or real(*args))
    with pytest.raises(error) as info:
        qst_via_generators(expr, ring)
    assert type(info.value) is error and str(info.value) == message
    assert calls == []
    qst_via_generators(expr[:1], ring)
    assert calls  # the counter sees the solves of a valid expression


@pytest.mark.parametrize("term", [(1, -1, ("h_2",)), (1, -1, ("h_2", "h_4"))])
def test_qst_via_generators_rejects_a_negative_q_exponent_before_any_solve(monkeypatch, term):
    # both terms are homogeneous (degrees 0 and 4); the second used to divide its QSt by q^5
    def no_solve(*args):
        raise AssertionError("solve_qsigma called")

    monkeypatch.setattr(solver, "solve_qsigma", no_solve)
    with pytest.raises(ValueError) as info:
        qst_via_generators([term], builtin_ring("cubic_surface", 5))
    assert type(info.value) is ValueError
    assert str(info.value) == "term %r has a negative q exponent" % (term,)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda ring: solve_qsigma(zero_element(ring, 0), ring), "b must be nonzero"),
        (lambda ring: qsigma_lambda(basis_class(ring, "h_2", 3) + basis_class(ring, "h_4", 3),
                                    ring), "beta must be homogeneous"),
        (lambda ring: qsigma_lambda(basis_class(ring, "h_2", 3)
                                    + basis_class(ring, "1", 3).times_monomial(t=1), ring),
         "beta may carry q-coefficients only"),
    ],
    ids=["zero class", "inhomogeneous beta", "beta with a t-term"],
)
def test_solver_input_checks_name_the_cause(call, message):
    with pytest.raises(ValueError) as info:
        call(builtin_ring("cubic_surface", 2))
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("p", [5, 7, 31])
def test_qst_via_generators_taint_covers_the_tail_taint(p):
    # QSt(h_2 * h_4) = QSigma_h_2(QSt(h_4)): any values on the tail's tainted
    # slots may change only output slots that are reported tainted
    ring = builtin_ring("cubic_surface", p)
    out, taint = qst_via_generators([(1, 0, ("h_2", "h_4"))], ring)
    tail, tail_taint = qst("h_4", ring).endo.column("1", out.trunc)
    assert tail_taint
    base, _ = qsigma_apply("h_2", tail, ring, out.trunc)
    rng = random.Random(p)
    for _ in range(3):
        comps = {k: f.terms for k, f in tail.components.items()}
        for k, qv in tail_taint:
            t_exp = (4 * p - ring.degree(k) - ring.q_degree * qv) // 2
            terms = {m: c for m, c in comps.get(k, {}).items() if m.q != qv}
            terms[Monomial(qv, t_exp, 0)] = rng.randrange(1, p)
            comps[k] = terms
        moved, _ = qsigma_apply("h_2", element_from_terms(ring, out.trunc, comps), ring, out.trunc)
        changed = {(k, m.q) for k, f in (moved - base).components.items() for m in f.terms}
        assert changed and changed <= taint


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
    return series(endo.ring.prime, trunc, [(d, endo.kappa(i, j, d), 0, c)])


def _column_term_by_term(endo, name):
    ring = endo.ring
    i = ring.index(name)
    out = zero_element(ring, endo.trunc)
    for (i2, j, d), c in endo.entries.items():
        if i2 == i:
            out = out + element_of(ring, {j: _slot_series(endo, i, j, d, c, endo.trunc)})
    return out


def _apply_term_by_term(endo, x):
    ring = endo.ring
    out = zero_element(ring, x.trunc)
    for (i, j, d), c in endo.entries.items():
        f = x.components.get(i)
        if f is not None:
            term = times_monomial(f, q=d, t=endo.kappa(i, j, d), coeff=c)
            out = out + element_of(ring, {j: term})
    return out


def _format_endo_term_by_term(endo):
    ring = endo.ring
    pairs = {}
    for (i, j, d), c in endo.entries.items():
        f = pairs.get((i, j), SeriesElement(ring.prime, endo.trunc, {}))
        pairs[(i, j)] = add(f, _slot_series(endo, i, j, d, c, endo.trunc))
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
        x = _times_series(
            basis_class(ring, b.name, endo.trunc),
            series(211, endo.trunc, [(0, 0, 0, 1), (1, 1, 0, 5), (2, 0, 1, 7)]),
        )
        out, _ = endo.apply(x)
        assert out == _apply_term_by_term(endo, x)
    lines = format_endo(endo).split("\n")
    assert lines == _format_endo_term_by_term(endo)


def _term_loop_rows(endo):
    """{i: [(j, d, c, kappa)]}, the row index _apply_by_term_loop reads."""
    rows = {}
    for (i, j, d), c in endo.entries.items():
        rows.setdefault(i, []).append((j, d, c, endo.kappa(i, j, d)))
    return rows


def _apply_by_term_loop(endo, x, trunc=None, rows=None):
    """The value of GradedEndomorphism.apply as a loop over row terms and x's terms."""
    trunc = x.trunc if trunc is None else trunc
    if trunc is None:  # the zero x, uncut
        return zero_element(endo.ring, None)
    rows = _term_loop_rows(endo) if rows is None else rows
    acc = {}  # j -> {monomial: unreduced coefficient}
    for i, f in x.components.items():
        for j, d, c, k in rows.get(i, ()):
            terms = acc.setdefault(j, {})
            for (mq, mt, mth), v in f.terms.items():
                if mq + d <= trunc:
                    m = Monomial(mq + d, mt + k, mth)
                    terms[m] = terms.get(m, 0) + c * v
    return element_from_terms(endo.ring, trunc, acc)


@pytest.mark.parametrize("p", [2, 3, 5, 31, 211])
def test_apply_matches_the_term_loop(p):
    rng = random.Random(p)
    cases = 0
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, p)
        n = len(ring.basis)
        for b in ring.basis:
            endo, _ = solve_qsigma(b.name, ring)
            trunc = endo.trunc
            rows = _term_loop_rows(endo)
            for c in ring.basis:  # every column
                x = basis_class(ring, c.name, trunc)
                assert endo.column(c.name)[0] == _apply_by_term_loop(endo, x, rows=rows)
                cases += 1
            # theta terms, negative t, q-terms above trunc, and the zero x
            xs = [zero_element(ring, trunc)]
            assert xs[0].trunc is None
            for _ in range(2):
                terms = {}
                for _ in range(rng.randint(2, 8)):
                    m = Monomial(rng.randrange(trunc + 4), rng.randint(-3, 4), rng.randint(0, 1))
                    terms.setdefault(rng.randrange(n), {})[m] = rng.randrange(1, p)
                xs.append(element_from_terms(ring, trunc + 3, terms))
            for x in xs:
                top = x.trunc if x.trunc is not None else trunc
                for cut in (None, rng.randrange(top) if top else 0, top + 2):
                    got, _ = endo.apply(x, cut)
                    assert got == _apply_by_term_loop(endo, x, cut, rows), (name, b.name, cut)
                    cases += 1
            # a class with no stored row
            dropped = rng.randrange(n)
            rowless = GradedEndomorphism(
                ring, endo.degree, trunc, {s: c for s, c in endo.entries.items() if s[0] != dropped}
            )
            x = element_from_terms(ring, trunc, {k: {Monomial(0, 0, 0): 1} for k in range(n)})
            assert rowless.apply(x)[0] == _apply_by_term_loop(rowless, x)
            cases += 1
    assert cases == 2 * 2 + 3 * 3 + 4 * 4 + 9 * (3 * 3 + 1)  # columns, then per class
    # the full width: p - 1 on every live slot of QSigma_h_2 on the cubic
    # surface, applied to a homogeneous x of length trunc + 1 with every
    # coefficient p - 1
    ring = builtin_ring("cubic_surface", p)
    n, g = len(ring.basis), 2 * p
    trunc = ring.default_truncation(2)
    full = GradedEndomorphism(ring, g, trunc, {
        (i, j, d): p - 1
        for i in range(n) for j in range(n) for d in range(trunc + 1)
        if kappa(ring, g, i, j, d) is not None
    })
    x = element_of(ring, {
        k: SeriesElement(p, trunc, {
            Monomial(q, (ring.dimension_top - ring.degree(k)) // 2 - q, 0): p - 1
            for q in range(trunc + 1)
        })
        for k in range(n)
    })
    assert full.apply(x)[0] == _apply_by_term_loop(full, x)


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


def test_ad_tables_are_built_once_per_ring_and_shared(monkeypatch):
    calls = []
    real = {name: getattr(solver, name) for name in ("multiplication_matrix", "_ad_map")}
    for name, fn in real.items():
        monkeypatch.setattr(
            solver, name, lambda *args, name=name, fn=fn: calls.append(name) or fn(*args)
        )
    ring = builtin_ring("quadric_intersection", 5)
    div = ring.primary
    n = len(ring.basis)
    blocks = _divisor_blocks(ring, div)
    endo, _ = solve_qsigma("h_2", ring)  # the solve, then its re-check
    built = ["multiplication_matrix"] + ["_ad_map"] * len(blocks)
    assert calls == built
    entry = ring._mult[div.index]
    rows, tables = entry[:2]
    assert set(tables) == set(blocks)
    for e, block in blocks.items():
        assert tables[e] == real["_ad_map"](block, n)
    for i in range(n):  # the rows the connection chain and qst_auto's peel read
        product = _class_product(ring, {(div.index, 0): 1}, {(i, 0): 1})
        out_of_i = [(j, row) for (h, j), row in rows.items() if h == i]
        assert {(j, e): c for j, row in out_of_i for e, c in enumerate(row) if c} == product

    def ints_only(obj):
        if isinstance(obj, dict):
            return all(ints_only(k) and ints_only(v) for k, v in obj.items())
        if isinstance(obj, (tuple, list)):
            return all(map(ints_only, obj))
        return type(obj) is int

    assert ints_only(entry)  # no reference to the ring
    for b in ring.basis:
        solve_qsigma(b.name, ring)
        qst_auto(b.name, ring)
        qsigma_apply("h_2", basis_class(ring, b.name, 3), ring)
    assert verify_covariant_constancy(endo, "h_2", ring).ok
    assert calls == built and solver._divisor_map(ring, div) is entry
    other = builtin_ring("quadric_intersection", 5)
    solve_qsigma("h_2", other)
    assert calls == 2 * built and other._mult[div.index] is not entry


# -- the dict-of-tuples solver, copied in as the reference -----------------------
#
# Before the solver kept its state on flat slots it held each q-order as a
# dict keyed by (i, j) and solved it with these routines.  They are kept here
# as they were, so that the flat solver is held to them.


def _ad_map_by_tuple(block, n, p):
    """[X, A] slot by slot: values[(i, j)] lists ((i2, j2), c), reach[(i, j)] the slots touched."""
    rows, cols = {}, {}
    for (j, k), c in block.items():
        rows.setdefault(j, []).append((k, c))
        cols.setdefault(k, []).append((j, c))
    values, reach = {}, {}
    for i in range(n):
        for j in range(n):
            acc = {}
            for k, c in rows.get(j, ()):
                acc[(i, k)] = acc.get((i, k), 0) + c
            for h, c in cols.get(i, ()):
                acc[(h, j)] = acc.get((h, j), 0) - c
            if acc:
                reach[(i, j)] = tuple(acc)
                values[(i, j)] = tuple((s, c % p) for s, c in acc.items() if c % p)
    return values, reach


def _slot_exponents_by_tuple(ring, g):
    """Each (i, j) slot's q^0 t-exponent (g + |e_i| - |e_j|) / 2, and the slots by shift."""
    n = len(ring.basis)
    exps = {(i, j): (g + ring.degree(i) - ring.degree(j)) // 2 for i in range(n) for j in range(n)}
    return exps, sorted(exps, key=exps.get, reverse=True)  # by increasing degree shift


def _sweep_by_tuple(rhs, rhs_mask, inv, ad0, order, p):
    """Solve lambda*d X + [X, A0] = rhs, with inv = 1/(lambda*d) mod p, in one sweep."""
    values0, reach0 = ad0
    pending = dict(rhs)
    mask = set(rhs_mask)
    values = {}
    for s in order:
        if s in mask:
            mask.update(reach0.get(s, ()))
            continue
        x = pending.get(s, 0) * inv % p
        if x:
            values[s] = x
            for t, v in values0.get(s, ()):
                pending[t] = pending.get(t, 0) - x * v
    return values, mask


def _solve_by_tuple(b, ring, trunc):
    """solve_qsigma's recurrence on dicts: (entries, taint, seed_checks, seeds_resolving)."""
    p = ring.prime
    g = p * ring.degree(ring.index(b))
    if trunc is None:
        trunc = ring.default_truncation(ring.degree(ring.index(b)))
    div = ring.primary
    lam = div.pairing % p
    n = len(ring.basis)
    ads = {e: _ad_map_by_tuple(block, n, p) for e, block in _divisor_blocks(ring, div).items()}
    exps, order = _slot_exponents_by_tuple(ring, g)
    seeds = tzero_layer(b, ring, trunc)
    init = initial_layer(b, ring, trunc)
    layers = {0: {(i, j): c for (i, j, d), c in init.entries.items() if d == 0}}
    masks = {0: set()}
    seed_checks = 0
    seeds_resolving = 0
    for d in range(1, trunc + 1):
        rhs = {}
        rhs_mask = set()
        for e, (vals, reach) in ads.items():
            if 1 <= e <= d:
                for s, c in layers[d - e].items():
                    for t, v in vals.get(s, ()):
                        rhs[t] = rhs.get(t, 0) - c * v
                for s in masks[d - e]:
                    rhs_mask.update(reach.get(s, ()))
        floor = ring.q_degree // 2 * d
        if (lam * d) % p:
            values, mask = _sweep_by_tuple(rhs, rhs_mask, fp_inv(lam * d, p), ads[0], order, p)
        else:
            values, mask = {}, {s for s, k in exps.items() if k >= floor}
        layer = {}
        layer_mask = set()
        for s, k in exps.items():
            val = values.get(s, 0)
            if k < floor:
                if s not in mask and val:
                    raise NegativePowerResidue(
                        "nonzero value forced onto dead slot (%s -> %s, q^%d)"
                        % (ring.basis[s[0]].name, ring.basis[s[1]].name, d)
                    )
            elif k == floor:
                seed = seeds[s + (d,)]
                if s in mask:
                    seeds_resolving += 1
                else:
                    seed_checks += 1
                    if val != seed:
                        raise InconsistentSeed(
                            "recurrence gives %d but the p-fold power seeds %d "
                            "at (%s -> %s, q^%d)"
                            % (val, seed, ring.basis[s[0]].name, ring.basis[s[1]].name, d)
                        )
                if seed:
                    layer[s] = seed
            elif s in mask:
                layer_mask.add(s)
            elif val:
                layer[s] = val
        layers[d] = layer
        masks[d] = layer_mask
    entries = {(i, j, d): c for d, layer in layers.items() for (i, j), c in layer.items()}
    taint = {(i, j, d) for d, mask in masks.items() for (i, j) in mask}
    return entries, taint, seed_checks, seeds_resolving


def _recurrence_outcome(solve, b, ring, trunc):
    """The entries in order, the taint and the seed counts; or the error raised."""
    try:
        result = solve(b, ring, trunc)
    except (InconsistentSeed, NegativePowerResidue) as exc:
        return type(exc), str(exc)
    if solve is solve_qsigma:
        endo, report = result
        result = endo.entries, endo.taint, report.seed_checks, report.seeds_resolving_taint
    entries, taint, seed_checks, seeds_resolving = result
    return list(entries.items()), set(taint), seed_checks, seeds_resolving


@pytest.mark.parametrize("p", [2, 3, 5, 31, 211])
def test_flat_recurrence_matches_the_dict_recurrence(p):
    problems = []
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, p)
        problems += [(ring, b.name, trunc) for b in ring.basis for trunc in (None, 0, 1, 3, 6)]
    cp8 = ring_from_data(_cpn(8), p)  # the leading-term default is wrong on CP^n
    problems += [(cp8, b.name, None) for b in cp8.basis]
    if p == 3:
        problems.append((ring_from_data(_cp6_with_wrong_steenrod_h2(), 3), "h2", None))
    kinds = set()
    for ring, b, trunc in problems:
        want = _recurrence_outcome(_solve_by_tuple, b, ring, trunc)
        assert _recurrence_outcome(solve_qsigma, b, ring, trunc) == want
        kinds.add(want[0] if len(want) == 2 else bool(want[1]))
    assert True in kinds  # a tainted solve
    if p in (2, 3):
        assert {InconsistentSeed, NegativePowerResidue} <= kinds


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


def _commutator_by_map(x, x_mask, table, e, n, p):
    com = {}
    for (i, j, d), c in x.items():
        for t, v in table[i * n + j]:
            key = divmod(t, n) + (d + e,)
            com[key] = com.get(key, 0) + c * v
    mask = {divmod(t, n) + (d + e,) for (i, j, d) in x_mask for t, _ in table[i * n + j]}
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
            for e, block in _divisor_blocks(ring, div).items():
                ad = solver._ad_map(block, n)
                a = {(i, j, e): c for (i, j), c in block.items()}
                # every unit slot alone, then seeded random masked slot maps
                xs = [({(i, j, 0): 1}, {(i, j, 0)}) for (i, j) in slots]
                for _ in range(25):
                    d = rng.randrange(3)
                    x = {(i, j, d): rng.randrange(1, p) for (i, j) in slots if rng.random() < 0.5}
                    mask = {(i, j, d) for (i, j) in slots if rng.random() < 0.3} - set(x)
                    xs.append((x, mask))
                for x, mask in xs:
                    assert _commutator_by_map(x, mask, ad, e, n, p) == _commutator_reference(
                        x, mask, a, p
                    )
                    cases += 1
    assert cases > 100


def test_ad_map_taint_reaches_cancelled_slots():
    # [X, A_1] on the cubic surface: A_1 = 9 q (h_2 -> h_2), so X A_1 and
    # A_1 X cancel on h_2 -> h_2, which a tainted h_2 -> h_2 still reaches:
    # its list sums to 0 there and still names the slot
    ring = builtin_ring("cubic_surface", 211)
    h2 = ring.index("h_2")
    block = _divisor_blocks(ring, ring.primary)[1]
    assert block == {(h2, h2): 9}
    n = len(ring.basis)
    table = solver._ad_map(block, n)
    assert table[h2 * n + h2] == ((h2 * n + h2, 0),)
    x = {(h2, h2, 0): 5}
    assert _commutator_reference(x, set(x), {(h2, h2, 1): 9}, 211) == ({}, {(h2, h2, 1)})
    assert _commutator_by_map(x, set(x), table, 1, n, 211) == ({}, {(h2, h2, 1)})


# -- the per-order sweep -------------------------------------------------------


def _neumann_reference(rhs, rhs_mask, inv, ad0, p, nmax):
    """The Neumann-series solve of lambda*d X + [X, A0] = rhs that _sweep replaced.

    X = sum_m (-1)^m inv^(m+1) [., A0]^m (rhs); the mask is rhs_mask closed
    under the reach of ad0 = _ad_map_by_tuple(A0).
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
        _, order = _slot_exponents_by_tuple(ring, 0)  # the order depends on degrees only
        for div in ring.divisors:
            ad0 = _ad_map_by_tuple(_divisor_blocks(ring, div)[0], n, p)
            # every unit slot alone, every masked slot alone, then seeded random problems
            problems = [({s: 1}, set()) for s in slots] + [({}, {s}) for s in slots]
            for _ in range(25):
                rhs = {s: rng.randrange(1, p) for s in slots if rng.random() < 0.5}
                problems.append((rhs, {s for s in slots if rng.random() < 0.2}))
            for rhs, rhs_mask in problems:
                inv = rng.randrange(1, p)
                want = _neumann_reference(rhs, rhs_mask, inv, ad0, p, 2 * n + 4)
                assert _sweep_by_tuple(rhs, rhs_mask, inv, ad0, order, p) == want
                cases += 1
        cases += _solved_orders_against_neumann(ring)
    assert cases > 100


def _solved_orders_against_neumann(ring):
    """Hold every order of every solve where lambda*d is invertible mod p to the
    Neumann series of its right-hand side, built from the solved lower orders.
    Returns the number of orders checked."""
    p = ring.prime
    n = len(ring.basis)
    div = ring.primary
    ads = {e: _ad_map_by_tuple(block, n, p) for e, block in _divisor_blocks(ring, div).items()}
    orders = 0
    for b in ring.basis:
        endo, _ = solve_qsigma(b.name, ring)
        layers = [{} for _ in range(endo.trunc + 1)]
        masks = [set() for _ in range(endo.trunc + 1)]
        for (i, j, d), c in endo.entries.items():
            layers[d][(i, j)] = c
        for (i, j, d) in endo.taint:
            masks[d].add((i, j))
        for d in range(1, endo.trunc + 1):
            if not div.pairing * d % p:
                continue
            rhs, rhs_mask = {}, set()
            for e, (values, reach) in ads.items():
                if 1 <= e <= d:
                    for s, c in layers[d - e].items():
                        for t, v in values.get(s, ()):
                            rhs[t] = rhs.get(t, 0) - c * v
                    for s in masks[d - e]:
                        rhs_mask.update(reach.get(s, ()))
            inv = fp_inv(div.pairing * d, p)
            want, want_mask = _neumann_reference(rhs, rhs_mask, inv, ads[0], p, 2 * n + 4)
            live = {(i, j) for i in range(n) for j in range(n) if endo.kappa(i, j, d)}
            assert {s: c for s, c in layers[d].items() if s not in want_mask} == want
            assert masks[d] == want_mask & live
            orders += 1
    return orders


@pytest.mark.parametrize("p", [2, 3, 5])
def test_slot_exponents_classify_slots_as_kappa_does(p):
    degenerate = 0
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, p)
        half = ring.q_degree // 2
        for b in ring.basis:
            g = p * b.degree
            exps, order = _slot_exponents_by_tuple(ring, g)
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


def test_ungraded_q2_product_is_named():
    data = builtin_manifold("s2")
    data["products"].append(
        {"left": "h", "right": "h", "q": 2, "terms": [{"basis": "h", "coeff": 1}]}
    )
    ring = ring_from_data(data, 3)
    with pytest.raises(ValueError) as info:
        solve_qsigma("h", ring)
    assert str(info.value) == "(h, h, q^2) -> h violates the grading; see verify --suite ring"


@pytest.mark.parametrize(
    "call",
    [
        lambda ring: qsigma_apply("h_2", basis_class(ring, "h_2", 3), ring, -1),
        lambda ring: qst_via_generators([(1, 0, ("h_2", "h_2"))], ring, -1),
        lambda ring: qsigma_lambda(basis_class(ring, "h_2", 3), ring, -1),
        lambda ring: tzero_layer("h_2", ring, -1),
        lambda ring: initial_layer("h_2", ring, -1),
        lambda ring: identity_endo(ring, -1),
        lambda ring: GradedEndomorphism(ring, 4, -1, {(0, 1, 0): 1}),
        lambda ring: multiplication_endo(basis_class(ring, "h_2", 3), -1),
        lambda ring: multiplication_matrix("h_2", ring, -1),
        lambda ring: basis_class(ring, "h_2", -1),
        lambda ring: element(ring, -1, [("h_2", 0, 0, 1)]),
        lambda ring: SeriesElement(3, -1),
        lambda ring: zero_element(ring, -1),
        lambda ring: basis_class(ring, "h_2", 3).retruncate(-1),
        lambda ring: multiplication_matrix("h_2", ring).apply(basis_class(ring, "h_2", 3), -1),
        lambda ring: multiplication_matrix("h_2", ring).column("h_2", -1),
    ],
    ids=[
        "qsigma_apply",
        "qst_via_generators",
        "qsigma_lambda",
        "tzero_layer",
        "initial_layer",
        "identity_endo",
        "GradedEndomorphism",
        "multiplication_endo",
        "multiplication_matrix",
        "basis_class",
        "element",
        "series",
        "zero_element",
        "retruncate",
        "apply",
        "column",
    ],
)
def test_negative_truncation_is_rejected_by_every_entry_point(call):
    ring = builtin_ring("cubic_surface", 2)
    with pytest.raises(ValueError, match="truncation must be non-negative, got trunc=-1"):
        call(ring)
    assert not ring._solved


def test_an_operator_without_a_truncation_is_rejected():
    ring = builtin_ring("cubic_surface", 2)
    for entries in (None, {(0, 0, 0): 1}):
        with pytest.raises(ValueError, match=r"truncation must be non-negative, got trunc=None"):
            GradedEndomorphism(ring, 0, None, entries)


@pytest.mark.parametrize(
    "call",
    [
        lambda ring: basis_class(ring, "h_2", None),
        lambda ring: element(ring, None, [("h_2", 0, 0, 1)]),
        lambda ring: element(ring, None, []),
        lambda ring: element_from_terms(ring, None, {1: {(0, 0, 0): 1}}),
        lambda ring: basis_class(ring, "h_2", 3).retruncate(None),
        lambda ring: zero_element(ring, None).retruncate(None),
    ],
    ids=["basis_class", "element", "empty element", "element_from_terms", "retruncate",
         "zero retruncate"],
)
def test_an_element_without_a_truncation_is_rejected(call):
    ring = builtin_ring("cubic_surface", 2)
    with pytest.raises(ValueError) as info:
        call(ring)
    assert str(info.value) == "the q-truncation must be non-negative, got trunc=None"


def test_the_zero_element_takes_no_truncation():
    ring = builtin_ring("cubic_surface", 2)
    zero = zero_element(ring, None)
    assert zero.is_zero() and zero.trunc is None and zero == zero_element(ring, 3)
    assert quantum_product(zero, basis_class(ring, "h_2", 3)) == zero
