import random
from pathlib import Path

import pytest

from qsteenrod import ring as ring_mod
from qsteenrod.errors import ManifoldFormatError, MissingSteenrodData, MixedContext, NotDivisor
from qsteenrod.oracles import builtin_manifold, builtin_ring
from qsteenrod.manifold_io import ring_from_data
from qsteenrod.ring import (
    _class_product,
    basis_class,
    classical_product,
    connection_apply,
    element,
    element_from_terms,
    pfold_power,
    quantum_product,
    verify_ring,
    zero_element,
)
from qsteenrod.endo import (
    GradedEndomorphism,
    _apply_rows,
    compose,
    kappa,
    multiplication_endo,
    multiplication_matrix,
)
from qsteenrod.series import Monomial, series_mul
from qsteenrod.solver import solve_qsigma
from test_series import (
    add, derivation_apply, element_of, retruncate, scale, series, times_monomial,
)


def _times_series(x, s):
    """Each component of x times the series s (series_mul)."""
    return element_of(x.ring, {k: series_mul(f, s) for k, f in x.components.items()})


def test_builtin_rings_verify_clean():
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        for p in (2, 3, 5):
            assert verify_ring(builtin_ring(name, p)) == []


def test_ring_is_read_only():
    ring = builtin_ring("cubic_surface", 2)
    for attr in ("prime", "name", "basis", "steenrod", "default_leading_steenrod"):
        with pytest.raises(AttributeError):
            setattr(ring, attr, getattr(ring, attr))
        with pytest.raises(AttributeError):
            delattr(ring, attr)
    with pytest.raises(TypeError):
        ring.steenrod[3] = {}
    with pytest.raises(TypeError):
        ring.steenrod[2][1] = ()
    # the read-only table still compares equal to plain dicts
    assert ring.steenrod == {2: {1: ((2, 0, 0, 1), (1, 1, 0, 1))}, 3: {1: ((1, 2, 0, -1),)}}
    assert ring.sc(1, 1, 0) == {2: 1}
    solve_qsigma("h_2", ring)
    assert ring._solved  # the private lazy caches still fill


def test_ring_built_directly_rejects_duplicate_names():
    # the ring validates its description itself, so a direct build is stopped as a file is
    data = builtin_manifold("s2")
    data["basis"].append({"name": "h", "degree": 4})
    with pytest.raises(ManifoldFormatError, match=r"^basis\[2\]\.name: duplicate class 'h'$"):
        ring_mod.QuantumRing(data, 3)


def test_ring_built_directly_rejects_a_divisor_listed_twice():
    data = builtin_manifold("s2")
    data["divisors"].append(dict(data["divisors"][0], primary=False))
    with pytest.raises(ManifoldFormatError, match=r"^divisors\[1\]\.name: duplicate divisor 'h'$"):
        ring_mod.QuantumRing(data, 3)


def test_changing_the_data_after_the_build_leaves_the_ring_unchanged():
    data = builtin_manifold("quadric_intersection")
    ring = ring_mod.QuantumRing(data, 3)
    data["name"] = "other"
    data["basis"][1]["name"] = "x"
    data["divisors"][0]["pairing"] = 7
    data["products"][0]["terms"][0]["coeff"] = 5
    data["products"].clear()
    data["steenrod"]["2"]["h_2"][0]["t"] = 9
    data["steenrod"].clear()
    fresh = builtin_ring("quadric_intersection", 3)
    for attr in ("name", "basis", "q_degree", "dimension_top", "divisors", "steenrod", "_sc"):
        assert getattr(ring, attr) == getattr(fresh, attr), attr
    assert solve_qsigma("h_2", ring)[0].rows == solve_qsigma("h_2", fresh)[0].rows


def test_s2_products():
    for p in (3, 5):
        ring = builtin_ring("s2", p)
        h = basis_class(ring, "h", 4)
        assert quantum_product(h, h) == element(ring, 4, [("1", 1, 0, 1)])
        # brute-force p-fold power: q^((p-1)/2) h
        assert pfold_power(h, ring) == element(ring, 4, [("h", (p - 1) // 2, 0, 1)])


def test_cubic_products_mod_2():
    ring = builtin_ring("cubic_surface", 2)
    h2 = basis_class(ring, "h_2", 4)
    assert quantum_product(h2, h2) == element(ring, 4, [("h_4", 0, 0, 1), ("h_2", 1, 0, 1)])


def test_cubic_pfold_mod_3_vanishes():
    ring = builtin_ring("cubic_surface", 3)
    h2 = basis_class(ring, "h_2", 5)
    assert pfold_power(h2, ring).is_zero()


def test_quadric_products():
    ring = builtin_ring("quadric_intersection", 3)
    h2 = basis_class(ring, "h_2", 4)
    h4 = basis_class(ring, "h_4", 4)
    assert quantum_product(h2, h4) == element(ring, 4, [("h_6", 0, 0, 1), ("h_2", 1, 0, 2)])
    # h_2^{*3} = h_6 mod 3
    assert pfold_power(h2, ring) == element(ring, 4, [("h_6", 0, 0, 1)])


def test_multiplication_matrix_s2():
    ring = builtin_ring("s2", 3)
    m = multiplication_matrix("h", ring)
    assert m.entries == {(0, 1, 0): 1, (1, 0, 1): 1}
    with pytest.raises(NotDivisor):
        multiplication_matrix("1", ring)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda ring: basis_class(ring, "1", 2) + basis_class(ring, "h_2", 3),
         MixedContext, "addition at mixed truncations"),
        (lambda ring: basis_class(ring, "h_2", 3).times_monomial(q=-1), ValueError,
         "negative q exponent"),
        (lambda ring: element_from_terms(ring, 3, {1: {(0, 0, 2): 1}}), ValueError,
         "theta exponent must be 0 or 1"),
        (lambda ring: element(ring, 3, [("h_2", -1, 0, 1)]), ValueError, "negative q exponent"),
        (lambda ring: multiplication_endo(basis_class(ring, "h_2", 3)
                                          + basis_class(ring, "h_4", 3)),
         ValueError, "multiplication by an inhomogeneous element"),
        (lambda ring: multiplication_endo(zero_element(ring, 2)), ValueError,
         "multiplication by the zero element needs a degree"),
        (lambda ring: multiplication_endo(element_from_terms(ring, 3, {1: {(0, 0, 1): 1}})),
         ValueError, "theta term in multiplication endomorphism"),
        (lambda ring: ring.steenrod_of(basis_class(ring, "h_2", 3).times_monomial(q=1)),
         ValueError, "St is defined for q,t-free classes"),
        (lambda ring: ring.steenrod_of(basis_class(ring, "h_2", 3).times_monomial(t=1)),
         ValueError, "St is defined for q,t-free classes"),
    ],
    ids=["mixed truncations", "negative q shift", "theta exponent", "negative q",
         "inhomogeneous multiplier", "zero multiplier", "theta multiplier", "St of a q-term",
         "St of a t-term"],
)
def test_element_input_checks_name_the_cause(call, error, message):
    with pytest.raises(error) as info:
        call(builtin_ring("cubic_surface", 2))
    assert type(info.value) is error and str(info.value) == message


def test_kappa_is_none_off_the_even_nonnegative_slots():
    ring = builtin_ring("cubic_surface", 2)
    assert kappa(ring, 2, 1, 0, 0) == 2 and kappa(ring, 2, 2, 1, 0) == 2
    assert kappa(ring, 2, 0, 2, 0) is None  # t^-1
    for i in range(3):
        for j in range(3):
            for d in range(3):
                assert kappa(ring, 3, i, j, d) is None


def test_unit_column_is_the_class_itself():
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, 3)
        div = ring.basis[ring.primary.index].name
        m = multiplication_matrix(div, ring)
        col, taint = m.column("1")
        assert not taint
        assert col == basis_class(ring, div, m.trunc)


def test_quadrics_matrix_column_h4():
    # column of h_4 in multiplication by h_2: (0, 2q, 0, 1) over (1,h_2,h_4,h_6)
    ring = builtin_ring("quadric_intersection", 5)
    m = multiplication_matrix("h_2", ring)
    col, _ = m.column("h_4")
    assert col == element(ring, m.trunc, [("h_2", 1, 0, 2), ("h_6", 0, 0, 1)])


def test_matrix_square_is_multiplication_by_square():
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        for p in (2, 3, 5):
            ring = builtin_ring(name, p)
            div = ring.basis[ring.primary.index].name
            m = multiplication_matrix(div, ring)
            trunc = (4 + ring.dimension_top) // ring.q_degree
            a = basis_class(ring, div, trunc)
            sq = multiplication_endo(quantum_product(a, a), trunc=trunc, degree=4)
            assert compose(m, m) == sq


# -- the one product of basis classes ---------------------------------------------

BUILTINS = ("s2", "cubic_surface", "quadric_intersection")


def _vector_element(ring, trunc, vector):
    """The element sum c q^q e_k of a (class, q) vector {(k, q): c}."""
    return element(ring, trunc, [(ring.basis[k].name, q, 0, c) for (k, q), c in vector.items()])


def _class_vectors(ring, rng):
    """Single classes, q-shifted ones and seeded multi-term combinations."""
    n = len(ring.basis)
    vectors = [{(k, 0): 1} for k in range(n)] + [{(k, 2): 3} for k in range(n)]
    for _ in range(6):
        vectors.append({(rng.randrange(n), rng.randrange(3)): rng.randrange(1, 7) for _ in range(3)})
    return vectors


def _loop_quantum_product(x, y):
    """quantum_product as it was, reading ring.sc per q-order; kept as the reference."""
    ring_mod._check_compatible(x.ring, y.ring, "quantum product")
    ring = x.ring
    if x.is_zero() or y.is_zero():
        trunc = x.trunc if x.trunc is not None else y.trunc
        return zero_element(ring, trunc)
    if x.trunc != y.trunc:
        raise MixedContext("quantum product at mixed truncations")
    trunc = x.trunc
    acc = {}  # k -> {monomial: unreduced coefficient}
    for i, f in x.components.items():
        for j, g in y.components.items():
            fg = series_mul(f, g).terms
            if not fg:
                continue
            for d in ring.q_orders(i, j):
                if d > trunc:
                    break
                for k, c in ring.sc(i, j, d).items():
                    terms = acc.setdefault(k, {})
                    for (mq, mt, mth), v in fg.items():
                        if mq + d <= trunc:
                            m = Monomial(mq + d, mt, mth)
                            terms[m] = terms.get(m, 0) + c * v
    return element_from_terms(ring, trunc, acc)


def _loop_classical_product(x, y):
    """classical_product as it was, reading ring.sc at q^0; kept as the reference."""
    ring_mod._check_compatible(x.ring, y.ring, "classical product")
    ring = x.ring
    if x.is_zero() or y.is_zero():
        return zero_element(ring, x.trunc if x.trunc is not None else y.trunc)
    comps = {}
    for i, f in x.components.items():
        for j, g in y.components.items():
            fg = series_mul(f, g)
            for k, c in ring.sc(i, j, 0).items():
                term = scale(fg, c)
                if term.is_zero():
                    continue
                comps[k] = add(comps[k], term) if k in comps else term
    return element_of(ring, comps)


@pytest.mark.parametrize("p", [2, 3, 5, 31, 211])
def test_element_products_match_the_loop_references(p):
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        trunc = ring.max_q_order() + 2
        coeff = series(p, trunc, [(0, 0, 0, 1), (1, 1, 0, 2), (0, -1, 1, 1)])
        classes = [basis_class(ring, b.name, trunc) for b in ring.basis]
        with_coeff = [_times_series(x, coeff) for x in classes]  # q, t and theta terms
        combos = [sum(classes[1:], classes[0]), classes[1] + with_coeff[-1].scale(3)]
        operands = classes + with_coeff + combos + [zero_element(ring, trunc)]
        for x in operands:
            for y in operands:
                assert quantum_product(x, y) == _loop_quantum_product(x, y), (name, x, y)
                assert classical_product(x, y) == _loop_classical_product(x, y), (name, x, y)


@pytest.mark.parametrize("coeff", [5, 1])
def test_every_product_names_an_ungraded_constant(coeff):
    """The cubic with (h_2, h_2, q^0) + coeff*h_2 at p=5, the constant 5 vanishing mod p."""
    data = _with_extra_term("cubic_surface", "h_2", "h_2", 0, "h_2", coeff)
    ring = ring_from_data(data, 5)
    h2 = basis_class(ring, "h_2", 4)
    products = (
        lambda: quantum_product(h2, h2),
        lambda: classical_product(h2, h2),
        lambda: connection_apply("h_2", h2),
        lambda: pfold_power(h2),
        lambda: ring.sc(1, 1, 0),
    )
    message = "(h_2, h_2, q^0) -> h_2 violates the grading; see verify --suite ring"
    for product in products:
        with pytest.raises(ValueError) as info:
            product()
        assert str(info.value) == message
    assert verify_ring(ring) == ["homogeneity: (h_2,h_2,q^0) -> h_2 violates the grading"]


def test_pfold_power_rejects_an_incompatible_ring():
    h = basis_class(builtin_ring("s2", 3), "h", 4)
    with pytest.raises(MixedContext, match="incompatible rings: s2 mod 5 and s2 mod 3"):
        pfold_power(h, builtin_ring("s2", 5))
    assert pfold_power(h, builtin_ring("s2", 3)) == pfold_power(h)


@pytest.mark.parametrize("p", [2, 3, 5, 31])
def test_class_product_is_the_element_product(p):
    rng = random.Random(p)
    trunc = 9  # above every q-exponent the vectors and the products reach
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        vectors = _class_vectors(ring, rng)
        for x in vectors:
            for y in vectors:
                got = _class_product(ring, x, y)
                assert max((q for _, q in got), default=0) <= trunc
                want = _loop_quantum_product(
                    _vector_element(ring, trunc, x), _vector_element(ring, trunc, y)
                )
                assert _vector_element(ring, trunc, got) == want, (name, x, y)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_class_product_to_top_is_the_product_cut_at_top(p):
    rng = random.Random(p)
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        vectors = _class_vectors(ring, rng)
        for x in vectors:
            for y in vectors:
                full = _class_product(ring, x, y)
                for top in range(4):
                    want = {s: c for s, c in full.items() if s[1] <= top}
                    assert _class_product(ring, x, y, top) == want, (name, x, y, top)


def _element_built_multiplication_endo(x, trunc=None, degree=None):
    """multiplication_endo as it was built from n element products, kept as the reference."""
    ring = x.ring
    g = x.degree if x.degree is not None else degree
    if g is None:
        raise ValueError("multiplication by an inhomogeneous element")
    if trunc is None:
        trunc = (g + ring.dimension_top) // ring.q_degree
    entries = {}
    for i, b in enumerate(ring.basis):
        e_i = basis_class(ring, b.name, trunc)
        v = quantum_product(x.retruncate(trunc), e_i)
        for j, f in v.components.items():
            for mono, c in f.terms.items():
                if mono.theta:
                    raise ValueError("theta term in multiplication endomorphism")
                k = kappa(ring, g, i, j, mono.q)
                if k is None or k != mono.t:
                    raise ValueError(
                        "inhomogeneous product: slot (%d,%d,%d) t^%d" % (i, j, mono.q, mono.t)
                    )
                entries[(i, j, mono.q)] = (entries.get((i, j, mono.q), 0) + c) % ring.prime
    return GradedEndomorphism(ring, g, trunc, entries)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
def test_multiplication_endo_matches_the_element_built_reference(p):
    for name in BUILTINS:
        ring = builtin_ring(name, p)
        a = ring.basis[ring.primary.index].name
        top = ring.basis[-1]
        cases = [(basis_class(ring, b.name, 6), {}) for b in ring.basis]
        a6 = basis_class(ring, a, 6)
        cases.append((quantum_product(a6, a6), {"degree": 4}))
        # a q-shifted homogeneous combination: 2 q e_top + 5 t^(|q|/2) e_top
        half = ring.q_degree // 2
        cases.append((element(ring, 6, [(top.name, 1, 0, 2), (top.name, 0, half, 5)]), {}))
        for x, kwargs in cases:
            for trunc in (None, 0, 1, 4):
                want = _element_built_multiplication_endo(x, trunc=trunc, **kwargs)
                got = multiplication_endo(x, trunc=trunc, **kwargs)
                assert (got, got.trunc) == (want, want.trunc), (name, x, trunc)


def test_ungraded_multiplication_matrix_is_named():
    data = builtin_manifold("s2")
    data["products"].append(
        {"left": "h", "right": "h", "q": 2, "terms": [{"basis": "h", "coeff": 1}]}
    )
    ring = ring_from_data(data, 3)
    with pytest.raises(ValueError) as info:
        multiplication_matrix("h", ring)
    assert str(info.value) == "(h, h, q^2) -> h violates the grading; see verify --suite ring"


def test_connection_examples():
    ring = builtin_ring("s2", 3)
    h = basis_class(ring, "h", 3)
    assert connection_apply("h", h, ring) == element(ring, 3, [("1", 1, 0, 1)])
    q_one = element(ring, 3, [("1", 1, 0, 1)])
    assert connection_apply("h", q_one, ring) == element(
        ring, 3, [("1", 1, 1, 1), ("h", 1, 0, 1)]
    )
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        r = builtin_ring(name, 3)
        div = r.basis[r.primary.index].name
        one = basis_class(r, "1", 3)
        assert connection_apply(div, one, r) == basis_class(r, div, 3)


def test_connection_leibniz_rule():
    # nabla_a(f x) = t d_a(f) x + f nabla_a(x) for scalar series f
    rng = random.Random(2)
    for name in ("cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, 3)
        div = ring.basis[ring.primary.index].name
        lam = ring.primary.pairing
        for _ in range(20):
            f = series(
                3, 4, [(rng.randrange(4), rng.randrange(0, 3), 0, rng.randrange(1, 3)) for _ in range(3)]
            )
            x = basis_class(ring, rng.choice([b.name for b in ring.basis]), 4)
            lhs = connection_apply(div, _times_series(x, f), ring)
            rhs = _times_series(x, times_monomial(derivation_apply(lam, f), t=1)) + _times_series(
                connection_apply(div, x, ring), f
            )
            assert lhs == rhs


def test_degree_additivity_random():
    rng = random.Random(9)
    for name in ("cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, 5)
        names = [b.name for b in ring.basis]
        for _ in range(30):
            x = basis_class(ring, rng.choice(names), 5).times_monomial(
                q=rng.randrange(2), t=rng.randrange(2)
            )
            y = basis_class(ring, rng.choice(names), 5).times_monomial(q=rng.randrange(2))
            prod = quantum_product(x, y)
            if not prod.is_zero():
                assert prod.degree == x.degree + y.degree


def test_quantum_product_at_q0_is_cup_product():
    for name in ("cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, 3)
        for b1 in ring.basis:
            for b2 in ring.basis:
                x = basis_class(ring, b1.name, 0)
                y = basis_class(ring, b2.name, 0)
                assert quantum_product(x, y) == classical_product(x, y)


def test_homogeneity_violation_reported():
    data = builtin_manifold("cubic_surface")
    data["products"].append(
        {"left": "h_2", "right": "h_2", "q": 1, "terms": [{"basis": "h_4", "coeff": 1}]}
    )
    # duplicate (h_2, h_2, q) entries are rejected outright
    with pytest.raises(ManifoldFormatError):
        ring_from_data(data, 5)
    data = builtin_manifold("quadric_intersection")
    data["products"].append(
        {"left": "h_2", "right": "h_4", "q": 2, "terms": [{"basis": "h_6", "coeff": 1}]}
    )
    findings = verify_ring(ring_from_data(data, 5))
    assert any("homogeneity" in f for f in findings)


def test_steenrod_tables():
    # s2: St(h) = -t^(p-1) h for every p
    for p in (2, 3, 5, 7):
        ring = builtin_ring("s2", p)
        st = ring.steenrod_of(basis_class(ring, "h", 0))
        assert st == element(ring, 0, [("h", 0, p - 1, -1)])
    # cubic p=2: St(h_2) = h_4 + t h_2 (explicit table)
    ring = builtin_ring("cubic_surface", 2)
    h_2 = basis_class(ring, "h_2", 0)
    assert ring.steenrod_of(h_2) == element(ring, 0, [("h_4", 0, 0, 1), ("h_2", 0, 1, 1)])
    # cubic p=3: St(h_2) = -t^2 h_2
    ring = builtin_ring("cubic_surface", 3)
    h_2 = basis_class(ring, "h_2", 0)
    assert ring.steenrod_of(h_2) == element(ring, 0, [("h_2", 0, 2, -1)])
    # quadrics p=2: Sq(h_k) = t^(k/2) h_k
    ring = builtin_ring("quadric_intersection", 2)
    for name, k in (("h_2", 2), ("h_4", 4), ("h_6", 6)):
        assert ring.steenrod_of(basis_class(ring, name, 0)) == element(
            ring, 0, [(name, 0, k // 2, 1)]
        )
    # quadrics p=3: the default rule includes the forced cup-cube h_6
    ring = builtin_ring("quadric_intersection", 3)
    assert ring.steenrod_of(basis_class(ring, "h_2", 0)) == element(
        ring, 0, [("h_2", 0, 2, -1), ("h_6", 0, 0, 1)]
    )


# -- sparse products and binary powering ---------------------------------------

BUILTINS = ("s2", "cubic_surface", "quadric_intersection")


def _dense_product(x, y):
    """Reference product: every q-order d <= trunc, one term at a time."""
    ring = x.ring
    out = zero_element(ring, x.trunc)
    for i, f in x.components.items():
        for j, g in y.components.items():
            fg = series_mul(f, g)
            for d in range(x.trunc + 1):
                for k, c in ring.sc(i, j, d).items():
                    out = out + element_of(ring, {k: times_monomial(fg, q=d, coeff=c)})
    return out


def test_quantum_product_matches_dense_reference():
    for name in BUILTINS:
        for p in (2, 3, 5):
            ring = builtin_ring(name, p)
            trunc = ring.max_q_order() + 2
            coeff = series(p, trunc, [(0, 0, 0, 1), (1, 1, 0, 2), (0, -1, 1, 1)])
            for b1 in ring.basis:
                for b2 in ring.basis:
                    x = _times_series(basis_class(ring, b1.name, trunc), coeff)
                    y = basis_class(ring, b2.name, trunc)
                    assert quantum_product(x, y) == _dense_product(x, y)
                    z = basis_class(ring, b1.name, trunc)
                    assert quantum_product(z, y) == _dense_product(z, y)


def test_pfold_power_matches_sequential_products():
    for name in BUILTINS:
        for p in (2, 3, 5, 31, 211):
            ring = builtin_ring(name, p)
            a = ring.basis[ring.primary.index].name
            b = basis_class(ring, a, ring.default_truncation(2))
            loop = b
            for _ in range(p - 1):
                loop = quantum_product(loop, b)
            assert pfold_power(b, ring) == loop, (name, p)
            if p > 31:
                continue
            # an inhomogeneous element keeps many terms in the partial powers
            c = b + basis_class(ring, "1", b.trunc).times_monomial(q=1, t=1, coeff=2)
            loop = c
            for _ in range(p - 1):
                loop = quantum_product(loop, c)
            assert pfold_power(c, ring) == loop, (name, p)


# -- the packed application kernel against series_mul -------------------------


def _assert_apply_rows_is_series_mul(endo, x, trunc=None):
    """_apply_rows on endo's rows equals the sum over x's classes k of column k
    times x's series f_k (series_mul), term by term, with the same truncation."""
    ring = endo.ring
    trunc = x.trunc if trunc is None else trunc
    got = _apply_rows(ring, endo.degree, endo.rows, x, trunc)
    want = {}
    for k, f in x.components.items():
        col, _ = endo.column(ring.basis[k].name, trunc)
        for j, g in col.components.items():
            term = series_mul(g, retruncate(f, trunc))
            want[j] = add(want[j], term) if j in want else term
    assert {k: (f.trunc, f.terms) for k, f in got.components.items()} == {
        k: (f.trunc, f.terms) for k, f in want.items() if f.terms
    }


@pytest.mark.parametrize("p", [2, 3, 5, 101, 211])
def test_apply_rows_matches_series_mul_on_every_column(p):
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, p)
        for b in ring.basis:
            endo, _ = solve_qsigma(b.name, ring)
            for c in ring.basis:
                col, _ = endo.column(c.name)
                if col.is_zero():
                    continue
                # the shape qsigma_apply multiplies: a class times a
                # homogeneous series of the column's length scale
                s = min(col.components.values(), key=lambda f: len(f.terms))
                x = element_of(ring, {ring.index(c.name): s})
                _assert_apply_rows_is_series_mul(endo, x)


def test_apply_rows_keeps_theta_terms_apart():
    # theta is part of the grading key, so a theta term and a theta-free term
    # at the same q and t stay apart; the map is theta-free, so theta never
    # squares here (the theta^2 rule is series_mul's, see test_series.py)
    for p in (2, 3):
        ring = builtin_ring("s2", p)
        endo, _ = solve_qsigma("h", ring)
        both = series(p, endo.trunc, [(0, 0, 0, 1), (0, 0, 1, 1), (1, 0, 1, p - 1)])
        for k in range(len(ring.basis)):
            x = element_of(ring, {k: both})
            got, _ = endo.apply(x)
            assert any(m.theta for f in got.components.values() for m in f.terms)
            assert {h for _, h in got.pieces} == {0, 1}
            _assert_apply_rows_is_series_mul(endo, x)


@pytest.mark.parametrize("p", [2, 3])
def test_apply_rows_matches_series_mul_on_inhomogeneous_theta_input(p):
    rng = random.Random(p)
    ring = builtin_ring("quadric_intersection", p)
    endos = [solve_qsigma(b.name, ring)[0] for b in ring.basis]
    trunc = 6

    def random_series():
        return series(p, trunc, [
            (rng.randint(0, trunc), rng.randint(-3, 4), rng.randint(0, 1), rng.randrange(p))
            for _ in range(12)
        ])

    for _ in range(20):
        x = element_of(ring, {k: random_series() for k in range(len(ring.basis))})
        keys = {(ring.degree(k) + 2 * t + 4 * q, h) for k, f in x.components.items() for (q, t, h) in f.terms}
        assert set(x.pieces) == keys and len(keys) > 1  # several pieces, one packed group each
        _assert_apply_rows_is_series_mul(rng.choice(endos), x)


def test_apply_rows_width_holds_full_length_maximal_coefficients():
    # Every slot of the product sums n (trunc + 1) products (p - 1)^2, the
    # largest load the packing width is sized for: p - 1 on every slot of a
    # map whose degree makes every slot live, applied to a homogeneous x
    # whose every class carries a full series of p - 1
    p = 211
    ring = builtin_ring("cubic_surface", p)
    n = len(ring.basis)
    trunc = ring.default_truncation(2)
    g = ring.dimension_top + ring.q_degree * trunc
    entries = {(i, j, d): p - 1 for i in range(n) for j in range(n) for d in range(trunc + 1)}
    assert all(kappa(ring, g, *slot) is not None for slot in entries)
    endo = GradedEndomorphism(ring, g, trunc, entries)
    x = element_of(ring, {
        k: series(p, trunc, [(q, 3 - ring.degree(k) // 2 - q, 0, p - 1) for q in range(trunc + 1)])
        for k in range(n)
    })
    assert x.degree is not None
    _assert_apply_rows_is_series_mul(endo, x)


def _verify_ring_all_pairs(ring, trunc=None):
    """verify_ring as it was when flatness compared every ordered pair, a = b included."""
    if trunc is None:
        trunc = max(ring.max_q_order(), ring.default_truncation(2))
    findings = []
    n = len(ring.basis)
    q_deg = ring.q_degree
    for (i, j, d), terms in ring._sc.items():
        for k, c in terms.items():
            if ring.degree(i) + ring.degree(j) != ring.degree(k) + q_deg * d:
                findings.append(
                    "homogeneity: (%s,%s,q^%d) -> %s violates the grading"
                    % (ring.basis[i].name, ring.basis[j].name, d, ring.basis[k].name)
                )
        if ring._sc.get((j, i, d), {}) != terms:
            findings.append(
                "commutativity: (%s,%s) differs from (%s,%s) at q^%d"
                % (ring.basis[i].name, ring.basis[j].name, ring.basis[j].name, ring.basis[i].name, d)
            )
    elems = [basis_class(ring, b.name, trunc) for b in ring.basis]
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                lhs = quantum_product(quantum_product(elems[i], elems[j]), elems[k])
                rhs = quantum_product(elems[i], quantum_product(elems[j], elems[k]))
                if lhs != rhs:
                    findings.append(
                        "associativity fails on (%s,%s,%s)"
                        % (ring.basis[i].name, ring.basis[j].name, ring.basis[k].name)
                    )
    for a in ring.divisors:
        for b in ring.divisors:
            for e in elems:
                lhs = connection_apply(
                    ring.basis[a.index].name, connection_apply(ring.basis[b.index].name, e)
                )
                rhs = connection_apply(
                    ring.basis[b.index].name, connection_apply(ring.basis[a.index].name, e)
                )
                if lhs != rhs:
                    findings.append(
                        "flatness fails for divisors (%s,%s)"
                        % (ring.basis[a.index].name, ring.basis[b.index].name)
                    )
    table = ring.steenrod.get(ring.prime, {})
    for i in table:
        try:
            ring.steenrod_of(basis_class(ring, ring.basis[i].name, trunc))
        except MissingSteenrodData as exc:
            findings.append("steenrod table: %s" % exc)
    return findings


def _two_divisor_manifold():
    """Divisors a, b with a * a = q a, b * b = q b, a * b = 0: associative, not flat."""
    return {
        "name": "two_divisors",
        "basis": [{"name": name, "degree": 2 * (name != "1")} for name in ("1", "a", "b")],
        "q_degree": 2,
        "dimension_top": 2,
        "divisors": [
            {"name": "a", "pairing": 1, "primary": True},
            {"name": "b", "pairing": 2, "primary": False},
        ],
        "products": [
            {"left": "a", "right": "a", "q": 1, "terms": [{"basis": "a", "coeff": 1}]},
            {"left": "a", "right": "b", "q": 0, "terms": []},
            {"left": "b", "right": "b", "q": 1, "terms": [{"basis": "b", "coeff": 1}]},
        ],
    }


@pytest.mark.parametrize("p", [3, 5, 7])
def test_flatness_skips_a_divisor_against_itself(monkeypatch, p):
    calls = []
    real = ring_mod._q_derivative
    monkeypatch.setattr(
        ring_mod, "_q_derivative", lambda *args: calls.append(args) or real(*args)
    )
    ring = ring_from_data(_two_divisor_manifold(), p)
    findings = verify_ring(ring)
    assert len(calls) == 2 * 2 * len(ring.basis)  # (a, b) and (b, a), one each side
    assert findings == _verify_ring_all_pairs(ring) == [
        "flatness fails for divisors (%s)" % pair for pair in ("a,b", "a,b", "b,a", "b,a")
    ]
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        ring = builtin_ring(name, p)
        calls.clear()
        assert verify_ring(ring) == _verify_ring_all_pairs(ring) == [] and not calls


RING_FINDINGS = Path(__file__).parent / "golden" / "ring_findings.txt"


def _cubic_with_180_as(coeff):
    """The cubic surface with its (h_2, h_2, q^2) constant 180 replaced."""
    data = builtin_manifold("cubic_surface")
    for product in data["products"]:
        for term in product["terms"]:
            if term["coeff"] == 180:
                term["coeff"] = coeff
    return data


def _with_extra_term(name, left, right, q, basis, coeff=1):
    """The built-in with coeff*basis added to its (left, right) products at q (all if None)."""
    data = builtin_manifold(name)
    for product in data["products"]:
        if (product["left"], product["right"]) == (left, right) and q in (None, product["q"]):
            product["terms"].append({"basis": basis, "coeff": coeff})
    return data


def _two_divisors_paired(p):
    """_two_divisor_manifold() with both pairings p: flat mod p, not over Z."""
    data = _two_divisor_manifold()
    for div in data["divisors"]:
        div["pairing"] = p
    return data


RING_FIXTURES = (
    ("s2", lambda p: builtin_manifold("s2")),
    ("cubic_surface", lambda p: builtin_manifold("cubic_surface")),
    ("quadric_intersection", lambda p: builtin_manifold("quadric_intersection")),
    ("cubic 180->181", lambda p: _cubic_with_180_as(181)),
    ("cubic 180->187", lambda p: _cubic_with_180_as(187)),
    (
        "quadric (h_4,h_4) + h_4",
        lambda p: _with_extra_term("quadric_intersection", "h_4", "h_4", None, "h_4"),
    ),
    (
        "quadric (h_2,h_4,q^0) + h_4",
        lambda p: _with_extra_term("quadric_intersection", "h_2", "h_4", 0, "h_4"),
    ),
    (
        "cubic (h_2,h_2,q^0) + h_2",
        lambda p: _with_extra_term("cubic_surface", "h_2", "h_2", 0, "h_2"),
    ),
    ("two_divisors", lambda p: _two_divisor_manifold()),
    ("two_divisors pairings p", _two_divisors_paired),
)


def ring_findings_lines():
    """One line per (fixture, p) with verify_ring's findings."""
    return [
        "%s p=%d: %s" % (label, p, " | ".join(verify_ring(ring_from_data(make(p), p))) or "none")
        for label, make in RING_FIXTURES
        for p in (2, 3, 5, 7)
    ]


def test_ring_findings_golden():
    assert ring_findings_lines() == RING_FINDINGS.read_text().splitlines()


@pytest.mark.parametrize("p", [3, 5])
def test_flatness_is_checked_over_z(p):
    """Pairings p make the two-divisor connection flat mod p, but not over Z."""
    assert verify_ring(ring_from_data(_two_divisors_paired(p), p)) == [
        "flatness fails for divisors (%s)" % pair for pair in ("a,b", "a,b", "b,a", "b,a")
    ]
