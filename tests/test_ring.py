import random

import pytest

from qsteenrod.errors import ManifoldFormatError, NotDivisor
from qsteenrod.oracles import builtin_manifold, builtin_ring
from qsteenrod.manifold_io import ring_from_data
from qsteenrod.ring import (
    CohomologyElement,
    basis_class,
    classical_product,
    connection_apply,
    element,
    pfold_power,
    quantum_product,
    verify_ring,
    zero_element,
)
from qsteenrod.endo import compose, multiplication_endo, multiplication_matrix
from qsteenrod.series import series


def test_builtin_rings_verify_clean():
    for name in ("s2", "cubic_surface", "quadric_intersection"):
        for p in (2, 3, 5):
            assert verify_ring(builtin_ring(name, p), trunc=4) == []


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
            lhs = connection_apply(div, x.times_series(f), ring)
            from qsteenrod.series import derivation_apply

            rhs = x.times_series(derivation_apply(lam, f).times_monomial(t=1)) + connection_apply(
                div, x, ring
            ).times_series(f)
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
    findings = verify_ring(ring_from_data(data, 5), trunc=3)
    assert any("homogeneity" in f for f in findings)


def test_steenrod_tables():
    # s2: St(h) = -t^(p-1) h for every p
    for p in (2, 3, 5, 7):
        ring = builtin_ring("s2", p)
        st = ring.full_steenrod(1, 0)
        assert st == element(ring, 0, [("h", 0, p - 1, -1)])
    # cubic p=2: St(h_2) = h_4 + t h_2 (explicit table)
    ring = builtin_ring("cubic_surface", 2)
    assert ring.full_steenrod(1, 0) == element(ring, 0, [("h_4", 0, 0, 1), ("h_2", 0, 1, 1)])
    # cubic p=3: St(h_2) = -t^2 h_2
    ring = builtin_ring("cubic_surface", 3)
    assert ring.full_steenrod(1, 0) == element(ring, 0, [("h_2", 0, 2, -1)])
    # quadrics p=2: Sq(h_k) = t^(k/2) h_k
    ring = builtin_ring("quadric_intersection", 2)
    for i, k in ((1, 2), (2, 4), (3, 6)):
        assert ring.full_steenrod(i, 0) == element(
            ring, 0, [(ring.basis[i].name, 0, k // 2, 1)]
        )
    # quadrics p=3: the default rule includes the forced cup-cube h_6
    ring = builtin_ring("quadric_intersection", 3)
    assert ring.full_steenrod(1, 0) == element(
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
            fg = f * g
            for d in range(x.trunc + 1):
                for k, c in ring.sc(i, j, d).items():
                    out = out + CohomologyElement(ring, {k: fg.times_monomial(q=d, coeff=c)})
    return out


def test_quantum_product_matches_dense_reference():
    for name in BUILTINS:
        for p in (2, 3, 5):
            ring = builtin_ring(name, p)
            trunc = ring.max_q_order() + 2
            coeff = series(p, trunc, [(0, 0, 0, 1), (1, 1, 0, 2), (0, -1, 1, 1)])
            for b1 in ring.basis:
                for b2 in ring.basis:
                    x = basis_class(ring, b1.name, trunc).times_series(coeff)
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
