
import itertools
import random
import re

import pytest

from qsteenrod import cells
from qsteenrod.errors import CapExceeded
from qsteenrod.cells import (
    EquivariantComplex,
    d_eq,
    diagonal_coefficients,
    free_module_complex,
    group_algebra_identities,
    homotopy_check,
    is_boundary,
    product_boundary,
    relation_primitive,
    sinf_boundary,
    sphere_cochain_complex,
    trivial_complex,
    verify_cells,
)

PRIMES = (2, 3, 5)
WIDE_PRIMES = (2, 3, 5, 7, 11, 13)


def test_sinf_boundary_formulas():
    p = 3
    # boundary of D_2 is the full rotation orbit of D_1
    assert sinf_boundary({("D", 2, 0): 1}, p) == {("D", 1, s): 1 for s in range(p)}
    # boundary of D_3 is (tau - 1) D_2
    assert sinf_boundary({("D", 3, 0): 1}, p) == {("D", 2, 1): 1, ("D", 2, 0): -1}
    assert sinf_boundary({("D", 0, 0): 1}, p) == {}


def test_sinf_boundary_squares_to_zero_over_Z():
    for p in PRIMES:
        for i in range(10):
            for r in range(p):
                assert sinf_boundary(sinf_boundary({("D", i, r): 1}, p), p) == {}


def test_product_boundary_examples():
    p = 3
    # d(D_1 x L_1) = -D_1 x (Q_0 - P_0) + D_0 x (sigma L_1 - L_1)
    out = product_boundary({(1, "L", 0): 1}, p)
    assert out == {(1, "Q", 0): p - 1, (1, "P", 0): 1, (0, "L", 1): 1, (0, "L", 0): p - 1}


def test_product_boundary_squares_to_zero():
    for p in PRIMES:
        for i in range(10):
            for x in ("P", "Q", "L", "B"):
                rots = (0,) if x in ("P", "Q") else range(p)
                for j in rots:
                    assert product_boundary(product_boundary({(i, x, j): 1}, p), p) == {}


def test_d_eq_examples():
    p = 3
    # d(L_1 t^0) = (Q_0 - P_0) - (sigma L_1 - L_1) theta
    out = d_eq({("L", 0, 0, 0): 1}, p)
    assert out == {
        ("Q", 0, 0, 0): 1,
        ("P", 0, 0, 0): p - 1,
        ("L", 1, 0, 1): p - 1,
        ("L", 0, 0, 1): 1,
    }
    # d(P_0 t^k theta) = 0
    assert d_eq({("P", 0, 2, 1): 1}, p) == {}
    # d(B_2 t^0 theta) = -(sigma L_1 - L_1) theta + (B_2 + ... + sigma^(p-1) B_2) t
    out = d_eq({("B", 0, 0, 1): 1}, p)
    expected = {("L", 1, 0, 1): p - 1, ("L", 0, 0, 1): 1}
    for s in range(p):
        expected[("B", s, 1, 0)] = 1
    assert out == expected


def test_d_eq_squares_to_zero():
    for p in PRIMES:
        for x in ("P", "Q", "L", "B"):
            rots = (0,) if x in ("P", "Q") else range(p)
            for j in rots:
                for k in range(6):
                    for eps in (0, 1):
                        assert d_eq(d_eq({(x, j, k, eps): 1}, p), p) == {}


def test_relation_primitives_verify():
    for p in PRIMES:
        for which in ("even", "odd", "coh1", "coh2"):
            for k in range(4):
                rel = relation_primitive(which, k, p)
                assert rel.boundary  # verified internally against the target


def test_even_relation_shape():
    p = 3
    rel = relation_primitive("even", 1, p)
    assert rel.boundary == {
        (2, "Q", 0): 1,
        (2, "P", 0): p - 1,
        (0, "B", 0): p - 1,
        (0, "B", 1): p - 1,
        (0, "B", 2): p - 1,
    }


def test_odd_relation_shape():
    for p in PRIMES:
        rel = relation_primitive("odd", 1, p)
        expected = {(3, "Q", 0): 1, (3, "P", 0): p - 1}
        for s in range(p):
            expected[(1, "B", s)] = p - 1
        assert rel.boundary == expected


def test_coh1_p2_matches_the_stated_example():
    # boundary equals (P_0 - Q_0) - (B_2 + sigma B_2) t at p = 2, k = 0
    rel = relation_primitive("coh1", 0, 2)
    assert rel.boundary == {
        ("P", 0, 0, 0): 1,
        ("Q", 0, 0, 0): 1,
        ("B", 0, 1, 0): 1,
        ("B", 1, 1, 0): 1,
    }


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        relation_primitive("even", 3, 3, cap=4)


def test_theta_tilde_formulas():
    p = 3
    eq = EquivariantComplex(trivial_complex(), p)
    # invariant x: theta_tilde(x theta) = (1 + 2) x t = 0 mod 3
    assert eq.theta_tilde({("x", 0, 0, 1): 1}) == {}
    # theta_tilde(x t^k) = (-1)^{|x|} x t^k theta
    assert eq.theta_tilde({("x", 0, 2, 0): 1}) == {("x", 0, 2, 1): 1}
    # on the sphere complex, an odd-degree generator picks up the sign
    eqs = EquivariantComplex(sphere_cochain_complex(), p)
    assert eqs.theta_tilde({("L", 0, 1, 0): 1}) == {("L", 0, 1, 1): p - 1}


def test_group_algebra_identities():
    for p in (2, 3, 5, 7, 11, 13):
        assert group_algebra_identities(p)


def test_homotopy_check():
    for p in WIDE_PRIMES:
        report = homotopy_check(p)
        assert report["ok"], report


def test_diagonal_coefficients():
    assert diagonal_coefficients(2, 3) == [(0, 2), (2, 0)]
    assert diagonal_coefficients(3, 3) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert diagonal_coefficients(2, 2) == [(0, 2), (1, 1), (2, 0)]
    for i in range(9):
        for p in PRIMES:
            pairs = diagonal_coefficients(i, p)
            assert all(a + b == i for a, b in pairs)
            if i % 2 == 0 and p > 2:
                assert all(a % 2 == 0 for a, _ in pairs)
            else:
                assert len(pairs) == i + 1


def test_fixed_point_comparison_kernel():
    # D_0 x (Q-P) and D_1 x (Q-P) die in homology; D_i x (Q-P) survives for
    # i >= 2 (the comparison map fails to inject only in degrees 0 and 1)
    for p in PRIMES:
        for i in (0, 1):
            target = {(i, "Q", 0): 1, (i, "P", 0): p - 1}
            assert is_boundary(target, i, p)
        for i in (2, 3, 4):
            target = {(i, "Q", 0): 1, (i, "P", 0): p - 1}
            assert not is_boundary(target, i, p)


def test_cochain_localization_classes():
    for p in PRIMES:
        # (P - Q) t^k alone never bounds; adding the orbit sum of B-cells at
        # t^(k+1) makes it bound at every k (the coh1 primitive)
        for k in (0, 1, 2):
            lone = {("P", 0, k, 0): 1, ("Q", 0, k, 0): p - 1}
            assert not is_boundary(lone, 2 * k, p, chain_complex="eq")
            rel = dict(lone)
            for s in range(p):
                rel[("B", s, k + 1, 0)] = 1
            assert is_boundary(rel, 2 * k, p, chain_complex="eq")


def test_is_boundary_rejects_an_unknown_chain_complex():
    # a misspelt complex once decided the eq complex's question without comment
    with pytest.raises(ValueError, match="^chain_complex must be 'product' or 'eq', got 'prodcut'$"):
        is_boundary({(0, "Q", 0): 1}, 0, 3, chain_complex="prodcut")


def test_verify_cells_battery():
    for p in WIDE_PRIMES:
        assert verify_cells(p, cap=9) == []


def test_verify_cells_applies_product_boundary_only_to_the_relations(monkeypatch):
    # d^2 on the product complex is read off one composed table, not cell by cell
    calls = []

    def counting(chain, p):
        calls.append(chain)
        return product_boundary(chain, p)

    monkeypatch.setattr(cells, "product_boundary", counting)
    assert verify_cells(5, 9) == []
    assert len(calls) <= 8


def test_verify_cells_composes_a_bounded_number_of_tables(monkeypatch):
    # every operator identity is checked on orbit tables, a bounded number of compositions
    # whatever p; _apply reads only the relations' primitives, at most p cells each
    p, calls, cells_read = 101, {"_compose": 0, "_apply": 0}, []
    for name in calls:
        def counting(self, table, chain, _name=name, _real=getattr(EquivariantComplex, name)):
            calls[_name] += 1
            if _name == "_apply":
                cells_read.append(len(chain))
            return _real(self, table, chain)

        monkeypatch.setattr(EquivariantComplex, name, counting)
    assert verify_cells(p, 3) == []
    assert calls["_compose"] <= 26
    assert sum(cells_read) <= 5 * p  # 4.1 p here, 2607 p with one column per cell


def test_verify_cells_rejects_a_cap_below_two():
    # below 2 the battery reaches no t-degree-2 identity at t^0, and below 0 nothing at all
    for cap in (1, 0, -5):
        with pytest.raises(ValueError, match="the cells cap must be at least 2, got cap=%d" % cap):
            verify_cells(3, cap=cap)


def test_table_compose_is_a_after_b():
    p = 5
    eq = EquivariantComplex(sphere_cochain_complex(), p)
    # d and theta_tilde do not commute, so the order shows
    d_theta, theta_d = eq._compose(eq._d, eq._theta), eq._compose(eq._theta, eq._d)
    assert d_theta != theta_d
    sums = eq._table_sum((d_theta, 1), (theta_d, 2))
    for name, _, free in eq.cpx.orbits:
        for j, eps in itertools.product(range(p if free else 1), (0, 1)):
            x = {(name, j, 0, eps): 1}
            assert eq._apply(d_theta, x) == eq.d_eq(eq.theta_tilde(x))
            assert eq._apply(theta_d, x) == eq.theta_tilde(eq.d_eq(x))
            expected = eq._apply(d_theta, x)
            for cell, c in eq._apply(theta_d, x).items():
                expected[cell] = (expected.get(cell, 0) + 2 * c) % p
            assert eq._apply(sums, x) == {cell: c for cell, c in expected.items() if c}


def test_free_module_fixture():
    p = 5
    eq = EquivariantComplex(free_module_complex(), p)
    x = {("g", 0, 0, 0): 1}
    # d_eq(x) = (sigma x - x) theta on a complex with zero differential
    assert eq.d_eq(x) == {("g", 1, 0, 1): 1, ("g", 0, 0, 1): p - 1}


@pytest.mark.parametrize("function, cell, message", [
    (product_boundary, (0, "Z", 0), "unknown sphere cell 'Z'"),
    (d_eq, ("Z", 0, 0, 0), "unknown sphere cell 'Z'"),
    (product_boundary, (0, "L", 7), "rotation 7 outside 0..2 in the cell (0, 'L', 7)"),
    (product_boundary, (2, "B", -1), "rotation -1 outside 0..2 in the cell (2, 'B', -1)"),
    (d_eq, ("L", 3, 0, 0), "rotation 3 outside 0..2 in the cell ('L', 3, 0, 0)"),
    (product_boundary, (-1, "L", 0), "negative D-index in the cell (-1, 'L', 0)"),
    (d_eq, ("B", 0, -1, 1), "negative t-power in the cell ('B', 0, -1, 1)"),
    (d_eq, ("L", 0, 0, 2), "theta-exponent 2 other than 0 and 1 in the cell ('L', 0, 0, 2)"),
    (d_eq, ("P", 0, 0, -1), "theta-exponent -1 other than 0 and 1 in the cell ('P', 0, 0, -1)"),
])
def test_a_cell_outside_the_complex_is_named(function, cell, message):
    # a rotation outside 0..p-1 once raised KeyError on an internal cell name
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        function({cell: 1}, 3)


@pytest.mark.parametrize("cell, message", [
    (("D", 3, 7), "rotation 7 outside 0..2 in the cell ('D', 3, 7)"),
    (("D", 2, -1), "rotation -1 outside 0..2 in the cell ('D', 2, -1)"),
    (("D", -1, 0), "negative D-index in the cell ('D', -1, 0)"),
    (("L", 0, 0), "not an infinite-sphere cell: 'L'"),
])
def test_an_infinite_sphere_cell_outside_the_complex_is_named(cell, message):
    # a rotation past p - 1 once passed through, and D_-1 had a boundary on D_-2
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        sinf_boundary({("D", 1, 0): 1, cell: 1}, 3)


def test_a_fixed_cell_ignores_its_rotation():
    p = 3
    assert product_boundary({(1, "P", 5): 1, (2, "Q", 0): 2}, p) == {}
    assert d_eq({("Q", 4, 1, 1): 1}, p) == d_eq({("Q", 0, 1, 1): 1}, p) == {}


@pytest.mark.parametrize("which", ["even", "odd", "coh1", "coh2"])
def test_relation_primitive_rejects_a_negative_k(which):
    # even and odd once blamed their primitive; coh1 and coh2 returned chains at t^-1
    with pytest.raises(ValueError, match="^the '%s' relation needs k >= 0, got k=-1$" % which):
        relation_primitive(which, -1, 3)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_composed_dense_random_tables_act_as_the_composite_cell_by_cell(p):
    # entries at every (orbit, t-shift, theta), coefficients up to p - 1: the most pairs a
    # packed slot of _compose sums, so a slot width that ignores their number overflows;
    # the image of a fixed cell is sigma-invariant, as it is for every operator here
    eq = EquivariantComplex(sphere_cochain_complex(), p)
    rng = random.Random(p)
    cells_at = [(name, dk, eps) for name in eq._size for dk in range(3) for eps in (0, 1)]

    def entry(source, target):
        if eq._size[source] == 1:
            return (rng.choice((1, p - 1)),) * eq._size[target]
        return tuple(rng.choice((1, p - 1)) for _ in range(eq._size[target]))

    def dense():
        return {(name, eps): {cell: entry(name, cell[0]) for cell in cells_at}
                for name in eq._size for eps in (0, 1)}

    a, b = dense(), dense()
    ab = eq._compose(a, b)
    for name, _, free in eq.cpx.orbits:
        for j, eps in itertools.product(range(p if free else 1), (0, 1)):
            x = {(name, j, 0, eps): 1}
            assert eq._apply(ab, x) == eq._apply(a, eq._apply(b, x)), (name, j, eps)
