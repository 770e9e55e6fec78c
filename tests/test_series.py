"""The series arithmetic of F_p[t, t^-1, theta][[q]] / q^(D+1), and the Kronecker packing.

The package keeps of the series form only SeriesElement, the form of an element's
components view, and series_mul.  The arithmetic below, once SeriesElement's methods
and series.py's functions, is the reference that the piece, product, solver and
renderer tests compare the package's rows with; the tests after it check the
reference and series_mul themselves.
"""

import random

import pytest

from qsteenrod.errors import MixedContext
from qsteenrod.ring import element_from_terms, zero_element
from qsteenrod.series import (
    Monomial,
    SeriesElement,
    _format_terms,
    _label_formats,
    _labels,
    _pack,
    _slot_bytes,
    _unpack,
    series_mul,
)


# -- the reference arithmetic ------------------------------------------------------


def series(p, trunc, items=()):
    """A SeriesElement from (q, t, theta, coeff) tuples; equal monomials add up."""
    terms = {}
    for q, t, theta, c in items:
        m = Monomial(q, t, theta)
        terms[m] = terms.get(m, 0) + c
    return SeriesElement(p, trunc, terms)


def series_one(p, trunc):
    return series(p, trunc, [(0, 0, 0, 1)])


def add(x, y):
    x._check(y)
    terms = dict(x.terms)
    for m, c in y.terms.items():
        terms[m] = terms.get(m, 0) + c
    return SeriesElement(x.prime, x.trunc, terms)


def scale(x, c):
    return SeriesElement(x.prime, x.trunc, {m: c * v for m, v in x.terms.items()})


def sub(x, y):
    return add(x, scale(y, -1))


def times_monomial(x, q=0, t=0, theta=0, coeff=1):
    """x times coeff * q^q t^t theta^theta (series_mul)."""
    return series_mul(x, series(x.prime, x.trunc, [(q, t, theta, coeff)]))


def coefficient(x, q, t, theta=0):
    return x.terms.get(Monomial(q, t, theta), 0)


def retruncate(x, trunc):
    return SeriesElement(x.prime, trunc, x.terms)


def derivation_apply(lam, x):
    """The divisor derivation: q^d t^k theta^e  ->  (lam*d) q^d t^k theta^e."""
    return SeriesElement(x.prime, x.trunc, {m: lam * m.q * c for m, c in x.terms.items()})


def format_series(x, unit=""):
    """x's terms in (q, t, theta) order as the package's term renderer lays them out; with
    unit="h" terms read like "q*t*h - t^2*h", with unit="" like "q - t^2"."""
    formats, monos = [_label_formats(theta, unit) for theta in (0, 1)], sorted(x.terms)
    labels = [label for m in monos for label in _labels(formats[m.theta], [m.q], [m.t], [1])]
    return _format_terms(x.prime, [x.terms[m] for m in monos], labels)


def element_of(ring, comps):
    """sum_k comps[k] e_k for SeriesElements at one truncation (element_from_terms); the zero
    element when every series is zero."""
    comps = {k: f for k, f in comps.items() if not f.is_zero()}
    truncs = {f.trunc for f in comps.values()}
    if len(truncs) > 1:
        raise MixedContext("components at different truncations")
    if not truncs:
        return zero_element(ring, None)
    return element_from_terms(ring, truncs.pop(), {k: f.terms for k, f in comps.items()})


# -- the reference and series_mul ----------------------------------------------------


def mono(p, trunc, q=0, t=0, theta=0, c=1):
    return series(p, trunc, [(q, t, theta, c)])


def test_monomial_product():
    # (q t^-1)^2 = q^2 t^-2
    x = mono(5, 4, q=1, t=-1)
    assert series_mul(x, x) == mono(5, 4, q=2, t=-2)


def test_theta_reduction_by_prime():
    th2 = mono(2, 2, theta=1)
    assert series_mul(th2, th2) == mono(2, 2, t=1)  # theta^2 = t at p = 2
    th5 = mono(5, 2, theta=1)
    assert series_mul(th5, th5).is_zero()  # theta^2 = 0 at odd p


def test_theta_reduction_with_even_factors():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(30):
            a = mono(p, 6, q=rng.randrange(3), t=rng.randrange(-2, 3), c=rng.randrange(1, p))
            b = mono(p, 6, q=rng.randrange(3), t=rng.randrange(-2, 3), c=rng.randrange(1, p))
            lhs = series_mul(times_monomial(a, theta=1), times_monomial(b, theta=1))
            if p == 2:
                assert lhs == times_monomial(series_mul(a, b), t=1)
            else:
                assert lhs.is_zero()


def random_series(rng, p, trunc, nterms=4):
    items = [
        (rng.randrange(trunc + 2), rng.randrange(-3, 4), rng.randrange(2), rng.randrange(p))
        for _ in range(nterms)
    ]
    return series(p, trunc, items)


def test_mul_associative_and_unital():
    rng = random.Random(11)
    for p in (2, 3, 5):
        one = series_one(p, 5)
        for _ in range(40):
            x = random_series(rng, p, 5)
            y = random_series(rng, p, 5)
            z = random_series(rng, p, 5)
            assert series_mul(series_mul(x, y), z) == series_mul(x, series_mul(y, z))
            assert series_mul(x, one) == x and series_mul(one, x) == x
            assert series_mul(x, y) == series_mul(y, x)  # t, q even; the theta^2 rule is symmetric


def test_derivation_examples():
    # lambda=1 on q^2 t: doubles
    x = mono(5, 4, q=2, t=1)
    assert derivation_apply(1, x) == scale(x, 2)
    # constants die
    assert derivation_apply(1, mono(5, 4, t=3)).is_zero()
    # lambda=2 on q^3 at p=5: 6 = 1 mod 5
    x = mono(5, 4, q=3)
    assert derivation_apply(2, x) == scale(x, 2 * 3)
    assert derivation_apply(2, x) == x


def test_derivation_is_a_derivation():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for lam in (1, 2):
            for _ in range(40):
                x = random_series(rng, p, 6)
                y = random_series(rng, p, 6)
                lhs = derivation_apply(lam, series_mul(x, y))
                rhs = add(series_mul(derivation_apply(lam, x), y),
                          series_mul(x, derivation_apply(lam, y)))
                assert lhs == rhs


def test_mixed_context_rejected():
    with pytest.raises(MixedContext):
        series_mul(series_one(3, 4), series_one(3, 5))
    with pytest.raises(MixedContext):
        add(series_one(3, 4), series_one(5, 4))


def test_truncation_and_zero_discipline():
    x = series(3, 2, [(3, 0, 0, 1)])  # beyond truncation: discarded
    assert x.is_zero()
    y = series(3, 2, [(1, 0, 0, 3)])  # zero mod 3: not stored
    assert y.is_zero()
    z = series_mul(mono(3, 2, q=2), mono(3, 2, q=1))  # product overflows q-truncation
    assert z.is_zero()


def test_format_series():
    x = series(3, 3, [(1, 1, 0, 1), (0, 2, 0, 2)])
    assert format_series(x, unit="h") == "-t^2*h + q*t*h"
    assert format_series(series(3, 3, []), unit="h") == "0"


# -- Kronecker packing in k-byte slots -------------------------------------------


def test_slot_bytes_round_up_to_an_array_item_size_then_whole_bytes():
    want = {1: 1, 8: 1, 9: 2, 16: 2, 17: 4, 32: 4, 33: 8, 64: 8, 65: 9, 72: 9, 73: 10}
    assert {bits: _slot_bytes(bits) for bits in want} == want


@pytest.mark.parametrize("k", [1, 2, 4, 8, 9])
def test_pack_unpack_round_trip(k):
    rng = random.Random(k)
    top = 2 ** (8 * k) - 1
    cases = [
        [0],
        [0] * 6,
        [top],
        [0, 0, 3, 0, top, 0],
        [1] + [0] * 30 + [top],
        [top] * 9,
        [rng.randrange(top + 1) for _ in range(40)],
    ]
    for coeffs in cases:
        z = _pack(coeffs, k)
        assert z == sum(c << (8 * k * d) for d, c in enumerate(coeffs))
        assert _unpack(z, k, len(coeffs)) == coeffs
        assert _unpack(z, k, len(coeffs) + 3) == coeffs + [0, 0, 0]
        assert _unpack(z, k, 1) == coeffs[:1]


@pytest.mark.parametrize("k", [1, 2, 4, 8, 9])
def test_unpack_ignores_overflow_above_count(k):
    top = 2 ** (8 * k) - 1
    count = 4
    x = [1, 2, 0, 1, top, top, top]
    y = [3, 1, 0, 0, top, top]
    product = [0] * (len(x) + len(y) - 1)
    for d1, c1 in enumerate(x):
        for d2, c2 in enumerate(y):
            product[d1 + d2] += c1 * c2
    assert max(product) > top  # the slots from count up overflow into each other
    assert _unpack(_pack(x, k) * _pack(y, k), k, count) == product[:count]
