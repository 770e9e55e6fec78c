import random

import pytest

from qsteenrod.errors import MixedContext
from qsteenrod.series import (
    _pack,
    _slot_bytes,
    _unpack,
    derivation_apply,
    format_series,
    series,
    series_one,
)


def mono(p, trunc, q=0, t=0, theta=0, c=1):
    return series(p, trunc, [(q, t, theta, c)])


def test_monomial_product():
    # (q t^-1)^2 = q^2 t^-2
    x = mono(5, 4, q=1, t=-1)
    assert x * x == mono(5, 4, q=2, t=-2)


def test_theta_reduction_by_prime():
    th2 = mono(2, 2, theta=1)
    assert th2 * th2 == mono(2, 2, t=1)  # theta^2 = t at p = 2
    th5 = mono(5, 2, theta=1)
    assert (th5 * th5).is_zero()  # theta^2 = 0 at odd p


def test_theta_reduction_with_even_factors():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(30):
            a = mono(p, 6, q=rng.randrange(3), t=rng.randrange(-2, 3), c=rng.randrange(1, p))
            b = mono(p, 6, q=rng.randrange(3), t=rng.randrange(-2, 3), c=rng.randrange(1, p))
            lhs = (a.times_monomial(theta=1)) * (b.times_monomial(theta=1))
            if p == 2:
                assert lhs == (a * b).times_monomial(t=1)
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
            assert (x * y) * z == x * (y * z)
            assert x * one == x and one * x == x
            assert x * y == y * x or p == 2  # t,q even; theta odd but theta^2 rule is symmetric
            assert x * y == y * x


def test_derivation_examples():
    # lambda=1 on q^2 t: doubles
    x = mono(5, 4, q=2, t=1)
    assert derivation_apply(1, x) == x.scale(2)
    # constants die
    assert derivation_apply(1, mono(5, 4, t=3)).is_zero()
    # lambda=2 on q^3 at p=5: 6 = 1 mod 5
    x = mono(5, 4, q=3)
    assert derivation_apply(2, x) == x.scale(2 * 3)
    assert derivation_apply(2, x) == x


def test_derivation_is_a_derivation():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for lam in (1, 2):
            for _ in range(40):
                x = random_series(rng, p, 6)
                y = random_series(rng, p, 6)
                lhs = derivation_apply(lam, x * y)
                rhs = derivation_apply(lam, x) * y + x * derivation_apply(lam, y)
                assert lhs == rhs


def test_mixed_context_rejected():
    with pytest.raises(MixedContext):
        series_one(3, 4) * series_one(3, 5)
    with pytest.raises(MixedContext):
        series_one(3, 4) + series_one(5, 4)


def test_truncation_and_zero_discipline():
    x = series(3, 2, [(3, 0, 0, 1)])  # beyond truncation: discarded
    assert x.is_zero()
    y = series(3, 2, [(1, 0, 0, 3)])  # zero mod 3: not stored
    assert y.is_zero()
    z = mono(3, 2, q=2) * mono(3, 2, q=1)  # product overflows q-truncation
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
