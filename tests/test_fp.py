import itertools
import random
import time
from fractions import Fraction

import pytest

from qsteenrod.errors import NegativeValuation, ZeroInverse
from qsteenrod.fp import (
    balanced,
    factorial_ratio,
    fp_inv,
    is_prime,
    require_prime,
    solve_mod_p,
)


def xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


def test_fp_inv_examples():
    assert fp_inv(1, 7) == 1
    # extended Euclid oracle
    x, _, g = xgcd(2, 5)
    assert g == 1 and x % 5 == 3
    assert fp_inv(2, 5) == 3
    with pytest.raises(ZeroInverse):
        fp_inv(0, 3)


def test_fp_inv_brute_force_all_small_primes():
    for p in [q for q in range(2, 98) if is_prime(q)]:
        for x in range(1, p):
            inv = fp_inv(x, p)
            assert x * inv % p == 1
            assert inv == next(y for y in range(1, p) if x * y % p == 1)


def test_primality():
    assert [q for q in range(2, 20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        require_prime(6)
    with pytest.raises(ValueError):
        require_prime(1)


def _by_trial_division(n):
    if not isinstance(n, int) or n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_primality_agrees_with_trial_division():
    for n in list(range(-5, 10 ** 5)) + [2.0, 7.0, "7", None, True]:
        assert is_prime(n) == _by_trial_division(n), n


def test_primality_of_large_numbers_is_exact_and_fast():
    start = time.perf_counter()
    assert is_prime(10 ** 18 + 3) and is_prime(10 ** 14 + 31) and is_prime(2 ** 61 - 1)
    # strong pseudoprimes to the first 4, 9 and 12 prime bases, and a Carmichael number
    for n in (3215031751, 3825123056546413051, 318665857834031151167461, 561):
        assert not is_prime(n), n
    assert time.perf_counter() - start < 0.1
    assert not is_prime(3 * 10 ** 30)  # a small factor decides it past the bound


def test_primality_past_the_bound_raises_naming_it():
    bound = 3317044064679887385961981  # a strong pseudoprime to every base up to 41
    with pytest.raises(ValueError, match="^primality is decided only below %d, got %d$" % (
            bound, bound)):
        is_prime(bound)
    with pytest.raises(ValueError, match="decided only below"):
        require_prime(2 ** 89 - 1)


def fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_factorial_ratio_examples():
    # (2k)!/(k!)^4 at k=1, p=3
    assert factorial_ratio([2], [1, 1, 1, 1], 3) == 2
    # (2k)!/(k!)^4 at k=2, p=5: 24/16 = 3/2 and 3 * inv(2) = 4
    oracle = Fraction(fact(4), fact(2) ** 4)
    assert oracle == Fraction(3, 2)
    assert factorial_ratio([4], [2, 2, 2, 2], 5) == oracle.numerator * fp_inv(oracle.denominator, 5) % 5
    with pytest.raises(NegativeValuation):
        factorial_ratio([], [3], 3)


def test_factorial_ratio_random_against_rational_oracle():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11])
        numer = [rng.randrange(0, 12) for _ in range(rng.randrange(0, 3))]
        denom = [rng.randrange(0, 12) for _ in range(rng.randrange(0, 3))]
        oracle = Fraction(1)
        for n in numer:
            oracle *= fact(n)
        for n in denom:
            oracle /= fact(n)
        if oracle.denominator % p == 0:
            with pytest.raises(NegativeValuation):
                factorial_ratio(numer, denom, p)
        else:
            want = oracle.numerator * fp_inv(oracle.denominator % p, p) % p if oracle.denominator % p else 0
            assert factorial_ratio(numer, denom, p) == want % p


def test_balanced():
    assert balanced(2, 3) == -1
    assert balanced(1, 3) == 1
    assert balanced(4, 7) == -3
    assert balanced(3, 7) == 3


def _satisfies(rows, rhs, x, p):
    return all(sum(a * v for a, v in zip(row, x)) % p == r % p for row, r in zip(rows, rhs))


def test_solve_mod_p_against_exhaustive_search():
    rng = random.Random(11)
    for p in (2, 3, 5):
        seen = set()
        for _ in range(120):
            nrows = rng.randrange(1, 5)
            ncols = rng.randrange(1, 5)
            rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            rhs = [rng.randrange(p) for _ in range(nrows)]
            solvable = any(
                _satisfies(rows, rhs, x, p)
                for x in itertools.product(range(p), repeat=ncols)
            )
            x = solve_mod_p(rows, rhs, p)
            seen.add(solvable)
            if solvable:
                assert len(x) == ncols and all(0 <= v < p for v in x)
                assert _satisfies(rows, rhs, x, p)
            else:
                assert x is None
        assert seen == {True, False}


def test_solve_mod_p_edge_cases():
    assert solve_mod_p([], [], 3) == []
    assert solve_mod_p([[0, 0]], [0], 5) == [0, 0]
    assert solve_mod_p([[0, 0]], [1], 5) is None
    # inputs outside [0, p) and left untouched
    rows, rhs = [[4, 7], [2, -1]], [5, 4]
    x = solve_mod_p(rows, rhs, 3)
    assert rows == [[4, 7], [2, -1]] and _satisfies(rows, rhs, x, 3)
