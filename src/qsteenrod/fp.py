"""Arithmetic mod a prime p.

Scalars in F_p are plain Python ints kept in the range [0, p).  Everything
here is exact; a factorial ratio is reduced with explicit bookkeeping of
p-adic valuations so that no intermediate division by a multiple of p ever
happens.
"""

from .errors import NegativeValuation, ZeroInverse


# Miller-Rabin to the first 13 primes decides primality exactly below _PRIME_BOUND, the
# least strong pseudoprime to all of them (Sorenson and Webster, 2015)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def is_prime(p):
    """Whether p is a prime int, by deterministic Miller-Rabin; ValueError from _PRIME_BOUND
    on, unless a witness divides p."""
    if not isinstance(p, int) or p < 2:
        return False
    if any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    if p >= _PRIME_BOUND:
        raise ValueError("primality is decided only below %d, got %d" % (_PRIME_BOUND, p))
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s with d odd
    for a in _WITNESSES:
        x = pow(a, (p - 1) >> s, p)
        if x != 1 and all(pow(x, 1 << r, p) != p - 1 for r in range(s)):
            return False
    return True


def require_prime(p):
    if not is_prime(p):
        raise ValueError("not a prime: %r" % (p,))
    return p


def fp_inv(x, p):
    """Inverse of x mod p.  Raises ZeroInverse on x == 0 (mod p)."""
    x %= p
    if x == 0:
        raise ZeroInverse("0 has no inverse mod %d" % p)
    # Fermat; p is small enough that pow() is fine.
    return pow(x, p - 2, p)


def _strip_p(n, p):
    """Return (valuation, unit) with n = p^valuation * unit."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def factorial_ratio(numer, denom, p):
    """(prod of n! for n in numer) / (prod of n! for n in denom) mod p.

    The ratio need not be an integer, but its p-adic valuation must be >= 0;
    otherwise NegativeValuation is raised.  If the valuation is positive the
    result is 0.
    """
    require_prime(p)
    val = 0
    unit_num = 1
    unit_den = 1
    for n in numer:
        for k in range(2, n + 1):
            v, u = _strip_p(k, p)
            val += v
            unit_num = unit_num * u % p
    for n in denom:
        for k in range(2, n + 1):
            v, u = _strip_p(k, p)
            val -= v
            unit_den = unit_den * u % p
    if val < 0:
        raise NegativeValuation(
            "p=%d divides the denominator %d more times than the numerator" % (p, -val)
        )
    if val > 0:
        return 0
    return unit_num * fp_inv(unit_den, p) % p


def solve_mod_p(rows, rhs, p):
    """One solution x of rows . x = rhs over F_p, or None when there is none.

    Gauss-Jordan elimination; free variables are set to 0.
    """
    m = [row[:] + [r] for row, r in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((rr for rr in range(r, len(m)) if m[rr][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = fp_inv(m[r][c], p)
        m[r] = [x * inv % p for x in m[r]]
        for rr in range(len(m)):
            if rr != r and m[rr][c] % p:
                f = m[rr][c]
                m[rr] = [(x - f * y) % p for x, y in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
    if any(m[rr][ncols] % p for rr in range(r, len(m))):
        return None
    sol = [0] * ncols
    for idx, c in enumerate(pivots):
        sol[c] = m[idx][ncols]
    return sol


def balanced(c, p):
    """Representative of c in (-p/2, p/2]; used only for printing."""
    c %= p
    return c if c <= p // 2 else c - p
