"""The coefficient ring F_p[t, t^-1, theta] tensor F_p[[q]], truncated in q,
and the packed q-rows and term texts that elements and operators share.

A monomial is (q_exp, t_exp, theta_exp) with q_exp >= 0, t_exp any integer
(negative powers occur inside intermediate endomorphisms), theta_exp in
{0, 1}.  A SeriesElement stores a finite map monomial -> coefficient with no
zero coefficients and all q exponents <= its truncation D; it represents an
element of the ring modulo q^(D+1).  It is only the form of an element's
components view (ring.CohomologyElement.components): the package computes on
q-rows, and series_mul, the product of two such series, is the one operation
on them.

theta is the odd generator of the group-cohomology coefficient ring: on
multiplication theta^2 becomes t when p = 2 and 0 when p > 2.  t and q are
even, so no other signs appear.
"""

import sys
from array import array
from collections import namedtuple

from .errors import MixedContext, Record
from .fp import balanced

Monomial = namedtuple("Monomial", "q t theta")


class SeriesElement(Record):
    _fields = ("prime", "trunc", "terms")

    def __init__(self, prime, trunc, terms={}):  # terms is only read: __post_init__ copies it
        vars(self).update(prime=prime, trunc=trunc, terms=terms)
        self.__post_init__()

    def __post_init__(self):
        _check_truncation(self.trunc)
        clean = {}
        for mono, c in self.terms.items():
            if type(mono) is not Monomial:
                mono = Monomial(*mono)
            if mono.theta not in (0, 1):
                raise ValueError("theta exponent must be 0 or 1")
            if mono.q < 0:
                raise ValueError("negative q exponent")
            c %= self.prime
            if c and mono.q <= self.trunc:
                clean[mono] = c
        vars(self)["terms"] = clean

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.prime != other.prime or self.trunc != other.trunc:
            raise MixedContext(
                "mixed series context: p=%d,D=%d vs p=%d,D=%d"
                % (self.prime, self.trunc, other.prime, other.trunc)
            )


def _check_truncation(trunc, required=False):
    """Reject a negative q-truncation; None (the default) passes unless required."""
    if trunc is None and required or trunc is not None and trunc < 0:
        raise ValueError("the q-truncation must be non-negative, got trunc=%s" % trunc)


def series_mul(x, y):
    """Product in F_p[t, t^-1, theta][[q]] / q^(D+1)."""
    x._check(y)
    p = x.prime
    out = {}
    for (q1, t1, h1), c1 in x.terms.items():
        for (q2, t2, h2), c2 in y.terms.items():
            q = q1 + q2
            if q > x.trunc:
                continue
            t = t1 + t2
            h = h1 + h2
            if h == 2:
                # theta^2 -> t for p = 2, 0 for odd p
                if p == 2:
                    h, t = 0, t + 1
                else:
                    continue
            m = Monomial(q, t, h)
            out[m] = out.get(m, 0) + c1 * c2
    return SeriesElement(p, x.trunc, out)


# Kronecker substitution: sum_d c_d q^d, c_d >= 0, packs into one int with c_d
# in k-byte slot d, so one big-int product multiplies whole series.
_FORMATS = {array(code).itemsize: code for code in "QLIHB"}
_BIG_ENDIAN = sys.byteorder == "big"


def _slot_bytes(bits):
    """Bytes per slot for values below 2**bits: 1, 2, 4 or 8, else whole bytes."""
    k = -(-bits // 8)
    return next((size for size in (1, 2, 4, 8) if size >= k), k)


def _pack(coeffs, k):
    """The int with coeffs[d] in k-byte slot d; each coefficient is in [0, 2**(8k))."""
    if k not in _FORMATS:
        return int.from_bytes(b"".join(c.to_bytes(k, "little") for c in coeffs), "little")
    slots = array(_FORMATS[k], coeffs)
    if _BIG_ENDIAN:
        slots.byteswap()
    return int.from_bytes(slots.tobytes(), "little")


def _unpack(z, k, count):
    """The k-byte slots 0 .. count-1 of z >= 0; slots above may have overflowed into each other."""
    data = (z & ((1 << 8 * k * count) - 1)).to_bytes(k * count, "little")
    if k not in _FORMATS:
        return [int.from_bytes(data[i : i + k], "little") for i in range(0, k * count, k)]
    slots = array(_FORMATS[k], data)
    if _BIG_ENDIAN:
        slots.byteswap()
    return slots.tolist()


def _label_formats(theta, unit):
    """Nine % formats of (q, t) for the labels q^q*t^t*th*unit at theta, by 3 * q's kind + t's,
    an exponent's kind 0, 1 or 2 for 0, 1 or any other; %.0s takes one a label omits."""
    tail = "*".join(filter(None, ("th" if theta else "", unit.replace("%", "%%"))))
    return ["%.0s" * (a < 2) + "*".join(filter(None, (("", "q", "q^%d")[a], ("", "t", "t^%d")[b],
                                                      tail))) + "%.0s" * (b < 2)
            for a in range(3) for b in range(3)]


def _labels(formats, qs, ts, cs):
    """The labels at q-exponents qs and t-exponents ts, one % format each; "" where cs is 0."""
    return [formats[3 * (q > 0) + 3 * (q > 1) + (t != 0) + (t < 0 or t > 1)] % (q, t) if c
            else "" for q, t, c in zip(qs, ts, cs)]


# p -> (scaled, alone): the text of each residue c as a term after the first, before a
# label ("+ 2*", "- " for b = -1) and without one ("+ 2", "- 1"), b = fp.balanced(c, p)
_COEFFICIENT_TEXTS = {}


def _format_terms(p, coeffs, labels):
    """The terms c * labels[n] over the nonzero residues c = coeffs[n], balanced, the
    first without its "+ "; "0" when there are none.  The one term renderer."""
    if p not in _COEFFICIENT_TEXTS:
        signs = [("+ " if b > 0 else "- ", abs(b)) for b in map(balanced, range(p), [p] * p)]
        _COEFFICIENT_TEXTS[p] = ([s + ("%d*" % b if b != 1 else "") for s, b in signs],
                                 [s + str(b) for s, b in signs])
    scaled, alone = _COEFFICIENT_TEXTS[p]
    parts = [scaled[c] + label if label else alone[c] for c, label in zip(coeffs, labels) if c]
    if parts:
        parts[0] = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
    return " ".join(parts) or "0"
