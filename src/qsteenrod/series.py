"""The coefficient ring F_p[t, t^-1, theta] tensor F_p[[q]], truncated in q.

A monomial is (q_exp, t_exp, theta_exp) with q_exp >= 0, t_exp any integer
(negative powers occur inside intermediate endomorphisms), theta_exp in
{0, 1}.  A SeriesElement stores a finite map monomial -> coefficient with no
zero coefficients and all q exponents <= its truncation D; it represents an
element of the ring modulo q^(D+1).

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

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return SeriesElement(self.prime, self.trunc, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c %= self.prime
        return SeriesElement(
            self.prime, self.trunc, {m: c * v for m, v in self.terms.items()}
        )

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        return series_mul(self, other)

    def times_monomial(self, q=0, t=0, theta=0, coeff=1):
        """Multiply by coeff * q^q t^t theta^theta."""
        out = {}
        p = self.prime
        for (mq, mt, mth), c in self.terms.items():
            nth = mth + theta
            ntq, nt = mq + q, mt + t
            if nth == 2:
                if p == 2:
                    nth, nt = 0, nt + 1
                else:
                    continue
            out[Monomial(ntq, nt, nth)] = out.get(Monomial(ntq, nt, nth), 0) + c * coeff
        return SeriesElement(p, self.trunc, out)

    def coefficient(self, q, t, theta=0):
        return self.terms.get(Monomial(q, t, theta), 0)

    def retruncate(self, trunc):
        return SeriesElement(self.prime, trunc, dict(self.terms))


def _check_truncation(trunc):
    """Reject a negative q-truncation; None (the default) passes."""
    if trunc is not None and trunc < 0:
        raise ValueError("the q-truncation must be non-negative, got trunc=%d" % trunc)


def series(p, trunc, items=()):
    """Build a SeriesElement from (q, t, theta, coeff) tuples."""
    terms = {}
    for q, t, theta, c in items:
        m = Monomial(q, t, theta)
        terms[m] = terms.get(m, 0) + c
    return SeriesElement(p, trunc, terms)


def series_zero(p, trunc):
    return SeriesElement(p, trunc, {})


def series_one(p, trunc):
    return SeriesElement(p, trunc, {Monomial(0, 0, 0): 1})


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


def derivation_apply(lam, x):
    """The divisor derivation: q^d t^k theta^e  ->  (lam*d) q^d t^k theta^e."""
    return SeriesElement(
        x.prime, x.trunc, {m: lam * m.q * c for m, c in x.terms.items()}
    )


def format_series(x, unit=""):
    """Render deterministically, balanced coefficients, q before t.

    With unit="h" renders terms like "q*t*h - t^2*h"; with unit="" renders
    scalar series like "q - t^2".
    """
    formats, monos = [_label_formats(theta, unit) for theta in (0, 1)], sorted(x.terms)
    labels = [label for m in monos for label in _labels(formats[m.theta], [m.q], [m.t], [1])]
    return _format_terms(x.prime, [x.terms[m] for m in monos], labels)


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
    """The terms c * labels[n] over the nonzero residues c = coeffs[n], as format_series
    lays them out; "0" when there are none.  The one term renderer."""
    if p not in _COEFFICIENT_TEXTS:
        signs = [("+ " if b > 0 else "- ", abs(b)) for b in map(balanced, range(p), [p] * p)]
        _COEFFICIENT_TEXTS[p] = ([s + ("%d*" % b if b != 1 else "") for s, b in signs],
                                 [s + str(b) for s, b in signs])
    scaled, alone = _COEFFICIENT_TEXTS[p]
    parts = [scaled[c] + label if label else alone[c] for c, label in zip(coeffs, labels) if c]
    if parts:
        parts[0] = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
    return " ".join(parts) or "0"
