"""Finitely presented small quantum cohomology rings.

A ring is described by an even-degree basis, a single Novikov variable q of
even degree 2*c1(A0), integer structure constants per q-order (reduced mod p
on use, so one table serves every prime), a distinguished degree-2 divisor
driving the connection, and a table of classical Steenrod actions per prime.

Structure constants encode  e_i * e_j = sum_d q^d sum_k c[(i,j,d)][k] e_k.
The quantum connection in the divisor direction a is
nabla_a = t * lambda_a * q d/dq + (a *).
"""

from typing import NamedTuple

from .errors import MissingSteenrodData, MixedContext, NotDivisor
from .fp import require_prime
from .series import (
    Monomial,
    SeriesElement,
    derivation_apply,
    format_series,
    series_one,
    series_zero,
)


class BasisElement(NamedTuple):
    name: str
    degree: int


class Divisor(NamedTuple):
    index: int
    pairing: int
    primary: bool


class QuantumRing:
    def __init__(
        self,
        name,
        prime,
        basis,
        q_degree,
        dimension_top,
        divisors,
        products,
        steenrod=None,
        default_leading_steenrod=True,
    ):
        """products: dict (i, j, d) -> dict {k: integer coefficient}.

        Entries are stored symmetrically; the unit's products are implied by
        the unit law and must not appear.
        """
        self.name = name
        self.prime = require_prime(prime)
        self.basis = tuple(BasisElement(n, d) for n, d in basis)
        self.q_degree = q_degree
        self.dimension_top = dimension_top
        self.default_leading_steenrod = default_leading_steenrod
        self.steenrod = {} if steenrod is None else dict(steenrod)

        names = [b.name for b in self.basis]
        if len(set(names)) != len(names):
            raise ValueError("duplicate basis names")
        if not self.basis or self.basis[0] != BasisElement("1", 0):
            raise ValueError('basis must start with the unit "1" of degree 0')
        if sum(1 for b in self.basis if b.degree == 0) != 1:
            raise ValueError("exactly one degree-0 class allowed")
        for b in self.basis:
            if b.degree % 2 or b.degree < 0:
                raise ValueError("odd or negative degree class %r" % (b.name,))
        if q_degree <= 0 or q_degree % 2:
            raise ValueError("q_degree must be a positive even integer")
        if dimension_top % 2 or dimension_top < max(b.degree for b in self.basis):
            raise ValueError("bad dimension_top")

        self.divisors = tuple(Divisor(i, lam, prim) for i, lam, prim in divisors)
        for div in self.divisors:
            if self.basis[div.index].degree != 2:
                raise NotDivisor("divisor %s has degree != 2" % names[div.index])
        if sum(1 for d in self.divisors if d.primary) != 1:
            raise ValueError("exactly one divisor must be flagged primary")

        self._sc = {}
        for (i, j, d), terms in products.items():
            if i == 0 or j == 0:
                raise ValueError("products of the unit are implied, not stored")
            if d < 0:
                raise ValueError("negative q-order")
            clean = {k: int(c) for k, c in terms.items() if int(c) != 0}
            for key in ((i, j, d), (j, i, d)):
                if key in self._sc and self._sc[key] != clean:
                    raise ValueError("conflicting product entry %r" % (key,))
                self._sc[key] = clean
        self._sc_mod = {}
        # (i, j) -> ascending q-orders with stored constants; products of
        # the unit live at q^0 only.
        orders = {}
        for (i, j, d), terms in self._sc.items():
            if terms:
                orders.setdefault((i, j), []).append(d)
        self._orders = {key: tuple(sorted(ds)) for key, ds in orders.items()}

    # -- basis helpers ----------------------------------------------------

    def index(self, name):
        for i, b in enumerate(self.basis):
            if b.name == name:
                return i
        raise KeyError("no basis element %r" % (name,))

    def degree(self, i):
        return self.basis[i].degree

    @property
    def primary(self):
        return next(d for d in self.divisors if d.primary)

    def divisor(self, name):
        i = self.index(name)
        for d in self.divisors:
            if d.index == i:
                return d
        raise NotDivisor("%s is not a divisor of %s" % (name, self.name))

    def sc(self, i, j, d):
        """Structure constants of e_i * e_j at q-order d, reduced mod p."""
        if i == 0:
            return {j: 1} if d == 0 else {}
        if j == 0:
            return {i: 1} if d == 0 else {}
        key = (i, j, d)
        if key not in self._sc_mod:
            raw = self._sc.get(key, {})
            self._sc_mod[key] = {
                k: c % self.prime for k, c in raw.items() if c % self.prime
            }
        return self._sc_mod[key]

    def q_orders(self, i, j):
        """Ascending q-orders d at which e_i * e_j has stored constants."""
        if i == 0 or j == 0:
            return (0,)
        return self._orders.get((i, j), ())

    def max_q_order(self):
        return max((d for (_, _, d) in self._sc), default=0)

    def default_truncation(self, b_degree):
        """Slot-pruning bound: beyond this every entry is forced to zero."""
        return (self.prime * b_degree + self.dimension_top) // self.q_degree

    # -- classical Steenrod table -----------------------------------------

    def cup_power(self, i, n, trunc=0):
        """n-fold classical cup power of e_i (only d = 0 constants)."""
        out = basis_class(self, self.basis[i].name, trunc)
        for _ in range(n - 1):
            acc = {}
            for j, f in out.components.items():
                for k, c in self.sc(i, j, 0).items():
                    acc[k] = acc.get(k, series_zero(self.prime, trunc)) + f.scale(c)
            out = CohomologyElement(self, acc)
        return out

    def full_steenrod(self, i, trunc):
        """Total classical Steenrod action St(e_i) as a (q-free) element.

        An explicit table entry is used when present; otherwise, with the
        leading-term default enabled, St(b) is taken to be
        (-1)^(|b|/2) t^((p-1)|b|/2) b  plus the forced t^0 part b^(cup p).
        The t^0 part of an explicit entry is checked against the cup power.
        """
        p = self.prime
        deg = self.degree(i)
        table = self.steenrod.get(p, {})
        if i in table:
            comps = {}
            for k, t_exp, th_exp, c in table[i]:
                if th_exp:
                    raise MissingSteenrodData(
                        "theta-sector Steenrod data unsupported for even classes"
                    )
                if self.degree(k) + 2 * t_exp != p * deg:
                    raise MissingSteenrodData(
                        "inhomogeneous Steenrod entry for %s mod %d"
                        % (self.basis[i].name, p)
                    )
                f = comps.get(k, series_zero(p, trunc))
                comps[k] = f + SeriesElement(p, trunc, {Monomial(0, t_exp, 0): c})
            st = CohomologyElement(self, comps)
            if st.t_zero_part() != self.cup_power(i, p, trunc):
                raise MissingSteenrodData(
                    "t^0 part of St(%s) must be the %d-fold cup power"
                    % (self.basis[i].name, p)
                )
            return st
        if not self.default_leading_steenrod:
            raise MissingSteenrodData(
                "no Steenrod entry for %s mod %d" % (self.basis[i].name, p)
            )
        lead_t = (p - 1) * deg // 2
        sign = -1 if (deg // 2) % 2 else 1
        st = self.cup_power(i, p, trunc)
        if lead_t > 0:
            lead = basis_class(self, self.basis[i].name, trunc).times_series(
                SeriesElement(p, trunc, {Monomial(0, lead_t, 0): sign})
            )
            st = st + lead
        return st

    def steenrod_of(self, b):
        """St of a homogeneous combination, extended additively."""
        trunc = b.trunc
        out = zero_element(self, trunc)
        for i, f in b.components.items():
            for mono, c in f.terms.items():
                if mono.q or mono.t or mono.theta:
                    raise ValueError("St is defined for q,t-free classes")
                out = out + self.full_steenrod(i, trunc).scale(c)
        return out


# -- cohomology elements ---------------------------------------------------


class CohomologyElement:
    """Finite combination sum_k f_k(q, t, theta) e_k with f_k series."""

    def __init__(self, ring, components):
        self.ring = ring
        self.components = {
            k: f for k, f in components.items() if not f.is_zero()
        }
        truncs = {f.trunc for f in self.components.values()}
        if len(truncs) > 1:
            raise MixedContext("components at different truncations")
        self.trunc = truncs.pop() if truncs else None

    @property
    def degree(self):
        """Total degree, or None if inhomogeneous or zero."""
        degs = set()
        for k, f in self.components.items():
            for mono in f.terms:
                degs.add(
                    self.ring.degree(k)
                    + 2 * mono.t
                    + mono.theta
                    + self.ring.q_degree * mono.q
                )
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_zero(self):
        return not self.components

    def _series(self, k, trunc):
        return self.components.get(k, series_zero(self.ring.prime, trunc))

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        comps = dict(self.components)
        for k, f in other.components.items():
            comps[k] = comps[k] + f if k in comps else f
        return CohomologyElement(self.ring, comps)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return CohomologyElement(
            self.ring, {k: f.scale(c) for k, f in self.components.items()}
        )

    def times_series(self, s):
        return CohomologyElement(
            self.ring, {k: f * s for k, f in self.components.items()}
        )

    def times_monomial(self, q=0, t=0, coeff=1):
        return CohomologyElement(
            self.ring,
            {
                k: f.times_monomial(q=q, t=t, coeff=coeff)
                for k, f in self.components.items()
            },
        )

    def retruncate(self, trunc):
        return CohomologyElement(
            self.ring, {k: f.retruncate(trunc) for k, f in self.components.items()}
        )

    def t_zero_part(self):
        return CohomologyElement(
            self.ring,
            {
                k: SeriesElement(
                    f.prime, f.trunc, {m: c for m, c in f.terms.items() if m.t == 0 and m.theta == 0}
                )
                for k, f in self.components.items()
            },
        )

    def coefficient(self, k, q, t, theta=0):
        f = self.components.get(k)
        return f.coefficient(q, t, theta) if f is not None else 0

    def __eq__(self, other):
        return (
            isinstance(other, CohomologyElement)
            and self.ring.prime == other.ring.prime
            and self.components == other.components
        )

    def __repr__(self):
        return "<%s>" % format_element(self)


def zero_element(ring, trunc):
    return CohomologyElement(ring, {})


def basis_class(ring, name, trunc):
    return CohomologyElement(ring, {ring.index(name): series_one(ring.prime, trunc)})


def element(ring, trunc, items):
    """Build from (basis name, q, t, coeff) tuples (theta-free)."""
    comps = {}
    for name, q, t, c in items:
        k = ring.index(name)
        f = comps.get(k, series_zero(ring.prime, trunc))
        comps[k] = f + SeriesElement(ring.prime, trunc, {Monomial(q, t, 0): c})
    return CohomologyElement(ring, comps)


def element_from_terms(ring, trunc, terms):
    """Build from {k: {monomial: coefficient}}, one series per basis index."""
    return CohomologyElement(
        ring, {k: SeriesElement(ring.prime, trunc, t) for k, t in terms.items()}
    )


def quantum_product(x, y):
    """Small quantum product, bilinear over the coefficient series."""
    if x.ring is not y.ring and x.ring.prime != y.ring.prime:
        raise MixedContext("quantum product across different rings")
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
            fg = (f * g).terms
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


def classical_product(x, y):
    """Cup product: the q-order-0 structure constants only."""
    ring = x.ring
    if x.is_zero() or y.is_zero():
        return zero_element(ring, x.trunc if x.trunc is not None else y.trunc)
    comps = {}
    for i, f in x.components.items():
        for j, g in y.components.items():
            fg = f * g
            for k, c in ring.sc(i, j, 0).items():
                term = fg.scale(c)
                if term.is_zero():
                    continue
                comps[k] = comps[k] + term if k in comps else term
    return CohomologyElement(ring, comps)


def pfold_power(b, ring=None):
    """p-fold quantum power b * b * ... * b, by square-and-multiply.

    This takes floor(log2 p) squarings and popcount(p) - 1 further products
    instead of p - 1 sequential ones.  The regrouping equals the left-to-right
    product only when the quantum product is associative; `verify --suite
    ring` (`verify_ring`) reports any presentation where it is not.
    """
    ring = ring or b.ring
    n = ring.prime
    out = None
    square = b
    while True:
        if n & 1:
            out = square if out is None else quantum_product(out, square)
        n >>= 1
        if not n:
            return out
        square = quantum_product(square, square)


def connection_apply(divisor_name, x, ring=None):
    """nabla_a x = t * lambda_a * (q d/dq) x + a * x."""
    ring = ring or x.ring
    div = ring.divisor(divisor_name)
    trunc = x.trunc if x.trunc is not None else 0
    deriv = CohomologyElement(
        ring,
        {
            k: derivation_apply(div.pairing, f).times_monomial(t=1)
            for k, f in x.components.items()
        },
    )
    return deriv + quantum_product(basis_class(ring, divisor_name, trunc), x)


def verify_ring(ring, trunc=None):
    """Check homogeneity, unit, commutativity, associativity and flatness.

    Returns a list of human-readable findings; empty means the presentation
    is consistent up to q^trunc.
    """
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
            ring.full_steenrod(i, trunc)
        except MissingSteenrodData as exc:
            findings.append("steenrod table: %s" % exc)
    return findings


def format_element(v, star="*"):
    """Deterministic text form: basis order, then q, then t."""
    if v.is_zero():
        return "0"
    parts = []
    for k in sorted(v.components):
        text = format_series(v.components[k], unit=v.ring.basis[k].name, star=star)
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append("- " + text[1:])
        else:
            parts.append("+ " + text)
    return " ".join(parts)
