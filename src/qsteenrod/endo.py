"""Basis-indexed endomorphisms of H*(M; Lambda)[[t]] with homogeneous degree.

An endomorphism of degree g sends e_i to sum over (j, d) of
entry[(i,j,d)] * t^kappa * q^d * e_j, where homogeneity forces the single
t-exponent kappa = (g + deg(e_i) - deg(e_j) - q_degree*d) / 2.  Slots with
kappa negative or non-integral are identically zero, so only the scalar
coefficient is stored.  The taint set lists slots whose value the solver
could not determine; tainted slots carry no stored value.
"""

from dataclasses import dataclass, field

from .errors import MixedContext
from .ring import CohomologyElement, basis_class, element_from_terms, quantum_product
from .series import Monomial, SeriesElement, series_zero


def kappa(ring, g, i, j, d):
    """Forced t-exponent of slot (i -> j, q^d); None when the slot is dead."""
    num = g + ring.degree(i) - ring.degree(j) - ring.q_degree * d
    if num % 2:
        return None
    k = num // 2
    return k if k >= 0 else None


@dataclass(frozen=True)
class GradedEndomorphism:
    ring: object
    degree: int
    trunc: int
    entries: dict = field(default_factory=dict)
    taint: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        clean = {}
        for (i, j, d), c in self.entries.items():
            c %= self.ring.prime
            if not c:
                continue
            if d > self.trunc:
                continue
            if kappa(self.ring, self.degree, i, j, d) is None:
                raise ValueError("entry on a dead slot (%d,%d,%d)" % (i, j, d))
            clean[(i, j, d)] = c
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "taint", frozenset(self.taint))

    def kappa(self, i, j, d):
        return kappa(self.ring, self.degree, i, j, d)

    @property
    def complete_bound(self):
        return (self.degree + self.ring.dimension_top) // self.ring.q_degree

    @property
    def is_complete(self):
        """True when every potentially nonzero q-order is within trunc."""
        return self.trunc >= self.complete_bound

    def __eq__(self, other):
        """Equality of the underlying operators (truncation not compared)."""
        return (
            isinstance(other, GradedEndomorphism)
            and self.ring.prime == other.ring.prime
            and [b.name for b in self.ring.basis] == [b.name for b in other.ring.basis]
            and self.degree == other.degree
            and self.entries == other.entries
            and self.taint == other.taint
        )

    def column(self, name, trunc=None):
        """Image of a basis class, as (element, taint slots (to_index, q))."""
        i = self.ring.index(name)
        trunc = self.trunc if trunc is None else trunc
        terms = {}  # j -> {monomial: c}; each (j, d) slot is one monomial
        for (i2, j, d), c in self.entries.items():
            if i2 == i and d <= trunc:
                terms.setdefault(j, {})[Monomial(d, self.kappa(i, j, d), 0)] = c
        taint = {(j, d) for (i2, j, d) in self.taint if i2 == i and d <= trunc}
        return element_from_terms(self.ring, trunc, terms), taint

    def apply(self, x, trunc=None):
        """Lambda[t]-linear application to an element.

        Returns (element, taint) where taint is a set of (to_index, q_exp)
        pairs marking undetermined output coefficients.
        """
        trunc = x.trunc if trunc is None else trunc
        acc = {}  # j -> {monomial: unreduced coefficient}
        taint = set()
        rows = {}
        for (i, j, d), c in self.entries.items():
            rows.setdefault(i, []).append((j, d, c))
        for i, f in x.components.items():
            for j, d, c in rows.get(i, ()):
                k = self.kappa(i, j, d)
                terms = acc.setdefault(j, {})
                for (mq, mt, mth), v in f.terms.items():
                    if mq + d <= trunc:
                        m = Monomial(mq + d, mt + k, mth)
                        terms[m] = terms.get(m, 0) + c * v
            for (i2, j, d) in self.taint:
                if i2 != i:
                    continue
                for mono in f.terms:
                    if mono.q + d <= trunc:
                        taint.add((j, mono.q + d))
        return element_from_terms(self.ring, trunc, acc), taint

    def slot_text(self, i, j, d):
        k = self.kappa(i, j, d)
        t_part = "" if k == 0 else (" t" if k == 1 else " t^%d" % k)
        q_part = "q" if d == 1 else "q^%d" % d
        if d == 0:
            q_part = "1" if k == 0 else ""
            return "(%s -> %s, %s)" % (
                self.ring.basis[i].name,
                self.ring.basis[j].name,
                (q_part + t_part).strip(),
            )
        return "(%s -> %s, %s%s)" % (
            self.ring.basis[i].name,
            self.ring.basis[j].name,
            q_part,
            t_part,
        )

    def __repr__(self):
        return "<GradedEndomorphism deg=%d trunc=%d entries=%d taint=%d>" % (
            self.degree,
            self.trunc,
            len(self.entries),
            len(self.taint),
        )


def identity_endo(ring, trunc=None):
    if trunc is None:
        trunc = ring.dimension_top // ring.q_degree
    entries = {(i, i, 0): 1 for i in range(len(ring.basis))}
    return GradedEndomorphism(ring, 0, trunc, entries)


def multiplication_endo(x, trunc=None, classical_only=False, degree=None):
    """The endomorphism c -> x * c (cup product only when classical_only).

    The degree argument is only needed when x is zero (degree is undefined
    then but the zero endomorphism still wants a grading).
    """
    ring = x.ring
    g = x.degree if x.degree is not None else degree
    if g is None:
        raise ValueError("multiplication by an inhomogeneous element")
    if trunc is None:
        trunc = (g + ring.dimension_top) // ring.q_degree
    entries = {}
    for i, b in enumerate(ring.basis):
        e_i = basis_class(ring, b.name, trunc)
        if classical_only:
            v = _cup(x, e_i)
        else:
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


def _cup(x, e_i):
    ring = x.ring
    i = next(iter(e_i.components))
    comps = {}
    for m, f in x.components.items():
        for k, c in ring.sc(m, i, 0).items():
            g = comps.get(k, series_zero(ring.prime, f.trunc))
            comps[k] = g + f.scale(c)
    return CohomologyElement(ring, comps)


def multiplication_matrix(divisor_name, ring, trunc=None):
    """Matrix of quantum multiplication by a degree-2 divisor class."""
    div = ring.divisor(divisor_name)  # raises NotDivisor
    if trunc is None:
        trunc = (2 + ring.dimension_top) // ring.q_degree
    return multiplication_endo(
        basis_class(ring, divisor_name, trunc), trunc=trunc
    )


def compose(s1, s2):
    """Operator composition s1 after s2 (matching QSigma_b1 o QSigma_b2).

    When both factors are complete the result is computed exactly out to its
    own pruning bound; otherwise it is truncated at the smaller truncation.
    """
    if s1.ring.prime != s2.ring.prime:
        raise MixedContext("composition across different primes")
    ring = s1.ring
    g = s1.degree + s2.degree
    if s1.is_complete and s2.is_complete:
        trunc = (g + ring.dimension_top) // ring.q_degree
    else:
        trunc = min(s1.trunc, s2.trunc)
    entries = {}
    for (i, j, d2), c2 in s2.entries.items():
        for (j1, k, d1), c1 in s1.entries.items():
            if j1 != j or d1 + d2 > trunc:
                continue
            key = (i, k, d1 + d2)
            entries[key] = (entries.get(key, 0) + c1 * c2) % ring.prime
    taint = set()
    support1 = set(s1.entries) | set(s1.taint)
    support2 = set(s2.entries) | set(s2.taint)
    for (i, j, d2) in s2.taint:
        for (j1, k, d1) in support1:
            if j1 == j and d1 + d2 <= trunc:
                taint.add((i, k, d1 + d2))
    for (i, j, d2) in support2:
        for (j1, k, d1) in s1.taint:
            if j1 == j and d1 + d2 <= trunc:
                taint.add((i, k, d1 + d2))
    entries = {s: c for s, c in entries.items() if s not in taint}
    return GradedEndomorphism(ring, g, trunc, entries, frozenset(taint))


def compose_sign(deg_b1, deg_b2, p):
    """(-1)^(|b1| |b2| p(p-1)/2), the composition sign."""
    return -1 if (deg_b1 * deg_b2 * (p * (p - 1) // 2)) % 2 else 1


def qpi(divisor_name, s):
    """QPi_{a,b} = the divisor derivation applied slot-wise to QSigma_b."""
    div = s.ring.divisor(divisor_name)
    entries = {
        (i, j, d): div.pairing * d * c for (i, j, d), c in s.entries.items()
    }
    return GradedEndomorphism(s.ring, s.degree, s.trunc, entries, s.taint)


def equal_on_untainted(s1, s2):
    """Compare entries on slots untainted in both endomorphisms."""
    if s1.degree != s2.degree:
        return False
    bad = s1.taint | s2.taint
    bound = min(s1.trunc, s2.trunc)
    a = {s: c for s, c in s1.entries.items() if s not in bad and s[2] <= bound}
    b = {s: c for s, c in s2.entries.items() if s not in bad and s[2] <= bound}
    return a == b


def format_endo(s):
    """Grouped (from -> to) listing; deterministic order."""
    from .series import format_series

    ring = s.ring
    pairs = {}  # (i, j) -> {monomial: c}; each slot is one monomial
    for (i, j, d), c in s.entries.items():
        pairs.setdefault((i, j), {})[Monomial(d, s.kappa(i, j, d), 0)] = c
    lines = []
    for (i, j) in sorted(pairs):
        f = SeriesElement(ring.prime, s.trunc, pairs[(i, j)])
        lines.append(
            "  (%s -> %s) = %s"
            % (ring.basis[i].name, ring.basis[j].name, format_series(f))
        )
    if s.taint:
        lines.append("taint:")
        for (i, j, d) in sorted(s.taint):
            lines.append("  " + s.slot_text(i, j, d))
    return "\n".join(lines)
