"""Basis-indexed endomorphisms of H*(M; Lambda)[[t]] with homogeneous degree.

An endomorphism of degree g sends e_i to sum over (j, d) of
entry[(i,j,d)] * t^kappa * q^d * e_j, where homogeneity forces the single
t-exponent kappa = (g + deg(e_i) - deg(e_j) - q_degree*d) / 2.  Slots with
kappa negative or non-integral are identically zero, so only the scalar
coefficient is stored.  The taint set lists slots whose value the solver
could not determine; tainted slots carry no stored value.

Every graded F_p matrix in the package is such a slot map {(i, j, d): c};
the solver keeps one q-order as n^2 ints, slot (i, j) at i*n + j.  Every
matrix of multiplication by a class, A = a * and both seeds of the solver,
comes from _multiplication_entries.  A product (i, j, d1) then (j, k, d2)
lands on (i, k, d1 + d2), and a tainted slot taints its product with every
stored or tainted slot of the other factor.  compose and the solver's
residual re-check multiply whole graded maps by Kronecker substitution in
k-byte slots (_packed_matmul); a map applied to an element goes through
the same product (_apply_rows, used by apply and column, qsigma_apply and
the generator route's nabla); the sweep multiplies by a divisor block
through its commutator lists (solver._ad_map), and a masked slot taints
every slot its list names.
On a single class the rule is _reach: a coefficient slot (k, q) of e_k q^q
reaches (j, q + d) for every slot (j, d) of the operator's column k.
"""

from dataclasses import dataclass, field

from .ring import _check_compatible, _class_product, basis_class, element_from_terms, zero_element
from .series import Monomial, _format_terms, _pack_series, _slot_bytes, _unpack_series


def kappa(ring, g, i, j, d):
    """Forced t-exponent of slot (i -> j, q^d); None when the slot is dead."""
    degrees = ring._degrees
    num = g + degrees[i] - degrees[j] - ring.q_degree * d
    if num % 2:
        return None
    k = num // 2
    return k if k >= 0 else None


# -- sparse graded F_p matrices: slot maps {(i, j, d): c} ----------------------


def _packed_matmul(pairs):
    """Sum of the products x y over (x, y) in pairs, by Kronecker substitution.

    Each factor is a packed map {(i, j): int} (_pack_series), so one big-int
    product multiplies whole series.  Coefficients are non-negative; the
    caller picks k so that the sums at the orders it reads fit in k bytes
    (higher orders may overflow, since carries only move up).  Returns the
    packed sum {(i, h): int}.
    """
    acc = {}
    for x, y in pairs:
        rows = {}
        for (j, h), v in y.items():
            rows.setdefault(j, []).append((h, v))
        for (i, j), u in x.items():
            for h, v in rows.get(j, ()):
                acc[(i, h)] = acc.get((i, h), 0) + u * v
    return acc


def _apply_rows(ring, g, rows, x, trunc):
    """The image of x, truncated at q^trunc, under the degree-g map with rows {k: {(k, j, d): c}}.

    x's terms are grouped by grading key (|e_k| + 2t + |q| q, theta), within
    which q fixes t, so each (key, k) packs into one int (_pack_series); one
    _packed_matmul multiplies them by the packed rows of the classes x
    touches, and each output term's t-exponent follows from the grading.
    Row values lie in [0, p), as x's coefficients do.
    """
    if x.is_zero():
        return zero_element(ring, trunc)
    degrees, qd = ring._degrees, ring.q_degree
    # A slot of the product sums at most n (trunc + 1) products below p^2.
    w = _slot_bytes((len(degrees) * (trunc + 1) * (ring.prime - 1) ** 2).bit_length())
    terms = {
        ((degrees[k] + 2 * t + qd * q, h), k, q): c
        for k, f in x.components.items()
        for (q, t, h), c in f.terms.items()
    }
    right = {}
    for k in x.components:
        right.update(_pack_series(rows.get(k, {}), w, trunc))
    products = _packed_matmul([(_pack_series(terms, w, trunc), right)])
    acc = {}  # j -> {monomial: unreduced coefficient}
    for ((key, h), j, d), c in _unpack_series(products, w, trunc).items():
        acc.setdefault(j, {})[Monomial(d, (key + g - degrees[j] - qd * d) // 2, h)] = c
    return element_from_terms(ring, trunc, acc)


def _reach(slots, column, trunc):
    """The slots (j, q + d), q + d <= trunc, that slots (k, q) reach via column[k] = [(j, d)]."""
    return {(j, q + d) for k, q in slots for j, d in column.get(k, ()) if q + d <= trunc}


def _slots(x):
    """The (basis index, q-exponent) slots an element's terms occupy."""
    return {(k, m.q) for k, f in x.components.items() for m in f.terms}


def _row_index(s):
    """Rows of s by source index: ({i: {(i, j, d): c}}, {i: [(j, d)]}).

    The second map lists the tainted slots.  Both hold only ints, so an
    index kept with a solve_qsigma cache entry holds no reference to the
    ring.
    """
    rows, taint_rows = {}, {}
    for (i, j, d), c in s.entries.items():
        rows.setdefault(i, {})[(i, j, d)] = c
    for (i, j, d) in s.taint:
        taint_rows.setdefault(i, []).append((j, d))
    return rows, taint_rows


def _check_truncation(trunc):
    """Reject a negative q-truncation; None (the default) passes."""
    if trunc is not None and trunc < 0:
        raise ValueError("the q-truncation must be non-negative, got trunc=%d" % trunc)


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
        object.__setattr__(self, "_index", [None])

    @classmethod
    def _trusted(cls, ring, degree, trunc, entries, taint, index):
        """An operator from entries and taint as __post_init__ leaves them.

        They are used as given (nonzero mod p, live, within trunc; a frozenset);
        index is [None] or the row-index box of the operator they came from,
        so its rows are built once for both.
        """
        self = object.__new__(cls)
        self.__dict__.update(
            ring=ring, degree=degree, trunc=trunc, entries=entries, taint=taint, _index=index
        )
        return self

    def kappa(self, i, j, d):
        return kappa(self.ring, self.degree, i, j, d)

    def _rows(self):
        """The row index of _row_index, built on first use."""
        box = self._index
        if box[0] is None:
            box[0] = _row_index(self)
        return box[0]

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
            and self.ring._context == other.ring._context
            and self.degree == other.degree
            and self.entries == other.entries
            and self.taint == other.taint
        )

    def column(self, name, trunc=None):
        """Image of a basis class, as (element, taint slots (to_index, q))."""
        trunc = self.trunc if trunc is None else trunc
        return self.apply(basis_class(self.ring, name, trunc), trunc)

    def apply(self, x, trunc=None):
        """Lambda[t]-linear application to an element.

        Returns (element, taint) where taint is a set of (to_index, q_exp)
        pairs marking undetermined output coefficients.
        """
        _check_compatible(self.ring, x.ring, "application")
        trunc = x.trunc if trunc is None else trunc
        rows, taint_rows = self._rows()
        taint = _reach(_slots(x), taint_rows, trunc)
        return _apply_rows(self.ring, self.degree, rows, x, trunc), taint

    def slot_text(self, i, j, d):
        """Label of slot (i -> j, q^d); a residual can sit at t^-1, one t-order below it."""
        degrees = self.ring._degrees
        k = (self.degree + degrees[i] - degrees[j] - self.ring.q_degree * d) // 2
        t_part = "" if k == 0 else (" t" if k == 1 else " t^%d" % k)
        label = (t_part.strip() or "1") if d == 0 else ("q" if d == 1 else "q^%d" % d) + t_part
        return "(%s -> %s, %s)" % (self.ring.basis[i].name, self.ring.basis[j].name, label)

    def __repr__(self):
        return "<GradedEndomorphism deg=%d trunc=%d entries=%d taint=%d>" % (
            self.degree,
            self.trunc,
            len(self.entries),
            len(self.taint),
        )


def identity_endo(ring, trunc=None):
    _check_truncation(trunc)
    if trunc is None:
        trunc = ring.dimension_top // ring.q_degree
    entries = {(i, i, 0): 1 for i in range(len(ring.basis))}
    return GradedEndomorphism(ring, 0, trunc, entries)


def _multiplication_entries(ring, vector, top=None):
    """The matrix {(i, j, d): c} of x *, for the vector x = {(k, q): c} of q^q e_k.

    c is the q^d e_j coefficient of x * e_i mod p, at every q-order d (d <= top
    if top is given); every product is read through ring._class_product.
    """
    return {
        (i, j, d): c
        for i in range(len(ring.basis))
        for (j, d), c in _class_product(ring, vector, {(i, 0): 1}, top).items()
    }


def multiplication_endo(x, trunc=None, degree=None):
    """The endomorphism c -> x * c over x's (k, q) terms (_multiplication_entries).

    x must be homogeneous and theta-free.  The degree argument is only read
    when x is zero (degree is undefined then but the zero endomorphism still
    wants a grading).
    """
    _check_truncation(trunc)
    ring = x.ring
    g = degree if x.is_zero() else x.degree
    if g is None:
        raise ValueError("multiplication by an inhomogeneous element")
    if trunc is None:
        trunc = (g + ring.dimension_top) // ring.q_degree
    vector = {}
    for k, f in x.components.items():
        for m, c in f.terms.items():
            if m.q <= trunc:
                if m.theta:
                    raise ValueError("theta term in multiplication endomorphism")
                vector[(k, m.q)] = c
    return GradedEndomorphism(ring, g, trunc, _multiplication_entries(ring, vector))


def multiplication_matrix(divisor_name, ring, trunc=None):
    """Matrix of quantum multiplication by a degree-2 divisor class."""
    _check_truncation(trunc)
    ring.divisor(divisor_name)  # raises NotDivisor
    return multiplication_endo(basis_class(ring, divisor_name, 0), trunc=trunc)


def compose(s1, s2):
    """Operator composition s1 after s2 (matching QSigma_b1 o QSigma_b2).

    When both factors are complete the result is computed exactly out to its
    own pruning bound; otherwise it is truncated at the smaller truncation.
    The product and the taint rule are the slot-map ones (see the module
    docstring), computed on whole series by _packed_matmul.
    """
    ring = s1.ring
    _check_compatible(ring, s2.ring, "composition")
    p = ring.prime
    n = len(ring.basis)
    g = s1.degree + s2.degree
    if s1.is_complete and s2.is_complete:
        trunc = (g + ring.dimension_top) // ring.q_degree
    else:
        trunc = min(s1.trunc, s2.trunc)
    # A coefficient at q-order <= trunc sums at most n*(trunc+1) products of
    # entries in [0, p-1], or of taint indicators in {0, 1} on two sides.
    k = _slot_bytes((n * (trunc + 1) * (p - 1) ** 2).bit_length() + 1)
    pair = _pack_series(s2.entries, k, trunc), _pack_series(s1.entries, k, trunc)
    products = _unpack_series(_packed_matmul([pair]), k, trunc)
    taint = set()
    if s1.taint or s2.taint:
        k = _slot_bytes((2 * n * (trunc + 1)).bit_length() + 1)

        def ones(slots):
            return _pack_series(dict.fromkeys(slots, 1), k, trunc)

        pairs = [
            (ones(s2.taint), ones(set(s1.entries) | s1.taint)),
            (ones(s2.entries), ones(s1.taint)),
        ]
        taint = set(_unpack_series(_packed_matmul(pairs), k, trunc))
    entries = {s: c % p for s, c in products.items() if c % p and s not in taint}
    return GradedEndomorphism(ring, g, trunc, entries, frozenset(taint))


def compose_sign(deg_b1, deg_b2, p):
    """(-1)^(|b1| |b2| p(p-1)/2), the composition sign."""
    return -1 if (deg_b1 * deg_b2 * (p * (p - 1) // 2)) % 2 else 1


def qpi(divisor_name, s):
    """QPi_{a,b} = the divisor derivation applied slot-wise to QSigma_b."""
    div = s.ring.divisor(divisor_name)
    lam, p = div.pairing, s.ring.prime
    # s's slots are live and within trunc, so reducing and dropping zeros normalises
    entries = {slot: v for slot, c in s.entries.items() if (v := lam * slot[2] * c % p)}
    return GradedEndomorphism._trusted(s.ring, s.degree, s.trunc, entries, s.taint, [None])


def equal_on_untainted(s1, s2):
    """Compare entries on slots untainted in both endomorphisms."""
    if s1.degree != s2.degree:
        return False
    bad = s1.taint | s2.taint
    bound = min(s1.trunc, s2.trunc)
    a = {s: c for s, c in s1.entries.items() if s not in bad and s[2] <= bound}
    b = {s: c for s, c in s2.entries.items() if s not in bad and s[2] <= bound}
    return a == b


def _series_rows(s):
    """s's entries as {(i, j): [((d, t, 0), c)]} in slot order, t the forced kappa."""
    degrees, half = s.ring._degrees, s.ring.q_degree // 2
    rows = {}
    for (i, j, d), c in s.entries.items():
        rows.setdefault((i, j), []).append((d, c))
    out = {}
    for i, j in sorted(rows):
        top = (s.degree + degrees[i] - degrees[j]) // 2  # kappa at q^0
        out[i, j] = [((d, top - half * d, 0), c) for d, c in sorted(rows[i, j])]
    return out


def format_endo(s):
    """Grouped (from -> to) listing, each (i, j) series as format_series renders it,
    all in one _format_terms call."""
    names = [b.name for b in s.ring.basis]
    rows = _series_rows(s)
    lines = [
        "  (%s -> %s) = %s" % (names[i], names[j], text)
        for (i, j), text in zip(rows, _format_terms(rows.values(), s.ring.prime))
    ]
    if s.taint:
        lines.append("taint:")
        for (i, j, d) in sorted(s.taint):
            lines.append("  " + s.slot_text(i, j, d))
    return "\n".join(lines)
