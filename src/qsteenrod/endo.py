"""Basis-indexed endomorphisms of H*(M; Lambda)[[t]] with homogeneous degree.

An endomorphism of degree g sends e_i to sum over (j, d) of
entry[(i,j,d)] * t^kappa * q^d * e_j, where homogeneity forces the single
t-exponent kappa = (g + deg(e_i) - deg(e_j) - q_degree*d) / 2.  Slots with
kappa negative or non-integral are identically zero, so only the scalar
coefficient is stored.  The taint set lists slots whose value the solver
could not determine; tainted slots carry no stored value.

An operator stores rows {(i, j): row}, one per nonzero (e_i -> e_j) series
in (i, j) order, row[d] its q^d coefficient mod p for d = 0 .. trunc.  Every
reader in the package reads the rows; the slot map {(i, j, d): c}, entries,
is a view built on first use for tests and users.  Every matrix of
multiplication by a class, A = a * and both seeds of the solver, comes from
_multiplication_entries.  A product (i, j, d1) then (j, k, d2) lands on
(i, k, d1 + d2), and a tainted slot taints its product with every stored or
tainted slot of the other factor.  compose and the solver's residual
re-check multiply whole graded maps by Kronecker substitution in k-byte
slots, one int per row (_packed_matmul); compose's taint is the same product
on 0/1 rows packed from the factors' rows and taint.  A map applied to an
element goes through the same product (_apply_rows, used by apply and
qsigma_apply), and so does the generator route's nabla on the rows of
the connection chain (solver._nabla); the sweep multiplies by a divisor
block through its commutator lists (solver._ad_map), and a masked slot
taints every slot its list names.
On a single class the rule is _reach: a coefficient slot (k, q) of e_k q^q
reaches (j, q + d) for every slot (j, d) of the operator's column k.
"""

from collections import defaultdict
from types import MappingProxyType

from .ring import _check_compatible, _class_product, basis_class, element_from_terms, zero_element
from .series import (
    Monomial, _format_terms, _pack, _pack_series, _slot_bytes, _unpack, _unpack_series
)


def kappa(ring, g, i, j, d):
    """Forced t-exponent of slot (i -> j, q^d); None when the slot is dead."""
    degrees = ring._degrees
    num = g + degrees[i] - degrees[j] - ring.q_degree * d
    if num % 2:
        return None
    k = num // 2
    return k if k >= 0 else None


# -- sparse graded F_p matrices: rows {(i, j): row} -----------------------------


def _packed_matmul(pairs):
    """Sum of the products x y over (x, y) in pairs, by Kronecker substitution.

    Each factor is a packed map {(i, j): int}, one int per series (_pack,
    _pack_series), so one big-int product multiplies whole series.
    Coefficients are non-negative; the caller picks k so that the sums at
    the orders it reads fit in k bytes (higher orders may overflow, since
    carries only move up).  Returns the packed sum {(i, h): int}.
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
    """The image of x, truncated at q^trunc, under the degree-g map with rows {(k, j): row}.

    x's terms are grouped by grading key (|e_k| + 2t + |q| q, theta), within
    which q fixes t, so each (key, k) packs into one int (_pack_series); one
    _packed_matmul multiplies them by the packed rows out of the classes x
    touches, and each output term's t-exponent follows from the grading.
    Row values lie in [0, p), as x's coefficients do; orders past trunc are not read.
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
    right = {s: _pack(row, w) for s, row in rows.items() if s[0] in x.components}
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


def _by_source(slots):
    """Slots (i, j, d) by source index, {i: [(j, d)]}, as _reach reads them."""
    out = {}
    for i, j, d in slots:
        out.setdefault(i, []).append((j, d))
    return out


def _check_truncation(trunc):
    """Reject a negative q-truncation; None (the default) passes."""
    if trunc is not None and trunc < 0:
        raise ValueError("the q-truncation must be non-negative, got trunc=%d" % trunc)


class GradedEndomorphism:
    """Read-only; built from entries {(i, j, d): c}, reduced mod p, orders past trunc dropped."""

    def __init__(self, ring, degree, trunc, entries=None, taint=frozenset()):
        rows = defaultdict(lambda: [0] * (trunc + 1))
        for (i, j, d), c in (entries or {}).items():
            c %= ring.prime
            if not c or d > trunc:
                continue
            if kappa(ring, degree, i, j, d) is None:
                raise ValueError("entry on a dead slot (%d,%d,%d)" % (i, j, d))
            rows[i, j][d] = c
        rows, taint, view = {s: tuple(rows[s]) for s in sorted(rows)}, frozenset(taint), [None]
        vars(self).update(ring=ring, degree=degree, trunc=trunc, rows=rows, taint=taint, _view=view)

    @classmethod
    def _trusted(cls, ring, degree, trunc, rows, taint, view):
        """An operator from rows and taint as __init__ leaves them (nonzero tuples of trunc + 1
        values in [0, p), live, in (i, j) order; a frozenset), used as given; view is [None]
        or the entries box of the operator they came from, so one view serves both."""
        self = object.__new__(cls)
        vars(self).update(ring=ring, degree=degree, trunc=trunc, rows=rows, taint=taint, _view=view)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("GradedEndomorphism is read-only: cannot change %r" % name)

    def __delattr__(self, name):
        self.__setattr__(name, None)

    def kappa(self, i, j, d):
        return kappa(self.ring, self.degree, i, j, d)

    @property
    def entries(self):
        """The nonzero {(i, j, d): c} in (d, i, j) order, a read-only view built on first use."""
        box, rows = self._view, self.rows
        if box[0] is None:
            layers = enumerate(zip(*rows.values()))
            box[0] = MappingProxyType(
                {(i, j, d): c for d, layer in layers for (i, j), c in zip(rows, layer) if c}
            )
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
        if not isinstance(other, GradedEndomorphism):
            return False
        top = max(self.trunc, other.trunc)
        return (
            self.ring._context == other.ring._context
            and self.degree == other.degree
            and self.taint == other.taint
            and (self.rows == other.rows if self.trunc == other.trunc
                 else _padded(self.rows, top) == _padded(other.rows, top))
        )

    def column(self, name, trunc=None):
        """Image of a basis class, as (element, taint slots (to_index, q)), read off its rows."""
        trunc = self.trunc if trunc is None else trunc
        k = self.ring.index(name)
        terms = {j: dict(row) for (i, j), row in _series_rows(self, k).items()}
        taint = {(j, d) for i, j, d in self.taint if i == k and d <= trunc}
        return element_from_terms(self.ring, trunc, terms), taint

    def apply(self, x, trunc=None):
        """Lambda[t]-linear application to an element.

        Returns (element, taint) where taint is a set of (to_index, q_exp)
        pairs marking undetermined output coefficients.
        """
        _check_compatible(self.ring, x.ring, "application")
        trunc = x.trunc if trunc is None else trunc
        taint = _reach(_slots(x), _by_source(self.taint), trunc)
        return _apply_rows(self.ring, self.degree, self.rows, x, trunc), taint

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
            sum(len(row) - row.count(0) for row in self.rows.values()),
            len(self.taint),
        )


def _padded(rows, trunc):
    """rows with zeros appended up to q^trunc, so that rows of two truncations compare."""
    return {s: row + (0,) * (trunc + 1 - len(row)) for s, row in rows.items()}


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
    pair = [{s: _pack(row, k) for s, row in x.rows.items()} for x in (s2, s1)]
    products = _packed_matmul([pair])
    rows = {s: [c % p for c in _unpack(products[s], k, trunc + 1)] for s in sorted(products)}
    taint = set()
    if s1.taint or s2.taint:
        k = _slot_bytes((2 * n * (trunc + 1)).bit_length() + 1)

        def ones(rows, slots):
            """The packed 0/1 map of the nonzero positions of rows and of slots, orders <= trunc."""
            out = {s: [1 if c else 0 for c in row[: trunc + 1]] + [0] * (trunc + 1 - len(row))
                   for s, row in rows.items()}
            for i, j, d in slots:
                if d <= trunc:
                    if (i, j) not in out:
                        out[i, j] = [0] * (trunc + 1)
                    out[i, j][d] = 1
            return {s: _pack(row, k) for s, row in out.items()}

        pairs = [
            (ones({}, s2.taint), ones(s1.rows, s1.taint)),
            (ones(s2.rows, ()), ones({}, s1.taint)),
        ]
        taint = set(_unpack_series(_packed_matmul(pairs), k, trunc))
    for i, j, d in taint:
        if (i, j) in rows:
            rows[i, j][d] = 0
    rows = {s: tuple(row) for s, row in rows.items() if any(row)}
    return GradedEndomorphism._trusted(ring, g, trunc, rows, frozenset(taint), [None])


def compose_sign(deg_b1, deg_b2, p):
    """(-1)^(|b1| |b2| p(p-1)/2), the composition sign."""
    return -1 if (deg_b1 * deg_b2 * (p * (p - 1) // 2)) % 2 else 1


def qpi(divisor_name, s):
    """QPi_{a,b} = the divisor derivation applied slot-wise to QSigma_b."""
    div = s.ring.divisor(divisor_name)
    lam, p = div.pairing, s.ring.prime
    # s's rows are live and within trunc, so reducing and dropping zero rows normalises
    rows = {key: tuple(lam * d * c % p for d, c in enumerate(row)) for key, row in s.rows.items()}
    rows = {key: row for key, row in rows.items() if any(row)}
    return GradedEndomorphism._trusted(s.ring, s.degree, s.trunc, rows, s.taint, [None])


def equal_on_untainted(s1, s2):
    """Compare entries on slots untainted in both; never equal across incompatible rings."""
    if s1.ring._context != s2.ring._context or s1.degree != s2.degree:
        return False
    bad, top = s1.taint | s2.taint, min(s1.trunc, s2.trunc) + 1
    a, b = ({(i, j, d): c for (i, j), row in s.rows.items() for d, c in enumerate(row[:top])
             if c and (i, j, d) not in bad} for s in (s1, s2))
    return a == b


def _series_rows(s, source=None):
    """s's rows as {(i, j): [((d, t, 0), c)]} over the nonzero c, t the forced kappa;
    only the rows out of e_source if source is given."""
    degrees, half = s.ring._degrees, s.ring.q_degree // 2
    out = {}
    for (i, j), row in s.rows.items():
        if source is None or i == source:
            top = (s.degree + degrees[i] - degrees[j]) // 2  # kappa at q^0
            out[i, j] = [((d, top - half * d, 0), c) for d, c in enumerate(row) if c]
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
