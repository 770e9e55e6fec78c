"""Basis-indexed endomorphisms of H*(M; Lambda)[[t]] with homogeneous degree.

An endomorphism of degree g sends e_i to sum over (j, d) of
entry[(i,j,d)] * t^kappa * q^d * e_j, where homogeneity forces the single
t-exponent kappa = (g + deg(e_i) - deg(e_j) - q_degree*d) / 2.  Slots with
kappa negative or non-integral are identically zero, so only the scalar
coefficient is stored.  The taint lists slots whose value the solver
could not determine; tainted slots carry no stored value.

An operator stores rows {(i, j): row}, one per nonzero (e_i -> e_j) series
in (i, j) order, row[d] its q^d coefficient mod p for d = 0 .. trunc, and
beside them its taint as bit rows taint_rows {(i, j): mask}, bit d set when
slot (i, j, d) is tainted.  Every reader in the package reads the rows and
bit rows; the slot map {(i, j, d): c}, entries, and the slot set taint are
views built on first use for tests and users, and kept.  Every matrix of
multiplication by a class, A = a * and both seeds of the solver, comes from
_multiplication_entries.  A product (i, j, d1) then (j, k, d2) lands on
(i, k, d1 + d2), and a tainted slot taints its product with every stored or
tainted slot of the other factor.  compose and the solver's residual
re-check multiply whole graded maps by Kronecker substitution in k-byte
slots, one int per row (_packed_matmul); the taint rule is the same product
on supports, an OR-product of bit rows (_or_product): compose's taint, and
the slots the re-check skips.  A map applied to an element's pieces goes
through _packed_matmul too (_apply_rows, used by apply and qsigma_apply);
the sweep multiplies by a divisor block through its commutator lists
(solver._ad_map), and a masked slot taints every slot its list names.
On a single class the rule is _reach: a coefficient slot (k, q) of e_k q^q
reaches (j, q + d) for every slot (j, d) of the operator's column k.
"""

from collections import defaultdict
from types import MappingProxyType

from .ring import (
    CohomologyElement, _check_compatible, _class_product, _reduced_pieces, basis_class,
    zero_element,
)
from .series import (
    _check_truncation, _format_terms, _label_formats, _labels, _pack, _slot_bytes, _unpack,
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

    Each factor is a packed map {(i, j): int}, one int per series (_pack),
    so one big-int product multiplies whole series.
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


def _or_matmul(pairs, trunc):
    """The union over (x, y) in pairs of the support products x y, orders <= trunc.

    Each factor is a map of bit rows {(i, j): mask}; bit d1 of (i, j) and bit
    d2 of (j, h) give bit d1 + d2 of (i, h), as _packed_matmul multiplies
    values (_or_product).  Returns the nonzero {(i, h): mask} in (i, h) order.
    """
    acc = {}
    for x, y in pairs:
        rows = {}
        for (j, h), v in y.items():
            rows.setdefault(j, []).append((h, v))
        for (i, j), u in x.items():
            for h, v in rows.get(j, ()):
                acc[i, h] = acc.get((i, h), 0) | _or_product(u, v)
    full = (1 << trunc + 1) - 1
    return {s: acc[s] & full for s in sorted(acc) if acc[s] & full}


def _apply_rows(ring, g, rows, x, trunc):
    """The image of x, truncated at q^trunc, under the degree-g map with rows {(k, j): row}.

    One _packed_matmul takes x's rows, keyed (piece, k), through the map's rows, so
    a piece (key, h) lands on (key + g, h).  Row values lie in [0, p), as x's do.
    """
    if x.is_zero():
        return zero_element(ring, trunc)
    p, count = ring.prime, trunc + 1
    # A slot of the product sums at most n (trunc + 1) products below p^2.
    w = _slot_bytes((len(ring.basis) * count * (p - 1) ** 2).bit_length())
    left = {(key, k): _pack(row[:count], w) for key, rows in x.pieces.items()
            for k, row in rows.items()}
    classes = {k for _, k in left}
    right = {s: _pack(row, w) for s, row in rows.items() if s[0] in classes}
    acc = {}
    for ((key, h), j), z in _packed_matmul([(left, right)]).items():
        acc.setdefault((key + g, h), {})[j] = _unpack(z, w, count)
    return CohomologyElement._trusted(ring, trunc, _reduced_pieces(acc, p))


def _reach(slots, column, trunc):
    """The slots (j, q + d), q + d <= trunc, that slots (k, q) reach via column[k] = [(j, d)]."""
    return {(j, q + d) for k, q in slots for j, d in column.get(k, ()) if q + d <= trunc}


def _slots(x):
    """The (basis index, q-exponent) slots an element's rows occupy."""
    return {(k, q) for piece in x.pieces.values() for k, row in piece.items()
            for q, c in enumerate(row) if c}


def _bits(mask):
    """The set bits of mask, lowest first."""
    return [d for d, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _supports(rows, taint_rows):
    """The bit rows of the nonzero slots of rows {(i, j): row}, ORed with taint_rows."""
    out = {s: int("".join(["1" if c else "0" for c in row[::-1]]), 2) for s, row in rows.items()}
    for s, m in taint_rows.items():
        out[s] = out.get(s, 0) | m
    return out


def _or_product(a, b):
    """The support product of two bit rows: bit d1 + d2 for every bit d1 of a and d2 of b.

    Each run of ones of the sparser row, of length L at bit lo, adds b shifted by
    lo .. lo + L - 1, which doubling builds in about log2(L) shifts.
    """
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        run = a & (a ^ (a + low))  # the lowest run of ones
        a ^= run
        x, width, length = b, 1, run.bit_length() - low.bit_length() + 1
        while 2 * width <= length:
            x |= x << width
            width *= 2
        if width < length:
            x |= x << length - width
        out |= x * low
    return out


def _taint_slots(masks):
    """The slots (i, j, d) of bit rows {(i, j): mask}, in (i, j, d) order when the rows are."""
    return [(i, j, d) for (i, j), m in masks.items() for d in _bits(m)]


def _columns(masks):
    """Bit rows {(i, j): mask} as the columns {i: [(j, d)]} that _reach reads."""
    out = {}
    for (i, j), m in masks.items():
        out.setdefault(i, []).extend((j, d) for d in _bits(m))
    return out


class GradedEndomorphism:
    """Read-only; built from entries {(i, j, d): c} and tainted slots {(i, j, d)}.

    Both are checked the same way: an index out of range or a negative order
    raises, orders past trunc are dropped, and a slot within trunc must be
    live.  Entries are reduced mod p, and a tainted slot's value is dropped.
    """

    def __init__(self, ring, degree, trunc, entries=None, taint=frozenset()):
        _check_truncation(trunc, required=True)
        masks = {}
        for i, j, d in taint:
            if _kept(ring, degree, trunc, "taint", i, j, d):
                masks[i, j] = masks.get((i, j), 0) | 1 << d
        rows = defaultdict(lambda: [0] * (trunc + 1))
        for (i, j, d), c in (entries or {}).items():
            c %= ring.prime
            kept = _kept(ring, degree, trunc, "entry", i, j, d, c)
            if kept and not masks.get((i, j), 0) >> d & 1:
                rows[i, j][d] = c
        rows = {s: tuple(rows[s]) for s in sorted(rows)}
        masks = {s: masks[s] for s in sorted(masks)}
        vars(self).update(ring=ring, degree=degree, trunc=trunc, rows=rows, taint_rows=masks,
                          _view=None, _taint_view=None)

    @classmethod
    def _trusted(cls, ring, degree, trunc, rows, taint_rows):
        """An operator from rows and bit rows as __init__ leaves them (nonzero tuples of
        trunc + 1 values in [0, p) and nonzero masks of bits <= trunc, live, in (i, j) order,
        no slot in both), used as given."""
        self = object.__new__(cls)
        vars(self).update(ring=ring, degree=degree, trunc=trunc, rows=rows, taint_rows=taint_rows,
                          _view=None, _taint_view=None)
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
        if self._view is None:
            rows, layers = self.rows, enumerate(zip(*self.rows.values()))
            vars(self)["_view"] = MappingProxyType(
                {(i, j, d): c for d, layer in layers for (i, j), c in zip(rows, layer) if c}
            )
        return self._view

    @property
    def taint(self):
        """The tainted slots {(i, j, d)}, a frozenset built on first use from taint_rows."""
        if self._taint_view is None:
            vars(self)["_taint_view"] = frozenset(_taint_slots(self.taint_rows))
        return self._taint_view

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
            and self.taint_rows == other.taint_rows
            and (self.rows == other.rows if self.trunc == other.trunc
                 else _padded(self.rows, top) == _padded(other.rows, top))
        )

    def _image_trunc(self, trunc):
        """trunc, or the operator's own if it is incomplete and trunc reads past it."""
        if trunc is not None and trunc > self.trunc and not self.is_complete:
            return self.trunc
        return trunc

    def column(self, name, trunc=None):
        """Image of a basis class, as (element, taint slots (to_index, q)), read off its rows.

        The image of e_k is one piece, of degree the operator's plus |e_k|, whose rows
        are the operator's rows out of k.
        """
        _check_truncation(trunc)
        trunc = self._image_trunc(self.trunc if trunc is None else trunc)
        ring, k, top = self.ring, self.ring.index(name), trunc + 1
        image = {j: (row + (0,) * trunc)[:top] for (i, j), row in self.rows.items() if i == k}
        taint = {(j, d) for (i, j), m in self.taint_rows.items() if i == k
                 for d in _bits(m & (1 << top) - 1)}
        pieces = _reduced_pieces({(self.degree + ring._degrees[k], 0): image}, ring.prime)
        return CohomologyElement._trusted(ring, trunc, pieces), taint

    def apply(self, x, trunc=None):
        """Lambda[t]-linear application to an element.

        Returns (element, taint) where taint is a set of (to_index, q_exp)
        pairs marking undetermined output coefficients: the element's
        coefficient at such a slot is not determined and may be nonzero.
        """
        _check_compatible(self.ring, x.ring, "application")
        _check_truncation(trunc)
        trunc = self._image_trunc(x.trunc if trunc is None else trunc)
        taint = _reach(_slots(x), _columns(self.taint_rows), trunc)
        return _apply_rows(self.ring, self.degree, self.rows, x, trunc), taint

    def slot_text(self, i, j, d):
        """Label of slot (i -> j, q^d); a residual can sit at t^-1, one t-order below it."""
        degrees, ring = self.ring._degrees, self.ring
        k = (self.degree + degrees[i] - degrees[j] - ring.q_degree * d) // 2
        return "(%s -> %s, %s)" % (ring.basis[i].name, ring.basis[j].name, _slot_label(d, k))

    def __repr__(self):
        return "<GradedEndomorphism deg=%d trunc=%d entries=%d taint=%d>" % (
            self.degree,
            self.trunc,
            sum(len(row) - row.count(0) for row in self.rows.values()),
            sum(m.bit_count() for m in self.taint_rows.values()),
        )


def _kept(ring, degree, trunc, what, i, j, d, c=1):
    """True when slot (i, j, d) holds c != 0 within trunc.  Raises ValueError naming the
    slot when an index is out of range or the order negative, and when a kept slot is dead."""
    n = len(ring.basis)
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("%s at (%d,%d,%d): basis indices run 0 .. %d" % (what, i, j, d, n - 1))
    if d < 0:
        raise ValueError("%s at (%d,%d,%d): negative q-order" % (what, i, j, d))
    if not c or d > trunc:
        return False
    if kappa(ring, degree, i, j, d) is None:
        raise ValueError("%s on a dead slot (%d,%d,%d)" % (what, i, j, d))
    return True


def _slot_label(d, k):
    """The q^d t^k part of a slot's label."""
    t_part = "" if k == 0 else (" t" if k == 1 else " t^%d" % k)
    return (t_part.strip() or "1") if d == 0 else ("q" if d == 1 else "q^%d" % d) + t_part


def _taint_texts(s):
    """s.slot_text of each tainted slot, in (i, j, d) order, each row's names read once."""
    names, degrees, half = [b.name for b in s.ring.basis], s.ring._degrees, s.ring.q_degree // 2
    texts = []
    for (i, j), m in s.taint_rows.items():
        head, top = "(%s -> %s, " % (names[i], names[j]), (s.degree + degrees[i] - degrees[j]) // 2
        texts += [head + _slot_label(d, top - half * d) + ")" for d in _bits(m)]
    return texts


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
        raise ValueError("multiplication by the zero element needs a degree" if x.is_zero()
                         else "multiplication by an inhomogeneous element")
    if trunc is None:
        trunc = (g + ring.dimension_top) // ring.q_degree
    vector = {(k, q): c for rows in x.pieces.values() for k, row in rows.items()
              for q, c in enumerate(row[:trunc + 1]) if c}
    if vector and any(h for _, h in x.pieces):  # x is homogeneous: one piece
        raise ValueError("theta term in multiplication endomorphism")
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
    docstring), the values computed on whole series by _packed_matmul and
    the taint on bit rows by _or_product.
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
    # entries in [0, p-1].
    k = _slot_bytes((n * (trunc + 1) * (p - 1) ** 2).bit_length() + 1)
    pair = [{s: _pack(row, k) for s, row in x.rows.items()} for x in (s2, s1)]
    products = _packed_matmul([pair])
    rows = {s: [c % p for c in _unpack(products[s], k, trunc + 1)] for s in sorted(products)}
    t1, t2 = s1.taint_rows, s2.taint_rows  # the taint is T2 (S1 + T1) + S2 T1, S the supports
    left, right = _supports(s2.rows, {}) if t1 else {}, _supports(s1.rows, t1) if t2 else {}
    taint = _or_matmul([(t2, right), (left, t1)], trunc)
    for s, m in taint.items():
        if s in rows:
            for d in _bits(m):
                rows[s][d] = 0
    rows = {s: tuple(row) for s, row in rows.items() if any(row)}
    return GradedEndomorphism._trusted(ring, g, trunc, rows, taint)


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
    return GradedEndomorphism._trusted(s.ring, s.degree, s.trunc, rows, s.taint_rows)


def equal_on_untainted(s1, s2):
    """Compare entries on slots untainted in both; never equal across incompatible rings."""
    if s1.ring._context != s2.ring._context or s1.degree != s2.degree:
        return False
    top, t1, t2 = min(s1.trunc, s2.trunc) + 1, s1.taint_rows, s2.taint_rows
    bad = {s: t1.get(s, 0) | t2.get(s, 0) for s in t1.keys() | t2.keys()}
    a, b = ({(i, j, d): c for (i, j), row in s.rows.items() for d, c in enumerate(row[:top])
             if c and not bad.get((i, j), 0) >> d & 1} for s in (s1, s2))
    return a == b


def format_endo(s):
    """Grouped (from -> to) listing, each row's terms in q order (_format_terms); the
    labels of the rows with one t-exponent at q^0 are built once."""
    ring, formats, labels, lines = s.ring, _label_formats(0, ""), {}, []
    basis, degrees, half, count = ring.basis, ring._degrees, ring.q_degree // 2, s.trunc + 1
    for (i, j), row in s.rows.items():
        top = (s.degree + degrees[i] - degrees[j]) // 2  # the t-exponent at q^0
        if top not in labels:
            ts = range(top, top - half * count, -half)
            labels[top] = _labels(formats, range(count), ts, [1] * count)  # any row of this top
        lines.append("  (%s -> %s) = %s" % (basis[i].name, basis[j].name,
                                            _format_terms(ring.prime, row, labels[top])))
    if s.taint_rows:
        lines.append("taint:")
        lines += ["  " + text for text in _taint_texts(s)]
    return "\n".join(lines)
