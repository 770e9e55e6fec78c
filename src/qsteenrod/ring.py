"""Finitely presented small quantum cohomology rings.

A ring is described by an even-degree basis, a single Novikov variable q of
even degree 2*c1(A0), integer structure constants per q-order (reduced mod p
on use, so one table serves every prime), a distinguished degree-2 divisor
driving the connection, and a table of classical Steenrod actions per prime.

Structure constants encode  e_i * e_j = sum_d q^d sum_k c[(i,j,d)][k] e_k.
The quantum connection in the divisor direction a is
nabla_a = t * lambda_a * q d/dq + (a *).  Constants are read only through
_graded_sc, which checks them against the grading, by sc (one constant mod p)
and _product_over_z (products of (class, q) vectors over Z).  verify_ring
checks the axioms on the latter (commutativity and the unit hold by
construction); _class_product reduces them mod p for the solver, the element
products and the cup power in St.  Elements are stored as homogeneous pieces of
q-rows mod p (CohomologyElement), as operators are stored as rows (endo).
"""

from collections import namedtuple
from itertools import combinations_with_replacement, permutations
from operator import add
from types import MappingProxyType

from .errors import ManifoldFormatError, MissingSteenrodData, MixedContext, NotDivisor
from .fp import require_prime
from .series import (
    Monomial, SeriesElement, _check_truncation, _format_terms, _label_formats, _labels, _pack,
    _slot_bytes, _unpack,
)

_SEE_RING = "; see verify --suite ring"  # ends _graded_sc's error; verify_ring drops it


BasisElement = namedtuple("BasisElement", "name degree")
Divisor = namedtuple("Divisor", "index pairing primary")


class QuantumRing:
    def __init__(self, data, prime):
        """The ring of a manifold description (validate_manifold_data's form) at a prime.

        Each product's terms are summed per class and stored symmetrically; the unit's
        products are implied by the unit law and must not appear.  The ring copies what it
        reads from data and is read-only once built: solve_qsigma memoises its results on it.
        """
        from .manifold_io import validate_manifold_data  # manifold_io imports this module

        validate_manifold_data(data)
        self.prime = require_prime(prime)  # after the data, before the ring's own checks
        names = [b["name"] for b in data["basis"]]
        index = {n: i for i, n in enumerate(names)}
        products = {}
        for pr in data["products"]:
            key = (index[pr["left"]], index[pr["right"]], pr["q"])
            if key in products:
                raise ManifoldFormatError(
                    "duplicate product entry (%s, %s, q^%d)" % (pr["left"], pr["right"], key[2]),
                    field="products",
                )
            products[key] = _summed((index[t["basis"]], t["coeff"]) for t in pr["terms"])
        self.name = data["name"]
        self.basis = tuple(BasisElement(b["name"], b["degree"]) for b in data["basis"])
        self.q_degree = q_degree = data["q_degree"]
        self.dimension_top = dimension_top = data["dimension_top"]
        self.default_leading_steenrod = data.get("default_leading_steenrod", True)
        self.steenrod = MappingProxyType({
            int(pstr): MappingProxyType({
                index[gen]: tuple((index[t["basis"]], t["t"], t["theta"], t["coeff"]) for t in st)
                for gen, st in table.items()
            })
            for pstr, table in data.get("steenrod", {}).items()
        })

        if not self.basis or self.basis[0] != BasisElement("1", 0):
            raise ValueError('basis must start with the unit "1" of degree 0')
        if sum(1 for b in self.basis if b.degree == 0) != 1:
            raise ValueError("exactly one degree-0 class allowed")
        for b in self.basis:
            if b.degree % 2 or b.degree < 0:
                raise ValueError("odd or negative degree class %r" % (b.name,))
        if q_degree <= 0 or q_degree % 2:
            raise ValueError("q_degree must be a positive even integer")
        top = max(b.degree for b in self.basis)
        if dimension_top % 2 or dimension_top < top:
            raise ValueError(
                "bad dimension_top %d: must be even and at least the top basis degree %d"
                % (dimension_top, top)
            )

        self.divisors = tuple(
            Divisor(index[d["name"]], d["pairing"], d.get("primary", False))
            for d in data["divisors"]
        )
        for div in self.divisors:
            if self.basis[div.index].degree != 2:
                raise NotDivisor("divisor %s has degree != 2" % names[div.index])
        if sum(1 for d in self.divisors if d.primary) != 1:
            raise ValueError("exactly one divisor must be flagged primary")

        self._sc = {}
        for (i, j, d), terms in products.items():
            entry = (names[i], names[j], d)
            if i == 0 or j == 0:
                raise ValueError(
                    "products of the unit are implied, not stored: (%s, %s, q^%d)" % entry
                )
            if d < 0:
                raise ValueError("negative q-order in product (%s, %s, q^%d)" % entry)
            if self._sc.get((i, j, d), terms) != terms:  # set by the entry (j, i, d)
                raise ValueError("conflicting product entry (%s, %s, q^%d)" % entry)
            self._sc[i, j, d] = self._sc[j, i, d] = terms
        listed = {(i, j) for i, j, _ in self._sc}
        nonunit = [i for i, b in enumerate(self.basis) if b.degree > 0]
        for i, j in combinations_with_replacement(nonunit, 2):
            if (i, j) not in listed:
                raise ManifoldFormatError(
                    "missing product entry for (%s, %s)" % (names[i], names[j]), field="products"
                )
        self._mult = {}  # divisor index -> solver._divisor_map
        self._degrees = tuple(b.degree for b in self.basis)  # read by endo.kappa, slot_text
        self._context = (self.prime, self.basis, q_degree, dimension_top)  # _check_compatible
        # (i, j) -> ascending q-orders with stored constants; products of
        # the unit live at q^0 only.
        orders = {}
        for (i, j, d), terms in self._sc.items():
            if terms:
                orders.setdefault((i, j), []).append(d)
        self._orders = {key: tuple(sorted(ds)) for key, ds in orders.items()}
        # solve_qsigma's results: (class, truncation) -> (rows, taint bit rows, report)
        self._solved = {}
        self._st = {}  # _steenrod's results, i -> {(k, t): c}; a failing entry is not kept
        self._frozen = True

    def __setattr__(self, name, value):
        self._check_writable(name)
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        self._check_writable(name)
        object.__delattr__(self, name)

    def _check_writable(self, name):
        """Public attributes are fixed once __init__ ends; private caches are not."""
        if not name.startswith("_") and getattr(self, "_frozen", False):
            raise AttributeError("QuantumRing is read-only: cannot change %r" % name)

    # -- basis helpers ----------------------------------------------------

    def index(self, name):
        for i, b in enumerate(self.basis):
            if b.name == name:
                return i
        raise KeyError("%s has no basis element %r" % (self.name, name))

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
        """Structure constants {k: c} of e_i * e_j at q^d mod p, checked like _graded_sc."""
        return _reduced(self._graded_sc(i, j, d).items(), self.prime)

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

    def _graded_sc(self, i, j, d):
        """Integer constants of e_i * e_j at q^d (unit implied), checked against the grading."""
        if not i or not j:
            return {i + j: 1} if d == 0 else {}
        terms = self._sc.get((i, j, d), {})
        for k in terms:
            if self._degrees[i] + self._degrees[j] != self._degrees[k] + self.q_degree * d:
                raise ValueError(
                    "(%s, %s, q^%d) -> %s violates the grading%s"
                    % (self.basis[i].name, self.basis[j].name, d, self.basis[k].name, _SEE_RING)
                )
        return terms

    # -- classical Steenrod table -----------------------------------------

    def _steenrod(self, i):
        """St(e_i) as a vector {(k, t): c}, the coefficient of t^t e_k mod p.

        An explicit table entry is used when present; otherwise, with the
        leading-term default enabled, St(b) is taken to be
        (-1)^(|b|/2) t^((p-1)|b|/2) b  plus the forced t^0 part b^(cup p).
        St(b) is homogeneous of degree p|b|: the cup power, which stays zero
        once it is zero, is taken by _class_product at q^0, and an explicit
        entry is checked term by term, its t^0 part against the cup power and,
        for |b| > 0, its t^((p-1)|b|/2) b term for being nonzero mod p.  Computed
        once per class and ring (callers must not mutate the result); a class whose
        data fails raises on every call.
        """
        st = self._st.get(i)
        if st is None:
            st = self._st[i] = self._compute_steenrod(i)
        return st

    def _compute_steenrod(self, i):
        """St(e_i), uncached; see _steenrod."""
        p, deg, name = self.prime, self.degree(i), self.basis[i].name
        lead_t = (p - 1) * deg // 2
        cup = {(i, 0): 1}  # b^(cup p) as a vector {(k, 0): c}, the t^0 part of St(b)
        for _ in range(p - 1):
            if cup:
                cup = _class_product(self, cup, {(i, 0): 1}, 0)
        table = self.steenrod.get(p, {})
        if i in table:
            for k, t_exp, th_exp, c in table[i]:
                if th_exp:
                    raise MissingSteenrodData(
                        "theta-sector Steenrod data unsupported for even classes"
                    )
                if t_exp < 0:
                    raise MissingSteenrodData(
                        "St(%s) mod %d has a negative t-exponent t^%d" % (name, p, t_exp)
                    )
                if self.degree(k) + 2 * t_exp != p * deg:
                    raise MissingSteenrodData(
                        "inhomogeneous Steenrod entry for %s mod %d" % (name, p)
                    )
            st = _reduced((((k, t_exp), c) for k, t_exp, _, c in table[i]), p)
            if {key: c for key, c in st.items() if key[1] == 0} != cup:
                raise MissingSteenrodData(
                    "t^0 part of St(%s) must be the %d-fold cup power" % (name, p)
                )
            if lead_t and (i, lead_t) not in st:
                raise MissingSteenrodData(
                    "St(%s) mod %d has no leading term t^%d*%s" % (name, p, lead_t, name)
                )
            return st
        if not self.default_leading_steenrod:
            raise MissingSteenrodData("no Steenrod entry for %s mod %d" % (name, p))
        st = dict(cup)
        if lead_t > 0:
            st[(i, lead_t)] = (-1 if (deg // 2) % 2 else 1) % p
        return st

    def steenrod_of(self, b):
        """St of a q,t-free class, extended additively."""
        _check_compatible(self, b.ring, "Steenrod operation")
        vector = _class_vector(b)
        if vector is None:
            raise ValueError("St is defined for q,t-free classes")
        terms = (((k, 0, t, 0), c * v) for i, c in vector.items()
                 for (k, t), v in self._steenrod(i).items())
        return CohomologyElement._trusted(self, b.trunc, _pieces(self, b.trunc, terms))


def _summed(pairs):
    """The vector {key: c}, without zero entries, that sums the (key, c) pairs."""
    acc = {}
    for key, c in pairs:
        acc[key] = acc.get(key, 0) + c
    return {key: c for key, c in acc.items() if c}


def _reduced(pairs, p):
    """The vector {key: c}, nonzero mod p, that sums the (key, c) pairs."""
    return {key: c % p for key, c in _summed(pairs).items() if c % p}


# -- cohomology elements ---------------------------------------------------


class CohomologyElement:
    """Finite combination sum_k f_k(q, t, theta) e_k, stored as homogeneous pieces.

    pieces = {(g, h): {k: row}} holds the terms c q^q t^t theta^h e_k of even
    degree g = |e_k| + 2t + |q| q, one row per class: row[q] is the q^q
    coefficient mod p for q = 0 .. trunc, and t follows from g, as in operator
    rows.  Rows are tuples, none all zero, and no piece is empty; a zero
    element has no pieces and trunc None.  Elements are built by basis_class,
    element, element_from_terms and zero_element.  components, {k: SeriesElement},
    is a read-only view built on first use for tests and users.
    """

    @classmethod
    def _trusted(cls, ring, trunc, pieces):
        """An element from pieces as the class docstring states them, used as given."""
        self = object.__new__(cls)
        vars(self).update(ring=ring, trunc=trunc if pieces else None, pieces=pieces, _view=None)
        return self

    @property
    def components(self):
        """{k: SeriesElement} in basis order, with Monomial keys."""
        if self._view is None:
            p, trunc = self.ring.prime, self.trunc
            self._view = MappingProxyType({
                k: SeriesElement(p, trunc, {Monomial(*m): c for m, c in terms})
                for k, terms in _class_terms(self).items()
            })
        return self._view

    @property
    def degree(self):
        """Total degree g + h of the one piece, or None if inhomogeneous or zero."""
        return sum(next(iter(self.pieces))) if len(self.pieces) == 1 else None

    def is_zero(self):
        return not self.pieces

    def __add__(self, other):
        _check_compatible(self.ring, other.ring, "addition")
        if self.is_zero() or other.is_zero():
            return other if self.is_zero() else self
        if self.trunc != other.trunc:
            raise MixedContext("addition at mixed truncations")
        p, acc = self.ring.prime, {key: dict(rows) for key, rows in self.pieces.items()}
        for key, rows in other.pieces.items():
            mine = acc.setdefault(key, {})
            for k, row in rows.items():
                mine[k] = tuple(map(add, mine[k], row)) if k in mine else row
        return CohomologyElement._trusted(self.ring, self.trunc, _reduced_pieces(acc, p))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return self._map_rows(self.trunc, lambda row: [c * v for v in row])

    def times_monomial(self, q=0, t=0, coeff=1):
        """Multiply by coeff q^q t^t: each row moves q orders up, each piece 2t + |q| q degrees."""
        def shifted(row):
            if q < 0 and any(row[:-q]):
                raise ValueError("negative q exponent")
            return [coeff * v for v in ((0,) * q + row[max(-q, 0):] + (0,) * -q)[:len(row)]]

        return self._map_rows(self.trunc, shifted, 2 * t + self.ring.q_degree * q)

    def retruncate(self, trunc):
        _check_truncation(trunc, required=True)
        return self._map_rows(trunc, lambda row: (row + (0,) * trunc)[:trunc + 1])

    def _map_rows(self, trunc, fn, shift=0):
        """The element at trunc with rows fn(row) mod p, each piece moved up by shift degrees."""
        acc = {(g + shift, h): {k: fn(row) for k, row in rows.items()}
               for (g, h), rows in self.pieces.items()}
        return CohomologyElement._trusted(self.ring, trunc, _reduced_pieces(acc, self.ring.prime))

    def coefficient(self, k, q, t, theta=0):
        return dict(_class_terms(self).get(k, ())).get((q, t, theta), 0)

    def __eq__(self, other):
        return isinstance(other, CohomologyElement) and (
            (self.ring._context, self.trunc, self.pieces)
            == (other.ring._context, other.trunc, other.pieces)
        )

    def __repr__(self):
        return "<%s>" % format_element(self)


def _pieces(ring, trunc, terms):
    """The pieces of the sum of the terms ((k, q, t, theta), c), cut at q^trunc."""
    _check_truncation(trunc)
    degrees, qd, acc = ring._degrees, ring.q_degree, {}
    for (k, q, t, h), c in terms:
        if h not in (0, 1):
            raise ValueError("theta exponent must be 0 or 1")
        if q < 0:
            raise ValueError("negative q exponent")
        if q <= trunc:
            rows = acc.setdefault((degrees[k] + 2 * t + qd * q, h), {})
            rows.setdefault(k, [0] * (trunc + 1))[q] += c
    return _reduced_pieces(acc, ring.prime)


def _reduced_pieces(acc, p):
    """Pieces {(g, h): {k: row}} with each row reduced mod p to a tuple, without zero rows."""
    out = {}
    for key, rows in acc.items():
        rows = {k: tuple([c % p for c in row]) for k, row in rows.items()}
        rows = {k: row for k, row in rows.items() if any(row)}
        if rows:
            out[key] = rows
    return out


def _class_terms(x):
    """x's nonzero terms ((q, t, theta), c) by class, {k: sorted list}, in basis order."""
    half = x.ring.q_degree // 2
    return {k: sorted(((q, top - half * q, h), c) for top, h, row in rows
                      for q, c in enumerate(row) if c) for k, rows in _class_rows(x).items()}


def _class_rows(x):
    """x's rows by class, {k: [(t-exponent at q^0, theta, row)]} in basis order, each class's
    rows in that order: read q-order by q-order, they give the terms in (q, t, theta) order."""
    degrees, out = x.ring._degrees, {}
    for (g, h), rows in x.pieces.items():
        for k, row in rows.items():
            out.setdefault(k, []).append(((g - degrees[k]) // 2, h, row))
    return {k: sorted(out[k]) for k in sorted(out)}


def _class_vector(x):
    """x as {k: c} when each of its terms is some c e_k (no q, t or theta), else None."""
    terms = _class_terms(x)
    if all(len(ts) == 1 and ts[0][0] == (0, 0, 0) for ts in terms.values()):
        return {k: ts[0][1] for k, ts in terms.items()}
    return None


def zero_element(ring, trunc):
    _check_truncation(trunc)
    return CohomologyElement._trusted(ring, None, {})


def basis_class(ring, name, trunc):
    _check_truncation(trunc, required=True)
    k = ring.index(name)
    piece = {k: (1,) + (0,) * trunc}
    return CohomologyElement._trusted(ring, trunc, {(ring._degrees[k], 0): piece})


def element(ring, trunc, items):
    """Build from (basis name, q, t, coeff) tuples (theta-free)."""
    _check_truncation(trunc, required=True)
    terms = (((ring.index(name), q, t, 0), c) for name, q, t, c in items)
    return CohomologyElement._trusted(ring, trunc, _pieces(ring, trunc, terms))


def element_from_terms(ring, trunc, terms):
    """Build from {k: {monomial (q, t, theta): coefficient}}, one term map per basis index."""
    _check_truncation(trunc, required=True)
    terms = (((k,) + tuple(m), c) for k, ts in terms.items() for m, c in ts.items())
    return CohomologyElement._trusted(ring, trunc, _pieces(ring, trunc, terms))


def _check_compatible(ring, other, what):
    """Raise MixedContext unless the rings agree on prime, basis, q_degree and dimension_top."""
    if other is not ring and other._context != ring._context:
        raise MixedContext(
            "%s across incompatible rings: %s mod %d and %s mod %d"
            % (what, ring.name, ring.prime, other.name, other.prime)
        )


def quantum_product(x, y):
    """Small quantum product, bilinear over the coefficient series (_element_product)."""
    return _element_product(x, y, "quantum product")


def classical_product(x, y):
    """Cup product: the q^0 part of each e_i * e_j only (_element_product)."""
    return _element_product(x, y, "classical product", cup=True)


def _element_product(x, y, what, cup=False):
    """x * y up to q^trunc, each e_i * e_j read by _class_product (at q^0 only if cup).

    Pieces of degrees g1 and g2 multiply into degree g1 + g2 (theta * theta is t at
    p = 2, two degrees more, and 0 for odd p), each product of rows one packed product.
    """
    _check_compatible(x.ring, y.ring, what)
    ring, p = x.ring, x.ring.prime
    if x.is_zero() or y.is_zero():
        return zero_element(ring, None)
    if x.trunc != y.trunc:
        raise MixedContext("%s at mixed truncations" % what)
    count, top = x.trunc + 1, 0 if cup else x.trunc
    # A slot sums, over every pair of rows and order d, count products below p^3.
    pairs = sum(map(len, x.pieces.values())) * sum(map(len, y.pieces.values()))
    w = _slot_bytes((pairs * count * count * (p - 1) ** 3).bit_length())
    products, acc = {}, {}
    for (g1, h1), xs in x.pieces.items():
        for (g2, h2), ys in y.pieces.items():
            if h1 and h2 and p > 2:
                continue
            out = acc.setdefault((g1 + g2 + 2, 0) if h1 and h2 else (g1 + g2, h1 + h2), {})
            for i, f in xs.items():
                f = _pack(f, w)
                for j, g in ys.items():
                    ij = products.get((i, j))
                    if ij is None:
                        ij = products[i, j] = _class_product(ring, {(i, 0): 1}, {(j, 0): 1}, top)
                    fg = f * _pack(g, w)
                    for (k, d), c in ij.items():
                        out[k] = out.get(k, 0) + (c * fg << 8 * w * d)
    acc = {key: {k: _unpack(z, w, count) for k, z in out.items()} for key, out in acc.items()}
    return CohomologyElement._trusted(ring, x.trunc, _reduced_pieces(acc, p))


def pfold_power(b, ring=None):
    """p-fold quantum power of b in ring (b's, or a compatible one), by square-and-multiply."""
    ring = ring or b.ring
    _check_compatible(ring, b.ring, "p-fold power")
    return _power(b, ring.prime, quantum_product)


def _power(x, n, mul):
    """x^n for n >= 1 under the product mul, by square-and-multiply.

    This takes floor(log2 n) squarings and popcount(n) - 1 further products
    instead of n - 1 sequential ones.  The regrouping equals the left-to-right
    product only when the quantum product is associative; `verify --suite
    ring` (`verify_ring`) reports any presentation where it is not.
    """
    out = None
    square = x
    while True:
        if n & 1:
            out = square if out is None else mul(out, square)
        n >>= 1
        if not n:
            return out
        square = mul(square, square)


def _class_product(ring, x, y, top=None):
    """Quantum product of t-free classes as vectors {(k, q): c} of q^q e_k, mod p."""
    p = ring.prime
    return {key: c % p for key, c in _product_over_z(ring, x, y, top).items() if c % p}


def _product_over_z(ring, x, y, top=None):
    """x * y over Z for vectors {(k, q): c} of q^q e_k, without zero entries.

    The package's one reader of e_i * e_j: every constant it reads is checked
    against the grading (_graded_sc); only q-orders <= top are read, if given.
    """
    acc = {}
    for (i, q), a in x.items():
        for (j, r), b in y.items():
            for d in ring.q_orders(i, j):
                if top is not None and q + r + d > top:
                    break
                for k, v in ring._graded_sc(i, j, d).items():
                    acc[(k, q + r + d)] = acc.get((k, q + r + d), 0) + a * b * v
    return {key: c for key, c in acc.items() if c}


def _q_derivative(pairing, x):
    """pairing * q d/dq of a vector {(k, q): c} over Z, the t-part of nabla on it."""
    return {(k, q): pairing * q * c for (k, q), c in x.items() if pairing * q}


def connection_apply(divisor_name, x, ring=None):
    """nabla_a x = t * lambda_a * (q d/dq) x + a * x; a piece of degree g goes to g + 2.

    The one nabla_a of the package: the generator route's connection chain is built with it.
    """
    ring = ring or x.ring
    lam = ring.divisor(divisor_name).pairing
    product = quantum_product(basis_class(ring, divisor_name, x.trunc or 0), x)
    return x._map_rows(x.trunc, lambda row: [lam * q * c for q, c in enumerate(row)], 2) + product


def verify_ring(ring):
    """Check homogeneity, then associativity and flatness over Z on whole products.

    Commutativity and the unit law hold by construction (QuantumRing).  The
    axioms are read through _product_over_z without a q-cut (products of
    basis classes are polynomials in q), so a finding does not depend on p,
    and are skipped once a constant breaks the grading.  The Steenrod table
    is checked at ring.prime.  Returns human-readable findings; empty means
    the presentation is consistent.
    """
    findings = []
    names = [b.name for b in ring.basis]
    for (i, j, d), terms in ring._sc.items():
        for k in terms:
            if ring.degree(i) + ring.degree(j) != ring.degree(k) + ring.q_degree * d:
                findings.append(
                    "homogeneity: (%s,%s,q^%d) -> %s violates the grading"
                    % (names[i], names[j], d, names[k])
                )

    def star(x, j):  # x * e_j
        return _product_over_z(ring, x, {(j, 0): 1})

    if not findings:
        n = len(names)
        prod = [[star({(i, 0): 1}, j) for j in range(n)] for i in range(n)]
        for i, j, k in combinations_with_replacement(range(n), 3):
            if star(prod[i][j], k) != star(prod[j][k], i):
                line = "associativity fails on (%s,%s,%s)"
                findings.append(line % (names[i], names[j], names[k]))
        for (a, la, _), (b, lb, _) in permutations(ring.divisors, 2):  # a = b: nothing to compare
            for e in range(n):  # the t^1 and t^0 parts of nabla_a nabla_b e - nabla_b nabla_a e
                ae, be = prod[a][e], prod[b][e]
                if _q_derivative(la, be) != _q_derivative(lb, ae) or star(be, a) != star(ae, b):
                    findings.append("flatness fails for divisors (%s,%s)" % (names[a], names[b]))

    for i in ring.steenrod.get(ring.prime, {}):
        try:
            ring._steenrod(i)
        except (MissingSteenrodData, ValueError) as exc:  # ValueError: an ungraded cup constant
            findings.append("steenrod table: %s" % str(exc).removesuffix(_SEE_RING))
    return findings


def format_element(v):
    """Deterministic text form: basis order, then q, then t, then theta (_class_rows)."""
    ring, coeffs, labels = v.ring, [], []
    half, count = ring.q_degree // 2, (v.trunc or 0) + 1
    for k, rows in _class_rows(v).items():
        texts = [_labels(_label_formats(h, ring.basis[k].name), range(count),
                         range(top, top - half * count, -half), row) for top, h, row in rows]
        coeffs += [c for cs in zip(*(row for _, _, row in rows)) for c in cs]
        labels += [label for ls in zip(*texts) for label in ls]
    return _format_terms(ring.prime, coeffs, labels)
