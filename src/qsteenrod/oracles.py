"""Independent cross-checks and built-in manifold data.

Two independent routes to the sphere operator live here: the closed-form
factorial sums, and the exact-rational fundamental-solution pipeline (solve
the quantum differential equation over Q, truncate below q^p, reduce mod p).
The built-in manifolds carry integral quantum products from the classical
literature (Crauder-Miranda / Di Francesco-Itzykson for the cubic surface,
Donaldson for the intersection of quadrics) plus per-prime classical
Steenrod tables, and the expected-results lists drive the oracle suite.
"""

from .errors import NonReducible, Record, UnknownManifold
from .fp import factorial_ratio, require_prime
from .endo import GradedEndomorphism, kappa
from .ring import element


# -- exact rational series in q and t -----------------------------------------


class RationalSeries(Record):
    _fields = ("trunc", "terms")

    def __init__(self, trunc, terms={}):  # terms is only read
        from fractions import Fraction

        clean = {}
        for (q, t), c in terms.items():
            c = Fraction(c)
            if c and 0 <= q <= trunc:
                clean[(q, t)] = c
        vars(self).update(trunc=trunc, terms=clean)

    def __add__(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return RationalSeries(min(self.trunc, other.trunc), terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        from fractions import Fraction

        return RationalSeries(self.trunc, {m: Fraction(c) * v for m, v in self.terms.items()})

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        trunc = min(self.trunc, other.trunc)
        out = {}
        for (q1, t1), c1 in self.terms.items():
            for (q2, t2), c2 in other.terms.items():
                if q1 + q2 > trunc:
                    continue
                key = (q1 + q2, t1 + t2)
                out[key] = out.get(key, 0) + c1 * c2
        return RationalSeries(trunc, out)

    def tqd(self):
        """The operator t * q * d/dq: q^k t^m -> k q^k t^(m+1)."""
        return RationalSeries(self.trunc, {(q, t + 1): q * c for (q, t), c in self.terms.items()})

    def coefficient(self, q, t):
        from fractions import Fraction

        return self.terms.get((q, t), Fraction(0))

    def is_zero(self):
        return not self.terms


def rational_const(trunc, c=1):
    return RationalSeries(trunc, {(0, 0): c})


def rational_q(trunc):
    return RationalSeries(trunc, {(1, 0): 1})


def xi_series(trunc):
    """Single-valued solution of (t q d/dq)^2 xi = q xi:  sum q^k t^-2k / (k!)^2."""
    from fractions import Fraction

    fact = 1
    terms = {}
    for k in range(trunc + 1):
        if k:
            fact *= k
        terms[(k, -2 * k)] = Fraction(1, fact * fact)
    return RationalSeries(trunc, terms)


def xi_matrix(trunc):
    """Covariantly constant 2x2 matrix built from xi (rows/cols: 1, h)."""
    xi = xi_series(trunc)
    dxi = xi.tqd()
    return [[-(xi * dxi), -(dxi * dxi)], [xi * xi, xi * dxi]]


def xi_constancy_residual(trunc):
    """t q d/dq (Xi) + [M, Xi] for M = [[0, q], [1, 0]]; zero when correct."""
    X = xi_matrix(trunc)
    q = rational_q(trunc)
    one = rational_const(trunc)
    zero = RationalSeries(trunc, {})
    M = [[zero, q], [one, zero]]

    def matmul(A, B):
        return [
            [A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2)]
            for i in range(2)
        ]

    MX = matmul(M, X)
    XM = matmul(X, M)
    return [
        [X[i][j].tqd() + MX[i][j] - XM[i][j] for j in range(2)]
        for i in range(2)
    ]


def s2_closed_form(p):
    """The sphere operator QSigma_h over F_p via the explicit factorial sums.

    Valid for odd p; p = 2 is covered by the solver route.  Entries are
    stored (from, to, q-order); the display convention is the transpose.
    """
    require_prime(p)
    if p == 2:
        raise ValueError("the closed form is stated for odd primes")
    ring = builtin_ring("s2", p)
    entries = {}
    for k in range(1, (p - 1) // 2 + 1):
        c = factorial_ratio([2 * k - 1], [k, k, k - 1, k - 1], p)
        entries[(0, 0, k)] = c
        entries[(1, 1, k)] = -c
    for k in range(0, (p - 1) // 2 + 1):
        entries[(0, 1, k)] = -factorial_ratio([2 * k], [k, k, k, k], p)
    for k in range(2, (p + 1) // 2 + 1):
        entries[(1, 0, k)] = factorial_ratio([2 * k - 2], [k - 2, k - 1, k - 1, k], p)
    trunc = ring.default_truncation(2)
    return GradedEndomorphism(ring, 2 * p, trunc, entries)


def reduce_mod_p(X, p):
    """Truncate a rational 2x2 solution below q^p, reduce, scale by -t^(p-1).

    Every retained denominator must be coprime to p (NonReducible otherwise);
    the scaled entries must land on geometric (t >= 0) slots.
    """
    require_prime(p)
    ring = builtin_ring("s2", p)
    g = 2 * p
    for row in X:
        for entry in row:
            for (q, t), c in entry.terms.items():
                if c.denominator % p == 0:
                    raise NonReducible(
                        "coefficient %s of q^%d has p = %d in its denominator"
                        % (c, q, p)
                    )
    entries = {}
    max_q = 0
    for to in range(2):
        for frm in range(2):
            for (q, t), c in X[to][frm].terms.items():
                if q >= p:
                    continue
                val = c.numerator * pow(c.denominator, p - 2, p) % p
                val = (-val) % p
                if not val:
                    continue
                k = kappa(ring, g, frm, to, q)
                if k is None or k != t + p - 1:
                    raise NonReducible(
                        "nonzero reduced term q^%d t^%d off the geometric slot" % (q, t)
                    )
                entries[(frm, to, q)] = val
                max_q = max(max_q, q)
    return GradedEndomorphism(ring, g, max(max_q, ring.default_truncation(2)), entries)


# -- built-in manifolds --------------------------------------------------------

_S2 = {
    "name": "s2",
    "basis": [{"name": "1", "degree": 0}, {"name": "h", "degree": 2}],
    "q_degree": 4,
    "dimension_top": 2,
    "divisors": [{"name": "h", "pairing": 1, "primary": True}],
    "products": [
        {"left": "h", "right": "h", "q": 1, "terms": [{"basis": "1", "coeff": 1}]},
    ],
    "steenrod": {},
    "default_leading_steenrod": True,
}

# Quantum products of the cubic surface in the Chern-number variable;
# h_2 is the anticanonical class, h_4 the point class.  The (h_4, h_4) row
# is forced from the published (h_2, *) rows by associativity.
_CUBIC = {
    "name": "cubic_surface",
    "basis": [
        {"name": "1", "degree": 0},
        {"name": "h_2", "degree": 2},
        {"name": "h_4", "degree": 4},
    ],
    "q_degree": 2,
    "dimension_top": 4,
    "divisors": [{"name": "h_2", "pairing": 1, "primary": True}],
    "products": [
        {"left": "h_2", "right": "h_2", "q": 0, "terms": [{"basis": "h_4", "coeff": 3}]},
        {"left": "h_2", "right": "h_2", "q": 1, "terms": [{"basis": "h_2", "coeff": 9}]},
        {"left": "h_2", "right": "h_2", "q": 2, "terms": [{"basis": "1", "coeff": 180}]},
        {"left": "h_2", "right": "h_4", "q": 2, "terms": [{"basis": "h_2", "coeff": 36}]},
        {"left": "h_2", "right": "h_4", "q": 3, "terms": [{"basis": "1", "coeff": 252}]},
        {"left": "h_4", "right": "h_4", "q": 2, "terms": [{"basis": "h_4", "coeff": -24}]},
        {"left": "h_4", "right": "h_4", "q": 3, "terms": [{"basis": "h_2", "coeff": 84}]},
        {"left": "h_4", "right": "h_4", "q": 4, "terms": [{"basis": "1", "coeff": 1404}]},
    ],
    "steenrod": {
        "2": {
            "h_2": [
                {"basis": "h_4", "t": 0, "theta": 0, "coeff": 1},
                {"basis": "h_2", "t": 1, "theta": 0, "coeff": 1},
            ]
        },
        "3": {"h_2": [{"basis": "h_2", "t": 2, "theta": 0, "coeff": -1}]},
    },
    "default_leading_steenrod": True,
}

# Intersection of two quadrics in P^5; q has degree 4.  The (h_4, h_6) and
# (h_6, h_6) rows are forced from Donaldson's table by associativity.
_QUADRICS = {
    "name": "quadric_intersection",
    "basis": [
        {"name": "1", "degree": 0},
        {"name": "h_2", "degree": 2},
        {"name": "h_4", "degree": 4},
        {"name": "h_6", "degree": 6},
    ],
    "q_degree": 4,
    "dimension_top": 6,
    "divisors": [{"name": "h_2", "pairing": 1, "primary": True}],
    "products": [
        {"left": "h_2", "right": "h_2", "q": 0, "terms": [{"basis": "h_4", "coeff": 4}]},
        {"left": "h_2", "right": "h_2", "q": 1, "terms": [{"basis": "1", "coeff": 4}]},
        {"left": "h_2", "right": "h_4", "q": 0, "terms": [{"basis": "h_6", "coeff": 1}]},
        {"left": "h_2", "right": "h_4", "q": 1, "terms": [{"basis": "h_2", "coeff": 2}]},
        {"left": "h_2", "right": "h_6", "q": 1, "terms": [{"basis": "h_4", "coeff": 4}]},
        {"left": "h_2", "right": "h_6", "q": 2, "terms": [{"basis": "1", "coeff": 4}]},
        {"left": "h_4", "right": "h_4", "q": 1, "terms": [{"basis": "h_4", "coeff": 2}]},
        {"left": "h_4", "right": "h_4", "q": 2, "terms": [{"basis": "1", "coeff": 3}]},
        {"left": "h_4", "right": "h_6", "q": 2, "terms": [{"basis": "h_2", "coeff": 3}]},
        {"left": "h_6", "right": "h_6", "q": 2, "terms": [{"basis": "h_4", "coeff": 4}]},
        {"left": "h_6", "right": "h_6", "q": 3, "terms": [{"basis": "1", "coeff": 4}]},
    ],
    "steenrod": {
        "2": {
            "h_2": [{"basis": "h_2", "t": 1, "theta": 0, "coeff": 1}],
            "h_4": [{"basis": "h_4", "t": 2, "theta": 0, "coeff": 1}],
            "h_6": [{"basis": "h_6", "t": 3, "theta": 0, "coeff": 1}],
        }
    },
    "default_leading_steenrod": True,
}

_BUILTINS = {"s2": _S2, "cubic_surface": _CUBIC, "quadric_intersection": _QUADRICS}


def _builtin_data(name):
    """The shared description of a built-in manifold; callers must not mutate it."""
    if name not in _BUILTINS:
        raise UnknownManifold(
            "unknown builtin %r (have: %s)" % (name, ", ".join(sorted(_BUILTINS)))
        )
    return _BUILTINS[name]


def builtin_manifold(name):
    """The raw (prime-free, integral) manifold description, as a copy the caller may change."""
    import copy

    return copy.deepcopy(_builtin_data(name))


def builtin_ring(name, p):
    from .manifold_io import ring_from_data

    return ring_from_data(_builtin_data(name), p)


# -- expected results ----------------------------------------------------------


class ExpectedResult(Record):
    # op: "qst" | "qsigma" | "qst_auto"; expected: a CohomologyElement or GradedEndomorphism
    _fields = ("manifold", "prime", "op", "input_class", "expected", "expected_taint", "source")


def expected_results(name, p):
    """Tabulated answers reproduced by the solver path (oracle suite)."""
    if name not in _BUILTINS:
        raise UnknownManifold("unknown builtin %r" % (name,))
    ring = builtin_ring(name, p)
    out = []

    def elem(items, trunc):
        return element(ring, trunc, items)

    if name == "s2" and p > 2:
        out.append(
            ExpectedResult(
                name, p, "qsigma", "h", s2_closed_form(p), (),
                "closed-form factorial sums for the sphere operator",
            )
        )
    if name == "s2" and p == 3:
        out.append(
            ExpectedResult(
                name, 3, "qst", "h",
                elem([("1", 1, 1, 1), ("h", 0, 2, -1), ("h", 1, 0, 1)], 2), (),
                "sphere operator column evaluated at p = 3",
            )
        )
    if name == "cubic_surface" and p == 2:
        out.append(
            ExpectedResult(
                name, 2, "qst", "h_2",
                elem([("h_4", 0, 0, 1), ("h_2", 1, 0, 1), ("h_2", 0, 1, 1)], 4), (),
                "degree-2 squares on the cubic surface: QSt(c) = c*c + tc",
            )
        )
        out.append(
            ExpectedResult(
                name, 2, "qst_auto", "h_4", elem([("h_4", 0, 2, 1)], 6), (),
                "point class on the cubic surface via the generator strategy",
            )
        )
    if name == "cubic_surface" and p == 3:
        out.append(
            ExpectedResult(
                name, 3, "qst", "h_2", elem([("h_2", 0, 2, -1)], 5), (),
                "anticanonical class mod 3: purely classical answer",
            )
        )
    if name == "quadric_intersection" and p == 2:
        out.append(
            ExpectedResult(
                name, 2, "qst", "h_2", elem([("h_2", 0, 1, 1)], 2), (),
                "divisor class mod 2 on the quadric intersection",
            )
        )
        out.append(
            ExpectedResult(
                name, 2, "qst", "h_4",
                elem([("h_4", 0, 2, 1), ("1", 2, 0, 1)], 3), (),
                "point-line class mod 2: classical part plus q^2",
            )
        )
        out.append(
            ExpectedResult(
                name, 2, "qst_auto", "h_6",
                elem([("h_6", 0, 3, 1), ("h_2", 2, 1, 1)], 4), (),
                "top class mod 2 via one generator step",
            )
        )
    if name == "quadric_intersection" and p == 3:
        entries = {
            (0, 0, 1): 1,
            (1, 0, 2): 1,
            (2, 0, 2): -1,
            (3, 0, 3): 1,
            (0, 1, 0): -1,
            (1, 1, 1): 1,
            (3, 1, 2): 1,
            (1, 2, 0): -1,
            (1, 2, 1): 1,
            (2, 2, 1): -1,
            (3, 2, 2): 1,
            (0, 3, 0): 1,
            (2, 3, 0): -1,
            (3, 3, 1): -1,
        }
        out.append(
            ExpectedResult(
                name, 3, "qsigma", "h_2",
                GradedEndomorphism(ring, 6, 3, entries), (),
                "full 4x4 divisor operator mod 3",
            )
        )
        out.append(
            ExpectedResult(
                name, 3, "qst", "h_2",
                elem([("1", 1, 1, 1), ("h_2", 0, 2, -1), ("h_6", 0, 0, 1)], 3), (),
                "unit column of the divisor operator mod 3",
            )
        )
        out.append(
            ExpectedResult(
                name, 3, "qst_auto", "h_4",
                elem(
                    [
                        ("h_2", 2, 1, 1), ("h_2", 1, 3, 1),
                        ("h_4", 2, 0, 1), ("h_4", 1, 2, 2), ("h_4", 0, 4, 1),
                    ],
                    4,
                ), (),
                "middle class mod 3 via the generator strategy",
            )
        )
        out.append(
            ExpectedResult(
                name, 3, "qst_auto", "h_6",
                elem(
                    [
                        ("1", 4, 1, 1), ("1", 3, 3, -1), ("1", 2, 5, -1),
                        ("h_2", 2, 4, 1),
                        ("h_4", 2, 3, 1), ("h_4", 1, 5, 1),
                        ("h_6", 3, 0, 1), ("h_6", 2, 2, -1), ("h_6", 1, 4, 1), ("h_6", 0, 6, -1),
                    ],
                    6,
                ), (),
                "top class mod 3 via two generator steps",
            )
        )
    return out
