"""Finite verification of the equivariant cellular algebra.

One table, _SPHERE, describes the rotated two-sphere: the fixed points P
and Q, the 1-cells L_j and the 2-cells B_j for j in Z/p, with

    d L_j = Q - P,    d B_j = L_j - L_(j+1),    sigma X_j = X_(j+1).

Three complexes are derived from it:

* the Z/p-cell structure on the infinite sphere, cells D_i and their
  rotations, with integer coefficients (_d_cell, sinf_boundary);
* the cell structure on (infinite sphere) x_{Z/p} S^2, cells D_i x X_j with
  F_p coefficients: d(D_i x X_j) = (d D_i) x X_j + (-1)^i D_i x d X_j, where
  the rotated cell tau^r D_i x X_j is D_i x X_(j+r) (product_boundary);
* the cochain complex of the sphere, sphere_cochain_complex, and its
  equivariant complex C[[t, theta]] with the twisted differential d_eq.
  EquivariantComplex builds C[[t, theta]] for any finite complex C with a
  Z/p action; the corrected theta-multiplication and its homotopies live
  there.

Chains are plain dicts cell -> coefficient.  Everything is finite: D-cells
are capped in dimension and t in exponent.  The operator identities on
C[[t, theta]] are checked on t-linear tables, one column per generator
x theta^eps; the rest cell by cell or by small linear algebra mod p.
"""

import math
from functools import lru_cache

from .errors import CapExceeded, Record
from .fp import require_prime, solve_mod_p


def _add(chain, cell, coeff, mod=None):
    c = chain.get(cell, 0) + coeff
    if mod:
        c %= mod
    if c:
        chain[cell] = c
    else:
        chain.pop(cell, None)


def _combine(*pairs, mod=None):
    out = {}
    for chain, scale in pairs:
        for cell, c in chain.items():
            _add(out, cell, c * scale, mod)
    return out


# -- the rotated two-sphere ----------------------------------------------------

# cell X -> (dim X, d X_0 as terms (Y, r, c) standing for c Y_r); d X_j is
# d X_0 rotated by j.  P and Q are fixed: P_j = P.
_SPHERE = {
    "P": (0, ()),
    "Q": (0, ()),
    "L": (1, (("Q", 0, 1), ("P", 0, -1))),
    "B": (2, (("L", 0, 1), ("L", 1, -1))),
}
_FIXED = ("P", "Q")


def _sphere_boundary(x):
    if x not in _SPHERE:
        raise ValueError("unknown sphere cell %r" % (x,))
    return _SPHERE[x][1]


def _rotated_cells(p):
    """(X, dim X, j) for every cell X_j, X-major."""
    return [
        (x, dim, j)
        for x, (dim, _) in _SPHERE.items()
        for j in ((0,) if x in _FIXED else range(p))
    ]


def _cell_name(x, j):
    """The basis name of X_j in sphere_cochain_complex."""
    if x in _FIXED:
        return x
    _sphere_boundary(x)
    return "%s%d" % (x, j)


# -- the infinite sphere, Z coefficients --------------------------------------


def _d_cell(i, r, p):
    """d(tau^r D_i) as (s, c) for c tau^s D_(i-1): the orbit sum for even
    i >= 2, the rotation minus the identity for odd i, nothing at i = 0."""
    if i == 0:
        return ()
    if i % 2 == 0:
        return [(s, 1) for s in range(p)]
    return (((r + 1) % p, 1), (r, -1))


def sinf_boundary(chain, p):
    """Signed cellular differential on cells ("D", i, rot)."""
    out = {}
    for (tag, i, r), c in chain.items():
        if tag != "D":
            raise ValueError("not an infinite-sphere cell: %r" % (tag,))
        for s, c2 in _d_cell(i, r, p):
            _add(out, ("D", i - 1, s), c * c2)
    return out


# -- the product with the sphere, F_p coefficients ----------------------------


def product_cell(i, x, j=0):
    if x in _FIXED:
        j = 0
    return (i, x, j)


def product_boundary(chain, p):
    """The equivariant differential on cells (i, X, j) of D_i x sigma^j X.

    d(D_i x X_j) = (d D_i) x X_j + (-1)^i D_i x d X_j; d D_i is _d_cell of
    D_i rotated by j, and a rotated tau^r D x X is D x X_r.
    """
    out = {}
    for (i, x, j), c in chain.items():
        bnd = _sphere_boundary(x)
        for r, c2 in _d_cell(i, j, p):
            _add(out, product_cell(i - 1, x, r), c * c2)
        sign = -c if i % 2 else c
        for y, r, c2 in bnd:
            _add(out, product_cell(i, y, (j + r) % p), sign * c2)
    return {cell: c % p for cell, c in out.items() if c % p}


def product_cells_of_degree(n, cap, p):
    cells = _rotated_cells(p)
    return [(i, x, j) for i in range(cap + 1) for x, dim, j in cells if i + dim == n]


# -- the equivariant cochain complex of the sphere ----------------------------
#
# Cells (X, j, k, eps) stand for sigma^j X t^k theta^eps; the grading is
# -dim(X) + 2k + eps.


@lru_cache(maxsize=8)
def _sphere_eq(p):
    """EquivariantComplex on sphere_cochain_complex(p) without a t-cap, and
    the map from its basis names back to (X, j)."""
    eq = EquivariantComplex(sphere_cochain_complex(p), p, math.inf)
    return eq, {_cell_name(x, j): (x, j) for x, _, j in _rotated_cells(p)}


def d_eq(chain, p):
    """The twisted differential of EquivariantComplex on cells (X, j, k, eps)."""
    eq, cells = _sphere_eq(p)
    image = eq.d_eq({(_cell_name(x, j), k, eps): c for (x, j, k, eps), c in chain.items()})
    return {cells[name] + (k, eps): c for (name, k, eps), c in image.items()}


def eq_cells_of_degree(n, tcap, p):
    return [
        (x, j, (n + dim - eps) // 2, eps)
        for x, dim, j in _rotated_cells(p)
        for eps in (0, 1)
        if (n + dim - eps) % 2 == 0 and 0 <= n + dim - eps <= 2 * tcap
    ]


# -- homology relations with explicit primitives ------------------------------


class RelationPrimitive(Record):
    _fields = ("which", "primitive", "boundary", "complex")  # complex: "product" or "eq"


def _binom_sigma_power(n, p):
    """(sigma - 1)^n expanded in the group algebra F_p[Z/p]."""
    coeffs = [0] * p
    binom = 1
    for m in range(n + 1):
        sign = 1 if (n - m) % 2 == 0 else -1
        coeffs[m % p] = (coeffs[m % p] + sign * binom) % p
        binom = binom * (n - m) // (m + 1)
    return coeffs


def relation_primitive(which, k, p, cap=9):
    """An explicit chain bounding the named localization relation.

    The returned primitive is assembled from the stated combinations and the
    boundary is recomputed here (never assumed); the caller receives both.
    For the two cohomology relations the orbit-sum side carries coefficient
    +1 in our orientation conventions, which for odd p is the negative of
    the naive transcription; the p = 2 statements agree either way.
    """
    require_prime(p)
    if which in ("even", "odd"):
        # the relation: D_i x (Q_0 - P_0) minus, for k >= 1, the orbit sum of D_(i-2) x B_0
        i = 2 * k + (which == "odd")
        if i > cap:
            raise CapExceeded("%s relation at k=%d needs cells above the cap" % (which, k))
        if which == "even":
            prim = {(i, "L", 0): 1}
            prim.update({(i - 1, "B", j): j for j in range(1, p) if k >= 1})
        else:
            prim = {(i, "L", 0): p - 1, (i - 1, "B", 0): p - 1}
        target = {(i, "Q", 0): 1, (i, "P", 0): p - 1}
        target.update({(i - 2, "B", s): p - 1 for s in range(p) if k >= 1})
        bnd, cpx = product_boundary(prim, p), "product"
    elif which in ("coh1", "coh2"):
        if k + 1 > cap:
            raise CapExceeded("cohomology relation at k=%d exceeds the t-cap" % k)
        eps = 0 if which == "coh1" else 1
        prim = {("L", 0, k, eps): p - 1}
        if which == "coh1":
            prim[("B", 0, k, 1)] = 1
        else:
            sigma_power = enumerate(_binom_sigma_power(p - 2, p))
            prim.update({("B", j, k + 1, 0): c for j, c in sigma_power if c})
        target = {("P", 0, k, eps): 1, ("Q", 0, k, eps): p - 1}
        target.update({("B", s, k + 1, eps): 1 for s in range(p)})
        bnd, cpx = d_eq(prim, p), "eq"
    else:
        raise ValueError("unknown relation %r" % (which,))
    if bnd != target:
        raise AssertionError(
            "primitive for %r k=%d fails to bound its relation" % (which, k)
        )
    return RelationPrimitive(which, prim, bnd, cpx)


def is_boundary(target, degree, p, cap=9, chain_complex="product"):
    """Decide by linear algebra whether target bounds, within the caps."""
    if chain_complex == "product":
        gens, bfun = product_cells_of_degree(degree + 1, cap, p), product_boundary
    else:
        gens, bfun = eq_cells_of_degree(degree - 1, cap, p), d_eq
    images = [bfun({g: 1}, p) for g in gens]
    cells = sorted(set(target).union(*images))
    index = {c: i for i, c in enumerate(cells)}
    rows = [[0] * len(gens) for _ in cells]
    for gi, image in enumerate(images):
        for cell, c in image.items():
            rows[index[cell]][gi] = c % p
    rhs = [target.get(c, 0) % p for c in cells]
    return solve_mod_p(rows, rhs, p) is not None


# -- generic equivariant complexes and the corrected theta --------------------


class FiniteComplex(Record):
    """A finite cochain complex with a Z/p action.

    basis: tuple of (name, degree); diff and sigma: name -> {name: coeff}.
    """

    _fields = ("basis", "diff", "sigma")


def trivial_complex():
    return FiniteComplex((("x", 0),), {}, {"x": {"x": 1}})


def free_module_complex(p):
    basis = tuple(("g%d" % i, 0) for i in range(p))
    sigma = {"g%d" % i: {"g%d" % ((i + 1) % p): 1} for i in range(p)}
    return FiniteComplex(basis, {}, sigma)


def sphere_cochain_complex(p):
    """C_{-*}(S^2) with the rotation action, as a cohomological complex.

    The cell X_j of _SPHERE is named X when fixed and "Xj" otherwise, and
    sits in degree -dim X.
    """
    basis, diff, sigma = [], {}, {}
    for x, dim, j in sorted(_rotated_cells(p), key=lambda cell: cell[2]):
        name = _cell_name(x, j)
        basis.append((name, -dim))
        if _SPHERE[x][1]:
            diff[name] = {_cell_name(y, (j + r) % p): c for y, r, c in _SPHERE[x][1]}
        sigma[name] = {_cell_name(x, (j + 1) % p): 1}
    return FiniteComplex(tuple(basis), diff, sigma)


class EquivariantComplex:
    """C[[t, theta]] with the twisted differential, for finite C.

    Each operator commutes with t, so it is stored as a table of the images
    of the generators x theta^eps: (name, eps) -> {(name2, dk, eps2): c} for
    x t^k theta^eps -> c name2 t^(k+dk) theta^eps2.  Terms beyond t^tcap are
    dropped.  With tcap = math.inf nothing is dropped, so sums and composites
    of operators are again such tables (_table_sum, _compose), and two of them
    agree on every x t^k theta^eps exactly when their tables are equal.
    """

    def __init__(self, cpx, p, tcap):
        self.cpx = cpx
        self.p = require_prime(p)
        self.tcap = tcap
        norm = self._orbit_sums([1] * p)
        self._weighted = self._orbit_sums(range(p))
        self._sigma, self._t, self._d, self._theta, self._h = {}, {}, {}, {}, {}
        for name, deg in cpx.basis:
            s = -1 if deg % 2 else 1
            x, sx, dx = {name: 1}, cpx.sigma.get(name, {}), cpx.diff.get(name, {})
            for eps in (0, 1):
                self._sigma[name, eps] = self._image((sx, 0, eps, 1))
                self._t[name, eps] = self._image((x, 1, eps, 1))
            # d x = dx + (-1)^|x| (sigma - 1) x theta, d(x theta) = dx theta + (-1)^|x| N x t
            self._d[name, 0] = self._image((dx, 0, 0, 1), (sx, 0, 1, s), (x, 0, 1, -s))
            self._d[name, 1] = self._image((dx, 0, 1, 1), (norm[name], 1, 0, s))
            self._theta[name, 0] = self._image((x, 0, 1, s))
            self._theta[name, 1] = self._image((self._weighted[name], 1, 0, s))
            self._h[name, 0] = {}
            self._h[name, 1] = self._image((x, 1, 0, s))

    def _orbit_sums(self, weights):
        """{name: sum_j weights[j] sigma^j name} for every basis name."""
        sigma, out = self.cpx.sigma, {}
        for name, _ in self.cpx.basis:
            vec, acc = {name: 1}, {}
            for w in weights:
                acc = _combine((acc, 1), (vec, w), mod=self.p)
                vec = _combine(*((sigma.get(n, {}), c) for n, c in vec.items()), mod=self.p)
            out[name] = acc
        return out

    def _image(self, *parts):
        """The sum of s * vec t^dk theta^eps over parts (vec, dk, eps, s)."""
        out = {}
        for vec, dk, eps, s in parts:
            for name, c in vec.items():
                _add(out, (name, dk, eps), s * c, self.p)
        return out

    def _apply(self, table, chain):
        out = {}
        tcap = self.tcap
        for (name, k, eps), c in chain.items():
            for (name2, dk, eps2), c2 in table[name, eps].items():
                if k + dk <= tcap:
                    cell = (name2, k + dk, eps2)
                    out[cell] = out.get(cell, 0) + c * c2
        p = self.p
        return {cell: c % p for cell, c in out.items() if c % p}

    def _compose(self, a, b):
        """The table of the operator a after the operator b."""
        return {key: self._apply(a, column) for key, column in b.items()}

    def _table_sum(self, *pairs):
        """The table of the sum of s * table over pairs (table, s)."""
        return {
            key: _combine(*((table[key], s) for table, s in pairs), mod=self.p) for key in pairs[0][0]
        }

    def sigma(self, chain):
        return self._apply(self._sigma, chain)

    def t(self, chain):
        return self._apply(self._t, chain)

    def d_eq(self, chain):
        return self._apply(self._d, chain)

    def theta_tilde(self, chain):
        """theta_tilde(x) = (-1)^|x| x theta, theta_tilde(x theta) = (-1)^|x| W x t
        with W = sigma + 2 sigma^2 + ... + (p-1) sigma^(p-1)."""
        return self._apply(self._theta, chain)

    def homotopy_h(self, chain):
        """h(x t^k) = 0,  h(x t^k theta) = (-1)^|x| x t^(k+1)."""
        return self._apply(self._h, chain)


def group_algebra_identities(p):
    """Check, in F_p[x]/(x^p - 1), the orbit-sum rewrite rules:

    1 + x + ... + x^(p-1) == (x-1)^(p-1) == x (x-1)^(p-1)
    x + 2x^2 + ... + (p-1)x^(p-1) == -x (x-1)^(p-2)
    """
    norm = [1 % p] * p
    weighted = [j % p for j in range(p)]
    top, below = _binom_sigma_power(p - 1, p), _binom_sigma_power(p - 2, p)
    return (
        top == norm
        and top[-1:] + top[:-1] == norm
        and weighted == [(-c) % p for c in below[-1:] + below[:-1]]
    )


def homotopy_check(p):
    """Operator identities on the fixture complexes.

    Verifies d_eq^2 = 0; the homotopy d h + h d = (sigma - 1) t; the exact
    operator identity theta_tilde^2 = (sigma + 2 sigma^2 + ...) t; and that
    theta_tilde^2 is chain homotopic to t (p = 2) or 0 (p odd) via the
    composite homotopy H = -sigma (sigma - 1)^(p-3) h (h for p = 2).  Both
    sides of each identity are t-linear, so they are compared as tables on
    the uncapped complex: equal tables agree on x t^k theta^eps for every k,
    and unequal ones differ already at t^0, which any t-cap >= 2 reaches.
    Returns a dict of booleans.
    """
    require_prime(p)
    report = {"group_algebra": group_algebra_identities(p)}
    fixtures = {
        "trivial": EquivariantComplex(trivial_complex(), p, math.inf),
        "free_module": EquivariantComplex(free_module_complex(p), p, math.inf),
        "sphere": _sphere_eq(p)[0],
    }
    for label, eq in fixtures.items():
        after, add, weighted = eq._compose, eq._table_sum, eq._weighted
        d, h, sigma, t, square = eq._d, eq._h, eq._sigma, eq._t, after(eq._theta, eq._theta)
        big_h = h
        for _ in range(p - 3):
            big_h = add((after(sigma, big_h), 1), (big_h, -1))
        if p > 2:
            big_h = add((after(sigma, big_h), -1))
        report[label] = {
            "d_eq_squared_zero": not any(after(d, d).values()),
            "sigma_t_homotopic_to_t": add((after(d, h), 1), (after(h, d), 1))
            == add((after(t, sigma), 1), (t, -1)),
            "theta_tilde_square_identity": square
            == {(n, eps): {(n2, 1, eps): c for n2, c in weighted[n].items()} for n, eps in square},
            "theta_tilde_square_homotopy": add((after(d, big_h), 1), (after(big_h, d), 1))
            == (add((square, 1), (t, -1)) if p == 2 else square),
        }
    report["ok"] = report["group_algebra"] and all(
        all(v.values()) for k, v in report.items() if isinstance(v, dict)
    )
    return report


def diagonal_coefficients(i, p):
    """Kunneth components of the diagonal image of D_i, all with coefficient 1."""
    if i % 2 or p == 2:
        return [(i1, i - i1) for i1 in range(i + 1)]
    return [(i1, i - i1) for i1 in range(0, i + 1, 2)]


def verify_cells(p, cap=9):
    """The full finite battery; returns a list of failure strings.

    cap (at least 2) bounds the D-cell dimension and the t-powers checked.
    """
    if cap < 2:
        raise ValueError("the cells cap must be at least 2, got cap=%d" % cap)
    failures = []
    for i in range(cap + 1):
        for r in range(p):
            if sinf_boundary(sinf_boundary({("D", i, r): 1}, p), p):
                failures.append("d^2 != 0 on D_%d (rot %d) over Z" % (i, r))
    for i in range(cap + 1):
        for x, _, j in _rotated_cells(p):
            if product_boundary(product_boundary({(i, x, j): 1}, p), p):
                failures.append("d^2 != 0 on product cell (%d,%s,%d)" % (i, x, j))
    eq, _ = _sphere_eq(p)
    d_squared = eq._compose(eq._d, eq._d)
    for x, _, j in _rotated_cells(p):
        for k in range(cap - 1):
            for eps in (0, 1):
                if d_squared[_cell_name(x, j), eps]:
                    failures.append("d_eq^2 != 0 on (%s,%d,t^%d,%d)" % (x, j, k, eps))
    for which in ("even", "odd", "coh1", "coh2"):
        for k in range(4):
            try:
                relation_primitive(which, k, p, cap)
            except AssertionError as exc:
                failures.append(str(exc))
            except CapExceeded:
                pass
    rep = homotopy_check(p)
    if not rep["ok"]:
        failures.append("homotopy_check failed: %r" % (rep,))
    return failures
