"""Finite verification of the equivariant cellular algebra.

One complex, _SPHERE, describes the rotated two-sphere by its sigma-orbits:
the fixed points P and Q and the free orbits of the 1-cells L_j and the
2-cells B_j, j in Z/p, with

    d L_j = Q - P,    d B_j = L_j - L_(j+1),    sigma X_j = X_(j+1).

Three complexes are derived from it:

* the Z/p-cell structure on the infinite sphere, cells D_i and their
  rotations, with integer coefficients (_d_cell, sinf_boundary);
* the cell structure on (infinite sphere) x_{Z/p} S^2, cells D_i x X_j with
  F_p coefficients: d(D_i x X_j) = (d D_i) x X_j + (-1)^i D_i x d X_j, where
  the rotated cell tau^r D_i x X_j is D_i x X_(j+r) (product_boundary, read
  from the chain table of the equivariant complex below);
* the sphere's cochain complex and its equivariant complex C[[t, theta]]
  with the twisted differential d_eq.  EquivariantComplex builds the whole
  of C[[t, theta]], with no t-cap, for any finite complex C given by its
  orbits; the corrected theta-multiplication and its homotopies live there.

Chains are plain dicts cell -> coefficient.  An operator on C[[t, theta]]
commutes with sigma and t, so it is a table with one column per orbit
generator, each entry in the group algebra F_p[Z/p] of one orbit (the
periodic resolution of a cyclic group).  Tables compose by packed products
and are compared whole; the rest is checked cell by cell or by small linear
algebra mod p.  D-cells are capped in dimension, the relations in t-exponent.
"""

from functools import lru_cache

from .errors import CapExceeded, Record
from .fp import require_prime, solve_mod_p
from .series import _pack, _slot_bytes, _unpack


def _add(chain, cell, coeff):
    c = chain.get(cell, 0) + coeff
    if c:
        chain[cell] = c
    else:
        chain.pop(cell, None)


class FiniteComplex(Record):
    """A finite cochain complex with a Z/p action, given by its sigma-orbits.

    orbits: tuple of (X, degree, free), free for the cells X_j, j in Z/p, with
    sigma X_j = X_(j+1), else one fixed cell X; diff: X -> d X_0 as terms
    (Y, r, c) standing for c Y_r (Y itself when Y is fixed); d X_j is d X_0
    rotated by j.
    """

    _fields = ("orbits", "diff")


# -- the rotated two-sphere ----------------------------------------------------

# C_{-*}(S^2) as a cohomological complex, the cell X in degree -dim X.
_SPHERE = FiniteComplex(
    (("P", 0, False), ("Q", 0, False), ("L", -1, True), ("B", -2, True)),
    {"L": (("Q", 0, 1), ("P", 0, -1)), "B": (("L", 0, 1), ("L", 1, -1))},
)


def _rotated_cells(p):
    """(X, dim X, j) for every cell X_j, X-major."""
    return [(x, -deg, j) for x, deg, free in _SPHERE.orbits for j in (range(p) if free else (0,))]


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
    """Signed cellular differential on cells ("D", i, rot), i >= 0 and rot in 0..p-1."""
    out = {}
    for cell, c in chain.items():
        tag, i, r = cell
        if tag != "D":
            raise ValueError("not an infinite-sphere cell: %r" % (tag,))
        if not 0 <= r < p:
            raise ValueError("rotation %r outside 0..%d in the cell %r" % (r, p - 1, cell))
        if i < 0:
            raise ValueError("negative D-index in the cell %r" % (cell,))
        for s, c2 in _d_cell(i, r, p):
            _add(out, ("D", i - 1, s), c * c2)
    return out


# -- the product with the sphere, F_p coefficients ----------------------------


def _checked(eq, chain, product=False):
    """chain on cells (X, j, k, eps) of the sphere's C[[t, theta]], each checked, j = 0 on a
    fixed cell; when product, chain is on cells (i, X, j), with (k, eps) = divmod(i, 2)."""
    out = {}
    for cell, c in chain.items():
        x, j, k, eps = (cell[1], cell[2]) + divmod(cell[0], 2) if product else cell
        if x not in eq._size:
            raise ValueError("unknown sphere cell %r" % (x,))
        if eq._size[x] > 1 and not 0 <= j < eq.p:
            raise ValueError("rotation %r outside 0..%d in the cell %r" % (j, eq.p - 1, cell))
        if k < 0:
            raise ValueError("negative %s in the cell %r" % ("D-index" if product else "t-power", cell))
        if eps not in (0, 1):
            raise ValueError("theta-exponent %r other than 0 and 1 in the cell %r" % (eps, cell))
        _add(out, (x, j % eq._size[x], k, eps), c)
    return out


def product_boundary(chain, p):
    """The equivariant differential on cells (i, X, j) of D_i x sigma^j X.

    d(D_i x X_j) = (d D_i) x X_j + (-1)^i D_i x d X_j, read from the chain
    table of the sphere's EquivariantComplex, where D_(2k+eps) x X_j is
    X_j t^k theta^eps; terms below D_0 are dropped.
    """
    eq = _sphere_eq(p)
    image = eq._apply(eq._chain, _checked(eq, chain, product=True))
    return {(2 * k + eps, x, j): c for (x, j, k, eps), c in image.items() if k >= 0}


def product_cells_of_degree(n, cap, p):
    cells = _rotated_cells(p)
    return [(i, x, j) for i in range(cap + 1) for x, dim, j in cells if i + dim == n]


# -- the equivariant cochain complex of the sphere ----------------------------
#
# Cells (X, j, k, eps) stand for X_j t^k theta^eps, j = 0 on a fixed cell; the
# grading is -dim(X) + 2k + eps.


@lru_cache(maxsize=8)
def _sphere_eq(p):
    """EquivariantComplex on sphere_cochain_complex()."""
    return EquivariantComplex(_SPHERE, p)


def d_eq(chain, p):
    """The twisted differential of EquivariantComplex on cells (X, j, k, eps)."""
    eq = _sphere_eq(p)
    return eq.d_eq(_checked(eq, chain))


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
    if k < 0:
        raise ValueError("the %r relation needs k >= 0, got k=%d" % (which, k))
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
    """Decide by linear algebra whether target bounds, within the caps, in the "product" or
    the "eq" complex."""
    if chain_complex == "product":
        gens, bfun = product_cells_of_degree(degree + 1, cap, p), product_boundary
    elif chain_complex == "eq":
        gens, bfun = eq_cells_of_degree(degree - 1, cap, p), d_eq
    else:
        raise ValueError("chain_complex must be 'product' or 'eq', got %r" % (chain_complex,))
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


def trivial_complex():
    return FiniteComplex((("x", 0, False),), {})


def free_module_complex():
    return FiniteComplex((("g", 0, True),), {})


def sphere_cochain_complex():
    """C_{-*}(S^2) with the rotation action, as a cohomological complex: the orbits
    of _SPHERE, the cell X in degree -dim X."""
    return _SPHERE


class EquivariantComplex:
    """C[[t, theta]] with the twisted differential, for finite C given by its orbits.

    Each operator commutes with sigma and t, so it is stored as a table of the
    images of the orbit generators X_0 theta^eps: (X, eps) -> {(Y, dk, eps2): g}
    for X_0 t^k theta^eps -> g Y_0 t^(k+dk) theta^eps2, where the tuple g stands
    for sum_m g[m] sigma^m in the group algebra of Y's orbit, of length p on a
    free orbit and 1 on a fixed cell.  X_j's image is X_0's rotated by j, and a
    fixed cell's image is sigma-invariant.  No t-order is dropped, so sums and
    composites of operators are again such tables (_table_sum, _compose), and
    two of them agree on every X_j t^k theta^eps exactly when their tables are
    equal.

    _chain is the Borel chain complex on the same generators, D_(2k+eps) x x
    standing for x t^k theta^eps: D_2k x x -> D_(2k-1) x Nx + D_2k x dx and
    D_(2k+1) x x -> D_2k x (sigma - 1)x - D_(2k+1) x dx, so dk = -1 reaches
    below D_0 at k = 0, where its readers drop it.
    """

    def __init__(self, cpx, p):
        self.cpx = cpx
        self.p = require_prime(p)
        self._size = {name: p if free else 1 for name, _, free in cpx.orbits}
        one = [1] + [0] * (p - 1)
        sigma, norm, weighted = one[-1:] + one[:-1], [1] * p, range(p)
        self._sigma, self._t = self._times(sigma), self._times(one, 1)
        self._d, self._theta, self._h, self._chain = {}, {}, {}, {}
        for name, deg, _ in cpx.orbits:
            s = -1 if deg % 2 else 1
            x, sx, nx, wx = ({name: g} for g in (one, sigma, norm, weighted))
            dx = {}
            for y, r, c in cpx.diff.get(name, ()):
                dx.setdefault(y, [0] * p)[r % p] += c
            # d x = dx + (-1)^|x| (sigma - 1) x theta, d(x theta) = dx theta + (-1)^|x| N x t
            self._d[name, 0] = self._image((dx, 0, 0, 1), (sx, 0, 1, s), (x, 0, 1, -s))
            self._d[name, 1] = self._image((dx, 0, 1, 1), (nx, 1, 0, s))
            self._theta[name, 0] = self._image((x, 0, 1, s))
            self._theta[name, 1] = self._image((wx, 1, 0, s))
            self._h[name, 0] = {}
            self._h[name, 1] = self._image((x, 1, 0, s))
            self._chain[name, 0] = self._image((nx, -1, 1, 1), (dx, 0, 0, 1))
            self._chain[name, 1] = self._image((sx, 0, 0, 1), (x, 0, 0, -1), (dx, 0, 1, -1))

    def _image(self, *parts):
        """The column of the sum of s * vec t^dk theta^eps over parts (vec, dk, eps, s),
        vec {Y: coefficients of sigma^0, sigma^1, ... on Y_0, fewer than 2p}: each sum
        folded onto Y's orbit mod p, zeros dropped."""
        p, acc, column = self.p, {}, {}
        for vec, dk, eps, s in parts:
            for name, coeffs in vec.items():
                row = acc.setdefault((name, dk, eps), [0] * (2 * p - 1))
                for m, c in enumerate(coeffs):
                    row[m] += s * c
        for key, row in acc.items():
            n = self._size[key[0]]
            g = tuple(sum(row[m::n]) % p for m in range(n))
            if any(g):
                column[key] = g
        return column

    def _times(self, coeffs, dk=0):
        """The table of multiplication by sum_m coeffs[m] sigma^m and by t^dk."""
        return {(name, eps): self._image(({name: coeffs}, dk, eps, 1))
                for name in self._size for eps in (0, 1)}

    def _apply(self, table, chain):
        """The image of a chain on cells (X, j, k, eps): each entry of X's column rotated by j."""
        out = {}
        for (name, j, k, eps), c in chain.items():
            for (name2, dk, eps2), g in table[name, eps].items():
                n = len(g)
                for m, c2 in enumerate(g):
                    cell = (name2, (j + m) % n, k + dk, eps2)
                    out[cell] = out.get(cell, 0) + c * c2
        p = self.p
        return {cell: c % p for cell, c in out.items() if c % p}

    def _compose(self, a, b):
        """The table of the operator a after the operator b.

        Each entry g of a column of b meets each entry f of a's column at g's cell in one
        packed product g * f of group-algebra elements, folded onto the target orbit.
        """
        p, out = self.p, {}
        for key, column in b.items():
            pairs = [((name2, dk + dk2, eps2), g, f)
                     for (name, dk, eps), g in column.items()
                     for (name2, dk2, eps2), f in a[name, eps].items()]
            # A slot sums, over the pairs, at most p products below p^2.
            w = _slot_bytes((len(pairs) * p * (p - 1) ** 2).bit_length())
            acc = {}
            for cell, g, f in pairs:
                acc[cell] = acc.get(cell, 0) + _pack(g, w) * _pack(f, w)
            out[key] = self._image(*(({name: _unpack(z, w, 2 * p - 1)}, dk, eps, 1)
                                     for (name, dk, eps), z in acc.items()))
        return out

    def _table_sum(self, *pairs):
        """The table of the sum of s * table over pairs (table, s)."""
        return {key: self._image(*(({name: g}, dk, eps, s) for table, s in pairs
                                   for (name, dk, eps), g in table[key].items()))
                for key in pairs[0][0]}

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
    sides of each identity are t-linear, so they are compared as tables:
    equal tables agree on x t^k theta^eps for every k, and unequal ones
    differ already at t^0, which any t-cap >= 2 reaches.
    Returns a dict of booleans.
    """
    require_prime(p)
    report = {"group_algebra": group_algebra_identities(p)}
    fixtures = {
        "trivial": EquivariantComplex(trivial_complex(), p),
        "free_module": EquivariantComplex(free_module_complex(), p),
        "sphere": _sphere_eq(p),
    }
    below = _binom_sigma_power(p - 3, p)  # zero at p = 2, where H is h
    u = [-c for c in below[-1:] + below[:-1]]  # H = u h, u = -sigma (sigma - 1)^(p-3)
    for label, eq in fixtures.items():
        after, add = eq._compose, eq._table_sum
        d, h, sigma, t, square = eq._d, eq._h, eq._sigma, eq._t, after(eq._theta, eq._theta)
        big_h = h if p == 2 else after(eq._times(u), h)
        report[label] = {
            "d_eq_squared_zero": not any(after(d, d).values()),
            "sigma_t_homotopic_to_t": add((after(d, h), 1), (after(h, d), 1))
            == add((after(t, sigma), 1), (t, -1)),
            "theta_tilde_square_identity": square == eq._times(range(p), 1),
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
    eq = _sphere_eq(p)
    # d^2 on D_i x X_j is the part of X's composed column at D_0 and above, rotated by j
    chain_squared = eq._compose(eq._chain, eq._chain)
    for i in range(cap + 1):
        k, eps = divmod(i, 2)
        for x, _, j in _rotated_cells(p):
            if any(k + dk >= 0 for _, dk, _ in chain_squared[x, eps]):
                failures.append("d^2 != 0 on product cell (%d,%s,%d)" % (i, x, j))
    d_squared = eq._compose(eq._d, eq._d)
    for x, _, j in _rotated_cells(p):
        for k in range(cap - 1):
            for eps in (0, 1):
                if d_squared[x, eps]:
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
