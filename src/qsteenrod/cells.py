"""Finite verification of the equivariant cellular algebra.

Three complexes appear:

* the Z/p-cell structure on the infinite sphere, cells D_i and their
  rotations, with integer coefficients (the signed differential);
* the cell structure on (infinite sphere) x_{Z/p} S^2, cells D_i x X with
  X in {P, Q, L, B} carrying a rotation, with F_p coefficients;
* the cochain-level equivariant complex of S^2 with formal variables t and
  theta, and more generally C[[t, theta]] for any finite complex C with a
  Z/p action, where the corrected theta-multiplication and its homotopies
  live.

Chains are plain dicts cell -> coefficient.  Everything is finite: D-cells
are capped in dimension, t in exponent, and all identities are checked by
exhaustive evaluation or small linear algebra mod p.
"""

from dataclasses import dataclass

from .errors import CapExceeded
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


# -- the infinite sphere, Z coefficients --------------------------------------


def sinf_boundary(chain, p):
    """Signed cellular differential on cells ("D", i, rot)."""
    out = {}
    for (tag, i, r), c in chain.items():
        if tag != "D":
            raise ValueError("not an infinite-sphere cell: %r" % (tag,))
        if i == 0:
            continue
        if i % 2 == 0:
            for s in range(p):
                _add(out, ("D", i - 1, s), c)
        else:
            _add(out, ("D", i - 1, (r + 1) % p), c)
            _add(out, ("D", i - 1, r), -c)
    return {cell: c for cell, c in out.items() if c}


# -- the product with the sphere, F_p coefficients ----------------------------

_SPHERE_DIM = {"P": 0, "Q": 0, "L": 1, "B": 2}


def product_cell(i, x, j=0):
    if x in ("P", "Q"):
        j = 0
    return (i, x, j)


def product_boundary(chain, p):
    """The equivariant differential on cells (i, X, j) of D_i x sigma^j X."""
    out = {}
    for (i, x, j), c in chain.items():
        even = i % 2 == 0
        if x in ("P", "Q"):
            continue
        if x == "L":
            if even:
                _add(out, (i, "Q", 0), c, p)
                _add(out, (i, "P", 0), -c, p)
                if i >= 1:
                    for s in range(p):
                        _add(out, (i - 1, "L", s), c, p)
            else:
                _add(out, (i, "Q", 0), -c, p)
                _add(out, (i, "P", 0), c, p)
                _add(out, (i - 1, "L", (j + 1) % p), c, p)
                _add(out, (i - 1, "L", j), -c, p)
        elif x == "B":
            if even:
                _add(out, (i, "L", (j + 1) % p), -c, p)
                _add(out, (i, "L", j), c, p)
                if i >= 1:
                    for s in range(p):
                        _add(out, (i - 1, "B", s), c, p)
            else:
                _add(out, (i, "L", (j + 1) % p), c, p)
                _add(out, (i, "L", j), -c, p)
                _add(out, (i - 1, "B", (j + 1) % p), c, p)
                _add(out, (i - 1, "B", j), -c, p)
        else:
            raise ValueError("unknown sphere cell %r" % (x,))
    return {cell: c % p for cell, c in out.items() if c % p}


def product_cells_of_degree(n, cap, p):
    cells = []
    for i in range(cap + 1):
        for x, dim in _SPHERE_DIM.items():
            if i + dim != n:
                continue
            rots = (0,) if x in ("P", "Q") else tuple(range(p))
            for j in rots:
                cells.append((i, x, j))
    return cells


# -- the equivariant cochain complex of the sphere ----------------------------
#
# Generators (X, j, k, eps) stand for sigma^j X t^k theta^eps; the grading is
# -dim(X) + 2k + eps.


def eq_degree(cell):
    x, _, k, eps = cell
    return -_SPHERE_DIM[x] + 2 * k + eps


def d_eq(chain, p):
    out = {}
    for (x, j, k, eps), c in chain.items():
        if x in ("P", "Q"):
            continue
        if x == "L":
            if eps == 0:
                _add(out, ("Q", 0, k, 0), c, p)
                _add(out, ("P", 0, k, 0), -c, p)
                _add(out, ("L", (j + 1) % p, k, 1), -c, p)
                _add(out, ("L", j, k, 1), c, p)
            else:
                _add(out, ("Q", 0, k, 1), c, p)
                _add(out, ("P", 0, k, 1), -c, p)
                for s in range(p):
                    _add(out, ("L", s, k + 1, 0), -c, p)
        elif x == "B":
            if eps == 0:
                _add(out, ("L", (j + 1) % p, k, 0), -c, p)
                _add(out, ("L", j, k, 0), c, p)
                _add(out, ("B", (j + 1) % p, k, 1), c, p)
                _add(out, ("B", j, k, 1), -c, p)
            else:
                _add(out, ("L", (j + 1) % p, k, 1), -c, p)
                _add(out, ("L", j, k, 1), c, p)
                for s in range(p):
                    _add(out, ("B", s, k + 1, 0), c, p)
        else:
            raise ValueError("unknown sphere cell %r" % (x,))
    return {cell: c % p for cell, c in out.items() if c % p}


def eq_cells_of_degree(n, tcap, p):
    cells = []
    for x, dim in _SPHERE_DIM.items():
        for eps in (0, 1):
            k2 = n + dim - eps
            if k2 < 0 or k2 % 2:
                continue
            k = k2 // 2
            if k > tcap:
                continue
            rots = (0,) if x in ("P", "Q") else tuple(range(p))
            for j in rots:
                cells.append((x, j, k, eps))
    return cells


# -- homology relations with explicit primitives ------------------------------


@dataclass(frozen=True)
class RelationPrimitive:
    which: str
    primitive: dict
    boundary: dict
    complex: str  # "product" or "eq"


def _sigma_poly_coeffs(poly, p):
    """Coefficients of a polynomial in sigma as a length-p list (mod p)."""
    out = [0] * p
    for e, c in poly:
        out[e % p] = (out[e % p] + c) % p
    return out


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
    if which == "even":
        if 2 * k > cap:
            raise CapExceeded("even relation at k=%d needs cells above the cap" % k)
        prim = {}
        _add(prim, (2 * k, "L", 0), 1, p)
        if k >= 1:
            for j in range(1, p):
                _add(prim, (2 * k - 1, "B", j), j, p)
        target = {}
        _add(target, (2 * k, "Q", 0), 1, p)
        _add(target, (2 * k, "P", 0), -1, p)
        if k >= 1:
            for s in range(p):
                _add(target, (2 * k - 2, "B", s), -1, p)
        bnd = product_boundary(prim, p)
        cpx = "product"
    elif which == "odd":
        if 2 * k + 1 > cap:
            raise CapExceeded("odd relation at k=%d needs cells above the cap" % k)
        prim = {}
        _add(prim, (2 * k + 1, "L", 0), -1, p)
        _add(prim, (2 * k, "B", 0), -1, p)
        target = {}
        _add(target, (2 * k + 1, "Q", 0), 1, p)
        _add(target, (2 * k + 1, "P", 0), -1, p)
        if k >= 1:
            for s in range(p):
                _add(target, (2 * k - 1, "B", s), -1, p)
        bnd = product_boundary(prim, p)
        cpx = "product"
    elif which in ("coh1", "coh2"):
        if k + 1 > cap:
            raise CapExceeded("cohomology relation at k=%d exceeds the t-cap" % k)
        eps = 0 if which == "coh1" else 1
        prim = {}
        _add(prim, ("L", 0, k, eps), -1, p)
        if which == "coh1":
            _add(prim, ("B", 0, k, 1), 1, p)
        else:
            for j, c in enumerate(_binom_sigma_power(p - 2, p)):
                _add(prim, ("B", j, k + 1, 0), c, p)
        target = {}
        _add(target, ("P", 0, k, eps), 1, p)
        _add(target, ("Q", 0, k, eps), -1, p)
        for s in range(p):
            _add(target, ("B", s, k + 1, eps), 1, p)
        bnd = d_eq(prim, p)
        cpx = "eq"
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
        gens = product_cells_of_degree(degree + 1, cap, p)
        bfun = lambda ch: product_boundary(ch, p)
        cells = set(target)
        for g in gens:
            cells |= set(bfun({g: 1}))
    else:
        gens = eq_cells_of_degree(degree - 1, cap, p)
        bfun = lambda ch: d_eq(ch, p)
        cells = set(target)
        for g in gens:
            cells |= set(bfun({g: 1}))
    cells = sorted(cells)
    index = {c: i for i, c in enumerate(cells)}
    rows = [[0] * len(gens) for _ in cells]
    for gi, g in enumerate(gens):
        for cell, c in bfun({g: 1}).items():
            rows[index[cell]][gi] = c % p
    rhs = [target.get(c, 0) % p for c in cells]
    return solve_mod_p(rows, rhs, p) is not None


# -- generic equivariant complexes and the corrected theta --------------------


@dataclass(frozen=True)
class FiniteComplex:
    """A finite cochain complex with a Z/p action.

    basis: tuple of (name, degree); diff and sigma: name -> {name: coeff}.
    """

    basis: tuple
    diff: dict
    sigma: dict

    def degree(self, name):
        return dict(self.basis)[name]


def trivial_complex():
    return FiniteComplex((("x", 0),), {}, {"x": {"x": 1}})


def free_module_complex(p):
    basis = tuple(("g%d" % i, 0) for i in range(p))
    sigma = {"g%d" % i: {"g%d" % ((i + 1) % p): 1} for i in range(p)}
    return FiniteComplex(basis, {}, sigma)


def sphere_cochain_complex(p):
    """C_{-*}(S^2) with the rotation action, as a cohomological complex."""
    basis = [("P", 0), ("Q", 0)]
    for j in range(p):
        basis.append(("L%d" % j, -1))
        basis.append(("B%d" % j, -2))
    diff = {}
    sigma = {"P": {"P": 1}, "Q": {"Q": 1}}
    for j in range(p):
        diff["L%d" % j] = {"Q": 1, "P": -1}
        diff["B%d" % j] = {"L%d" % j: 1, "L%d" % ((j + 1) % p): -1}
        sigma["L%d" % j] = {"L%d" % ((j + 1) % p): 1}
        sigma["B%d" % j] = {"B%d" % ((j + 1) % p): 1}
    return FiniteComplex(tuple(basis), diff, sigma)


class EquivariantComplex:
    """C[[t, theta]] with the twisted differential, for finite C."""

    def __init__(self, cpx, p, tcap):
        self.cpx = cpx
        self.p = require_prime(p)
        self.tcap = tcap

    def generators(self, max_k=None):
        kmax = self.tcap if max_k is None else max_k
        return [
            (name, k, eps)
            for name, _ in self.cpx.basis
            for k in range(kmax + 1)
            for eps in (0, 1)
        ]

    def _apply_map(self, table, name):
        return dict(table.get(name, {}))

    def _lift(self, table, chain, k_shift=0, eps=None, sign_by_degree=False):
        out = {}
        for (name, k, eps0), c in chain.items():
            img = self._apply_map(table, name)
            s = c
            if sign_by_degree and self.cpx.degree(name) % 2:
                s = -s
            e = eps0 if eps is None else eps
            for name2, c2 in img.items():
                if k + k_shift <= self.tcap:
                    _add(out, (name2, k + k_shift, e), s * c2, self.p)
        return out

    def sigma(self, chain):
        return self._lift(self.cpx.sigma, chain)

    def t(self, chain):
        out = {}
        for (name, k, eps), c in chain.items():
            if k + 1 <= self.tcap:
                _add(out, (name, k + 1, eps), c, self.p)
        return out

    def d_eq(self, chain):
        p = self.p
        out = {}
        for (name, k, eps), c in chain.items():
            sgn = -1 if self.cpx.degree(name) % 2 else 1
            for name2, c2 in self._apply_map(self.cpx.diff, name).items():
                _add(out, (name2, k, eps), c * c2, p)
            if eps == 0:
                for name2, c2 in self._apply_map(self.cpx.sigma, name).items():
                    _add(out, (name2, k, 1), sgn * c * c2, p)
                _add(out, (name, k, 1), -sgn * c, p)
            else:
                orbit = {name: 1}
                acc = dict(orbit)
                for _ in range(p - 1):
                    orbit = self._compose_once(orbit)
                    for n2, c2 in orbit.items():
                        _add(acc, n2, c2, p)
                for name2, c2 in acc.items():
                    if k + 1 <= self.tcap:
                        _add(out, (name2, k + 1, 0), sgn * c * c2, p)
        return out

    def _compose_once(self, vec):
        out = {}
        for name, c in vec.items():
            for n2, c2 in self._apply_map(self.cpx.sigma, name).items():
                _add(out, n2, c * c2, self.p)
        return out

    def theta_tilde(self, chain):
        p = self.p
        out = {}
        for (name, k, eps), c in chain.items():
            sgn = -1 if self.cpx.degree(name) % 2 else 1
            if eps == 0:
                _add(out, (name, k, 1), sgn * c, p)
            else:
                vec = {name: 1}
                weighted = {}
                for j in range(1, p):
                    vec = self._compose_once(vec)
                    for n2, c2 in vec.items():
                        _add(weighted, n2, j * c2, p)
                for name2, c2 in weighted.items():
                    if k + 1 <= self.tcap:
                        _add(out, (name2, k + 1, 0), sgn * c * c2, p)
        return out

    def homotopy_h(self, chain):
        """h(x t^k) = 0,  h(x t^k theta) = (-1)^|x| x t^(k+1)."""
        out = {}
        for (name, k, eps), c in chain.items():
            if eps == 1 and k + 1 <= self.tcap:
                sgn = -1 if self.cpx.degree(name) % 2 else 1
                _add(out, (name, k + 1, 0), sgn * c, self.p)
        return out


def group_algebra_identities(p):
    """Check, in F_p[x]/(x^p - 1), the orbit-sum rewrite rules:

    1 + x + ... + x^(p-1) == (x-1)^(p-1) == x (x-1)^(p-1)
    x + 2x^2 + ... + (p-1)x^(p-1) == -x (x-1)^(p-2)
    """

    def mulmod(a, b):
        out = [0] * p
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[(i + j) % p] = (out[(i + j) % p] + ca * cb) % p
        return out

    def xminus1_power(n):
        acc = [0] * p
        acc[0] = 1
        base = [0] * p
        base[0], base[1 % p] = (-1) % p, (base[1 % p] + 1) % p
        for _ in range(n):
            acc = mulmod(acc, base)
        return acc

    norm = [1 % p] * p
    shift = [0] * p
    shift[1 % p] = 1
    ok = xminus1_power(p - 1) == norm
    ok = ok and mulmod(shift, xminus1_power(p - 1)) == norm
    weighted = [0] * p
    for j in range(1, p):
        weighted[j % p] = (weighted[j % p] + j) % p
    neg_x_pow = [(-c) % p for c in mulmod(shift, xminus1_power(p - 2))]
    ok = ok and weighted == neg_x_pow
    return ok


def homotopy_check(p, cap=9):
    """Exhaustive operator checks on the fixture complexes.

    Verifies d_eq^2 = 0; the homotopy d h + h d = (sigma - 1) t; the exact
    operator identity theta_tilde^2 = (sigma + 2 sigma^2 + ...) t; and that
    theta_tilde^2 is chain homotopic to t (p = 2) or 0 (p odd) via the
    exhibited composite homotopy.  Returns a dict of booleans.
    """
    require_prime(p)
    report = {"group_algebra": group_algebra_identities(p)}
    fixtures = {
        "trivial": trivial_complex(),
        "free_module": free_module_complex(p),
        "sphere": sphere_cochain_complex(p),
    }
    for label, cpx in fixtures.items():
        eq = EquivariantComplex(cpx, p, cap)
        ok_d2 = ok_homotopy = ok_square = ok_square_homotopy = True
        for gen in eq.generators(max_k=cap - 2):
            x = {gen: 1}
            if eq.d_eq(eq.d_eq(x)):
                ok_d2 = False
            lhs = _combine((eq.d_eq(eq.homotopy_h(x)), 1), (eq.homotopy_h(eq.d_eq(x)), 1), mod=p)
            rhs = _combine((eq.t(eq.sigma(x)), 1), (eq.t(x), -1), mod=p)
            if lhs != rhs:
                ok_homotopy = False
            # theta_tilde^2 as the weighted orbit sum times t, exactly
            sq = eq.theta_tilde(eq.theta_tilde(x))
            weighted = {}
            vec = dict(x)
            for j in range(1, p):
                vec = eq.sigma(vec)
                for cell, c in vec.items():
                    _add(weighted, cell, j * c, p)
            if sq != eq.t(weighted):
                ok_square = False
            # composite homotopy H with d H + H d = theta_tilde^2 - [p=2] t
            if p == 2:
                target = _combine((sq, 1), (eq.t(x), -1), mod=p)
            else:
                target = sq
            lhs2 = _combine(
                (eq.d_eq(_H_apply(eq, x, p)), 1), (_H_apply(eq, eq.d_eq(x), p), 1), mod=p
            )
            if lhs2 != target:
                ok_square_homotopy = False
        report[label] = {
            "d_eq_squared_zero": ok_d2,
            "sigma_t_homotopic_to_t": ok_homotopy,
            "theta_tilde_square_identity": ok_square,
            "theta_tilde_square_homotopy": ok_square_homotopy,
        }
    report["ok"] = report["group_algebra"] and all(
        all(v.values()) for k, v in report.items() if isinstance(v, dict)
    )
    return report


def _H_apply(eq, chain, p):
    """The composite homotopy -sigma (sigma-1)^(p-3) h (h itself for p=2)."""
    out = eq.homotopy_h(chain)
    if p == 2:
        return out
    for _ in range(p - 3):
        out = _combine((eq.sigma(out), 1), (out, -1), mod=p)
    return {cell: (-c) % p for cell, c in eq.sigma(out).items()}


def diagonal_coefficients(i, p):
    """Kunneth components of the diagonal image of D_i, all with coefficient 1."""
    if i % 2 or p == 2:
        return [(i1, i - i1) for i1 in range(i + 1)]
    return [(i1, i - i1) for i1 in range(0, i + 1, 2)]


def verify_cells(p, cap=9):
    """The full finite battery; returns a list of failure strings."""
    failures = []
    for i in range(cap + 1):
        for r in range(p):
            if sinf_boundary(sinf_boundary({("D", i, r): 1}, p), p):
                failures.append("d^2 != 0 on D_%d (rot %d) over Z" % (i, r))
    for i in range(cap + 1):
        for x in ("P", "Q", "L", "B"):
            rots = (0,) if x in ("P", "Q") else range(p)
            for j in rots:
                if product_boundary(product_boundary({(i, x, j): 1}, p), p):
                    failures.append("d^2 != 0 on product cell (%d,%s,%d)" % (i, x, j))
    for x in ("P", "Q", "L", "B"):
        rots = (0,) if x in ("P", "Q") else range(p)
        for j in rots:
            for k in range(cap - 1):
                for eps in (0, 1):
                    if d_eq(d_eq({(x, j, k, eps): 1}, p), p):
                        failures.append("d_eq^2 != 0 on (%s,%d,t^%d,%d)" % (x, j, k, eps))
    for which in ("even", "odd", "coh1", "coh2"):
        for k in range(4):
            try:
                relation_primitive(which, k, p, cap)
            except AssertionError as exc:
                failures.append(str(exc))
            except CapExceeded:
                pass
    rep = homotopy_check(p, cap)
    if not rep["ok"]:
        failures.append("homotopy_check failed: %r" % (rep,))
    for i in range(9):
        pairs = diagonal_coefficients(i, p)
        if i % 2 or p == 2:
            if pairs != [(i1, i - i1) for i1 in range(i + 1)]:
                failures.append("diagonal coefficients wrong at i=%d" % i)
        else:
            if pairs != [(i1, i - i1) for i1 in range(0, i + 1, 2)]:
                failures.append("diagonal coefficients wrong at i=%d" % i)
    return failures
