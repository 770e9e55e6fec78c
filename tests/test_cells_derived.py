"""Derived cell-complex code against hand-written references.

product_boundary and d_eq below are the cell-by-cell formulas that
qsteenrod.cells replaced with derivations from its one sphere table; they
are kept here as the reference.  ref_homotopy_check and ref_verify_cells
evaluate the operator identities cell by cell at every t-power below the
cap, as qsteenrod.cells did before it compared operator tables.  The
mutations below change an operator on whole sigma-orbits, the only change
an orbit table can hold.
"""

import random

import pytest

from qsteenrod import cells


def _add(chain, cell, coeff, mod):
    c = (chain.get(cell, 0) + coeff) % mod
    if c:
        chain[cell] = c
    else:
        chain.pop(cell, None)


def _combine(p, *pairs):
    out = {}
    for chain, scale in pairs:
        for cell, c in chain.items():
            _add(out, cell, c * scale, p)
    return out


def product_boundary(chain, p):
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
    return {cell: c % p for cell, c in out.items() if c % p}


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
    return {cell: c % p for cell, c in out.items() if c % p}


PRIMES = (2, 3, 5, 7, 11)


def _rotations(x, p):
    return (0,) if x in ("P", "Q") else range(p)


def _product_cells(p):
    return [(i, x, j) for i in range(13) for x in "PQLB" for j in _rotations(x, p)]


def _eq_cells(p):
    return [
        (x, j, k, eps) for x in "PQLB" for j in _rotations(x, p) for k in range(9) for eps in (0, 1)
    ]


@pytest.mark.parametrize("p", PRIMES)
def test_derived_differentials_match_on_single_cells(p):
    for coeff in (1, 2):
        for cell in _product_cells(p):
            chain = {cell: coeff}
            assert cells.product_boundary(chain, p) == product_boundary(chain, p), cell
        for cell in _eq_cells(p):
            chain = {cell: coeff}
            assert cells.d_eq(chain, p) == d_eq(chain, p), cell


@pytest.mark.parametrize("p", PRIMES)
def test_derived_differentials_match_on_random_chains(p):
    rng = random.Random(p)
    for pool, derived, reference in (
        (_product_cells(p), cells.product_boundary, product_boundary),
        (_eq_cells(p), cells.d_eq, d_eq),
    ):
        for _ in range(100):
            chain = {c: rng.randrange(1, 2 * p) for c in rng.sample(pool, rng.randrange(1, 8))}
            assert derived(chain, p) == reference(chain, p), chain


# -- operator identities, generator by generator ------------------------------


def _ref_H_apply(eq, chain, p):
    """The composite homotopy -sigma (sigma-1)^(p-3) h (h itself for p=2), sigma the
    rotation X_j -> X_(j+1) of each cell, as in the group algebra."""
    sizes = {name: p if free else 1 for name, _, free in eq.cpx.orbits}

    def sigma(chain):
        return {(x, (j + 1) % sizes[x], k, eps): c for (x, j, k, eps), c in chain.items()}

    out = eq.homotopy_h(chain)
    if p == 2:
        return out
    for _ in range(p - 3):
        out = _combine(p, (sigma(out), 1), (out, -1))
    return {cell: (-c) % p for cell, c in sigma(out).items()}


def ref_homotopy_check(p, cap):
    report = {"group_algebra": cells.group_algebra_identities(p)}
    fixtures = {
        "trivial": cells.trivial_complex(),
        "free_module": cells.free_module_complex(),
        "sphere": cells.sphere_cochain_complex(),
    }
    for label, cpx in fixtures.items():
        eq = cells.EquivariantComplex(cpx, p)
        ok_d2 = ok_homotopy = ok_square = ok_square_homotopy = True
        generators = [
            (name, j, k, eps, p if free else 1)
            for name, _, free in cpx.orbits
            for j in range(p if free else 1)
            for k in range(cap - 1)
            for eps in (0, 1)
        ]
        for name, j, k, eps, size in generators:
            x = {(name, j, k, eps): 1}
            if eq.d_eq(eq.d_eq(x)):
                ok_d2 = False
            lhs = _combine(p, (eq.d_eq(eq.homotopy_h(x)), 1), (eq.homotopy_h(eq.d_eq(x)), 1))
            rhs = _combine(p, (eq.t(eq.sigma(x)), 1), (eq.t(x), -1))
            if lhs != rhs:
                ok_homotopy = False
            sq = eq.theta_tilde(eq.theta_tilde(x))
            weighted = {}  # (sigma + 2 sigma^2 + ... + (p-1) sigma^(p-1)) x t
            for m in range(p):
                _add(weighted, (name, (j + m) % size, k + 1, eps), m, p)
            if sq != weighted:
                ok_square = False
            if p == 2:
                target = _combine(p, (sq, 1), (eq.t(x), -1))
            else:
                target = sq
            lhs2 = _combine(
                p, (eq.d_eq(_ref_H_apply(eq, x, p)), 1), (_ref_H_apply(eq, eq.d_eq(x), p), 1)
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


def ref_verify_cells(p, cap):
    failures = []
    for i in range(cap + 1):
        for r in range(p):
            if cells.sinf_boundary(cells.sinf_boundary({("D", i, r): 1}, p), p):
                failures.append("d^2 != 0 on D_%d (rot %d) over Z" % (i, r))
    for i in range(cap + 1):
        for x, _, j in cells._rotated_cells(p):
            if cells.product_boundary(cells.product_boundary({(i, x, j): 1}, p), p):
                failures.append("d^2 != 0 on product cell (%d,%s,%d)" % (i, x, j))
    for x, _, j in cells._rotated_cells(p):
        for k in range(cap - 1):
            for eps in (0, 1):
                if cells.d_eq(cells.d_eq({(x, j, k, eps): 1}, p), p):
                    failures.append("d_eq^2 != 0 on (%s,%d,t^%d,%d)" % (x, j, k, eps))
    for which in ("even", "odd", "coh1", "coh2"):
        for k in range(4):
            try:
                cells.relation_primitive(which, k, p, cap)
            except AssertionError as exc:
                failures.append(str(exc))
            except cells.CapExceeded:
                pass
    rep = ref_homotopy_check(p, cap)
    if not rep["ok"]:
        failures.append("homotopy_check failed: %r" % (rep,))
    return failures


def _flip_d_sign(eq):
    # d x = -(d_C x) + (-1)^|x| (sigma - 1) x theta: d_eq^2 != 0 on B_j for odd p
    for name, _, _ in eq.cpx.orbits:
        eq._d[name, 0] = {
            cell: tuple((c if cell[2] else -c) % eq.p for c in g)
            for cell, g in eq._d[name, 0].items()
        }


def _empty_h_column(eq):
    # h = 0 on the last orbit: B_j on the sphere
    eq._h[eq.cpx.orbits[-1][0], 1] = {}


def _theta_weight_off_by_one(eq):
    # theta_tilde(x theta) = (-1)^|x| (W + 1) x t on the first orbit: P on the sphere
    name, deg, _ = eq.cpx.orbits[0]
    plus_one = ({name: [1]}, 1, 0, -1 if deg % 2 else 1)
    eq._theta[name, 1] = eq._image(
        plus_one, *(({y: g}, dk, e, 1) for (y, dk, e), g in eq._theta[name, 1].items())
    )


def _swap_sigma_images(eq):
    # sigma swaps its images of the first and last orbits: P and B_j on the sphere, and
    # nothing on the one-orbit complexes
    a, b = eq.cpx.orbits[0][0], eq.cpx.orbits[-1][0]
    for eps in (0, 1):
        eq._sigma[a, eps], eq._sigma[b, eps] = eq._sigma[b, eps], eq._sigma[a, eps]


MUTATIONS = {
    "flip_d_sign": _flip_d_sign,
    "empty_h_column": _empty_h_column,
    "theta_weight_off_by_one": _theta_weight_off_by_one,
    "swap_sigma_images": _swap_sigma_images,
}


@pytest.fixture
def mutate(monkeypatch):
    """Install a mutation on every EquivariantComplex built, the cached sphere's included."""

    def install(mutation):
        class Mutated(cells.EquivariantComplex):
            def __init__(self, *args):
                super().__init__(*args)
                mutation(self)

        monkeypatch.setattr(cells, "EquivariantComplex", Mutated)
        cells._sphere_eq.cache_clear()

    yield install
    cells._sphere_eq.cache_clear()


@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_table_checks_match_the_per_generator_reference(p, mutation, mutate):
    if mutation:
        mutate(MUTATIONS[mutation])
    report = cells.homotopy_check(p)
    for cap in (2, 4, 9):
        assert report == ref_homotopy_check(p, cap), cap
        assert cells.verify_cells(p, cap) == ref_verify_cells(p, cap), cap
    if mutation is None:
        assert report["ok"]
    elif p > 2:
        assert not report["ok"], report


def _drop_l_j_from_its_norm(eq):
    # D_2k x L_j -> D_(2k-1) x (N L_j - L_j) + D_2k x d L_j: d^2 != 0 on D_i x B_j from
    # i = 2 up, not at i = 0
    if ("L", 0) in eq._chain:
        norm = eq._chain["L", 0]["L", -1, 1]
        eq._chain["L", 0]["L", -1, 1] = (0,) + norm[1:]


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_product_d_squared_lines_match_the_per_cell_reference(p, mutate):
    mutate(_drop_l_j_from_its_norm)
    for cap in (2, 4, 9):
        failures = cells.verify_cells(p, cap)
        assert failures == ref_verify_cells(p, cap), cap
        assert "d^2 != 0 on product cell (2,B,0)" in failures
        assert "d^2 != 0 on product cell (0,B,0)" not in failures
