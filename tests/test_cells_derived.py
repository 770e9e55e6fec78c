"""The differentials derived from the sphere table against hand-written ones.

product_boundary and d_eq below are the cell-by-cell formulas that
qsteenrod.cells replaced with derivations from its one sphere table; they
are kept here as the reference.
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
