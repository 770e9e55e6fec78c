"""The finite equivariant cell complexes behind the localization arguments.

The infinite sphere has a Z/p-cell structure with one cell D_i per
dimension (up to rotation); crossing with the rotated two-sphere gives the
product complex whose homology relations push the fixed-point classes
(Q_0 - P_0) down to orbit sums of 2-cells.  The cochain-level complex with
formal variables t, theta carries the corrected theta-multiplication, which
squares to t (p = 2) or to zero (p odd) up to an explicit homotopy.
"""

from qsteenrod.cells import (
    diagonal_coefficients,
    group_algebra_identities,
    homotopy_check,
    is_boundary,
    relation_primitive,
    sinf_boundary,
    verify_cells,
)


def show_chain(chain):
    return " + ".join("%d*%s" % (c, (cell,)) for cell, c in sorted(chain.items())) or "0"


def main():
    print(__doc__)
    p = 3
    print("p = 3 differentials:")
    print("  d(D_2) =", sorted(sinf_boundary({('D', 2, 0): 1}, p).items()))
    print("  d(D_3) =", sorted(sinf_boundary({('D', 3, 0): 1}, p).items()))
    print()

    rel = relation_primitive("even", 1, p)
    print("even relation at k=1: the primitive")
    print("  ", sorted(rel.primitive.items()))
    print("bounds")
    print("  ", sorted(rel.boundary.items()))
    print()

    print("fixed-point comparison: D_i x (Q_0 - P_0) bounds exactly for i in {0,1}:")
    for i in range(5):
        target = {(i, "Q", 0): 1, (i, "P", 0): p - 1}
        print("  i = %d: %s" % (i, is_boundary(target, i, p)))
    print()

    for q in (2, 3, 5):
        rep = homotopy_check(q)
        print("p = %d: homotopy battery ok = %s, group algebra identities = %s"
              % (q, rep["ok"], group_algebra_identities(q)))
    print()

    print("diagonal of D_4 (p = 3 keeps the even splittings only):",
          diagonal_coefficients(4, 3))
    print("diagonal of D_4 at p = 2:", diagonal_coefficients(4, 2))
    print()

    for q in (2, 3, 5):
        failures = verify_cells(q, cap=9)
        print("p = %d: full cell battery -> %s" % (q, "all clear" if not failures else failures))


if __name__ == "__main__":
    main()
