"""Order-by-order construction of the quantum Steenrod endomorphisms.

QSigma_b is the unique degree p|b| endomorphism that commutes with the
quantum connection, has q^0 layer equal to cup product with the classical
St(b), and has t^0 layer equal to quantum multiplication by b^(*p).  Both
seeds, like A below, are matrices of multiplication by one (class, q) vector
from endo._multiplication_entries, which reads every product of basis
classes through ring._class_product.  Per q-order d the commutation
condition reads

    lambda*d * E_d  +  sum_{e>=0} (E_{d-e} A_e - A_e E_{d-e})  =  0,

with A_e the q-order-e block of quantum multiplication by the primary
divisor.  When lambda*d is invertible mod p the order is triangular in the
degree shift |e_j| - |e_i| of the (i, j) slots, which [., A_0] raises by 2,
and is solved in one sweep by increasing shift.  When lambda*d vanishes mod
p the order is undetermined up to the connection's kernel: every slot not
pinned by the t^0 seeds or by degree pruning is marked tainted, and taint
propagates forward through later right-hand sides.  The solver reports; it
never guesses.

A is built once per ring and divisor (_divisor_map): its rows, from which
the generator route's nabla_a takes its taint, and which qst_auto's peel
reads; per block, the commutator X -> [X, A_e] as one list per flat slot
s = i*n + j of the slots it touches (_ad_map), which both the values and the
taint follow; and A packed, for the re-check.  Each
q-order is a list of n^2 ints and its taint a bitmask with bit s set for a
tainted slot s; a masked slot ORs in the bitmask of the slots its list names.
The operator's rows and taint bit rows (endo) are the transposes of the
q-orders and their masks.  The residual re-check multiplies by A itself,
with compose's packed product, so a fault in the commutator lists cannot
cancel out; the slots it skips are the taint rows OR-multiplied by A's supports.
The values of the connection chain nabla_a^n QSt(b) are ring.connection_apply's.
"""

from .errors import InconsistentSeed, NegativePowerResidue, NotDivisor, NotGenerated, Record
from .endo import (
    GradedEndomorphism,
    _apply_rows,
    _bits,
    _columns,
    _multiplication_entries,
    _or_matmul,
    _packed_matmul,
    _reach,
    _slots,
    _supports,
    _taint_slots,
    _taint_texts,
    multiplication_matrix,
)
from .fp import fp_inv, solve_mod_p
from .ring import (
    CohomologyElement,
    _check_compatible,
    _class_product,
    _class_terms,
    _class_vector,
    _power,
    _reduced,
    basis_class,
    connection_apply,
    zero_element,
)
from .series import _check_truncation, _pack, _slot_bytes, _unpack


class SolveReport(Record):
    _fields = ("taint", "taint_text", "seed_checks", "seeds_resolving_taint",
               "residual_checked", "residual_failures")


class QstResult(Record):
    _fields = ("element", "taint", "endo", "report")  # taint: (to_index, q_exp) pairs


# -- A, the map of multiplication by a divisor, and its commutators ------------


def _ad_map(block, n):
    """The commutator X -> [X, A] = X A - A X with one block A, on flat slots.

    Slot (i, j) of X, s = i*n + j, sends e_i to e_j; X acts first in X A.
    Returns one tuple per s of (t, c), c the unreduced coefficient of E_t in
    [E_s, A].  Cancelled pairs stay listed with c = 0, so a masked slot,
    which taints the slots its list names, still reaches them (h_2 -> h_2
    under A_1 on the cubic surface).
    """
    rows, cols = {}, {}
    for (j, k), c in block.items():
        rows.setdefault(j, []).append((k, c))
        cols.setdefault(k, []).append((j, c))
    table = []
    for i in range(n):
        for j in range(n):
            acc = {}
            for k, c in rows.get(j, ()):
                acc[i * n + k] = acc.get(i * n + k, 0) + c
            for h, c in cols.get(i, ()):
                acc[h * n + j] = acc.get(h * n + j, 0) - c
            table.append(tuple(acc.items()))
    return table


def _divisor_map(ring, div):
    """A, the map of quantum multiplication by the divisor, built once per ring.

    Returns ring._mult[div.index] = (rows, tables, k, A, -A mod p), ints
    only, from one multiplication_matrix (whose product reader checks the
    grading, so block 0 raises degree by 2, as the sweep relies on):
    rows = {(i, j): row}, row[e] the q^e e_j coefficient of a * e_i, which
    nabla_a's taint and qst_auto's peel read; tables = {e: _ad_map(A_e)},
    the sweep's; A and -A, each row packed in k-byte slots, the re-check's.
    """
    entry = ring._mult.get(div.index)
    if entry is None:
        n, p = len(ring.basis), ring.prime
        a = multiplication_matrix(ring.basis[div.index].name, ring)
        rows, blocks = a.rows, {}
        for s, row in rows.items():  # each block in (i, j) order
            for e, c in enumerate(row):
                if c:
                    blocks.setdefault(e, {})[s] = c
        # A slot of S A + (-A) S sums at most 2n products per block, each below p^2.
        k = _slot_bytes((2 * n * len(blocks) * (p - 1) ** 2).bit_length() + 1)
        plus = {s: _pack(row, k) for s, row in rows.items()}
        minus = {s: _pack([-c % p for c in row], k) for s, row in rows.items()}
        tables = {e: _ad_map(blocks[e], n) for e in sorted(blocks)}
        entry = ring._mult[div.index] = (rows, tables, k, plus, minus)
    return entry


# -- seeds -------------------------------------------------------------------


def _seed_class(b, ring, what):
    """b as a vector {(k, 0): c}, and its degree; b must be a homogeneous q,t-free class."""
    b = basis_class(ring, b, 0) if isinstance(b, str) else b
    _check_compatible(ring, b.ring, what)
    vector = _class_vector(b)
    if vector is None:
        raise ValueError("%s needs a q,t-free class; see qsigma_lambda" % what)
    deg = b.degree
    if deg is None:
        raise ValueError("%s needs a homogeneous class" % what)
    return {(k, 0): c for k, c in vector.items()}, deg


def initial_layer(b, ring, trunc=None):
    """q^0 layer: cup product with the full classical St(b).

    St(b) is q-free and homogeneous of degree p|b| (QuantumRing._steenrod), so
    its t-exponents are implied: the layer is the matrix of multiplication by
    the vector {(k, 0): c} (_multiplication_entries), read at q^0 only.
    """
    _check_truncation(trunc)
    vector, deg = _seed_class(b, ring, "initial layer")
    if trunc is None:
        trunc = ring.default_truncation(deg)
    pairs = ((k, c * v) for (i, _), c in vector.items() for (k, _), v in ring._steenrod(i).items())
    st = {(k, 0): c for k, c in _reduced(pairs, ring.prime).items()}
    return GradedEndomorphism(ring, ring.prime * deg, trunc, _multiplication_entries(ring, st, 0))


def tzero_layer(b, ring, trunc=None):
    """Values of every forced-t^0 slot: multiplication by the p-th power.

    Returns {(i, j, d): value} covering all kappa == 0 slots with d <= trunc,
    zeros included (a zero seed is still a determination).  Each (i, j) has
    at most one such slot, d = (p|b| + |e_i| - |e_j|) / q_degree, and its
    value is read off the matrix of multiplication by b^(*p), the power
    taken by square-and-multiply on (class, q) vectors (_class_product).
    """
    _check_truncation(trunc)
    vector, deg = _seed_class(b, ring, "t^0 layer")
    if trunc is None:
        trunc = ring.default_truncation(deg)
    g, degrees = ring.prime * deg, ring._degrees
    power = _power(vector, ring.prime, lambda x, y: _class_product(ring, x, y))
    entries = _multiplication_entries(ring, power)
    seeds = {}
    for i, deg_i in enumerate(degrees):
        for j, deg_j in enumerate(degrees):
            d, r = divmod(g + deg_i - deg_j, ring.q_degree)
            if not r and 0 <= d <= trunc:
                seeds[(i, j, d)] = entries.get((i, j, d), 0)
    return seeds


# -- the solver ---------------------------------------------------------------


def solve_qsigma(b, ring, trunc=None):
    """Construct QSigma_b; returns (GradedEndomorphism, SolveReport).

    Solved once per (ring, class, resolved truncation); repeated calls return
    an equal endomorphism and the same report, which callers must not mutate.
    """
    b = basis_class(ring, b, 0) if isinstance(b, str) else b
    if b.is_zero():
        raise ValueError("b must be nonzero")
    vector, deg = _seed_class(b, ring, "solve_qsigma")
    p = ring.prime
    g = p * deg
    if trunc is None:
        trunc = ring.default_truncation(deg)
    _check_truncation(trunc)
    div = ring.primary
    lam = div.pairing % p
    if lam == 0:
        raise NotDivisor("primary divisor pairing vanishes mod p")
    # One solve per (ring, class, truncation); a class of a compatible ring
    # keys it like one of the ring's own.  The cache keeps no endo, only its
    # rows, taint and entries-view box, so it holds no reference back to the
    # ring; a hit rebuilds the endo without normalising it again.
    cls = sorted((k, c % p) for (k, _), c in vector.items())
    key = (tuple(cls), trunc)
    if key in ring._solved:
        rows, taint_rows, view, taint_view, report = ring._solved[key]
        endo = GradedEndomorphism._trusted(ring, g, trunc, rows, taint_rows, view, taint_view)
        return endo, report
    n = len(ring.basis)
    tables = _divisor_map(ring, div)[1]
    ad0 = tables[0]
    # Slot s = i*n + j has t-exponent exps[s] - (q_degree/2) d at order d:
    # live above that floor, a t^0 seed at it, dead below it.
    degrees = ring._degrees
    exps = [(g + degrees[i] - degrees[j]) // 2 for i in range(n) for j in range(n)]
    order = sorted(range(n * n), key=exps.__getitem__, reverse=True)  # by increasing shift
    live_end, live = n * n, (1 << n * n) - 1  # order[:live_end] is live, live its bits
    reach = None  # per block, each slot's table as a bitmask; built when taint first spreads

    seeds = {i * n + j: c for (i, j, _), c in tzero_layer(b, ring, trunc).items()}  # one per slot
    x = [0] * (n * n)
    for (i, j), row in initial_layer(b, ring, 0).rows.items():  # q^0 only
        x[i * n + j] = row[0]
    xs, masks = [x], [0]  # per order: its n^2 values, and its tainted slots as a bitmask
    seed_checks = 0
    seeds_resolving = 0

    for d in range(1, trunc + 1):
        floor = ring.q_degree // 2 * d
        while live_end and exps[order[live_end - 1]] <= floor:
            live_end -= 1
            live ^= 1 << order[live_end]
        x = [0] * (n * n)
        mask = 0
        if (lam * d) % p:
            # x = rhs = -sum_{e >= 1} [E_{d-e}, A_e]; then one sweep by
            # increasing shift sets x_s = inv (rhs_s - [X, A_0]_s) in place,
            # since [., A_0] raises the shift by 2.  The mask, the taint of
            # the right-hand side closed under A_0, takes no value; a masked
            # slot taints every slot its table lists.
            for e, table in tables.items():
                if 1 <= e <= d:
                    for s, c in enumerate(xs[d - e]):
                        if c:
                            for t, v in table[s]:
                                x[t] -= c * v
                    if masks[d - e]:
                        if reach is None:
                            reach = {f: [sum(1 << t for t, _ in ts) for ts in tab]
                                     for f, tab in tables.items()}
                        for s in _bits(masks[d - e]):
                            mask |= reach[e][s]
            inv = fp_inv(lam * d, p)
            for s in order:
                if mask and mask >> s & 1:
                    mask |= reach[0][s]
                    x[s] = 0
                    continue
                c = x[s] = x[s] * inv % p
                if c:
                    for t, v in ad0[s]:
                        x[t] -= c * v
        else:  # undetermined: every slot (the dead ones hold 0)
            mask = (1 << n * n) - 1
        errors = []
        for s in order[live_end:]:  # the seeds, then the dead slots
            if exps[s] < floor:
                if x[s]:  # a masked dead slot holds 0
                    errors.append(s)
                continue
            if mask and mask >> s & 1:
                seeds_resolving += 1
                x[s] = seeds[s]
            else:
                seed_checks += 1
                if x[s] != seeds[s]:
                    errors.append(s)
        if errors:  # report the first in row-major order
            s = min(errors)
            names = ring.basis[s // n].name, ring.basis[s % n].name, d
            if exps[s] < floor:
                raise NegativePowerResidue(
                    "nonzero value forced onto dead slot (%s -> %s, q^%d)" % names
                )
            raise InconsistentSeed(
                "recurrence gives %d but the p-fold power seeds %d at (%s -> %s, q^%d)"
                % ((x[s], seeds[s]) + names)
            )
        xs.append(x)
        masks.append(mask & live)

    rows = {divmod(s, n): row for s, row in enumerate(zip(*xs)) if any(row)}
    bits = {}  # the per-order masks transposed: flat slot -> bit d set when tainted at q^d
    for d, mask in enumerate(masks):
        for s in _bits(mask):
            bits[s] = bits.get(s, 0) | 1 << d
    taint_rows = {divmod(s, n): bits[s] for s in sorted(bits)}
    endo = GradedEndomorphism._trusted(ring, g, trunc, rows, taint_rows)
    checked, failures = _residuals(endo, ring)
    report = SolveReport(
        taint=tuple(_taint_slots(taint_rows)),
        taint_text=tuple(_taint_texts(endo)),
        seed_checks=seed_checks,
        seeds_resolving_taint=seeds_resolving,
        residual_checked=checked,
        residual_failures=failures,
    )
    ring._solved[key] = (rows, taint_rows, endo._view, endo._taint_view, report)
    return endo, report


def _residuals(endo, ring):
    """Re-check covariant constancy slot-wise, for every divisor."""
    checked = 0
    failures = {}
    for divisor in ring.divisors:
        name = ring.basis[divisor.index].name
        rep = verify_covariant_constancy(endo, name, ring)
        checked += rep.checked
        failures[name] = list(rep.failures)
    return checked, failures


class ResidualReport(Record):
    _fields, _defaults = ("checked", "failures", "pi_checked", "pi_failures"), (0, ())

    @property
    def ok(self):
        return not self.failures and not self.pi_failures


def verify_covariant_constancy(endo, divisor_name, ring, pi=None):
    """Residuals of t*d_a(S) + [S, a*] slot-wise; zero expected when known.

    [S, a*] = S A - A S, with A = {(i, j, e): c} the map of quantum
    multiplication by the divisor, is one endo._packed_matmul, the product
    compose uses, on S's rows packed once and on A and -A mod p packed once
    per ring (_divisor_map).  A tainted slot (i, j, d) reaches (i, l, d + e)
    for each (j, l, e) of A and (h, j, d + e) for each (h, i, e) of A: the
    support of the same product on S's taint, found by shifting S's taint
    bit rows along A's.  lambda*d*S + [S, a*] is then checked slot by slot
    mod p, S's rows against the unpacked series.  Every slot with d <= trunc
    is checked unless it is tainted or a tainted slot reaches it; failures
    are listed in (d, i, j) order.

    When the matching QPi output is supplied, the relation
    t*QPi_{a,b}(c) = QSigma_b(a*c) - a*QSigma_b(c) is checked as well.
    """
    _check_compatible(ring, endo.ring, "verify_covariant_constancy")
    if pi is not None:
        _check_compatible(ring, pi.ring, "verify_covariant_constancy")
    div = ring.divisor(divisor_name)
    a_rows, _, k, plus, minus = _divisor_map(ring, div)
    p, n, trunc = ring.prime, len(ring.basis), endo.trunc
    count, zeros, full = trunc + 1, (0,) * (trunc + 1), (1 << trunc + 1) - 1
    series = {s: _pack(row, k) for s, row in endo.rows.items()}
    com = _packed_matmul([(series, plus), (minus, series)])  # orders above trunc are never read
    taint = endo.taint_rows
    a = _supports(a_rows, {}) if taint else {}
    mask = _or_matmul([(taint, a), (a, taint)], trunc)  # the slots S's taint reaches

    def residuals(rows, weights, taint_rows):
        """The checked count, and sorted (d, i, j, r) with r = weights[d] x + [S, a*] != 0 mod p,
        x the operator with rows {(i, j): row}."""
        skip = dict(mask)
        for s, t in taint_rows.items():
            skip[s] = skip.get(s, 0) | t & full
        out = []
        for s in rows.keys() | com.keys():
            x = zip(weights, rows.get(s, ()) + zeros, _unpack(com.get(s, 0), k, count))
            res = [(w * u + v) % p for w, u, v in x]
            if any(res):
                m = skip.get(s, 0)
                out += [(d,) + s + (r,) for d, r in enumerate(res) if r and not m >> d & 1]
        return n * n * count - sum(m.bit_count() for m in skip.values()), sorted(out)

    weights = [div.pairing * d % p for d in range(count)]
    checked, found = residuals(endo.rows, weights, endo.taint_rows)
    failures = tuple("residual %d at %s" % (r, endo.slot_text(i, j, d)) for d, i, j, r in found)
    pi_checked, pi_failures = 0, ()
    if pi is not None:
        pi_checked, found = residuals(pi.rows, [1] * count, pi.taint_rows)
        pi_failures = tuple(
            "divisor relation fails at %s" % endo.slot_text(i, j, d) for d, i, j, _ in found
        )
    return ResidualReport(checked, failures, pi_checked, pi_failures)


# -- derived operations --------------------------------------------------------


def qst(b, ring, trunc=None):
    """QSt(b) = QSigma_b(1), with taint restricted to that column."""
    endo, report = solve_qsigma(b, ring, trunc)
    elem, taint = endo.column("1")
    return QstResult(elem, tuple(sorted(taint)), endo, report)


def qsigma_lambda(beta, ring, trunc=None):
    """Extension of b -> QSigma_b to classes with q-coefficients.

    beta = sum_d q^d b_d gives QSigma_beta = sum_d q^(p d) QSigma_{b_d}.
    """
    _check_truncation(trunc)
    _check_compatible(ring, beta.ring, "qsigma_lambda")
    if beta.is_zero():
        raise ValueError("beta must be nonzero")
    p = ring.prime
    deg = beta.degree
    if deg is None:
        raise ValueError("beta must be homogeneous")
    g = p * deg
    if trunc is None:
        trunc = (g + ring.dimension_top) // ring.q_degree
    by_order = {}
    for i, terms in _class_terms(beta).items():
        for (d0, t, h), c in terms:
            if t or h:
                raise ValueError("beta may carry q-coefficients only")
            by_order.setdefault(d0, {})[i] = (c,)
    entries = {}
    taint = set()
    for d0, comps in sorted(by_order.items()):
        layer = CohomologyElement._trusted(ring, 0, {(deg - ring.q_degree * d0, 0): comps})
        sub, _ = solve_qsigma(layer, ring)
        shift = p * d0  # each sub-solve row moves up by q^shift
        for (i, j), row in sub.rows.items():
            for d, c in enumerate(row):
                if c:
                    key = (i, j, d + shift)
                    entries[key] = entries.get(key, 0) + c
        taint.update((i, j, d + shift) for i, j, d in _taint_slots(sub.taint_rows))
    # the constructor drops orders past trunc and the values of tainted slots
    return GradedEndomorphism(ring, g, trunc, entries, taint)


def _rewrite_in_connection_powers(ring, target_index):
    """Express e_k as sum c q^m t^s nabla_a^n(1) for the primary divisor a.

    Returns a list of (n, m, s, c), or None when e_k is no such combination
    mod p.  The candidates satisfy 2n + |q| m + 2s = |e_k|; the t-free ones
    come first, by increasing n.
    """
    deg = ring.degree(target_index)
    search_trunc = ring.dimension_top // ring.q_degree + ring.max_q_order() + 1
    powers = [basis_class(ring, "1", search_trunc)]  # nabla_a^n(1), of degree 2n: one piece
    for _ in range(deg // 2):
        powers.append(connection_apply(ring.basis[ring.primary.index].name, powers[-1]))
    candidates = []
    for n in range(deg // 2 + 1):
        for s in range((deg - 2 * n) // 2 + 1):
            m, r = divmod(deg - 2 * n - 2 * s, ring.q_degree)
            if not r:
                candidates.append((n, m, s))
    candidates.sort(key=lambda cand: cand[2] > 0)
    # linear system over the (basis, q) slots: every q^m t^s nabla_a^n(1) has
    # degree |e_k|, so (j, q) fixes t
    cols = []
    for n, m, s in candidates:
        cols.append(
            {(j, d): row[d - m] for rows in powers[n].pieces.values() for j, row in rows.items()
             for d in range(m, search_trunc + 1) if row[d - m]}
        )
    slots = sorted(set().union(*cols) | {(target_index, 0)})
    rows = [[col.get(slot, 0) for col in cols] for slot in slots]
    rhs = [1 if slot == (target_index, 0) else 0 for slot in slots]
    sol = solve_mod_p(rows, rhs, ring.prime)
    if sol is None:
        return None
    return [cand + (c,) for cand, c in zip(candidates, sol) if c]


def qsigma_apply(b, x, ring, trunc=None):
    """Evaluate QSigma_b on an element, preferring taint-free routes.

    Per basis class in x: use the solved column when it is untainted; else
    rewrite the class as sum c q^m t^s nabla_a^n(1) over the primary divisor
    a and push QSt(b) through the covariant-constancy relation
        QSigma_b(nabla_a c) = nabla_a QSigma_b(c),   nabla_a = t d_a + (a *),
    and use that repair when its taint is a subset of the column's; else
    keep the tainted column.  The solved rows, with each repaired column's
    terms in place of row k, are applied to x in one _apply_rows.  Returns
    (element, taint).
    """
    _check_truncation(trunc)
    _check_compatible(ring, x.ring, "qsigma_apply")
    endo = solve_qsigma(b, ring)[0]
    if trunc is None:
        trunc = x.trunc if x.trunc is not None else endo.trunc
    rows, taint_columns = endo.rows, _columns(endo.taint_rows)
    chain, chain_taint = {}, {}  # n -> nabla_a^n QSt(b), one piece, and its taint
    columns_taint, slots = {}, _slots(x)
    for k in sorted({k for k, _ in slots}):
        col_taint = _reach({(k, 0)}, taint_columns, trunc)
        if col_taint:
            rewritten = _rewrite_in_connection_powers(ring, k)
            if rewritten is not None:
                if not chain:  # t d_a keeps a slot (k, q); a * moves it along A's row k
                    chain[0], chain_taint[0] = endo.column("1", trunc)
                    identity = {(i, i): 1 for i in range(len(ring.basis))}
                    nabla = _columns(_supports(_divisor_map(ring, ring.primary)[0], identity))
                while len(chain) <= max(n for n, _, _, _ in rewritten):
                    n = len(chain)
                    chain[n] = connection_apply(ring.basis[ring.primary.index].name, chain[n - 1])
                    chain_taint[n] = _reach(chain_taint[n - 1], nabla, trunc)
                repair_taint = _reach({(n, m) for n, m, _, _ in rewritten}, chain_taint, trunc)
                if repair_taint <= col_taint:
                    col_taint = repair_taint  # sum c q^m t^s nabla_a^n QSt(b): one piece
                    col = sum((chain[n].times_monomial(q=m, t=s, coeff=c)
                               for n, m, s, c in rewritten), zero_element(ring, trunc))
                    rows = {s: row for s, row in rows.items() if s[0] != k}  # not endo's own
                    rows.update(((k, j), row) for col_rows in col.pieces.values()
                                for j, row in col_rows.items())
        columns_taint[k] = col_taint
    return _apply_rows(ring, endo.degree, rows, x, trunc), _reach(slots, columns_taint, trunc)


def _divisor_step(a_name, x, x_taint, ring, trunc):
    """QSigma_a(x) for a divisor a, with x's own taint pushed through QSigma_a.

    A tainted slot of x reaches every stored or tainted slot of QSigma_a's
    column under it.
    """
    val, taint = qsigma_apply(a_name, x, ring, trunc)
    if x_taint:
        endo = solve_qsigma(a_name, ring)[0]
        taint |= _reach(x_taint, _columns(_supports(endo.rows, endo.taint_rows)), trunc)
    return val, taint


def qst_via_generators(expr, ring, trunc=None):
    """QSt of a quantum polynomial in divisor classes.

    expr is a list of terms (coeff, q_exp, factors); each factors tuple is a
    left-to-right quantum product word whose non-final entries must be
    divisors (the generator strategy composes their QSigma through the
    connection).  The final factor may be any basis class; its QSt is solved
    directly.  Returns (element, taint).
    """
    _check_truncation(trunc)
    if not expr:
        raise ValueError("expression must have at least one term")
    p = ring.prime
    degs = set()
    for coeff, q_exp, factors in expr:
        d = ring.q_degree * q_exp
        for name in factors:
            d += ring.degree(ring.index(name))
        degs.add(d)
    if len(degs) != 1:
        raise ValueError("expression must be homogeneous")
    deg_total = degs.pop()
    if trunc is None:
        trunc = ring.default_truncation(deg_total)
    out = zero_element(ring, trunc)
    taint = set()

    def eval_word(word):
        if not word:
            return basis_class(ring, "1", trunc), set()
        if len(word) == 1:
            return qst(word[0], ring).endo.column("1", trunc)
        head = word[0]
        try:
            ring.divisor(head)
        except NotDivisor as exc:
            raise NotGenerated(
                "non-divisor %r in a composite factor word" % (head,)
            ) from exc
        return _divisor_step(head, *eval_word(word[1:]), ring, trunc)

    for coeff, q_exp, factors in expr:
        val, val_taint = eval_word(tuple(factors))
        m = p * q_exp
        out = out + val.times_monomial(q=m, coeff=coeff)
        taint |= _reach(val_taint, {j: [(j, m)] for j, _ in val_taint}, trunc)
    return out, taint


def qst_auto(name, ring, trunc=None):
    """QSt of a basis class with minimal taint.

    Tries the direct solve first; if the unit column is tainted and the ring
    is generated enough, peels one divisor off (e_j appears in a * e_i) and
    recurses, exactly as the generator strategy prescribes.  Returns
    (element, taint, route string).
    """
    target = ring.index(name)
    r = qst(name, ring, trunc)
    if not r.taint:
        return r.element, set(), "direct"
    out_trunc = r.element.trunc if r.element.trunc is not None else r.endo.trunc
    a_name = ring.basis[ring.primary.index].name
    for i, be in enumerate(ring.basis):
        # a * be, A's rows out of be, must be u e_target at q^0 alone:
        # simultaneous degree-peers are unsupported
        product = [(j, d, c) for (h, j), row in _divisor_map(ring, ring.primary)[0].items()
                   if h == i for d, c in enumerate(row) if c]
        lead = {k: c for k, d, c in product if not d}
        if set(lead) != {target}:
            continue
        sub, sub_taint, _ = qst_auto(be.name, ring, trunc)
        val, taint = _divisor_step(a_name, sub.retruncate(out_trunc), sub_taint, ring, out_trunc)
        for k, d, c in product:
            if d:
                rest, rest_taint, _ = qst_auto(ring.basis[k].name, ring, trunc)
                m = ring.prime * d
                val = val - rest.retruncate(out_trunc).times_monomial(q=m, coeff=c)
                taint |= _reach(rest_taint, {j: [(j, m)] for j, _ in rest_taint}, out_trunc)
        val = val.scale(fp_inv(lead[target], ring.prime))
        if not taint:
            return val, taint, "generators via %s" % be.name
    return r.element, set(r.taint), "direct (tainted)"
