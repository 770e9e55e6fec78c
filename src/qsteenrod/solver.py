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

QSigma is linear in the class: for c != 0 mod p the t^0 seed of c e_k is
c^p = c times e_k's, the q^0 seed c times e_k's, and the recurrence is linear
with a taint mask that reads no value.  So a scaled unit class c e_k, c != 1,
takes c times the rows of e_k's solve, and e_k's taint rows and report
(_scaled).  When e_k's solve raises, or its re-check lists a failure, c e_k
runs its own recurrence (_recurrence), so every error and failure text is
its own.  A class of two or more basis terms always runs its own.

A is built once per ring and divisor (_divisor_map), for the solve and its
re-check: per block, the commutator X -> [X, A_e] as one list per flat slot
s = i*n + j of the slots it touches (_ad_map), which both the values and the
taint follow; and A's rows, packed.  The values follow the lists through one
generated function per (lists, sweep order), _compile_step: straight-line
code, with the lists' coefficients as constants, that sets every slot of an
invertible order from the orders before it, shared by all rings with equal
lists.  Each q-order is a list of n^2 ints and its taint a bitmask with bit
s set for a tainted slot s; a masked slot ORs in the bitmask of the slots
its list names, and is zeroed after the step.  The operator's rows and taint
bit rows (endo) are the transposes of the q-orders and their masks.  The
residual re-check multiplies by A itself, with compose's packed product, so
a fault in the commutator lists cannot cancel out; the slots it skips are
the taint rows OR-multiplied by A's supports.  The generator strategy reads
a * e_i through ring._class_product and nabla_a through connection_apply.
Both its routes, qst_via_generators and qst_auto's divisor peel, evaluate
words in divisors in one _word_sum, and every q-shifted sum with its taint
is one _shifted_sum.
"""

import functools

from .errors import (
    InconsistentSeed,
    NegativePowerResidue,
    NotDivisor,
    NotGenerated,
    QSteenrodError,
    Record,
)
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
    rows = {(i, j): row}, row[e] the q^e e_j coefficient of a * e_i, whose
    supports the re-check reads; tables = {e: _ad_map(A_e)}, the sweep's
    step and taint;
    A and -A, each row packed in k-byte slots, the re-check's values.
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


_CHUNK = 500  # terms per statement: compiling one sum recurses once per term


@functools.lru_cache(maxsize=64)
def _compile_step(tables, order):
    """One invertible q-order of the sweep as a generated straight-line function.

    tables is _divisor_map's {e: _ad_map(A_e)} as (e, table) pairs, order the
    flat slots by increasing shift; both depend only on the ring's table and
    degrees, so rings built alike share one step.  Returns step(x_m, ..., x_1,
    inv, p), x_e the n^2 values of order d - e (oldest first, m = max e), which
    returns order d's values: in order, each slot s is set to

        y_s = (sum -v x_e[s'] over (s, v) in table_e[s'], e >= 1
               + sum -v y_s'' over (s, v) in table_0[s''])  * inv % p,

    the coefficients v written in as constants (the cancelled ones, v = 0,
    dropped).  [., A_0] raises the shift by 2, so every y_s'' a slot reads is
    set before it.  A sum is split into statements of _CHUNK terms, since
    CPython cannot compile one expression of a few thousand terms.
    """
    tables = dict(tables)
    m = max(tables)
    terms = [[] for _ in order]  # per slot, its "-v * name" products known so far
    for e, table in tables.items():
        if e:
            for s, pairs in enumerate(table):
                for t, v in pairs:
                    if v:
                        terms[t].append("%d * x%d_%d" % (-v, e, s))
    lines = ["def step(%s):" % ", ".join(["x%d" % e for e in range(m, 0, -1)] + ["inv", "p"])]
    lines += ["    %s, = x%d" % (", ".join("x%d_%d" % (e, s) for s in range(len(order))), e)
              for e in sorted(tables) if e]
    values = ["0"] * len(order)  # a slot no product reaches is 0
    for s in order:
        sums = [" + ".join(terms[s][i:i + _CHUNK]) for i in range(0, len(terms[s]), _CHUNK)]
        if not sums:
            continue
        lines += ["    y%d %s= %s" % (s, "+" if i else "", part) for i, part in enumerate(sums[:-1])]
        last = "y%d + %s" % (s, sums[-1]) if len(sums) > 1 else sums[-1]
        lines.append("    y%d = (%s) * inv %% p" % (s, last))
        values[s] = "y%d" % s
        for t, v in tables[0][s]:
            if v:
                terms[t].append("%d * y%d" % (-v, s))
    lines.append("    return [%s]" % ", ".join(values))
    scope = {}
    exec("\n".join(lines), scope)
    return scope["step"]


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
    A scaled unit class c e_k, c != 0, 1 mod p, is c QSigma_{e_k}, read off
    e_k's solve (_scaled), unless that solve raises or reports a residual
    failure.
    """
    b = basis_class(ring, b, 0) if isinstance(b, str) else b
    if b.is_zero():
        raise ValueError("b must be nonzero")
    vector, deg = _seed_class(b, ring, "solve_qsigma")
    p = ring.prime
    if trunc is None:
        trunc = ring.default_truncation(deg)
    _check_truncation(trunc)
    div = ring.primary
    if div.pairing % p == 0:
        name = ring.basis[div.index].name
        raise NotDivisor("primary divisor %s has pairing %d, which vanishes mod %d"
                         % (name, div.pairing, p))
    # One solve per (ring, class, truncation); a class of a compatible ring
    # keys it like one of the ring's own.  The cache keeps no endo, only its
    # rows, taint rows and report, so it holds no reference back to the ring;
    # a hit rebuilds the endo without normalising it again.
    cls = sorted((k, c % p) for (k, _), c in vector.items())
    key = (tuple(cls), trunc)
    entry = ring._solved.get(key)
    if entry is None and len(cls) == 1 and cls[0][1] != 1:
        entry = _scaled(cls[0], deg, ring, trunc, key)
    if entry is None:
        entry = _recurrence(b, deg, ring, trunc, key)
    rows, taint_rows, report = entry
    return GradedEndomorphism._trusted(ring, p * deg, trunc, rows, taint_rows), report


def _scaled(unit, deg, ring, trunc, key):
    """The solve of c e_k as c times e_k's, for unit = (k, c); None to solve it directly.

    QSigma is linear in the class: the t^0 seed (c e_k)^(*p) = c^p e_k^(*p) =
    c e_k^(*p) mod p, the q^0 seed St(c e_k) = c St(e_k), and the recurrence
    is linear, with a taint mask that reads no value.  So the rows scale by c
    and the taint rows, seed counts and residual count are e_k's.  When e_k's
    solve raises or lists a residual failure, whose texts print values, this
    returns None and the scaled class is solved directly, with its own texts.
    """
    k, c = unit
    unit_key = (((k, 1),), trunc)
    entry = ring._solved.get(unit_key)
    if entry is None:
        try:
            entry = _recurrence(ring.basis[k].name, deg, ring, trunc, unit_key)
        except QSteenrodError:
            return None
    rows, taint_rows, report = entry
    if any(report.residual_failures.values()):
        return None
    p = ring.prime
    rows = {s: tuple([c * v % p for v in row]) for s, row in rows.items()}
    report = SolveReport(report.taint, report.taint_text, report.seed_checks,
                         report.seeds_resolving_taint, report.residual_checked,
                         {name: [] for name in report.residual_failures})
    entry = ring._solved[key] = (rows, taint_rows, report)
    return entry


def _recurrence(b, deg, ring, trunc, key):
    """Solve QSigma_b order by order and re-check it; returns the cache entry
    (rows, taint_rows, report), also stored in ring._solved[key]."""
    n, p = len(ring.basis), ring.prime
    g = p * deg
    lam = ring.primary.pairing % p
    tables = _divisor_map(ring, ring.primary)[1]
    # Slot s = i*n + j has t-exponent exps[s] - (q_degree/2) d at order d:
    # live above that floor, a t^0 seed at it, dead below it.
    degrees = ring._degrees
    exps = [(g + degrees[i] - degrees[j]) // 2 for i in range(n) for j in range(n)]
    order = sorted(range(n * n), key=exps.__getitem__, reverse=True)  # by increasing shift
    live_end, live = n * n, (1 << n * n) - 1  # order[:live_end] is live, live its bits
    reach = None  # per block, each slot's table as a bitmask; built when taint first spreads
    step = _compile_step(tuple((e, tuple(table)) for e, table in tables.items()), tuple(order))
    m = max(tables)  # the top block

    seeds = {i * n + j: c for (i, j, _), c in tzero_layer(b, ring, trunc).items()}  # one per slot
    x = [0] * (n * n)
    for (i, j), row in initial_layer(b, ring, 0).rows.items():  # q^0 only
        x[i * n + j] = row[0]
    # per order: its n^2 values, and its tainted slots as a bitmask; m zero orders
    # stand below q^0, so order d reads the m before it as xs[d:] and masks[d:]
    xs, masks = [[0] * (n * n)] * m + [x], [0] * (m + 1)
    seed_checks = 0
    seeds_resolving = 0

    for d in range(1, trunc + 1):
        floor = ring.q_degree // 2 * d
        while live_end and exps[order[live_end - 1]] <= floor:
            live_end -= 1
            live ^= 1 << order[live_end]
        mask = 0
        if (lam * d) % p:
            # x_s = inv (rhs_s - [X, A_0]_s) by increasing shift, with
            # rhs = -sum_{e >= 1} [E_{d-e}, A_e]: one call of the step
            x = step(*xs[d:], fp_inv(lam * d, p), p)
            if any(masks[d:]):
                # The mask is the taint of the right-hand side closed under A_0
                # by increasing shift: a masked slot taints every slot its table
                # lists.  So the step carried a masked slot's value only into
                # masked slots, and zeroing them all afterwards is exact.
                if reach is None:
                    reach = {f: [sum(1 << t for t, _ in ts) for ts in tab]
                             for f, tab in tables.items()}
                for e, tab in reach.items():
                    if e:
                        for s in _bits(masks[-e]):
                            mask |= tab[s]
                if mask:
                    for s in order:
                        if mask >> s & 1:
                            mask |= reach[0][s]
                    for s in _bits(mask):
                        x[s] = 0
        else:  # undetermined: every slot (the dead ones hold 0)
            x = [0] * (n * n)
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

    rows = {divmod(s, n): row for s, row in enumerate(zip(*xs[m:])) if any(row)}
    bits = {}  # the per-order masks transposed: flat slot -> bit d set when tainted at q^d
    for d, mask in enumerate(masks[m:]):
        if mask:
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
    entry = ring._solved[key] = (rows, taint_rows, report)
    return entry


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

    beta = sum_d q^d b_d gives QSigma_beta = sum_d q^(p d) QSigma_{b_d}: each
    layer's rows and taint rows move p d orders up.  A layer that is a scaled
    unit class c e_k is solved as c QSigma_{e_k} (solve_qsigma), and directly
    when e_k's solve raises or lists a residual failure.
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
    sums, masks = {}, {}
    pad = (0,) * (trunc + 1)
    for d0, comps in sorted(by_order.items()):
        layer = CohomologyElement._trusted(ring, 0, {(deg - ring.q_degree * d0, 0): comps})
        sub, _ = solve_qsigma(layer, ring)
        shift = p * d0  # each sub-solve row moves up by q^shift; orders past trunc drop
        for s, row in sub.rows.items():
            row = ((0,) * shift + row + pad)[:trunc + 1]
            sums[s] = [u + v for u, v in zip(sums[s], row)] if s in sums else row
        for s, m in sub.taint_rows.items():
            masks[s] = masks.get(s, 0) | m << shift
    full = (1 << trunc + 1) - 1
    taint_rows = {s: masks[s] & full for s in sorted(masks) if masks[s] & full}
    rows = {}
    for s in sorted(sums):  # reduced, with the values of tainted slots dropped
        m = taint_rows.get(s, 0)
        row = tuple([0 if m >> d & 1 else c % p for d, c in enumerate(sums[s])])
        if any(row):
            rows[s] = row
    return GradedEndomorphism._trusted(ring, g, trunc, rows, taint_rows)


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
    cols = [{(j, d): row[d - m] for rows in powers[n].pieces.values() for j, row in rows.items()
             for d in range(m, search_trunc + 1) if row[d - m]} for n, m, s in candidates]
    slots = sorted(set().union(*cols) | {(target_index, 0)})
    rows = [[col.get(slot, 0) for col in cols] for slot in slots]
    rhs = [1 if slot == (target_index, 0) else 0 for slot in slots]
    sol = solve_mod_p(rows, rhs, ring.prime)
    return None if sol is None else [cand + (c,) for cand, c in zip(candidates, sol) if c]


def _shifted_sum(terms, ring, trunc):
    """sum c q^m t^s value over terms (c, m, s, value, taint), values at q^trunc, and its taint.

    A taint slot (k, q) of a term moves up to (k, q + m), and is dropped past trunc.
    """
    out, taint = zero_element(ring, trunc), set()
    for c, m, s, value, value_taint in terms:
        out += value.times_monomial(q=m, t=s, coeff=c)
        taint |= {(k, q + m) for k, q in value_taint if q + m <= trunc}
    return out, taint


def qsigma_apply(b, x, ring, trunc=None):
    """Evaluate QSigma_b on an element, preferring taint-free routes.

    Per basis class in x: use the solved column when it is untainted; else
    rewrite the class as sum c q^m t^s nabla_a^n(1) over the primary divisor
    a and push QSt(b) through the covariant-constancy relation
        QSigma_b(nabla_a c) = nabla_a QSigma_b(c),   nabla_a = t d_a + (a *),
    and use that repair when its taint is a subset of the column's; else
    keep the tainted column.  The solved rows, with each repaired column's
    terms in place of row k, are applied to x in one _apply_rows.  Returns
    (element, taint); the element's coefficient at a slot listed in taint is
    not determined and may be nonzero.
    """
    _check_truncation(trunc)
    _check_compatible(ring, x.ring, "qsigma_apply")
    endo = solve_qsigma(b, ring)[0]
    if trunc is None:
        trunc = x.trunc if x.trunc is not None else endo.trunc
    rows, taint_columns, slots = endo.rows, _columns(endo.taint_rows), _slots(x)
    columns_taint = {k: _reach({(k, 0)}, taint_columns, trunc)
                     for k in sorted({k for k, _ in slots})}
    rewrites = {k: _rewrite_in_connection_powers(ring, k) for k, t in columns_taint.items() if t}
    rewrites = {k: terms for k, terms in rewrites.items() if terms is not None}
    if rewrites:
        # chain[n] = nabla_a^n QSt(b), one piece, and its taint: t d_a keeps a
        # slot (i, q), and a * moves it along the slots of a * e_i
        a = ring.primary.index
        nabla = {i: [(i, 0)] + list(_class_product(ring, {(a, 0): 1}, {(i, 0): 1}))
                 for i in range(len(ring.basis))}
        chain = [endo.column("1", trunc)]
        for _ in range(max(n for terms in rewrites.values() for n, _, _, _ in terms)):
            value, taint = chain[-1]
            chain.append((connection_apply(ring.basis[a].name, value), _reach(taint, nabla, trunc)))
    for k, rewritten in rewrites.items():
        terms = [(c, m, s) + chain[n] for n, m, s, c in rewritten]
        col, col_taint = _shifted_sum(terms, ring, trunc)
        if col_taint <= columns_taint[k]:
            columns_taint[k] = col_taint
            rows = {s: row for s, row in rows.items() if s[0] != k}  # not endo's own
            rows.update(((k, j), row) for col_rows in col.pieces.values()
                        for j, row in col_rows.items())
    return _apply_rows(ring, endo.degree, rows, x, trunc), _reach(slots, columns_taint, trunc)


def _word_sum(expr, leaf, ring, trunc):
    """sum coeff q^(p q_exp) QSt(word) over expr's terms (coeff, q_exp, word), and its taint.

    A word's QSt is leaf(its last factor), an (element, taint) pair (1 for the empty
    word), then QSigma_a of each divisor a before it, innermost first, by qsigma_apply;
    the incoming taint reaches every stored or tainted slot of QSigma_a's column under it.
    """
    terms = []
    for coeff, q_exp, word in expr:
        val, taint = leaf(word[-1]) if word else (basis_class(ring, "1", trunc), set())
        for a in reversed(word[:-1]):
            val, pushed = qsigma_apply(a, val, ring, trunc)
            if taint:
                endo = solve_qsigma(a, ring)[0]
                pushed |= _reach(taint, _columns(_supports(endo.rows, endo.taint_rows)), trunc)
            taint = pushed
        terms.append((coeff, ring.prime * q_exp, 0, val, taint))
    return _shifted_sum(terms, ring, trunc)


def qst_via_generators(expr, ring, trunc=None):
    """QSt of a quantum polynomial in divisor classes.

    expr is a list of terms (coeff, q_exp, factors); each factors tuple is a
    left-to-right quantum product word whose non-final entries must be
    divisors (the generator strategy composes their QSigma through the
    connection).  The final factor may be any basis class; its QSt is solved
    directly.  The whole expression is checked before the first solve.
    Returns (element, taint); the element's coefficient at a slot listed in
    taint is not determined and may be nonzero.
    """
    _check_truncation(trunc)
    if not expr:
        raise ValueError("expression must have at least one term")
    divisors = {ring.basis[d.index].name for d in ring.divisors}
    degs, non_divisors = set(), []
    for term in expr:
        _, q_exp, factors = term
        if q_exp < 0:
            raise ValueError("term %r has a negative q exponent" % (term,))
        degs.add(ring.q_degree * q_exp + sum(ring.degree(ring.index(name)) for name in factors))
        non_divisors += [name for name in factors[:-1] if name not in divisors]
    if len(degs) != 1:
        raise ValueError("expression must be homogeneous")
    if non_divisors:
        raise NotGenerated("non-divisor %r in a composite factor word" % (non_divisors[0],))
    if trunc is None:
        trunc = ring.default_truncation(degs.pop())
    return _word_sum(expr, lambda name: qst(name, ring).endo.column("1", trunc), ring, trunc)


def qst_auto(name, ring, trunc=None):
    """QSt of a basis class with minimal taint.

    Tries the direct solve first; if the unit column is tainted and the ring
    is generated enough, peels one divisor off (e_j appears in a * e_i) and
    recurses, exactly as the generator strategy prescribes: the peel is a word
    expression that _word_sum evaluates with recursive qst_auto leaves.
    Returns (element, taint, route string).
    """
    target = ring.index(name)
    r = qst(name, ring, trunc)
    if not r.taint:
        return r.element, set(), "direct"
    out_trunc = r.endo.trunc  # the unit column's, also when that column is zero
    a = ring.primary.index

    def leaf(cls):
        val, taint, _ = qst_auto(cls, ring, trunc)
        return val.retruncate(out_trunc), taint

    for i, be in enumerate(ring.basis):
        # a * e_i must be u e_target at q^0 alone: simultaneous degree-peers
        # are unsupported; u QSt(e_target) is the word expression
        # a e_i - sum c q^d e_k over the q-terms c q^d e_k of a * e_i
        product = _class_product(ring, {(a, 0): 1}, {(i, 0): 1})
        lead = {k: c for (k, d), c in product.items() if not d}
        if set(lead) != {target}:
            continue
        expr = [(1, 0, (ring.basis[a].name, be.name))]
        expr += [(-c, d, (ring.basis[k].name,)) for (k, d), c in sorted(product.items()) if d]
        val, taint = _word_sum(expr, leaf, ring, out_trunc)
        if not taint:
            return val.scale(fp_inv(lead[target], ring.prime)), taint, "generators via %s" % be.name
    return r.element, set(r.taint), "direct (tainted)"
