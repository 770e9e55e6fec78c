"""Order-by-order construction of the quantum Steenrod endomorphisms.

QSigma_b is the unique degree p|b| endomorphism that commutes with the
quantum connection, has q^0 layer equal to cup product with the classical
St(b), and has t^0 layer equal to p-fold quantum multiplication by b.  Per
q-order d the commutation condition reads

    lambda*d * E_d  +  sum_{e>=0} (E_{d-e} A_e - A_e E_{d-e})  =  0,

with A_e the q-order-e block of quantum multiplication by the primary
divisor.  When lambda*d is invertible mod p the order is triangular in the
degree shift |e_j| - |e_i| of the (i, j) slots, which [., A_0] raises by 2,
and is solved in one sweep by increasing shift.  When lambda*d vanishes mod
p the order is undetermined up to the connection's kernel: every slot not
pinned by the t^0 seeds or by degree pruning is marked tainted, and taint
propagates forward through later right-hand sides.  The solver reports; it
never guesses.

Each commutator X -> [X, A_e] is tabulated once per solve as a linear map
on (i, j) slots, with the slots a tainted X slot reaches (_ad_map); the
right-hand sides, the sweep and the residual re-check all apply those tables.
"""

from dataclasses import dataclass

from .errors import (
    InconsistentSeed,
    NegativePowerResidue,
    NotDivisor,
    NotGenerated,
)
from .endo import GradedEndomorphism, multiplication_endo
from .fp import fp_inv, solve_mod_p
from .ring import (
    CohomologyElement,
    basis_class,
    connection_apply,
    pfold_power,
    quantum_product,
    zero_element,
)
from .series import series_one


@dataclass(frozen=True)
class SolveReport:
    taint: tuple
    taint_text: tuple
    seed_checks: int
    seeds_resolving_taint: int
    residual_checked: int
    residual_failures: dict


@dataclass(frozen=True)
class QstResult:
    element: object
    taint: tuple  # (to_index, q_exp) pairs
    endo: object
    report: object


# -- the commutator with a divisor block, as a map on (i, j) slots -------------


def _divisor_blocks(ring, div):
    """Blocks A_e = {(i, j): c} of quantum multiplication by the divisor.

    Block e holds the q-order-e structure constants, reduced mod p.  Block 0
    must raise degree by 2, as _sweep relies on it.
    """
    blocks = {}
    a = div.index
    for e in range(ring.max_q_order() + 1):
        block = {}
        for i in range(len(ring.basis)):
            for j, c in ring.sc(a, i, e).items():
                if e == 0 and ring.degree(j) != ring.degree(i) + 2:
                    raise ValueError(
                        "(%s, %s, q^0) -> %s violates the grading; see verify --suite ring"
                        % (ring.basis[a].name, ring.basis[i].name, ring.basis[j].name)
                    )
                block[(i, j)] = c
        if block:
            blocks[e] = block
    return blocks


def _ad_map(block, n, p):
    """The commutator X -> [X, A] = X A - A X with one block A, slot by slot.

    Slot (i, j) of X sends e_i to e_j, and X acts first in X A.  Returns
    (values, reach): values[(i, j)] lists ((i2, j2), c) with c the nonzero
    coefficient mod p of [E_ij, A] at (i2, j2); reach[(i, j)] lists every
    slot either product touches, cancelled ones included.  Taint follows
    reach, never values: a masked slot taints what it touches even where
    the two products cancel (h_2 -> h_2 under A_1 on the cubic surface).
    """
    rows, cols = {}, {}
    for (j, k), c in block.items():
        rows.setdefault(j, []).append((k, c))
        cols.setdefault(k, []).append((j, c))
    values, reach = {}, {}
    for i in range(n):
        for j in range(n):
            acc = {}
            for k, c in rows.get(j, ()):
                acc[(i, k)] = acc.get((i, k), 0) + c
            for h, c in cols.get(i, ()):
                acc[(h, j)] = acc.get((h, j), 0) - c
            if acc:
                reach[(i, j)] = tuple(acc)
                values[(i, j)] = tuple((s, c % p) for s, c in acc.items() if c % p)
    return values, reach


def _slot_exponents(ring, g):
    """Each (i, j) slot's q^0 t-exponent (g + |e_i| - |e_j|) / 2, and the slots by shift."""
    n = len(ring.basis)
    exps = {(i, j): (g + ring.degree(i) - ring.degree(j)) // 2 for i in range(n) for j in range(n)}
    return exps, sorted(exps, key=exps.get, reverse=True)  # by increasing degree shift


def _sweep(rhs, rhs_mask, inv, ad0, order, p):
    """Solve lambda*d X + [X, A0] = rhs, with inv = 1/(lambda*d) mod p.

    Visiting the slots in order, by increasing degree shift, sets each
    X_s = inv (rhs_s - [X, A0]_s) once.  ad0 = _ad_map(A0); the mask is
    rhs_mask closed under its reach, and masked slots take no value.
    """
    values0, reach0 = ad0
    pending = dict(rhs)
    mask = set(rhs_mask)
    values = {}
    for s in order:
        if s in mask:
            mask.update(reach0.get(s, ()))
            continue
        x = pending.get(s, 0) * inv % p
        if x:
            values[s] = x
            for t, v in values0.get(s, ()):
                pending[t] = pending.get(t, 0) - x * v
    return values, mask


# -- seeds -------------------------------------------------------------------


def to_element(b, ring, trunc):
    if isinstance(b, str):
        return basis_class(ring, b, trunc)
    return b.retruncate(trunc)


def initial_layer(b, ring, trunc=None):
    """q^0 layer: cup product with the full classical St(b)."""
    b = to_element(b, ring, 0)
    deg = b.degree
    if deg is None:
        raise ValueError("initial layer needs a homogeneous class")
    if trunc is None:
        trunc = ring.default_truncation(deg)
    st = ring.steenrod_of(b)
    endo = multiplication_endo(st.retruncate(trunc), trunc=trunc, classical_only=True)
    if endo.degree != ring.prime * deg:
        raise ValueError("classical Steenrod data has the wrong degree")
    return endo


def tzero_layer(b, ring, trunc=None):
    """Values of every forced-t^0 slot: multiplication by the p-th power.

    Returns {(i, j, d): value} covering all kappa == 0 slots with d <= trunc,
    zeros included (a zero seed is still a determination).  Each (i, j) has
    at most one such slot, d = (p|b| + |e_i| - |e_j|) / q_degree.
    """
    b = to_element(b, ring, 0)
    deg = b.degree
    if deg is None:
        raise ValueError("t^0 layer needs a homogeneous class")
    if trunc is None:
        trunc = ring.default_truncation(deg)
    g = ring.prime * deg
    power = pfold_power(to_element(b, ring, trunc), ring)
    seeds = {}
    for i, be in enumerate(ring.basis):
        col = quantum_product(power, basis_class(ring, be.name, trunc))
        for j in range(len(ring.basis)):
            d, r = divmod(g + be.degree - ring.degree(j), ring.q_degree)
            if not r and 0 <= d <= trunc:
                seeds[(i, j, d)] = col.coefficient(j, d, 0)
    return seeds


# -- the solver ---------------------------------------------------------------


def _check_truncation(trunc):
    """Reject a negative q-truncation; None (the default) passes."""
    if trunc is not None and trunc < 0:
        raise ValueError("the q-truncation must be non-negative, got trunc=%d" % trunc)


def solve_qsigma(b, ring, trunc=None):
    """Construct QSigma_b; returns (GradedEndomorphism, SolveReport).

    Solved once per (ring, class, resolved truncation); repeated calls return
    an equal endomorphism and the same report, which callers must not mutate.
    """
    b = to_element(b, ring, 0)
    if b.is_zero():
        raise ValueError("b must be nonzero")
    deg = b.degree
    if deg is None:
        raise ValueError("b must be homogeneous")
    for f in b.components.values():
        for mono in f.terms:
            if mono.q or mono.t or mono.theta:
                raise ValueError("b must be a q,t-free class; see qsigma_lambda")
    p = ring.prime
    g = p * deg
    if trunc is None:
        trunc = ring.default_truncation(deg)
    _check_truncation(trunc)
    div = ring.primary
    lam = div.pairing % p
    if lam == 0:
        raise NotDivisor("primary divisor pairing vanishes mod p")
    # One solve per (ring, class, truncation).  The cache keeps no endo, only
    # its normalised state and row-index box, so it holds no reference back
    # to the ring; a hit rebuilds the endo without normalising it again.
    key = None
    if b.ring is ring:
        cls = sorted((k, f.coefficient(0, 0) % p) for k, f in b.components.items())
        key = (tuple(cls), trunc)
        if key in ring._solved:
            entries, taint, index, report = ring._solved[key]
            return GradedEndomorphism._trusted(ring, g, trunc, entries, taint, index), report
    n = len(ring.basis)
    ads = {e: _ad_map(block, n, p) for e, block in _divisor_blocks(ring, div).items()}
    exps, order = _slot_exponents(ring, g)

    seeds = tzero_layer(b, ring, trunc)
    init = initial_layer(b, ring, trunc)
    # per-order layers and masks are keyed (i, j); (i, j, d) at assembly
    layers = {0: {(i, j): c for (i, j, d), c in init.entries.items() if d == 0}}
    masks = {0: set()}
    seed_checks = 0
    seeds_resolving = 0

    for d in range(1, trunc + 1):
        # rhs = -sum_{e >= 1} [E_{d-e}, A_e]
        rhs = {}
        rhs_mask = set()
        for e, (vals, reach) in ads.items():
            if 1 <= e <= d:
                for s, c in layers[d - e].items():
                    for t, v in vals.get(s, ()):
                        rhs[t] = rhs.get(t, 0) - c * v
                for s in masks[d - e]:
                    rhs_mask.update(reach.get(s, ()))

        floor = ring.q_degree // 2 * d  # slot (i, j, d) has t-exponent exps[(i, j)] - floor
        if (lam * d) % p:
            values, mask = _sweep(rhs, rhs_mask, fp_inv(lam * d, p), ads[0], order, p)
        else:
            values, mask = {}, {s for s, k in exps.items() if k >= floor}

        layer = {}
        layer_mask = set()
        for s, k in exps.items():
            val = values.get(s, 0)
            if k < floor:
                if s not in mask and val:
                    raise NegativePowerResidue(
                        "nonzero value forced onto dead slot (%s -> %s, q^%d)"
                        % (ring.basis[s[0]].name, ring.basis[s[1]].name, d)
                    )
            elif k == floor:
                seed = seeds[s + (d,)]
                if s in mask:
                    seeds_resolving += 1
                else:
                    seed_checks += 1
                    if val != seed:
                        raise InconsistentSeed(
                            "recurrence gives %d but the p-fold power seeds %d "
                            "at (%s -> %s, q^%d)"
                            % (val, seed, ring.basis[s[0]].name, ring.basis[s[1]].name, d)
                        )
                if seed:
                    layer[s] = seed
            elif s in mask:
                layer_mask.add(s)
            elif val:
                layer[s] = val
        layers[d] = layer
        masks[d] = layer_mask

    entries = {(i, j, d): c for d, layer in layers.items() for (i, j), c in layer.items()}
    taint = {(i, j, d) for d, mask in masks.items() for (i, j) in mask}
    endo = GradedEndomorphism(ring, g, trunc, entries, frozenset(taint))
    checked, failures = _residuals(endo, ring)
    report = SolveReport(
        taint=tuple(sorted(taint)),
        taint_text=tuple(endo.slot_text(*s) for s in sorted(taint)),
        seed_checks=seed_checks,
        seeds_resolving_taint=seeds_resolving,
        residual_checked=checked,
        residual_failures=failures,
    )
    if key is not None:
        ring._solved[key] = (endo.entries, endo.taint, endo._index, report)
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


@dataclass(frozen=True)
class ResidualReport:
    checked: int
    failures: tuple
    pi_checked: int = 0
    pi_failures: tuple = ()

    @property
    def ok(self):
        return not self.failures and not self.pi_failures


def verify_covariant_constancy(endo, divisor_name, ring, pi=None):
    """Residuals of t*d_a(S) + [S, a*] slot-wise; zero expected when known.

    When the matching QPi output is supplied, the relation
    t*QPi_{a,b}(c) = QSigma_b(a*c) - a*QSigma_b(c) is checked as well.
    """
    div = ring.divisor(divisor_name)
    p = ring.prime
    lam = div.pairing
    n = len(ring.basis)
    trunc = endo.trunc
    com = {}  # [S, a*], unreduced; orders above trunc are never read
    com_mask = set()
    for e, block in _divisor_blocks(ring, div).items():
        values, reach = _ad_map(block, n, p)
        for (i, j, d), c in endo.entries.items():
            if d + e <= trunc:
                for (i2, j2), v in values.get((i, j), ()):
                    t = (i2, j2, d + e)
                    com[t] = com.get(t, 0) + c * v
        for (i, j, d) in endo.taint:
            if d + e <= trunc:
                com_mask.update((i2, j2, d + e) for (i2, j2) in reach.get((i, j), ()))
    checked = pi_checked = 0
    failures = []
    pi_failures = []
    for d in range(trunc + 1):
        for i in range(n):
            for j in range(n):
                s = (i, j, d)
                if s in com_mask:
                    continue
                if s not in endo.taint:
                    res = (lam * d * endo.entries.get(s, 0) + com.get(s, 0)) % p
                    checked += 1
                    if res:
                        failures.append("residual %d at %s" % (res, endo.slot_text(*s)))
                if pi is not None and s not in pi.taint:
                    pi_checked += 1
                    if pi.entries.get(s, 0) % p != -com.get(s, 0) % p:
                        pi_failures.append("divisor relation fails at %s" % endo.slot_text(*s))
    return ResidualReport(checked, tuple(failures), pi_checked, tuple(pi_failures))


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
    p = ring.prime
    deg = beta.degree
    if deg is None:
        raise ValueError("beta must be homogeneous")
    g = p * deg
    if trunc is None:
        trunc = (g + ring.dimension_top) // ring.q_degree
    by_order = {}
    for i, f in beta.components.items():
        for mono, c in f.terms.items():
            if mono.t or mono.theta:
                raise ValueError("beta may carry q-coefficients only")
            by_order.setdefault(mono.q, {})[i] = c
    entries = {}
    taint = set()
    for d0, comps in sorted(by_order.items()):
        layer = CohomologyElement(
            ring, {i: series_one(p, 0).scale(c) for i, c in comps.items()}
        )
        if layer.is_zero():
            continue
        sub, _ = solve_qsigma(layer, ring)
        shift = p * d0
        for (i, j, d), c in sub.entries.items():
            if d + shift <= trunc:
                key = (i, j, d + shift)
                entries[key] = (entries.get(key, 0) + c) % p
        for (i, j, d) in sub.taint:
            if d + shift <= trunc:
                taint.add((i, j, d + shift))
    entries = {s: c for s, c in entries.items() if s not in taint}
    return GradedEndomorphism(ring, g, trunc, entries, frozenset(taint))


def _rewrite_in_divisor_powers(ring, target_index):
    """Express e_k as sum_n c_n q^(m_n) a^(*n) for the primary divisor a.

    Returns a list of (power n, q-shift m, coefficient c) or None when the
    class is not generated by the primary divisor mod p.
    """
    p = ring.prime
    deg = ring.degree(target_index)
    q_deg = ring.q_degree
    search_trunc = ring.dimension_top // q_deg + ring.max_q_order() + 1
    a_name = ring.basis[ring.primary.index].name
    powers = [basis_class(ring, "1", search_trunc)]
    max_pow = deg // 2
    for _ in range(max_pow):
        powers.append(
            quantum_product(basis_class(ring, a_name, search_trunc), powers[-1])
        )
    candidates = []
    for np_ in range(max_pow + 1):
        rem = deg - 2 * np_
        if rem >= 0 and rem % q_deg == 0:
            candidates.append((np_, rem // q_deg))
    # linear system over the (basis, q) slots
    slots = set()
    cols = []
    for np_, m in candidates:
        shifted = powers[np_].times_monomial(q=m)
        col = {}
        for j, f in shifted.components.items():
            for mono, c in f.terms.items():
                col[(j, mono.q)] = c
                slots.add((j, mono.q))
        cols.append(col)
    slots = sorted(slots | {(target_index, 0)})
    rows = [[col.get(s, 0) for col in cols] for s in slots]
    rhs = [1 if s == (target_index, 0) else 0 for s in slots]
    sol = solve_mod_p(rows, rhs, p)
    if sol is None:
        return None
    return [
        (candidates[ci][0], candidates[ci][1], sol[ci])
        for ci in range(len(candidates))
        if sol[ci]
    ]


def _step_taint(taint, divisor_index, ring, trunc):
    """Image of taint slots (k, q) under one connection application."""
    out = set()
    for (k, qv) in taint:
        if qv <= trunc:
            out.add((k, qv))  # the t*d/dq part
        for d in ring.q_orders(divisor_index, k):
            if qv + d > trunc:
                break
            for k2 in ring.sc(divisor_index, k, d):
                out.add((k2, qv + d))
    return out


def qsigma_apply(b, x, ring, trunc=None):
    """Evaluate QSigma_b on an element, preferring taint-free routes.

    Per basis class in x: use the solved column when it is untainted; else
    rewrite the class in powers of the primary divisor and push QSt(b)
    through the covariant-constancy relation
        QSigma_b(a * c) = t d_a QSigma_b(c) + a * QSigma_b(c);
    else fall back to the tainted column.  Returns (element, taint).
    """
    _check_truncation(trunc)
    endo, report = solve_qsigma(b, ring)
    if trunc is None:
        trunc = x.trunc if x.trunc is not None else endo.trunc
    a = ring.primary
    a_name = ring.basis[a.index].name
    chains = None
    out = zero_element(ring, trunc)
    taint = set()
    for k, f in sorted(x.components.items()):
        col, col_taint = endo.column(ring.basis[k].name, trunc)
        if col_taint:
            rewritten = _rewrite_in_divisor_powers(ring, k)
            if rewritten is not None:
                if chains is None:
                    base, base_taint = endo.column("1", trunc)
                    chains = [(base, set(base_taint))]
                top = max(npow for npow, _, _ in rewritten)
                while len(chains) <= top:
                    prev, prev_taint = chains[-1]
                    chains.append(
                        (
                            connection_apply(a_name, prev, ring),
                            _step_taint(prev_taint, a.index, ring, trunc),
                        )
                    )
                col = zero_element(ring, trunc)
                col_taint = set()
                for npow, m, c in rewritten:
                    piece, piece_taint = chains[npow]
                    col = col + piece.times_monomial(q=m, coeff=c)
                    col_taint |= {(j, qv + m) for (j, qv) in piece_taint if qv + m <= trunc}
        term = col.retruncate(trunc).times_series(f.retruncate(trunc))
        out = out + term
        for (j, qv) in col_taint:
            for mono in f.terms:
                if qv + mono.q <= trunc:
                    taint.add((j, qv + mono.q))
    return out, taint


def qst_via_generators(expr, ring, trunc=None):
    """QSt of a quantum polynomial in divisor classes.

    expr is a list of terms (coeff, q_exp, factors); each factors tuple is a
    left-to-right quantum product word whose non-final entries must be
    divisors (the generator strategy composes their QSigma through the
    connection).  The final factor may be any basis class; its QSt is solved
    directly.  Returns (element, taint).
    """
    _check_truncation(trunc)
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
            r = qst(word[0], ring)
            elem, tset = r.endo.column("1", trunc)
            return elem, set(tset)
        head = word[0]
        try:
            ring.divisor(head)
        except NotDivisor as exc:
            raise NotGenerated(
                "non-divisor %r in a composite factor word" % (head,)
            ) from exc
        tail, tail_taint = eval_word(word[1:])
        val, val_taint = qsigma_apply(head, tail, ring, trunc)
        # push the tail's own taint through one application of QSigma_head
        return val, val_taint | _step_taint(tail_taint, ring.index(head), ring, trunc)

    for coeff, q_exp, factors in expr:
        val, val_taint = eval_word(tuple(factors))
        shifted = val.times_monomial(q=p * q_exp, coeff=coeff)
        out = out + shifted
        taint |= {(j, qv + p * q_exp) for (j, qv) in val_taint if qv + p * q_exp <= trunc}
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
    a = ring.primary
    a_name = ring.basis[a.index].name
    deg = ring.degree(target)
    for i, be in enumerate(ring.basis):
        if be.degree != deg - 2:
            continue
        u = ring.sc(a.index, i, 0).get(target, 0)
        if not u:
            continue
        others = []
        ok = True
        for d in range(ring.max_q_order() + 1):
            for k, c in ring.sc(a.index, i, d).items():
                if d == 0 and k == target:
                    continue
                if d == 0:
                    ok = False  # simultaneous degree-peers unsupported
                    break
                others.append((d, k, c))
            if not ok:
                break
        if not ok:
            continue
        sub, sub_taint, _ = qst_auto(be.name, ring, trunc)
        val, val_taint = qsigma_apply(a_name, sub.retruncate(out_trunc), ring, out_trunc)
        taint = set(val_taint)
        for d, k, c in others:
            rest, rest_taint, _ = qst_auto(ring.basis[k].name, ring, trunc)
            val = val - rest.retruncate(out_trunc).times_monomial(
                q=ring.prime * d, coeff=c
            )
            taint |= {
                (j, qv + ring.prime * d)
                for (j, qv) in rest_taint
                if qv + ring.prime * d <= out_trunc
            }
        if sub_taint:
            taint |= _step_taint(sub_taint, a.index, ring, out_trunc)
        val = val.scale(fp_inv(u, ring.prime))
        if not taint:
            return val, taint, "generators via %s" % be.name
    return r.element, {(j, d) for (j, d) in r.taint}, "direct (tainted)"
