"""Order-by-order construction of the quantum Steenrod endomorphisms.

QSigma_b is the unique degree p|b| endomorphism that commutes with the
quantum connection, has q^0 layer equal to cup product with the classical
St(b), and has t^0 layer equal to p-fold quantum multiplication by b.  Per
q-order d the commutation condition reads

    lambda*d * E_d  +  sum_{e>=0} (E_{d-e} A_e - A_e E_{d-e})  =  0,

with A_e the q-order-e block of quantum multiplication by the primary
divisor.  When lambda*d is invertible mod p the order is solved by a finite
Neumann series in ad_{A_0} (nilpotent, since cup product with a divisor
strictly raises degree).  When lambda*d vanishes mod p the order is
undetermined up to the connection's kernel: every slot not pinned by the t^0
seeds or by degree pruning is marked tainted, and taint propagates forward
through later right-hand sides.  The solver reports; it never guesses.
"""

from dataclasses import dataclass

from .errors import (
    InconsistentSeed,
    NegativePowerResidue,
    NotDivisor,
    NotGenerated,
)
from .endo import (
    GradedEndomorphism,
    kappa,
    multiplication_endo,
)
from .fp import fp_inv
from .ring import (
    CohomologyElement,
    basis_class,
    connection_apply,
    pfold_power,
    quantum_product,
    zero_element,
)


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


# -- scalar matrix helpers (dicts keyed (i, j)) ------------------------------


def _matmul(x, y, p):
    rows = {}
    for (j, k), c in y.items():
        rows.setdefault(j, []).append((k, c))
    out = {}
    for (i, j), c in x.items():
        for k, c2 in rows.get(j, ()):
            out[(i, k)] = (out.get((i, k), 0) + c * c2) % p
    return {s: c for s, c in out.items() if c}


def _msub(x, y, p):
    out = dict(x)
    for s, c in y.items():
        out[s] = (out.get(s, 0) - c) % p
    return {s: c for s, c in out.items() if c}


def _product_mask(left_mask, left_keys, right_mask, right_keys):
    """Slots of a matrix product that depend on a masked factor slot."""
    out = set()
    right_all = {}
    for (j, k) in right_keys | right_mask:
        right_all.setdefault(j, []).append(k)
    for (i, j) in left_mask:
        for k in right_all.get(j, ()):
            out.add((i, k))
    left_all = {}
    for (i, j) in left_keys | left_mask:
        left_all.setdefault(j, []).append(i)
    for (j, k) in right_mask:
        for i in left_all.get(j, ()):
            out.add((i, k))
    return out


def _divisor_blocks(ring, div):
    """Matrices A_e of quantum multiplication by the divisor, per q-order."""
    blocks = {}
    a = div.index
    for e in range(ring.max_q_order() + 1):
        block = {}
        for i in range(len(ring.basis)):
            for j, c in ring.sc(a, i, e).items():
                block[(i, j)] = c
        if block:
            blocks[e] = block
    return blocks


def _neumann(rhs, rhs_mask, inv, a0, p, nmax):
    """Solve (scalar + ad_{A0}) X = rhs by X = sum inv^{m+1} ad^m(rhs)."""
    acc = {}
    term = rhs
    factor = inv
    for _ in range(nmax):
        if not term:
            break
        for s, c in term.items():
            acc[s] = (acc.get(s, 0) + factor * c) % p
        term = _msub(_matmul(a0, term, p), _matmul(term, a0, p), p)
        factor = factor * inv % p
    else:
        if term:
            raise AssertionError("ad_{A_0} failed to terminate; non-nilpotent input")
    mask = set(rhs_mask)
    frontier = set(rhs_mask)
    for _ in range(nmax):
        if not frontier:
            break
        frontier = _product_mask(set(), set(a0), frontier, set()) | _product_mask(
            frontier, set(), set(), set(a0)
        )
        frontier -= mask
        mask |= frontier
    acc = {s: c for s, c in acc.items() if c and s not in mask}
    return acc, mask


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
    zeros included (a zero seed is still a determination).
    """
    b = to_element(b, ring, 0)
    deg = b.degree
    if trunc is None:
        trunc = ring.default_truncation(deg)
    g = ring.prime * deg
    power = pfold_power(to_element(b, ring, trunc), ring)
    seeds = {}
    for i, be in enumerate(ring.basis):
        col = quantum_product(power, basis_class(ring, be.name, trunc))
        for j in range(len(ring.basis)):
            for d in range(trunc + 1):
                if kappa(ring, g, i, j, d) == 0:
                    seeds[(i, j, d)] = col.coefficient(j, d, 0)
    return seeds


# -- the solver ---------------------------------------------------------------


def solve_qsigma(b, ring, trunc=None):
    """Construct QSigma_b; returns (GradedEndomorphism, SolveReport)."""
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
    div = ring.primary
    lam = div.pairing % p
    if lam == 0:
        raise NotDivisor("primary divisor pairing vanishes mod p")
    blocks = _divisor_blocks(ring, div)
    a0 = blocks.get(0, {})
    n = len(ring.basis)
    nmax = 2 * n + 4

    seeds = tzero_layer(b, ring, trunc)
    layers = {0: {}}
    masks = {0: set()}
    init = initial_layer(b, ring, trunc)
    for (i, j, d), c in init.entries.items():
        if d == 0:
            layers[0][(i, j)] = c
    seed_checks = 0
    seeds_resolving = 0

    for d in range(1, trunc + 1):
        rhs = {}
        rhs_mask = set()
        for e, a_e in blocks.items():
            if e == 0 or e > d:
                continue
            x = layers[d - e]
            xm = masks[d - e]
            rhs = _msub(rhs, _msub(_matmul(x, a_e, p), _matmul(a_e, x, p), p), p)
            rhs_mask |= _product_mask(xm, set(x), set(), set(a_e))
            rhs_mask |= _product_mask(set(), set(a_e), xm, set(x))

        if (lam * d) % p:
            values, mask = _neumann(rhs, rhs_mask, fp_inv(lam * d, p), a0, p, nmax)
        else:
            values, mask = {}, {
                (i, j)
                for i in range(n)
                for j in range(n)
                if kappa(ring, g, i, j, d) is not None
            }

        layer = {}
        layer_mask = set()
        for i in range(n):
            for j in range(n):
                k = kappa(ring, g, i, j, d)
                val = values.get((i, j), 0)
                if k is None:
                    if (i, j) not in mask and val:
                        raise NegativePowerResidue(
                            "nonzero value forced onto dead slot (%s -> %s, q^%d)"
                            % (ring.basis[i].name, ring.basis[j].name, d)
                        )
                    continue
                if k == 0:
                    seed = seeds[(i, j, d)]
                    if (i, j) in mask:
                        seeds_resolving += 1
                    else:
                        seed_checks += 1
                        if val != seed:
                            raise InconsistentSeed(
                                "recurrence gives %d but the p-fold power seeds %d "
                                "at (%s -> %s, q^%d)"
                                % (val, seed, ring.basis[i].name, ring.basis[j].name, d)
                            )
                    if seed:
                        layer[(i, j)] = seed
                    continue
                if (i, j) in mask:
                    layer_mask.add((i, j))
                elif val:
                    layer[(i, j)] = val
        layers[d] = layer
        masks[d] = layer_mask

    entries = {}
    taint = set()
    for d, layer in layers.items():
        for (i, j), c in layer.items():
            entries[(i, j, d)] = c
        for (i, j) in masks[d]:
            taint.add((i, j, d))
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
    blocks = _divisor_blocks(ring, div)
    n = len(ring.basis)
    layers = {d: {} for d in range(endo.trunc + 1)}
    masks = {d: set() for d in range(endo.trunc + 1)}
    for (i, j, d), c in endo.entries.items():
        layers[d][(i, j)] = c
    for (i, j, d) in endo.taint:
        masks[d].add((i, j))

    checked = 0
    failures = []
    commutators = {}
    commutator_masks = {}
    for d in range(endo.trunc + 1):
        com = {}
        com_mask = set()
        for e, a_e in blocks.items():
            if e > d:
                continue
            x = layers[d - e]
            xm = masks[d - e]
            com = _msub(com, _msub(_matmul(a_e, x, p), _matmul(x, a_e, p), p), p)
            com_mask |= _product_mask(xm, set(x), set(), set(a_e))
            com_mask |= _product_mask(set(), set(a_e), xm, set(x))
        commutators[d] = com
        commutator_masks[d] = com_mask
        for i in range(n):
            for j in range(n):
                if (i, j) in com_mask or (i, j) in masks[d]:
                    continue
                res = (lam * d * layers[d].get((i, j), 0) + com.get((i, j), 0)) % p
                checked += 1
                if res:
                    failures.append(
                        "residual %d at %s" % (res, endo.slot_text(i, j, d))
                    )

    pi_checked = 0
    pi_failures = []
    if pi is not None:
        pi_layers = {d: {} for d in range(endo.trunc + 1)}
        for (i, j, d), c in pi.entries.items():
            pi_layers[d][(i, j)] = c
        pi_masks = {d: set() for d in range(endo.trunc + 1)}
        for (i, j, d) in pi.taint:
            pi_masks[d].add((i, j))
        for d in range(endo.trunc + 1):
            for i in range(n):
                for j in range(n):
                    if (i, j) in commutator_masks[d] or (i, j) in pi_masks[d]:
                        continue
                    lhs = pi_layers[d].get((i, j), 0)
                    rhs = (-commutators[d].get((i, j), 0)) % p
                    pi_checked += 1
                    if lhs % p != rhs:
                        pi_failures.append(
                            "divisor relation fails at %s" % endo.slot_text(i, j, d)
                        )
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
        from .series import series_one

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
    sol = _solve_mod_p(rows, rhs, p)
    if sol is None:
        return None
    return [
        (candidates[ci][0], candidates[ci][1], sol[ci])
        for ci in range(len(candidates))
        if sol[ci]
    ]


def _solve_mod_p(rows, rhs, p):
    """Gaussian elimination; returns one solution or None."""
    m = [row[:] + [r] for row, r in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for rr in range(r, len(m)):
            if m[rr][c] % p:
                pivot = rr
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = fp_inv(m[r][c], p)
        m[r] = [x * inv % p for x in m[r]]
        for rr in range(len(m)):
            if rr != r and m[rr][c] % p:
                f = m[rr][c]
                m[rr] = [(x - f * y) % p for x, y in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
    for rr in range(r, len(m)):
        if m[rr][ncols] % p:
            return None
    sol = [0] * ncols
    for idx, c in enumerate(pivots):
        sol[c] = m[idx][ncols]
    return sol


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
