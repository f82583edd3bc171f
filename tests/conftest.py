"""Shared generators and independent oracles for the test suite.

The oracles here are deliberately naive (full enumeration, direct
integration) and never call the code paths they are used to check.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from kwrob import DiscretePMF, DomainError, EqualRevenue, ProductPrior, ShiftedEqualRevenue, Uniform, check_regular
from kwrob.mechanisms import threshold_payment, virtual_values
from kwrob.bounds import _case2a_g, _lb2_kinks_in_s, _log1p_ratio, lb2_vec
from kwrob.quadrature import integrate, integrate_to_infinity
from kwrob.priors import (
    Branch,
    Conditioned,
    FixedValue,
    MixturePrior,
    TablePrior,
    _branch_parts,
    cell_values,
    natural_grids,
    q1q2_from_qvec,
    threshold_probs,
)


class FullMarginal:
    """Reference branch component: the unconditioned marginal, as the
    priors module wrote it before Conditioned replaced it."""

    def __init__(self, marginal):
        self.marginal = marginal

    def quantile_q(self, tau):
        return self.marginal.quantile_q(tau)

    def atom_mass(self, x):
        return self.marginal.atom_mass(x)

    @property
    def support(self):
        return self.marginal.support

    def cutoffs(self):
        return []

    def sample(self, rng, size):
        u = 1.0 - rng.random(size)
        return self.marginal.q_inverse(u)


class ConditionalBelow:
    """Reference branch component: the marginal conditioned on v < cutoff
    (atom at the cutoff excluded)."""

    def __init__(self, marginal, cutoff):
        self.marginal, self.cutoff = marginal, cutoff
        self._qc = marginal.quantile_q(cutoff)
        if self._qc >= 1.0:
            raise DomainError("conditioning event v < cutoff has zero probability")

    def quantile_q(self, tau):
        qc = self._qc
        if tau > self.cutoff:
            return 0.0
        return (self.marginal.quantile_q(tau) - qc) / (1.0 - qc)

    def atom_mass(self, x):
        if x >= self.cutoff:
            return 0.0
        return self.marginal.atom_mass(x) / (1.0 - self._qc)

    @property
    def support(self):
        lo, hi = self.marginal.support
        return (lo, min(hi, self.cutoff))

    def cutoffs(self):
        return [self.cutoff]

    def sample(self, rng, size):
        qc = self._qc
        u = 1.0 - rng.random(size)
        return self.marginal.q_inverse(qc + u * (1.0 - qc))


class ConditionalAtLeast:
    """Reference branch component: the marginal conditioned on v >= cutoff
    (atom at the cutoff included)."""

    def __init__(self, marginal, cutoff):
        self.marginal, self.cutoff = marginal, cutoff
        self._qc = marginal.quantile_q(cutoff)
        if self._qc <= 0.0:
            raise DomainError("conditioning event v >= cutoff has zero probability")

    def quantile_q(self, tau):
        if tau <= self.cutoff:
            return 1.0
        return self.marginal.quantile_q(tau) / self._qc

    def atom_mass(self, x):
        if x < self.cutoff:
            return 0.0
        return self.marginal.atom_mass(x) / self._qc

    @property
    def support(self):
        lo, hi = self.marginal.support
        return (max(lo, self.cutoff), hi)

    def cutoffs(self):
        return [self.cutoff]

    def sample(self, rng, size):
        u = 1.0 - rng.random(size)
        return self.marginal.q_inverse(u * self._qc)


def q1q2_enumerate(qs):
    """Pr[>=1], Pr[>=2] for independent Bernoulli events, by enumerating
    all 2^n outcomes; exact when qs are Fractions."""
    n = len(qs)
    q1 = q2 = 0
    for bits in itertools.product([0, 1], repeat=n):
        p = 1
        for b, q in zip(bits, qs):
            p *= q if b else (1 - q)
        c = sum(bits)
        if c >= 1:
            q1 += p
        if c >= 2:
            q2 += p
    return q1, q2


def q1_ind(marginals, tau):
    """Q1 at tau under the independent prior on these marginals."""
    return threshold_probs(ProductPrior(marginals), tau)[0]


def q2_ind(marginals, tau):
    """Q2 at tau under the independent prior on these marginals."""
    return threshold_probs(ProductPrior(marginals), tau)[1]


def q2_ind_from_q(qs):
    """Q2 of independent events with probabilities qs."""
    return q1q2_from_qvec(qs)[1]


def cdf_identity_gaps(comp, marks):
    """Per x at each mark and one ulp either side: the gap between the CDF
    read as 1 - q(x) + atom(x) and read as 1 - q(x+), with x+ the next float
    above x.  Zero up to rounding when q and atom_mass agree on what counts
    as an atom."""
    xs = [y for x in marks for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]
    return {
        x: abs((1.0 - comp.quantile_q(x) + comp.atom_mass(x)) - (1.0 - comp.quantile_q(math.nextafter(x, math.inf))))
        for x in xs
    }


def table_cells(table):
    """Iterate (value tuple, mass) over all cells of a TablePrior, in C order."""
    for idx in np.ndindex(table.pmf.shape):
        yield tuple(table.supports[j][idx[j]] for j in range(table.n_bidders)), float(table.pmf[idx])


def table_csv_reference(table, path):
    """The table CSV written cell by cell through write_csv_reference."""
    header = [f"v{i+1}" for i in range(table.n_bidders)] + ["mass"]
    write_csv_reference(path, header, [list(values) + [mass] for values, mass in table_cells(table)])


def table_q1q2_enumerate(table, tau):
    q1 = q2 = 0.0
    for values, mass in table_cells(table):
        c = sum(v >= tau for v in values)
        if c >= 1:
            q1 += mass
        if c >= 2:
            q2 += mass
    return q1, q2


def table_revenue_enumerate(table, payment_fn):
    return sum(mass * payment_fn(values) for values, mass in table_cells(table))


def phi_inv_scan(points, phis, y, strict):
    """First point whose virtual value is > y (strict) or >= y, by a linear
    scan; None when there is none."""
    for p, ph in zip(points, phis):
        if (ph > y) if strict else (ph >= y):
            return p
    return None


def _phi_inv(m, y, strict):
    if isinstance(m, Uniform):  # phi(v) = 2v - hi is continuous and increasing
        if (y >= m.hi) if strict else (y > m.hi):
            return None
        return min(max((y + m.hi) / 2.0, m.lo), m.hi)
    if isinstance(m, DiscretePMF):
        return phi_inv_scan(m.points, m.ironed.phi, y, strict)
    # (shifted) equal revenue: phi is its shift below the top atom
    lo, top = m.support
    return phi_inv_scan((lo, top), (getattr(m, "shift", 0.0), top), y, strict)


def prob_phi_geq_reference(m, nu):
    """Pr[virtual value >= nu] by the per-class formulas the marginals
    carried before the base class derived it from phi_geq_inv and q."""
    if isinstance(m, Uniform):
        return m.quantile_q((nu + m.hi) / 2.0)
    if isinstance(m, DiscretePMF):
        return sum(w for w, ph in zip(m.masses, m.ironed.phi) if ph >= nu)
    # (shifted) equal revenue: its shift below the top atom
    shift = getattr(m, "shift", 0.0)
    if nu <= shift:
        return 1.0
    if nu <= m.hi + shift:
        return m.lo / m.hi
    return 0.0


def phi_reference(m, v):
    """Virtual value of support value v: the closed form of a parametric
    marginal, or the ironed value of the matching point of a DiscretePMF."""
    if isinstance(m, Uniform):
        return 2.0 * v - m.hi
    if isinstance(m, DiscretePMF):
        for p, ph in zip(m.points, m.ironed.phi):
            if abs(p - v) <= 1e-12 * max(1.0, abs(v)):
                return ph
        raise DomainError(f"value {v} not in support {m.points}")
    # (shifted) equal revenue: its shift below the top atom, the top above
    lo, top = m.support
    return top if abs(v - top) <= 1e-12 * max(1.0, top) else getattr(m, "shift", 0.0)


def threshold_reference(mech, i, best_key):
    """Scalar threshold bid of bidder i against the strongest competing
    allocation key (None when no competitor is eligible)."""
    m = mech.marginals[i]
    t0 = _phi_inv(m, 0.0, False)
    if t0 is None:
        raise DomainError(f"marginal {i} never reaches nonnegative virtual value")
    if best_key is None:
        return t0
    phi_star = best_key[0]
    candidates = []
    t_strict = _phi_inv(m, phi_star, True)
    if t_strict is not None:
        candidates.append(t_strict)
    t_geq = _phi_inv(m, phi_star, False)
    if t_geq is not None and i < -best_key[-1]:
        candidates.append(t_geq)
    if not candidates:
        return np.inf
    return max(t0, min(candidates))


def myerson_reference(mech, values):
    """(winner, payment) of the optimal mechanism on one value vector, by
    sorting the eligible bidders' allocation keys (phi, -i), one bidder at
    a time."""
    keys = []
    for i, (m, v) in enumerate(zip(mech.marginals, values)):
        lo, hi = m.support
        if not (lo - 1e-9 <= v <= hi + 1e-9):
            raise DomainError(f"value {v} of bidder {i} outside support [{lo}, {hi}]")
        phi = phi_reference(m, v)
        if phi >= 0.0:
            keys.append(((phi, -i), i))
    if not keys:
        return None, 0.0
    keys.sort(reverse=True)
    winner = keys[0][1]
    pay = threshold_reference(mech, winner, keys[1][0] if len(keys) > 1 else None)
    assert pay <= values[winner] + 1e-9
    return winner, min(pay, values[winner])


def sample_reference(prior, seed, size):
    """(size x n) draws from a product or mixture prior, one bidder column
    at a time: a product draws each marginal in bidder order; a mixture
    draws every row's branch, then per branch the slot pick and per bidder
    its plain component for all the branch's rows and, when any row picked
    it, its chosen component for all of them too, keeping the picked rows'
    chosen draws."""
    rng = np.random.default_rng(seed)
    if isinstance(prior, ProductPrior):
        return np.column_stack([FullMarginal(m).sample(rng, size) for m in prior.marginals])
    n = prior.n_bidders
    weights = np.array([b.weight for b in prior.branches])
    branch_idx = rng.choice(len(weights), size=size, p=weights / weights.sum())
    out = np.empty((size, n))
    for bi, branch in enumerate(prior.branches):
        rows = np.nonzero(branch_idx == bi)[0]
        if rows.size == 0:
            continue
        if branch.members:
            picked = np.array(branch.members)[rng.integers(0, len(branch.members), size=rows.size)]
        for i in range(n):
            plain, chosen = branch.component_pair(i)
            vals = plain.sample(rng, rows.size)
            if chosen is not None:
                mine = picked == i
                if np.any(mine):
                    vals = np.where(mine, chosen.sample(rng, rows.size), vals)
            out[rows, i] = vals
    return out


def q_inverse_reference(m, p):
    """Reference for the marginals' q_inverse, as the marginals module
    computed it before each class inverted in place: a new array per
    step."""
    p = np.asarray(p, dtype=float)
    if isinstance(m, ShiftedEqualRevenue):
        return q_inverse_reference(EqualRevenue(m.lo, m.hi), p) + m.shift
    if isinstance(m, EqualRevenue):
        return np.divide(m.lo, p, out=np.full(p.shape, float(m.hi)), where=p > m.lo / m.hi)
    if isinstance(m, Uniform):
        return m.hi - p * (m.hi - m.lo)
    k = np.searchsorted(-m._tail, -p, side="right") - 1
    return np.asarray(m.points)[np.clip(k, *m._positive_span)]


def component_sample_reference(comp, rng, size):
    """Reference for a branch component's draws, as the priors module
    computed them before it drew in place: q_inverse of
    q_hi + (1 - u)(q_lo - q_hi), or a full array of a fixed value."""
    if isinstance(comp, FixedValue):
        return np.full(size, comp.value)
    u = 1.0 - rng.random(size)
    return q_inverse_reference(comp.marginal, comp._q_hi + u * (comp._q_lo - comp._q_hi))


def sample_by_mask_reference(prior, seed, size=None):
    """Reference for priors.sample, as the priors module drew before it
    grouped the slot rows: a mixture draws its branch per row (none for
    one branch), then per branch the slot pick, then per bidder its plain
    component for the branch's rows and its chosen component for
    rows[picked == i], written into an (n, size) buffer by index."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    m = 1 if size is None else int(size)
    out = np.empty((prior.n_bidders, m))
    if len(prior.branches) == 1:
        branch_rows = [np.arange(m)]
    else:
        weights = np.array([b.weight for b in prior.branches])
        branch_idx = rng.choice(len(weights), size=m, p=weights / weights.sum())
        branch_rows = [np.flatnonzero(branch_idx == bi) for bi in range(len(weights))]
    for branch, rows in zip(prior.branches, branch_rows):
        if rows.size == 0:
            continue
        members = branch.members
        if members:
            picked = np.array(members)[rng.integers(0, len(members), size=rows.size)]
        for i in range(prior.n_bidders):
            plain, chosen = branch.component_pair(i)
            out[i, rows] = component_sample_reference(plain, rng, rows.size)
            if chosen is not None:
                mine = rows[picked == i]
                if mine.size:
                    out[i, mine] = component_sample_reference(chosen, rng, mine.size)
    return out[:, 0] if size is None else out.T


def run_batch_reference(mech, V):
    """Reference for mechanisms.run_batch, as the mechanisms module swept
    before it checked columns by min and max: three-pass checks, new
    arrays for every comparison, and winners priced bidder by bidder."""
    V = np.asarray(V, dtype=float)
    rows, n = V.shape
    NEG = -np.inf

    def columns():
        for i in range(n):
            v = np.ascontiguousarray(V[:, i])
            if not ((v >= 0.0) & (v < np.inf)).all():
                raise DomainError(f"values of bidder {i} must be finite and nonnegative")
            yield i, v

    if not hasattr(mech, "marginals"):
        top, second, winner = np.full(rows, NEG), np.full(rows, NEG), np.zeros(rows, dtype=int)
        for i, v in columns():
            winner[v > top] = i
            second = np.maximum(second, np.minimum(top, v))
            top = np.maximum(top, v)
        winner[top < mech.r] = -1
        return winner, np.where(winner >= 0, np.maximum(mech.r, second), 0.0)
    b_phi, b_idx = np.full(rows, NEG), np.full(rows, -1)
    s_phi, s_idx = np.full(rows, NEG), np.full(rows, -1)
    for i, v in columns():
        phi = virtual_values(mech.marginals[i], v, i)
        phi = np.where(phi >= 0.0, phi, NEG)
        beats_best = phi > b_phi
        beats_second = phi > s_phi
        top = np.flatnonzero(beats_best)
        sec = np.flatnonzero(beats_second & ~beats_best)
        for second, best in ((s_phi, b_phi), (s_idx, b_idx)):
            second[top] = best[top]
        b_phi[top], b_idx[top] = phi[top], i
        s_phi[sec], s_idx[sec] = phi[sec], i
    pay = np.zeros(rows)
    for i in np.unique(b_idx[b_idx >= 0]):
        won = b_idx == i
        pay[won] = threshold_payment(mech, i, s_phi[won], s_idx[won])
    won = np.flatnonzero(b_idx >= 0)
    value = V[won, b_idx[won]]
    assert not np.any(pay[won] > value + 1e-9)
    pay[won] = np.minimum(pay[won], value)
    return b_idx, pay


def write_csv_reference(path, header, rows):
    """Reference for io.write_csv, as the io module wrote it before it
    formatted float rows by one % operation: every cell on its own."""

    def fmt(x):
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return format(float(x), ".17g")

    lines = [",".join(x if isinstance(x, str) else fmt(x) for x in row) for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def kwise_rows_reference(shape, masses, k):
    """The k-wise constraint family A p = b on the C-order cells of `shape`,
    one dense 0/1 mask at a time: the total-mass row, then a row per subset
    S with |S| <= k (in combinations order) and per cell c of S (in C
    order), whose right-hand side is prod_{i in S} masses[i][c_i]."""
    n = len(shape)
    rows, rhs = [np.ones(int(np.prod(shape)))], [1.0]
    for size in range(1, min(k, n) + 1):
        for subset in itertools.combinations(range(n), size):
            for combo in itertools.product(*[range(shape[i]) for i in subset]):
                mask = np.ones(shape, dtype=bool)
                for i, ci in zip(subset, combo):
                    sel = np.zeros(shape[i], dtype=bool)
                    sel[ci] = True
                    expand = [1] * n
                    expand[i] = shape[i]
                    mask &= sel.reshape(expand)
                rows.append(mask.ravel().astype(float))
                rhs.append(float(np.prod([masses[i][ci] for i, ci in zip(subset, combo)])))
    return np.array(rows), np.array(rhs)


def kwise_basis_csr_reference(shape, masses, k):
    """The solver's basis rows built directly: the blocks of the k-wise
    family restricted to the c that avoid each bidder's last point, as
    (indptr, indices, data, b) of a CSR matrix."""
    n, n_cells = len(shape), int(np.prod(shape))
    grid = np.arange(n_cells).reshape(shape)
    blocks, rhs = [grid.reshape(1, n_cells)], [np.ones(1)]
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(n), size):
            kept = grid[tuple(slice(shape[i] - 1) if i in subset else slice(None) for i in range(n))]
            block = np.moveaxis(kept, subset, range(size))
            blocks.append(block.reshape(int(np.prod(block.shape[:size])), -1))
            r = np.ones(1)
            for i in subset:
                r = np.multiply.outer(r, masses[i][: shape[i] - 1]).ravel()
            rhs.append(r)
    lengths = np.repeat([b.shape[1] for b in blocks], [b.shape[0] for b in blocks])
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    indices = np.concatenate([b.ravel() for b in blocks])
    return indptr, indices, np.ones(indices.size), np.concatenate(rhs)


def product_pmf(poly):
    """The independent table on poly's cells, C order."""
    out = np.ones(1)
    for m in poly.masses:
        out = np.multiply.outer(out, np.asarray(m)).ravel()
    return out


def fine_solve(poly, c):
    """min c.x over poly's own basis, never merging points: the solver's
    certified optimum written as a re-checked table."""
    from kwrob.lp import _certified_optimum, _table

    return _table(poly, *_certified_optimum(poly.A_red, poly.b_red, c))


def conditioned_out_solve(poly, c):
    """`lp._solve` with every one-point bidder conditioned out: solve on the
    bidders with at least two points, then insert the one-point bidders'
    singleton axes into the table.  A singleton axis does not move cells
    in C order, so c and the solved pmf keep their layout."""
    from kwrob.lp import KwisePolytope, WorstCaseSolution, _solve

    active = [i for i, s in enumerate(poly.supports) if len(s) > 1]
    sub = KwisePolytope([poly.supports[i] for i in active], [poly.masses[i] for i in active], poly.k)
    sol = _solve(sub, c)
    table = TablePrior(poly.supports, sol.table.pmf.reshape(poly.shape))
    return WorstCaseSolution(table, sol.objective, sol.duality_gap, sol.iterations, sol.feasibility_residual)


def myerson_branch_revenue_reference(mech, vals, masses):
    """Reference for revenue._myerson_branch_revenue, as the revenue module
    computed it before the bidders shared one key axis: a key grid with
    its own columns per bidder, so no two bidders share a key, and a
    Python loop over the bidders.

    Exact expected revenue of the virtual-value mechanism on one mixture
    branch.  Bidder i's value is vals[i][c] with probability
    masses[i][0][c] (its plain component) or, when it is the slot's chosen
    member, masses[i][1][c] (chosen is None off the slot); each of the k
    slot members is chosen with probability s_i = 1/k.  Masses of at most
    1e-18 are dropped.

    Sweep: sort every (bidder, value) pair by its allocation key; column 0
    of the key grid is "no eligible competitor".  Conditional on the
    strongest competing key kappa, bidder i wins iff its own key beats
    kappa and then pays the threshold t_i(kappa).  Within a branch part the
    bidders are independent, so Pr[strongest competing key <= key_t] is a
    leave-one-out product of per-bidder key CDFs: A from the plain CDFs Cp,
    and B, the mixture over chosen members m of s_m Cc_m times the other
    bidders' Cp, from the recursion B_{i+1} = B_i Cp_i + s_i A_i Cc_i.
    Bidder i is priced plain against B (A without a slot) and, with weight
    s_i, chosen against A: one pass per branch.
    """
    n = len(vals)
    k = sum(chosen is not None for _, chosen in masses)  # slot members
    s = np.array([0.0 if chosen is None else 1.0 / k for _, chosen in masses])
    cols = []  # per bidder: (phi, bidder, plain mass, chosen mass)
    for i, (v, (p, c)) in enumerate(zip(vals, masses)):
        p = np.where(p > 1e-18, p, 0.0)
        c = np.zeros_like(p) if c is None else np.where(c > 1e-18, c, 0.0)
        keep = (p > 0.0) | (c > 0.0)
        v = v[keep]
        cols.append((virtual_values(mech.marginals[i], v, i), np.full(len(v), i), p[keep], c[keep]))
    phi, who, p, c = (np.concatenate(x) for x in zip(*cols))
    phi = np.where(phi >= 0.0, phi, -np.inf)  # ineligible values sort first
    # ascending allocation keys (phi, -i); equal keys (one bidder's
    # ironed-flat values) share a column
    order = np.lexsort((-who, phi))
    phi, who, p, c = phi[order], who[order], p[order], c[order]
    new = np.append(True, (phi[1:] != phi[:-1]) | (who[1:] != who[:-1])) & (phi > -np.inf)
    if not new.any():
        return 0.0  # no eligible value, no sale
    col = np.cumsum(new)  # 0 for the ineligible values
    key_phi, key_who = np.append(-np.inf, phi[new]), np.append(-1, who[new])

    # Cp[i, t], Cc[i, t] = Pr[bidder i's key is ineligible or <= key_t]
    Cp, Cc = np.zeros((n, len(key_phi))), np.zeros((n, len(key_phi)))
    np.add.at(Cp, (who, col), p)
    np.add.at(Cc, (who, col), c)
    np.cumsum(Cp, axis=1, out=Cp)
    np.cumsum(Cc, axis=1, out=Cc)

    # products over the bidders before (A_pre) and after (A_suf) bidder i
    ones = np.ones((1, len(key_phi)))
    A_pre = np.concatenate((ones, np.cumprod(Cp[:-1], axis=0)))
    A_suf = np.concatenate((np.cumprod(Cp[:0:-1], axis=0)[::-1], ones))
    B_suf, B_pre = np.zeros_like(Cp), np.zeros(len(key_phi))
    if k:  # without a slot B stays 0 and is never read
        for i in range(n - 1, 0, -1):
            B_suf[i - 1] = B_suf[i] * Cp[i] + s[i] * A_suf[i] * Cc[i]

    terms = []
    for i in range(n):
        thr = threshold_payment(mech, i, key_phi, key_who)
        loo_A = A_pre[i] * A_suf[i]
        loo_B = A_pre[i] * B_suf[i] + B_pre * A_suf[i] if k else loo_A
        for weight, loo, C in ((1.0, loo_B, Cp[i]), (s[i], loo_A, Cc[i])):
            if weight:
                # Pr[strongest competing key = key_t], Pr[bidder i beats it]
                p_eq, win = loo - np.concatenate(([0.0], loo[:-1])), 1.0 - C
                ok = (p_eq > 1e-18) & (win > 0.0) & (thr < np.inf)
                terms.append((weight * p_eq * win)[ok] * thr[ok])
        if k:
            B_pre = B_pre * Cp[i] + s[i] * A_pre[i] * Cc[i]
    return math.fsum(np.concatenate(terms))


def q1q2_from_qvec_reference(qs):
    """Reference for priors.q1q2_from_qvec on one event vector, as the
    priors module computed it before it reduced a matrix row by row."""
    q = np.clip(np.asarray(qs, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        logs = np.log1p(-q)
    any_before = 0.0 - np.expm1(np.concatenate(([0.0], np.cumsum(logs[:-1]))))
    none_after = np.append(np.cumprod((1.0 - q)[:0:-1])[::-1], 1.0)
    return float(0.0 - np.expm1(logs.sum())), float(np.sum(q * any_before * none_after))


def class_of_reference(prior):
    """Reference for MixturePrior._class_of, as the priors module computed
    it before it grouped bidders by object identity: per bidder, the index
    of its (marginal, per-branch (plain, chosen) components) key by value,
    numbered in order of first bidder."""
    ids = {}
    return tuple(
        ids.setdefault((m,) + tuple(b.component_pair(i) for b in prior.branches), len(ids))
        for i, m in enumerate(prior.marginals)
    )


def threshold_probs_reference(prior, tau):
    """Reference for priors.threshold_probs at one float tau, as the priors
    module computed it before it took arrays of tau: the branch parts, the
    class representatives and the chosen column found anew for each tau."""
    if math.isnan(tau):
        raise DomainError("tau must not be NaN")
    if isinstance(prior, TablePrior):
        counts = (cell_values(prior.supports) >= tau).sum(axis=1)
        flat = prior.pmf.ravel()
        return float(flat[counts >= 1].sum()), float(flat[counts >= 2].sum())
    classes = np.asarray(prior._class_of)
    reps = np.unique(classes, return_index=True)[1]
    q1 = q2 = 0.0
    for branch in prior.branches:
        q_plain = np.array([branch.components[r].quantile_q(tau) for r in reps])[classes]
        for share, chosen in _branch_parts(prior, branch):
            qs = q_plain
            if chosen is not None:
                qs = q_plain.copy()
                qs[chosen] = branch.chosen[chosen].quantile_q(tau)
            t1, t2 = q1q2_from_qvec_reference(qs)
            q1 += branch.weight * share * t1
            q2 += branch.weight * share * t2
    return q1, q2


def case2a_kinks_reference(p_bar):
    """Reference for bounds._case2a_kinks, as the bounds module computed it
    before it seeded the bisection: every kink bisected from [0, 1], 80
    halvings."""
    g = _case2a_g(p_bar)
    s_k = _lb2_kinks_in_s(1.0, 2.0, m_cap=20_000)
    lo, hi = np.zeros(len(s_k)), np.ones(len(s_k))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = g(mid) > s_k
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return (0.5 * (lo + hi))[::-1]


def lb2_cumulative_grid_reference():
    """Reference for bounds.lb2_cumulative_grid, as the bounds module
    computed it before it merged the two sorted grids: np.unique of their
    concatenation."""
    base = np.linspace(1e-6, 1.0, 400_001)
    extra = 1.0 / _lb2_kinks_in_s(1.0, 1e6, m_cap=4000)
    extra = extra[extra > 1e-6]
    u = np.unique(np.concatenate([base, extra]))
    vals = lb2_vec(1.0 / u)
    seg = 0.5 * (vals[1:] + vals[:-1]) * np.diff(u)
    cum_from_left = np.concatenate([[0.0], np.cumsum(seg)])
    return u, cum_from_left[-1] - cum_from_left


def split_integral_identity(p_bar):
    """(closed form, quadrature over [0,1], quadrature over [1, inf)) of
    p(1-p) / (((1-p)x + p)(px + (1-p))), the two-sided identity of the
    tail/core comparison.  The closed form p(1-p) log((1-p)/p) / (1-2p) is
    taken as (1-p) log1p(x)/x with x = (1-2p)/p, which is 1/2 at p = 1/2
    and keeps full relative precision around it."""
    if not 0.0 < p_bar < 1.0:
        raise DomainError("p_bar must be in (0, 1)")
    closed = (1.0 - p_bar) * float(_log1p_ratio((1.0 - 2.0 * p_bar) / p_bar))

    def f(x):
        return p_bar * (1.0 - p_bar) / (((1.0 - p_bar) * x + p_bar) * (p_bar * x + (1.0 - p_bar)))

    left = integrate(f, 0.0, 1.0, abs_tol=1e-11)
    right = integrate_to_infinity(f, 1.0, abs_tol=1e-11)
    return closed, left, right


def random_regular_discrete(rng, max_pts=4, lo=0.1, hi=10.0):
    """Rejection-sample a discrete marginal whose revenue-quantile polyline
    is concave."""
    for _ in range(2000):
        k = int(rng.integers(2, max_pts + 1))
        pts = np.unique(np.round(np.sort(rng.uniform(lo, hi, size=k)), 3))
        if len(pts) < 2:
            continue
        w = rng.dirichlet(np.ones(len(pts)))
        w = np.round(w, 6)
        w[-1] = 1.0 - w[:-1].sum()
        if np.any(w <= 0):
            continue
        m = DiscretePMF(pts.tolist(), w.tolist())
        if check_regular(m):
            return m
    raise RuntimeError("failed to sample a regular discrete marginal")


def random_discrete(rng, max_pts=4, lo=0.1, hi=10.0):
    for _ in range(100):
        k = int(rng.integers(2, max_pts + 1))
        pts = np.unique(np.round(np.sort(rng.uniform(lo, hi, size=k)), 3))
        if len(pts) < 2:
            continue
        w = rng.dirichlet(np.ones(len(pts)))
        w = np.round(w, 6)
        w[-1] = 1.0 - w[:-1].sum()
        if np.any(w <= 0):
            continue
        return DiscretePMF(pts.tolist(), w.tolist())
    raise RuntimeError


def random_marginal(rng):
    """One marginal of a random class: equal revenue, shifted equal
    revenue, uniform, or discrete with Dirichlet masses (whose sum may
    round one ulp off 1)."""
    kind = int(rng.integers(4))
    lo = float(rng.uniform(0.05, 1.0))
    if kind == 0:
        return EqualRevenue(lo, lo * float(rng.uniform(1.0, 10.0)))
    if kind == 1:
        return ShiftedEqualRevenue(lo, lo * float(rng.uniform(1.0, 10.0)), float(rng.uniform(0.0, 1.0)))
    if kind == 2:
        return Uniform(lo, lo + float(rng.uniform(0.1, 3.0)))
    pts = np.unique(np.round(rng.uniform(0.1, 10.0, size=int(rng.integers(1, 5))), 3))
    return DiscretePMF(pts.tolist(), rng.dirichlet(np.ones(len(pts))).tolist())


def random_scaled_regular_family(rng, n_max=5):
    """Random regular parametric marginals rescaled so the expected number
    of bidders strictly above 1 is at most 1 (the normalization the tail
    bounds assume)."""
    n = int(rng.integers(2, n_max + 1))
    ms = []
    for _ in range(n):
        if rng.random() < 0.5:
            lo = float(rng.uniform(0.05, 1.0))
            hi = lo * float(rng.uniform(1.5, 20.0))
            ms.append(EqualRevenue(lo, hi))
        else:
            lo = float(rng.uniform(0.0, 1.0))
            hi = lo + float(rng.uniform(0.5, 10.0))
            ms.append(Uniform(lo, hi))

    def above(v):
        return sum(m.quantile_q(v) for m in ms)

    lo_v = min(m.support[0] for m in ms)
    hi_v = max(m.support[1] for m in ms)
    a, b = lo_v - 1.0, hi_v + 1.0
    for _ in range(100):
        mid = 0.5 * (a + b)
        if above(mid) >= 1.0:
            a = mid
        else:
            b = mid
    scale = 1.0 / max(a, 1e-9)

    def rescale(m):
        if isinstance(m, EqualRevenue):
            return EqualRevenue(m.lo * scale, m.hi * scale)
        return Uniform(m.lo * scale, m.hi * scale)

    return [rescale(m) for m in ms]


@st.composite
def slot_mixtures(draw):
    """2-4 bidders on DiscretePMF marginals: a plain branch and a branch
    with a random-index slot whose members come from two classes of
    identical bidders, sometimes told apart only by their chosen component
    (a third class, when drawn, stays outside the slot).  Every component's
    values are points of its bidder's marginal."""

    def marginal():
        k = draw(st.integers(2, 4))
        pts = sorted(draw(st.lists(st.integers(1, 40), min_size=k, max_size=k, unique=True)))
        w = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        return DiscretePMF([p / 4 for p in pts], [x / sum(w) for x in w])

    def component(m):
        kind = draw(st.sampled_from(["full", "fixed", "below", "at_least"]))
        if kind == "full":
            return Conditioned(m)
        if kind == "fixed":
            return FixedValue(draw(st.sampled_from(m.points)))
        cut = draw(st.sampled_from(m.points[1:]))
        return Conditioned(m, hi=cut) if kind == "below" else Conditioned(m, lo=cut)

    n_classes = draw(st.integers(2, 3))
    n = draw(st.integers(n_classes, 4))
    extra = st.lists(st.integers(0, n_classes - 1), min_size=n - n_classes, max_size=n - n_classes)
    of = draw(st.permutations(list(range(n_classes)) + draw(extra)))  # class of each bidder
    classes = []  # (marginal, plain, chosen, unchosen)
    for c in range(n_classes):
        if c == 1 and draw(st.booleans()):
            # differs from class 0 only in its chosen component
            m, plain, _, unchosen = classes[0]
            classes.append((m, plain, component(m), unchosen))
        else:
            m = marginal()
            classes.append((m, component(m), component(m), component(m)))
    w = draw(st.integers(1, 9)) / 10
    plain = Branch(w, tuple(classes[c][1] for c in of))
    listed = tuple(classes[c][3] if c < 2 else classes[c][1] for c in of)
    chosen = tuple(classes[c][2] if c < 2 else None for c in of)
    slotted = Branch(1.0 - w, listed, chosen)
    return MixturePrior([classes[c][0] for c in of], [plain, slotted])


# Brute-force oracle: direct maximisation of Q2_ind over probability vectors


def q2_ind_upper_objective(p, tau):
    """1 - (1 + sum p_i/(tau(1-p_i))) / prod(1 + p_i/(tau(1-p_i))): the
    quantity maximised over probability vectors p with a fixed sum to bound
    Q2_ind(tau) for regular marginals."""
    p = np.asarray(p, dtype=float)
    if np.any(p >= 1.0):
        ok = p[p < 1.0]
        # a certain bidder contributes an unbounded factor; limit objective
        others = 1.0 + ok / (tau * (1.0 - ok))
        return 1.0 - 1.0 / float(np.prod(others))
    terms = p / (tau * (1.0 - p))
    return 1.0 - (1.0 + float(terms.sum())) / float(np.prod(1.0 + terms))


def _sorted_compositions(total_ticks, parts):
    """Non-increasing integer tuples of length `parts` summing to
    total_ticks (partitions padded with zeros)."""

    def rec(remaining, cap, slots):
        if slots == 1:
            if remaining <= cap:
                yield (remaining,)
            return
        lo = (remaining + slots - 1) // slots
        for first in range(min(cap, remaining), lo - 1, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(total_ticks, total_ticks, parts)


def q2_ind_grid_max(s0: float, tau: float, n: int, resolution: int = 200):
    """Grid-search maximum of the Q2_ind upper-bound objective subject to
    sum p_i = s0, p_i >= 0, at grid resolution 1/resolution.  The objective
    is symmetric, so only sorted vectors are enumerated.  Returns
    (max_value, argmax_p)."""
    if n > 6:
        raise DomainError("grid search supports n <= 6")
    if not 0.0 < s0 <= 1.0:
        raise DomainError("s0 must be in (0, 1]")
    ticks = round(s0 * resolution)
    best_val, best_p = -np.inf, None
    for comp in _sorted_compositions(ticks, n):
        p = np.array(comp, dtype=float) / resolution
        val = q2_ind_upper_objective(p, tau)
        if val > best_val:
            best_val, best_p = val, p
    return float(best_val), best_p


def split_grids(mix):
    """The natural grids with the first cell of bidder n // 2 split at its
    midpoint, so that bidder's grid differs from the rest of its class."""
    grids = natural_grids(mix)
    g = grids[mix.n_bidders // 2]
    g.insert(1, (g[0] + g[1]) / 2)
    return grids


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
