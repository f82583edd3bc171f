"""Expected-revenue evaluation.

Exact paths:

* tables        - one cell-value matrix of the support cells with mass,
                  priced by one mechanism_payments call.
* products      - per-bidder independent distributions; AR revenue via the
                  identity AR(r) = r Q1(r) + integral of Q2 above r, the
                  optimal mechanism as a one-branch mixture.
* mixtures      - branch-wise: within a branch part the components are
                  independent.  The optimal mechanism takes one sweep per
                  branch over the global "competing key" grid
                  (_myerson_branch_revenue), which folds a random-index
                  slot's members in as a mixture of leave-one-out key
                  CDFs, under either tie rule, with cell masses from
                  priors._cell_masses.

Every Myerson payment comes from the one threshold formula,
mechanisms.threshold_payment: tables and Monte Carlo blocks reach it through
the batch kernel behind mechanism_payments (re-exported here), and the
branch sweep calls it once per bidder per branch over the whole key grid.
Monte Carlo is block-seeded and bit-for-bit reproducible for a fixed (seed,
block size).  The ex-ante relaxation quantities (threshold level,
per-bidder prices/probabilities/revenues) and the associated robustness
predicates live here as well.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .marginals import DiscretePMF, DomainError, Marginal, check_regular, revenue_at_quantile
from .mechanisms import (
    HIGHEST_VALUE,
    AnonymousReserve,
    Mechanism,
    Myerson,
    mechanism_payments,
    threshold_payment,
    virtual_values,
)
from .priors import (
    JointPrior,
    ProductPrior,
    TablePrior,
    _as_mixture,
    _cell_masses,
    _check_grid,
    _grid_cells,
    cell_values,
    natural_grids,
    q1q2_from_qvec,
    sample,
    threshold_probs,
    verify_kwise,
)
from .quadrature import integrate

Z_95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class RevenueEstimate:
    mean: float
    half_width_95: float
    n_samples: int
    exact: bool

    def to_dict(self):
        return {
            "mean": self.mean,
            "half_width_95": self.half_width_95,
            "n_samples": self.n_samples,
            "exact": self.exact,
        }


# ---------------------------------------------------------------------------
# Exact revenue


def revenue_exact_table(table: TablePrior, mech: Mechanism) -> RevenueEstimate:
    mass = table.pmf.ravel()
    cells = mass != 0.0
    pays = mechanism_payments(mech, cell_values(table.supports)[cells])
    # fsum is correctly rounded: no dependence on term order or numpy's blocking
    return RevenueEstimate(math.fsum(mass[cells] * pays), 0.0, 0, True)


def _myerson_branch_revenue(mech: Myerson, vals, masses):
    """Exact expected revenue of the virtual-value mechanism on one mixture
    branch.  Bidder i's value is vals[i][c] with probability masses[i][0][c]
    (its plain component) or, when it is the slot's chosen member,
    masses[i][1][c] (chosen is None off the slot); each of the k slot
    members is chosen with probability s_i = 1/k.
    The components need not match the marginals the mechanism was designed
    for - that is the whole point when evaluating adversarial mixtures.
    Masses of at most 1e-18 are dropped.

    Sweep: sort every (bidder, value) pair by its allocation key; column 0
    of the key grid is "no eligible competitor".  Conditional on the
    strongest competing key kappa, bidder i wins iff its own key beats
    kappa and then pays the threshold t_i(kappa).  Within a branch part the
    bidders are independent, so Pr[strongest competing key <= key_t] is a
    leave-one-out product of per-bidder key CDFs: A from the plain CDFs Cp,
    and B, the mixture over chosen members m of s_m Cc_m times the other
    bidders' Cp, from the recursion B_{i+1} = B_i Cp_i + s_i A_i Cc_i.
    Bidder i is priced plain against B (A without a slot) and, with weight
    s_i, chosen against A: one pass per branch under either tie rule.
    """
    n = len(vals)
    by_value = mech.tie_break == HIGHEST_VALUE
    k = sum(chosen is not None for _, chosen in masses)  # slot members
    s = np.array([0.0 if chosen is None else 1.0 / k for _, chosen in masses])
    cols = []  # per bidder: (phi, value, bidder, plain mass, chosen mass)
    for i, (v, (p, c)) in enumerate(zip(vals, masses)):
        p = np.where(p > 1e-18, p, 0.0)
        c = np.zeros_like(p) if c is None else np.where(c > 1e-18, c, 0.0)
        keep = (p > 0.0) | (c > 0.0)
        v = v[keep]
        cols.append((virtual_values(mech.marginals[i], v, i), v, np.full(len(v), i), p[keep], c[keep]))
    phi, val, who, p, c = (np.concatenate(x) for x in zip(*cols))
    phi = np.where(phi >= 0.0, phi, -np.inf)  # ineligible values sort first
    # ascending allocation keys (phi, v, -i) or (phi, -i); equal keys (one
    # bidder's ironed-flat values under lex) share a column
    order = np.lexsort((-who, val, phi) if by_value else (-who, phi))
    phi, val, who, p, c = phi[order], val[order], who[order], p[order], c[order]
    new = (phi[1:] != phi[:-1]) | (who[1:] != who[:-1])
    if by_value:
        new |= val[1:] != val[:-1]
    new = np.append(True, new) & (phi > -np.inf)
    if not new.any():
        return 0.0  # no eligible value, no sale
    col = np.cumsum(new)  # 0 for the ineligible values
    key_phi = np.append(-np.inf, phi[new])
    key_val, key_who = np.append(0.0, val[new]), np.append(-1, who[new])

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
        thr = threshold_payment(mech, i, key_phi, key_val, key_who)
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


def revenue_exact(prior: JointPrior, mech: Mechanism, grids=None) -> RevenueEstimate:
    """Exact expected revenue.

    AR on product/mixture priors is exact for the continuous prior (closed
    form Q1/Q2 plus the revenue integral).  The optimal mechanism on
    product/mixture priors is evaluated exactly on the grid discretization
    (cell representatives at lower endpoints); on the shipped constructions
    the two coincide because virtual values are constant within cells.
    """
    if isinstance(prior, TablePrior):
        return revenue_exact_table(prior, mech)
    mix = _as_mixture(prior) if isinstance(prior, ProductPrior) else prior
    if grids is None:
        grids = natural_grids(mix)
    elif isinstance(mech, Myerson):
        # AR reads the grid only as quadrature breakpoints; the sweep prices
        # its cells, so a grid that misses the support would drop mass
        _check_grid(mix, grids)

    if isinstance(mech, AnonymousReserve):
        hi = max(m.support[1] for m in mix.marginals)
        breaks = sorted({b for g in grids for b in g})

        def q2(tau):
            return threshold_probs(mix, tau)[1]

        q1_r = threshold_probs(mix, mech.r)[0]
        tail = integrate(q2, mech.r, hi, abs_tol=1e-10, breakpoints=breaks)
        return RevenueEstimate(mech.r * q1_r + tail, 0.0, 0, True)

    cells = [_grid_cells(g) for g in grids]
    vals = [np.array([c[0] for c in cs]) for cs in cells]
    total = 0.0
    for branch, masses in zip(mix.branches, _cell_masses(mix, cells)):
        if branch.weight != 0.0:
            total += branch.weight * _myerson_branch_revenue(mech, vals, masses)
    return RevenueEstimate(total, 0.0, 0, True)


def posted_price_lower_bound(marginals) -> float:
    """max_i r*_i q_i(r*_i): selling to one bidder at their monopoly reserve
    is a truthful mechanism, so this lower-bounds the optimal revenue under
    the independent prior."""
    return max(m.monopoly_reserve() * m.quantile_q(m.monopoly_reserve()) for m in marginals)


# ---------------------------------------------------------------------------
# Monte Carlo


def revenue_mc(
    prior: JointPrior,
    mech: Mechanism,
    n_samples: int,
    seed: int,
    block_size: int | None = None,
    threads: int = 1,
) -> RevenueEstimate:
    """Monte Carlo revenue with a 95% normal CI.  Blocks get independent
    generators seeded by (seed, block index); sums are reduced in block
    order, so results are bit-for-bit reproducible for a fixed seed and
    block size regardless of thread count.

    The default block size is the largest power of two up to 2^16 rows
    whose float64 sample buffer, 8 bytes * rows * bidders, fits in 64 MiB:
    2^16 rows for up to 128 bidders and fewer above (2^14 at 301), so with
    more than 128 bidders (the constructions at n >= 128) a seed's draws
    differ from those of 2^16-row blocks."""
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    if block_size is None:
        fits = (1 << 26) // (8 * prior.n_bidders)
        block_size = 1 << min(16, max(fits.bit_length() - 1, 0))
    n_blocks = (n_samples + block_size - 1) // block_size

    def one_block(b):
        m = min(block_size, n_samples - b * block_size)
        rng = np.random.default_rng([seed, b])
        V = sample(prior, rng, size=m)
        pays = mechanism_payments(mech, V)
        return float(pays.sum()), float((pays * pays).sum())

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_block, range(n_blocks)))
    else:
        results = [one_block(b) for b in range(n_blocks)]
    s = sum(r[0] for r in results)
    ss = sum(r[1] for r in results)
    mean = s / n_samples
    var = max(ss / n_samples - mean * mean, 0.0)
    sd = math.sqrt(var * n_samples / max(n_samples - 1, 1))
    return RevenueEstimate(mean, Z_95 * sd / math.sqrt(n_samples), n_samples, False)


# ---------------------------------------------------------------------------
# Independent-prior threshold probabilities (closed forms)


def q1_ind(marginals, tau: float) -> float:
    return q1q2_from_qvec([m.quantile_q(tau) for m in marginals])[0]


def q2_ind(marginals, tau: float) -> float:
    return q1q2_from_qvec([m.quantile_q(tau) for m in marginals])[1]


def q2_ind_from_q(qs) -> float:
    return q1q2_from_qvec(qs)[1]


def ar_revenue_integral(r, q1, q2, hi, breakpoints=(), abs_tol=1e-9) -> float:
    """AR revenue from its integral representation: r Q1(r) plus the
    integral of Q2 over [r, hi]."""
    head = r * q1(r)
    if r >= hi:
        return head
    return head + integrate(q2, r, hi, abs_tol=abs_tol, breakpoints=breakpoints)


# ---------------------------------------------------------------------------
# Ex-ante relaxation quantities


@dataclass(frozen=True)
class ExAnteSummary:
    tau_ex: float
    v_bar: tuple
    q: tuple
    rev: tuple
    r_ex: float
    s0: float
    budget: float

    @property
    def total_rev(self):
        return float(sum(self.rev))


def _phi_mass_at(m: Marginal, nu: float) -> float:
    return sum(w for lvl, w in m.phi_levels() if abs(lvl - nu) <= 1e-12 * max(1.0, abs(lvl), abs(nu)))


def _snap(x, candidates, tol):
    for c in candidates:
        if abs(x - c) <= tol * max(1.0, abs(c)):
            return c
    return x


def ex_ante_level(marginals, budget: float = 0.5) -> ExAnteSummary:
    """Virtual-value level of the ex-ante relaxation that sells `budget`
    units in expectation.

    tau_ex = inf{nu : sum_i Pr[phi_i(v_i) >= nu] <= budget}.  When a
    probability atom at the critical level makes the sum jump across the
    budget, the atoms are scaled by a common factor so the selling
    probabilities add up to the budget exactly (randomized demotion of the
    borderline types).  Selling never goes below the monopoly reserves: for
    tau_ex < 0 the relaxation simply keeps the budget slack, since serving
    negative virtual values only loses revenue.
    """
    if not 0.0 < budget <= 1.0:
        raise DomainError("budget must be in (0, 1]")
    marginals = list(marginals)

    def S(nu):
        return sum(m.prob_phi_geq(nu) for m in marginals)

    levels = sorted({lvl for m in marginals for lvl, _ in m.phi_levels()})
    lo = min([m.virtual_value(m.support[0]) if not isinstance(m, DiscretePMF) else m.ironed.phi[0] for m in marginals] + levels + [0.0]) - 1.0
    hi = max(m.support[1] for m in marginals) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if S(mid) <= budget:
            hi = mid
        else:
            lo = mid
    tau_ex = _snap(hi, levels, 1e-9)
    if S(tau_ex) > budget + 1e-12 and tau_ex not in levels:
        tau_ex = hi  # keep the bisection point when no atom explains the jump

    lam = max(tau_ex, 0.0)
    q_at = [m.prob_phi_geq(lam) for m in marginals]
    if tau_ex >= 0.0 and S(lam) > budget + 1e-12:
        q_above = [m.prob_phi_geq(lam) - _phi_mass_at(m, lam) for m in marginals]
        atom = [a - b for a, b in zip(q_at, q_above)]
        total_atom = sum(atom)
        theta = (budget - sum(q_above)) / total_atom if total_atom > 0 else 0.0
        qs = [a + theta * b for a, b in zip(q_above, atom)]
    else:
        qs = q_at
    v_bar = []
    for m in marginals:
        v = float(m.phi_geq_inv(lam))
        v_bar.append(m.support[1] if v == np.inf else v)
    # rev_i is the ex-ante revenue extracted from bidder i at quantity q_i:
    # the hull value of the revenue-quantile curve.  On continuous regular
    # marginals (and at top atoms) it equals v_bar_i * q_i; with interior
    # atoms the hull chord prices the demotion lottery correctly where the
    # single posted price v_bar_i would undervalue it.
    revs = [revenue_at_quantile(m, q) for m, q in zip(marginals, qs)]

    # r_ex = sup{v : sum_i q_i(v) >= 1};  s0 = expected count strictly above
    atoms = sorted({a for m in marginals for a in m.atoms()})

    def G(v):
        return sum(m.quantile_q(v) for m in marginals)

    glo = min(m.support[0] for m in marginals) - 1.0
    ghi = max(m.support[1] for m in marginals) + 1.0
    for _ in range(200):
        mid = 0.5 * (glo + ghi)
        if G(mid) >= 1.0:
            glo = mid
        else:
            ghi = mid
    r_ex = _snap(glo, atoms + [m.support[0] for m in marginals] + [m.support[1] for m in marginals], 1e-9)
    if G(r_ex) < 1.0 - 1e-12:
        r_ex = glo
    s0 = sum(m.quantile_q(r_ex) - m.atom_mass(r_ex) for m in marginals)
    return ExAnteSummary(tau_ex, tuple(v_bar), tuple(qs), tuple(revs), r_ex, s0, budget)


# ---------------------------------------------------------------------------
# Robustness predicates for the optimal mechanism under 3-wise priors


@dataclass
class ThreeWiseReport:
    myer_adv: float
    myer_ind: float
    relax_lhs: float  # 2 * sum_i rev_i
    relax_ok: bool
    case: str
    case_constant: float
    case_ok: bool
    global_constant: float
    global_ok: bool
    summary: ExAnteSummary


CASE_CONSTANTS = {"case1": 2.0, "case2.1": 32.0, "case2.2a": 64.0, "case2.2b": 64.0 / 3.0}
GLOBAL_CONSTANT = 64.0


def myerson_ind_revenue(marginals, grids=None) -> float:
    """Exact optimal revenue under the mutually independent prior.

    Discrete marginals go through the product sweep.  Identical regular
    continuous marginals use the equivalence with the reserve auction at the
    monopoly price (exact via the revenue integral).  Anything else needs an
    explicit discretization from the caller.
    """
    marginals = list(marginals)
    if all(isinstance(m, DiscretePMF) for m in marginals):
        mech = Myerson(marginals, HIGHEST_VALUE)
        return revenue_exact(ProductPrior(marginals), mech, grids=grids).mean
    first = marginals[0]
    if all(m == first for m in marginals):
        if not check_regular(first):
            raise DomainError("identical continuous marginals must be regular")
        prior = ProductPrior(marginals)
        return revenue_exact(prior, AnonymousReserve(first.monopoly_reserve())).mean
    raise DomainError(
        "exact independent optimum needs discrete marginals or identical "
        "regular ones; discretize first"
    )


def check_3wise_inequalities(marginals, prior: JointPrior, grids=None) -> ThreeWiseReport:
    """Evaluate, exactly, the chain certifying 3-wise robustness of the
    optimal mechanism on this instance: the ex-ante relaxation upper bound
    (2 sum rev_i >= optimal independent revenue), the per-case constant
    (cases split on the budget level's sign, the largest selling
    probability, and its revenue share), and the global factor 64."""
    marginals = list(marginals)
    if not isinstance(prior, ProductPrior):
        report = verify_kwise(prior, k=min(3, prior.n_bidders), grids=grids)
        if not report.passed:
            raise DomainError(
                f"prior is not 3-wise independent (max deviation {report.max_deviation})"
            )
    myer_ind = myerson_ind_revenue(marginals, grids=grids)
    if isinstance(prior, ProductPrior):
        myer_adv = myer_ind
    else:
        mech = Myerson(marginals, HIGHEST_VALUE)
        myer_adv = revenue_exact(prior, mech, grids=grids).mean
    ea = ex_ante_level(marginals, 0.5)

    relax_lhs = 2.0 * ea.total_rev
    relax_ok = relax_lhs >= myer_ind - 1e-9

    if ea.tau_ex <= 0.0:
        case = "case1"
    else:
        imax = max(range(len(marginals)), key=lambda i: ea.q[i])
        if ea.q[imax] <= 0.25:
            case = "case2.1"
        elif ea.rev[imax] <= 0.5 * ea.total_rev:
            case = "case2.2a"
        else:
            case = "case2.2b"
    c = CASE_CONSTANTS[case]
    case_ok = c * myer_adv >= myer_ind - 1e-9
    global_ok = GLOBAL_CONSTANT * myer_adv >= myer_ind - 1e-9
    return ThreeWiseReport(
        myer_adv,
        myer_ind,
        relax_lhs,
        relax_ok,
        case,
        c,
        case_ok,
        GLOBAL_CONSTANT,
        global_ok,
        ea,
    )
