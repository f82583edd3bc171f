"""Expected-revenue evaluation.

Exact paths:

* tables        - one cell-value matrix of the support cells with mass,
                  priced by one mechanism_payments call.
* mixtures      - branch-wise, a product prior being the one-branch
                  mixture: within a branch part the components are
                  independent.  AR revenue comes from the identity
                  AR(r) = r Q1(r) + integral of Q2 above r.  The optimal
                  mechanism takes one sweep per branch
                  (_myerson_branch_revenue) over one key axis shared by
                  all bidders, the sorted distinct allocation keys of the
                  cell table of priors._kept_cells, read once per (class,
                  grid) group.  Leave-one-out products of the key CDFs,
                  with bidders as array rows, split each key's ties by
                  index, and a random-index slot's members fold in as a
                  mixture of those products.

Every Myerson payment comes from the one threshold formula,
mechanisms.threshold_payment: tables reach it through the batch kernel
behind mechanism_payments (re-exported here), Monte Carlo through the same
kernel's sweep over each branch's columns as priors._draws draws them, and
the branch sweep calls it over the whole key axis once per branch and
distinct marginal, against a lower and against a higher index.
Monte Carlo is block-seeded and bit-for-bit reproducible for a fixed (seed,
block size), and builds no block of samples.  The ex-ante relaxation quantities (threshold level,
per-bidder prices/probabilities/revenues) and the associated robustness
predicates live here as well.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .marginals import DomainError, revenue_at_quantile
from .mechanisms import (
    AnonymousReserve,
    Mechanism,
    Myerson,
    _columns,
    _sweep,
    mechanism_payments,
    threshold_payment,
    virtual_values,
)
from .priors import (
    JointPrior,
    ProductPrior,
    TablePrior,
    _draws,
    _kept_cells,
    cell_values,
    natural_grids,
    q1q2_from_qvec,
    sample,
    threshold_probs,
    verify_kwise,
)
from .quadrature import integrate

Z_95 = 1.959963984540054  # two-sided 95% normal quantile
_MC_BLOCK_CAP = 1 << 14  # rows of revenue_mc's largest default block


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


def _exclusive_prefix(a, b):
    """Per row i of the factor matrices a and b (one row per bidder), over
    the rows j < i: A_i = prod_j a_j and B_i = sum_m b_m prod_{j != m} a_j,
    the product with one factor a_m swapped for b_m.
    B comes from the running sum of b_m / a_m over the nonzero a_m; zero
    factors are counted instead, so one leaves only its own swap and two
    leave nothing.  Every nonzero a_m is a key CDF, at least the 1e-18 mass
    floor, so the quotients stay finite."""
    zero = a == 0.0
    nonzero = np.where(zero, 1.0, a)
    prod = np.ones_like(a)
    np.cumprod(nonzero[:-1], axis=0, out=prod[1:])
    zeros = np.zeros(a.shape, dtype=int)
    np.cumsum(zero[:-1], axis=0, out=zeros[1:])
    A = np.where(zeros == 0, prod, 0.0)
    ratios, at_zero = np.zeros_like(a), np.zeros_like(a)
    np.cumsum(np.where(zero, 0.0, b / nonzero)[:-1], axis=0, out=ratios[1:])
    np.cumsum(np.where(zero, b, 0.0)[:-1], axis=0, out=at_zero[1:])
    return A, prod * np.select([zeros == 0, zeros == 1], [ratios, at_zero])


def _myerson_branch_revenue(mech: Myerson, vals, masses, groups):
    """Exact expected revenue of the virtual-value mechanism on one mixture
    branch.  Bidder i's value is vals[i][c] with probability masses[i][0][c]
    (its plain component) or, when it is the slot's chosen member,
    masses[i][1][c] (chosen is None off the slot); each of the k slot
    members is chosen with probability s_i = 1/k.  `groups` partitions the
    bidders into lists that share their values and masses, as the (class,
    grid) groups of priors._kept_cells do; only a group's first member is
    read.  The components need not match the marginals the mechanism was
    designed for - that is the whole point when evaluating adversarial
    mixtures.  Masses of at most 1e-18 are dropped.

    Sweep: one key axis for all bidders, the sorted distinct (ironed)
    virtual values kappa_t of every group's values, with column 0 for
    "ineligible".  Equal keys of different bidders share a column; the
    products below resolve the tie toward the lower index.  With
    W_j(t) = Pr[key_j <= kappa_t] and S_j(t) = Pr[key_j < kappa_t] =
    W_j(t-1), bidder i's competitors give
    LW = prod_{j != i} W_j, LS = prod_{j != i} S_j and
    LM = prod_{j < i} S_j prod_{j > i} W_j.  The strongest competitor sits
    at kappa_t with a lower index with probability LW - LM; bidder i then
    needs a key above kappa_t and pays threshold_payment with idx_star =
    -1.  It sits there with only higher indices with probability LM - LS;
    bidder i then needs a key of at least kappa_t and pays with idx_star =
    n.  Column 0 is all in the first case.  Within a branch part the
    bidders are independent, so each product is a product of prefix and
    suffix products over the bidder rows (_exclusive_prefix).  In a slot
    branch bidder i is priced plain against the slot mixture of each
    product, the sum over chosen members m of s_m times the product with
    m's plain CDF swapped for its chosen one, and, with weight s_i, chosen
    against the plain products.  The thresholds are computed once per
    distinct marginal, and the rest is array arithmetic over (bidder, key)
    with no loop over bidders.
    """
    n = len(vals)
    # one row class per (group, mechanism marginal): group members may
    # still face different marginals of the mechanism
    of_marginal = np.unique([id(m) for m in mech.marginals], return_inverse=True)[1]
    of_group = np.empty(n, dtype=int)
    for g, members in enumerate(groups):
        of_group[members] = g
    _, reps, row_class = np.unique(of_group * n + of_marginal, return_index=True, return_inverse=True)

    cols = []  # per row class: (phi, class, plain mass, chosen mass)
    for r, i in enumerate(reps):
        p, c = masses[i]
        p = np.where(p > 1e-18, p, 0.0)
        c = np.zeros_like(p) if c is None else np.where(c > 1e-18, c, 0.0)
        keep = (p > 0.0) | (c > 0.0)
        v = np.asarray(vals[i], dtype=float)[keep]
        cols.append((virtual_values(mech.marginals[i], v, i), np.full(len(v), r), p[keep], c[keep]))
    phi, cls, p, c = (np.concatenate(x) for x in zip(*cols))
    phi = np.where(phi >= 0.0, phi, -np.inf)  # ineligible values sort first
    order = np.argsort(phi, kind="stable")
    phi, cls, p, c = phi[order], cls[order], p[order], c[order]
    new = np.append(True, phi[1:] != phi[:-1]) & (phi > -np.inf)
    if not new.any():
        return 0.0  # no eligible value, no sale
    col = np.cumsum(new)  # 0 for the ineligible values
    key_phi = np.append(-np.inf, phi[new])

    # W[., t] = Pr[key ineligible or <= kappa_t], per row class, then per
    # bidder row
    Wp, Wc = np.zeros((len(reps), len(key_phi))), np.zeros((len(reps), len(key_phi)))
    np.add.at(Wp, (cls, col), p)
    np.add.at(Wc, (cls, col), c)
    Wp, Wc = np.cumsum(Wp, axis=1)[row_class], np.cumsum(Wc, axis=1)[row_class]
    member = np.array([masses[i][1] is not None for i in reps])[row_class]
    k = int(member.sum())  # slot members
    s = (member / max(k, 1))[:, None]

    def shift(x):  # column t - 1 at t; 0 at column 0, where S_j = 0
        return np.concatenate((np.zeros((len(x), 1)), x[:, :-1]), axis=1)

    # prefix and suffix products over the bidder rows, plain (A) and with
    # one slot member's plain CDF swapped for s_m times its chosen one (B)
    chosen = s * Wc
    A_pre, B_pre = _exclusive_prefix(Wp, chosen)
    A_suf, B_suf = (x[::-1] for x in _exclusive_prefix(Wp[::-1], chosen[::-1]))

    # per distinct marginal: against a lower index (strict route only),
    # against a higher one
    firsts = np.unique(of_marginal, return_index=True)[1]
    thr_lower, thr_higher = (
        np.array([threshold_payment(mech, i, key_phi, idx_star) for i in firsts])[of_marginal] for idx_star in (-1, n)
    )

    terms = []

    def price(weight, lw, lm, W):
        # Pr[strongest competitor at kappa_t with a lower / only higher
        # index], Pr[bidder i beats it], and the threshold it then pays
        for prob, win, thr in ((lw - lm, 1.0 - W, thr_lower), (lm - shift(lw), 1.0 - shift(W), thr_higher)):
            ok = (prob > 1e-18) & (win > 0.0) & (thr < np.inf)
            terms.append((weight * prob * win)[ok] * thr[ok])

    lw, lm = A_pre * A_suf, shift(A_pre) * A_suf
    if k:
        price(1.0, A_pre * B_suf + B_pre * A_suf, shift(A_pre) * B_suf + shift(B_pre) * A_suf, Wp)
        price(s, lw, lm, Wc)
    else:
        price(1.0, lw, lm, Wp)
    return math.fsum(np.concatenate(terms))


def revenue_exact(prior: JointPrior, mech: Mechanism, grids=None) -> RevenueEstimate:
    """Exact expected revenue.

    AR on product/mixture priors is exact for the continuous prior (closed
    form Q1/Q2 plus the revenue integral); the grids only add quadrature
    breakpoints.  The optimal mechanism on product/mixture priors is one
    sweep per branch over the cell table of priors._kept_cells, on one key
    axis shared by all bidders and with per-bidder work done once per
    (class, grid) group, each cell valued at its lower endpoint.  That
    value is exact only where the virtual value is constant on every cell,
    as it is on the shipped constructions; README "Notes on exactness"
    gives the known fault where it is not (fault A of ROADMAP item 1:
    Uniform(0, 1) x 2 returns 0.0, not 5/12).
    """
    if isinstance(prior, TablePrior):
        return revenue_exact_table(prior, mech)
    if isinstance(mech, AnonymousReserve):
        # AR reads the grids only as quadrature breakpoints, so they are not
        # checked; the sweep below prices cells (_kept_cells checks them)
        if grids is None:
            grids = natural_grids(prior)
        hi = max(m.support[1] for m in prior.marginals)
        breaks = sorted({b for g in grids for b in g})

        def q1(tau):
            return threshold_probs(prior, tau)[0]

        def q2(tau):
            return threshold_probs(prior, tau)[1]

        return RevenueEstimate(ar_revenue_integral(mech.r, q1, q2, hi, breaks, abs_tol=1e-10), 0.0, 0, True)

    groups, supports, _, masses = _kept_cells(prior, grids)
    total = 0.0
    for branch, bm in zip(prior.branches, masses):
        if branch.weight != 0.0:
            total += branch.weight * _myerson_branch_revenue(mech, supports, bm, groups)
    return RevenueEstimate(total, 0.0, 0, True)


def posted_price_lower_bound(marginals) -> float:
    """max_i r*_i q_i(r*_i): selling to one bidder at their monopoly reserve
    is a truthful mechanism, so this lower-bounds the optimal revenue under
    the independent prior.  Bidders sharing a marginal share its term, so
    the max runs over the distinct marginals."""
    return max(r * m.quantile_q(r) for m in dict.fromkeys(marginals) for r in [m.monopoly_reserve()])


# ---------------------------------------------------------------------------
# Monte Carlo


def revenue_mc(
    prior: JointPrior,
    mech: Mechanism,
    n_samples: int,
    seed: int,
    block_size: int | None = None,
) -> RevenueEstimate:
    """Monte Carlo revenue with a 95% normal CI.  Blocks get independent
    generators seeded by (seed, block index) and their sums are added in
    block order, so results are bit-for-bit reproducible for a fixed seed
    and block size.

    No block of samples is built: the sweep prices each group of rows of
    `priors._draws` (on the constructions one per block: the block's
    largest branch, led by the other branches' rows) as its columns are
    drawn, into the block's payments, which are summed in row order.  These are the payments, and the sums,
    of `mechanism_payments` on the block `priors.sample` draws with the
    same generator; a value the mechanism cannot take raises the error
    that call raises.

    The default block size is the largest power of two up to
    _MC_BLOCK_CAP = 2^14 rows whose float64 block of samples, 8 bytes *
    rows * bidders, would fit in 64 MiB: 2^14 rows for up to 512 bidders
    and fewer above (2^13 at 601).  No such block is built; the rule stays
    because, with the seed, it fixes every draw."""
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    if block_size is None:
        fits = (1 << 26) // (8 * prior.n_bidders)
        block_size = min(_MC_BLOCK_CAP, 1 << max(fits.bit_length() - 1, 0))
    elif not isinstance(block_size, (int, np.integer)) or block_size < 1:
        raise DomainError(f"block_size must be an integer >= 1, got {block_size!r}")
    sweep = _sweep(mech, prior.n_bidders)
    s = ss = 0.0
    for b, start in enumerate(range(0, n_samples, block_size)):
        m = min(block_size, n_samples - start)
        pays = np.empty(m)
        try:
            for rows, columns in _draws(prior, np.random.default_rng([seed, b]), m):
                pays[rows] = sweep(rows.size, _columns(columns))[1]
        except DomainError:
            # a group names its own first bad value: raise the one the
            # whole block meets first
            mechanism_payments(mech, sample(prior, np.random.default_rng([seed, b]), size=m))
            raise
        s += float(pays.sum())
        ss += float((pays * pays).sum())
    mean = s / n_samples
    var = max(ss / n_samples - mean * mean, 0.0)
    sd = math.sqrt(var * n_samples / max(n_samples - 1, 1))
    return RevenueEstimate(mean, Z_95 * sd / math.sqrt(n_samples), n_samples, False)


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


def _sup_where(pred, marks) -> float:
    """sup{x : pred(x)} for a pred that holds below some point and fails
    above it, on a sum that jumps only at the marks, is continuous between
    them, and fails pred past the last one; -inf where pred fails at every
    mark.  The last mark where pred holds is the answer unless pred still
    holds one float above it, and then the answer lies in the gap up to the
    next mark, where it is bisected to adjacent floats."""
    marks = sorted(set(marks))
    k = bisect.bisect_left(marks, True, key=lambda x: not pred(x))
    if k == 0:
        return -math.inf
    lo = math.nextafter(marks[k - 1], math.inf)
    if not pred(lo):
        return marks[k - 1]
    hi = marks[k]
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if pred(mid) else (lo, mid)
    return lo


def _marks(marginals):
    """Each distinct marginal's support ends and atoms, where sums of
    quantile_q can jump, and their virtual values, where sums of
    prob_phi_geq can; between these it is a polynomial of degree phi_degree."""
    pairs = [(m, x) for m in dict.fromkeys(marginals) for x in (*m.support, *m.atoms())]
    return [x for _, x in pairs], [float(m.virtual_value(x)) for m, x in pairs]


def ex_ante_level(marginals, budget: float = 0.5) -> ExAnteSummary:
    """Virtual-value level of the ex-ante relaxation that sells `budget`
    units in expectation.

    tau_ex = inf{nu : S(nu) <= budget}, S(nu) = sum_i Pr[phi_i(v_i) >= nu].
    When a probability atom at the critical level makes the sum jump across
    the budget, the atoms are scaled by a common factor so the selling
    probabilities add up to the budget exactly (randomized demotion of the
    borderline types).  Selling never goes below the monopoly reserves: for
    tau_ex < 0 the relaxation simply keeps the budget slack, since serving
    negative virtual values only loses revenue.  tau_ex is -inf when S never
    exceeds the budget (one bidder at budget 1).

    Both levels come from the marks where their sums can jump (_marks): S
    at the virtual values of each marginal's support ends and atoms, the
    count G(v) = sum_i q_i(v) at those values themselves.
    """
    if not 0.0 < budget <= 1.0:
        raise DomainError("budget must be in (0, 1]")
    marginals = list(marginals)
    values, phis = _marks(marginals)

    def S(nu):
        return sum(m.prob_phi_geq(nu) for m in marginals)

    tau_ex = _sup_where(lambda nu: S(nu) > budget, phis)
    lam = max(tau_ex, 0.0)
    qs = [m.prob_phi_geq(lam) for m in marginals]
    if tau_ex >= 0.0:
        # S(lam) > budget: demote the atom at lam, q(lam) - q(lam+)
        q_above = [m.prob_phi_geq(math.nextafter(lam, math.inf)) for m in marginals]
        atom = [a - b for a, b in zip(qs, q_above)]
        theta = (budget - sum(q_above)) / sum(atom)
        qs = [a + theta * b for a, b in zip(q_above, atom)]
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

    # r_ex = sup{v : G(v) >= 1};  s0 = G(r_ex+), the expected count strictly
    # above.  G(v) >= 1 wherever some q_i(v) = 1, so r_ex is at least each
    # marginal's q_inverse(1), however the sum of its masses rounds.
    def G(v):
        return sum(m.quantile_q(v) for m in marginals)

    r_ex = _sup_where(lambda v: G(v) >= 1.0, values)
    r_ex = max(r_ex, *(float(m.q_inverse(1.0)) for m in marginals))
    s0 = G(math.nextafter(r_ex, math.inf))
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


def myerson_ind_revenue(marginals) -> float:
    """Optimal revenue under the mutually independent prior, exact up to
    rounding, from Myerson's identity E[max_i phi_i^+] = integral over
    t >= 0 of Pr[max_i phi_i >= t] (README "Notes on exactness").  Its Q1
    of the events phi_i >= t (prob_phi_geq, once per distinct marginal) is
    a polynomial of degree d <= the summed phi_degree between neighbouring
    marks, so d // 2 + 1 Gauss-Legendre nodes per piece are exact.  It is
    the product-prior revenue of Myerson(marginals)."""
    from numpy.polynomial.legendre import leggauss  # 2.5-4 ms to load, so no other command pays it

    counts = Counter(marginals)
    breaks = np.array(sorted({0.0, *(t for t in _marks(counts)[1] if t > 0.0)}))
    x, w = leggauss(sum(m.phi_degree * c for m, c in counts.items()) // 2 + 1)
    half = 0.5 * np.diff(breaks)[:, None]
    nodes = breaks[:-1, None] + half * (1.0 + x)
    probs = np.array([[m.prob_phi_geq(t) for m in counts] for t in nodes.ravel().tolist()])
    q1 = q1q2_from_qvec(np.repeat(probs.reshape(nodes.size, len(counts)), list(counts.values()), axis=1))[0]
    return math.fsum((half * w).ravel() * q1)


def check_3wise_inequalities(marginals, prior: JointPrior, grids=None) -> ThreeWiseReport:
    """Evaluate, exactly, the chain certifying 3-wise robustness of the
    optimal mechanism, Myerson(marginals), on this instance: the
    ex-ante relaxation upper bound (2 sum rev_i >= optimal independent
    revenue), the per-case constant (cases split on the budget level's
    sign, the largest selling probability, and its revenue share), and the
    global factor 64."""
    marginals = list(marginals)
    myer_ind = myerson_ind_revenue(marginals)
    if isinstance(prior, ProductPrior):
        myer_adv = myer_ind  # Myerson(marginals)'s revenue on a product prior
    else:
        report = verify_kwise(prior, k=min(3, prior.n_bidders), grids=grids)
        if not report.passed:
            raise DomainError(f"prior is not 3-wise independent (max deviation {report.max_deviation})")
        myer_adv = revenue_exact(prior, Myerson(marginals), grids=grids).mean
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
    return ThreeWiseReport(myer_adv, myer_ind, relax_lhs, relax_ok, case, c, case_ok, GLOBAL_CONSTANT, global_ok, ea)
