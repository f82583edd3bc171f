"""Closed-form bounds on threshold probabilities and the numerical
certification pipelines for the two headline robustness constants
(2.63 for identical regular marginals at the monopoly reserve, 18.07 for an
arbitrary anonymous reserve).

The two probability lower bounds under pairwise independence, with
s = expected number of bidders clearing the threshold:

    LB1(s) = (2 m1 s - s^2) / (m1 (m1 + 1)),   m1 = floor(s + 1)
    LB2(s) = (2 m2 (s-1) - s^2) / (m2 (m2 - 1)), m2 = floor(s^2 / (s-1)), s > 1

and the independent-prior upper bounds used for the tail of the revenue
integral.  Floor breakpoints are treated as right-continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .marginals import DomainError
from .quadrature import integrate

E = math.e
Q1_RATIO = 1.299  # pairwise vs independent: Q1_ind <= 1.299 * Q1
BETA_GRID = 10_000  # points of certify_iid_constant's beta grid


@dataclass
class BoundReport:
    bound_id: str
    inputs: dict
    value: float
    inequality: tuple | None = None  # (lhs, rhs, passed)

    @property
    def passed(self):
        return self.inequality is None or self.inequality[2]


def lb1(s: float) -> float:
    """Lower bound on Pr[at least one event] under pairwise independence."""
    if not 0.0 <= s < math.inf:
        raise DomainError("s must be finite and >= 0")
    return float(lb1_vec(s))


def lb2(s: float) -> float:
    """Lower bound on Pr[at least two events]; valid only for s > 1."""
    if not 1.0 < s < math.inf:
        raise DomainError("lb2 is valid only for finite s > 1")
    return float(lb2_vec(s))


def lb1_vec(s):
    s = np.asarray(s, dtype=float)
    m1 = np.floor(s + 1.0)
    with np.errstate(invalid="ignore"):
        out = (2.0 * m1 * s - s * s) / (m1 * (m1 + 1.0))
    return np.where(s <= 0.0, 0.0, out)


def lb2_vec(s):
    """Vectorised LB2 with the convention LB2 = 0 for s <= 1 (the bound is
    vacuous there); used by the certification integrals."""
    s = np.asarray(s, dtype=float)
    safe = np.where(s > 1.0, s, 2.0)
    m2 = np.floor(safe * safe / (safe - 1.0))
    out = (2.0 * m2 * (safe - 1.0) - safe * safe) / (m2 * (m2 - 1.0))
    out = np.maximum(out, 0.0)
    return np.where(s > 1.0, out, 0.0)


def q1_count_bound(s: float) -> float:
    """Pr[at least one event] >= s/(s+1) under pairwise independence."""
    if not 0.0 <= s < math.inf:
        raise DomainError("s must be finite and >= 0")
    return s / (s + 1.0)


def tail_upper(s0: float) -> float:
    """Upper bound on the tail integral of Q2_ind above the normalization
    point, in terms of the expected count s0 there; maximised at s0 = 1
    where it equals 9/4 - 4/e.  A bound only at s0 = 1, the full budget
    the certificates use; s0 < 1 fails (test_bounds.py::
    TestTailUpperDominates::test_envelope_family_counterexample_small_s0)."""
    if not 0.0 <= s0 <= 1.0:
        raise DomainError("s0 must be in [0, 1]")
    if s0 == 0.0:
        return 0.0
    return 2.0 * s0 * (1.0 - math.exp(-s0) * (1.0 + s0)) / (2.0 - s0) ** 2 + s0 * s0 / 4.0


def q2_ind_near_bound(s: float) -> float:
    """Q2_ind(tau) <= 1 - e^{-s}(1+s) whenever the expected count above tau
    is s <= 1."""
    if not 0.0 <= s <= 1.0:
        raise DomainError("s must be in [0, 1]")
    return 1.0 - math.exp(-s) * (1.0 + s)


def q2_ind_far_threshold(s0: float) -> float:
    return 1.0 + 2.0 * s0 / (2.0 - s0) ** 2


def q2_ind_far_bound(s0: float, tau: float) -> float:
    """Q2_ind(tau) <= ((2-s0)/s0 * tau + 1)^-2 for tau past the crossover
    threshold 1 + 2 s0 / (2 - s0)^2.  A bound only at s0 = 1; s0 < 1 fails
    (test_bounds.py::TestGridOracles::test_far_bound_fails_below_full_budget)."""
    if not 0.0 < s0 <= 1.0:
        raise DomainError("s0 must be in (0, 1]")
    if tau < q2_ind_far_threshold(s0) - 1e-12:
        raise DomainError(f"tau={tau} below the valid range for s0={s0}")
    return ((2.0 - s0) / s0 * tau + 1.0) ** (-2)


def q2_ratio_lower_bound(p_bar: float) -> float:
    """Lower bound on Q2/Q2_ind when one bidder's quantile is >= p_bar:
    min of the union-bound branch and LB2(1 + p_bar).  May be <= 0
    (vacuous) for small p_bar."""
    if not 0.0 < p_bar < 1.0:
        raise DomainError("p_bar must be in (0, 1)")
    branch1 = 1.0 / Q1_RATIO - (1.0 - p_bar) * E / (E - 1.0)
    return min(branch1, lb2(1.0 + p_bar))


def tail_core_case1() -> float:
    return (9.0 / 4.0 - 4.0 / E) / (1.0 - 1.0 / E)


def tail_core_case2b(p_bar: float) -> float:
    if not 0.0 < p_bar <= 1.0:
        raise DomainError("p_bar must be in (0, 1]")
    return (2.0 * p_bar**2 - 2.0 * p_bar + 1.0) / p_bar**3 * E / (E - 1.0)


def _log1p_ratio(x):
    """log1p(x) / x elementwise for x > -1, with its removable singularity
    filled in (1 at x = 0); keeps full relative precision as x -> 0."""
    x = np.asarray(x, dtype=float)
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, np.log1p(safe) / safe)


# ---------------------------------------------------------------------------
# Floor-breakpoint bookkeeping for the certification integrals


def _lb2_kinks_in_s(s_lo: float, s_hi: float, m_cap: int = 100_000):
    """Sorted array of the distinct values of s in (s_lo, s_hi) where
    floor(s^2/(s-1)) jumps.  For each integer m >= 4 the equation
    s^2/(s-1) = m has roots (m +- sqrt(m^2 - 4m))/2; the ratio is
    decreasing below s=2 and increasing above.  m runs up to m_cap, or up
    to the first m whose two roots both lie outside the window."""
    m = np.arange(4, m_cap + 1, dtype=float)
    r = np.sqrt(m * m - 4.0 * m)
    lower, upper = (m - r) / 2.0, (m + r) / 2.0
    past = np.flatnonzero((lower < s_lo) & (upper > s_hi))
    if past.size:
        lower, upper = lower[: past[0] + 1], upper[: past[0] + 1]
    roots = np.concatenate((lower, upper))
    return _distinct(roots[(s_lo < roots) & (roots < s_hi)])


def _distinct(a):
    """np.unique of a float array without NaNs: sorted, repeats dropped.
    np.unique's masked-array check would import numpy.ma, 10-12 ms on the
    first certificate in a process."""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def _ratio_floor(betas, lb2_grid):
    """F(beta) = beta LB1(1/beta) + int_beta^1 LB2(1/u) du on an array of
    betas, the integral interpolated on lb2_grid (`lb2_cumulative_grid()`
    when None)."""
    u, integral_to_one = lb2_cumulative_grid() if lb2_grid is None else lb2_grid
    return betas * lb1_vec(1.0 / betas) + np.interp(betas, u, integral_to_one)


def certify_iid_constant(lb2_grid=None) -> BoundReport:
    """Minimise F(beta) = beta LB1(1/beta) + int_beta^1 LB2(1/u) du over
    beta in [0, 1].  The minimum certifies the robustness constant for
    identical regular marginals: constant = 1 / min F.

    Regular means regular as a continuous distribution (concave revenue
    curve in quantile space).  A discrete marginal that `check_regular`
    accepts need not be: its revenue curve drops at every atom, and AR on
    i.i.d. copies of one can lose more than 2.63 under pairwise
    independence.  lb2_grid: `lb2_cumulative_grid()`, when the caller
    already has it.
    """
    betas = np.linspace(1e-6, 1.0, BETA_GRID)
    F = _ratio_floor(betas, lb2_grid)
    idx = int(np.argmin(F))
    beta_star = float(betas[idx])
    fmin = float(F[idx])
    target = 1.0 / 2.63
    return BoundReport(
        "iid_constant",
        {"grid": BETA_GRID, "beta_star": beta_star, "constant": 1.0 / fmin},
        fmin,
        (fmin, target - 1e-3, fmin >= target - 1e-3),
    )


_LB2_PIECE = 1 << 14  # segments per piece of lb2_cumulative_grid's sums


def lb2_cumulative_grid():
    """(u, int_u^1 LB2(1/x) dx) on a dense u-grid, kink-refined; read by the
    minimisation and the figure emitter."""
    u = np.linspace(1e-6, 1.0, 400_001)
    extra = _distinct(1.0 / _lb2_kinks_in_s(1.0, 1e6, m_cap=4000))
    extra = extra[extra > 1e-6]
    # both sorted: insert the kinks the base grid lacks at their places
    at = np.searchsorted(u, extra)
    new = u[np.minimum(at, u.size - 1)] != extra
    u = np.insert(u, at[new], extra[new])
    # trapezoid sums from the left, a piece of _LB2_PIECE segments at a
    # time so the temporaries stay small; seeding a piece's first segment
    # with the sum so far gives every prefix the float a single cumsum gives
    cum = np.zeros(u.size)
    for a in range(0, u.size - 1, _LB2_PIECE):
        x = u[a : a + _LB2_PIECE + 1]
        vals = lb2_vec(1.0 / x)
        seg = 0.5 * (vals[1:] + vals[:-1]) * np.diff(x)
        seg[0] += cum[a]
        np.cumsum(seg, out=cum[a + 1 : a + x.size])
    return u, np.subtract(cum[-1], cum, out=cum)  # int_u^1


def iid_ratio_curve(n_rows: int = 1000, lb2_grid=None):
    """Rows (beta, LB1(1/beta), LB2(1/beta), F(beta)) for the ratio figure.
    lb2_grid as in `certify_iid_constant`."""
    betas = np.linspace(1.0 / n_rows, 1.0, n_rows)
    lb1s = lb1_vec(1.0 / betas)
    lb2s = lb2_vec(1.0 / betas)
    F = _ratio_floor(betas, lb2_grid)
    return [
        (float(b), float(a1), float(a2), float(f))
        for b, a1, a2, f in zip(betas, lb1s, lb2s, F)
    ]


def _case2a_g(p_bar):
    """g(tau) = p/((1-p)tau + p) + (1-p)/(p tau + (1-p)), for floats and
    arrays alike; strictly decreasing from g(0) = 2 to g(1) = 1."""
    q = 1.0 - p_bar

    def g(tau):
        return p_bar / (q * tau + p_bar) + q / (p_bar * tau + q)

    return g


_KINK_BRACKET = 64 * np.finfo(float).eps  # relative half-width of a seeded kink bracket


def _case2a_kinks(p_bar):
    """Ascending tau in (0, 1) where floor(g^2/(g-1)) jumps to m = 5..20000:
    each LB2 kink s in (1, 2) inverted through g by bisection on the
    predicate g(tau) > s, all kinks advancing together.

    g(tau) = s is the quadratic s pq tau^2 + (s-1)(p^2+q^2) tau - (2-s) pq = 0
    (q = 1 - p), whose root in (0, 1) is, without cancellation,
    t = 2(2-s) pq / ((s-1)(p^2+q^2) + sqrt(D)).  The rounded root is up to
    ~100 ulps off the float crossing (at p = 0.01), so it only seeds the
    bracket t(1 -+ _KINK_BRACKET); a kink whose bracket fails the predicate
    starts from [0, 1].  g in floats is nonincreasing (each operation is
    monotone and rounds monotonically), so the tau with g(tau) > s are a
    prefix of the floats, and halving until no bracket moves ends each kink
    on the adjacent pair of floats, and the midpoint, that 80 halvings from
    [0, 1] reach for every kink above 2^-27: about 9 halvings, not 80."""
    g = _case2a_g(p_bar)
    s = _lb2_kinks_in_s(1.0, 2.0, m_cap=20_000)
    pq, b = p_bar * (1.0 - p_bar), (s - 1.0) * (p_bar**2 + (1.0 - p_bar) ** 2)
    t = 2.0 * (2.0 - s) * pq / (b + np.sqrt(b * b + 4.0 * s * (2.0 - s) * pq * pq))
    lo, hi = t * (1.0 - _KINK_BRACKET), t * (1.0 + _KINK_BRACKET)
    bad = ~(g(lo) > s) | (g(hi) > s)
    lo[bad], hi[bad] = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = g(mid) > s
        new_lo, new_hi = np.where(above, mid, lo), np.where(above, hi, mid)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    return (0.5 * (lo + hi))[::-1]  # g decreases, so ascending s is descending tau


def case2a_integral(p_bar: float, abs_tol: float = 1e-10) -> float:
    """I(p_bar) = int_0^1 LB2( g(tau) ) dtau with
    g(tau) = p/((1-p)tau + p) + (1-p)/(p tau + (1-p)), LB2 clamped to 0
    where its argument <= 1 (only the endpoint tau = 1).

    Between neighbouring floor kinks m = floor(g^2/(g-1)) is constant, so
    each such panel [t0, t1] of width w integrates in closed form to
    (2m (int g - w) - int g^2) / (m (m-1)).  With q = 1 - p, A = q tau + p
    and B = p tau + q, evaluated at the panel ends as A0, A1, B0, B1:

        int g   = p/q log1p(q w/A0) + q/p log1p(p w/B0)
        int g^2 = p^2 w/(A0 A1) + q^2 w/(B0 B1) + 2pq w/(A0 B1) log1p(x)/x

    with x = (1-2p) w/(A0 B1), from 1/(AB) = (q/A - p/B)/(q - p) and
    A1 B0 - A0 B1 = (q - p) w; log1p(x)/x needs no case at p = 1/2.  Only
    the panel above the last kink, where m is unbounded, is integrated
    adaptively, to abs_tol.  Panels are summed with fsum.
    """
    if not 0.0 < p_bar < 1.0:
        raise DomainError("p_bar must be in (0, 1)")
    p, q = p_bar, 1.0 - p_bar
    g = _case2a_g(p_bar)

    def f(tau):
        s = g(tau)
        if s <= 1.0 + 1e-15:
            return 0.0
        return lb2(s)

    edges = np.concatenate(([0.0], _case2a_kinks(p_bar)))
    t0, t1 = edges[:-1], edges[1:]
    w = t1 - t0
    s_mid = g(0.5 * (t0 + t1))
    m = np.floor(s_mid * s_mid / (s_mid - 1.0))
    A0, A1, B0, B1 = q * t0 + p, q * t1 + p, p * t0 + q, p * t1 + q
    int_g = p / q * np.log1p(q * w / A0) + q / p * np.log1p(p * w / B0)
    cross = w / (A0 * B1)
    int_g2 = p * p * w / (A0 * A1) + q * q * w / (B0 * B1)
    int_g2 += 2.0 * p * q * cross * _log1p_ratio((1.0 - 2.0 * p) * cross)
    panels = (2.0 * m * (int_g - w) - int_g2) / (m * (m - 1.0))
    tail = integrate(f, edges[-1], 1.0, abs_tol=abs_tol)
    return math.fsum(np.append(panels, tail).tolist())


AR_CASE1_TAILCORE = 1.24  # certified ceiling of the case-1 tail/core ratio
AR_TARGET = 18.07


@dataclass
class ARCertificate:
    p_bar: float
    case1_constant: float
    tail_core_exact: float
    case2a_integral: float
    case2a_constant: float
    q2_ratio_value: float
    case2b_constant: float
    certified_constant: float
    passed: bool

    def to_dict(self):
        return {
            "p_bar": self.p_bar,
            "case1_constant": self.case1_constant,
            "tail_core_case1_exact": self.tail_core_exact,
            "case2a_integral": self.case2a_integral,
            "case2a_constant": self.case2a_constant,
            "q2_ratio_lower_bound": self.q2_ratio_value,
            "case2b_constant": self.case2b_constant,
            "certified_constant": self.certified_constant,
            "pass": self.passed,
        }


def certify_ar_constant(p_bar: float = 0.674) -> ARCertificate:
    """Assemble the anonymous-reserve robustness constant: the worst of the
    three proof cases at the chosen split parameter p_bar.

    Case 1 (reserve above the ex-ante threshold) uses the ceiling 1.24 of
    the exact tail/core ratio, giving 1.299 * (1 + 1.24); case 2a divides
    the independent-revenue cap 13/4 - 4/e by the certification integral;
    case 2b multiplies 1/QR_LB by one plus the large-quantile tail/core
    bound.  Vacuous QR_LB (<= 0) fails the certificate.
    """
    exact_ratio = tail_core_case1()
    case1 = Q1_RATIO * (1.0 + AR_CASE1_TAILCORE)
    integral = case2a_integral(p_bar)
    case2a = (13.0 / 4.0 - 4.0 / E) / integral
    qr = q2_ratio_lower_bound(p_bar)
    if qr <= 0.0:
        return ARCertificate(
            p_bar, case1, exact_ratio, integral, case2a, qr, math.inf, math.inf, False
        )
    case2b = (1.0 / qr) * (1.0 + tail_core_case2b(p_bar))
    certified = max(case1, case2a, case2b)
    return ARCertificate(
        p_bar, case1, exact_ratio, integral, case2a, qr, case2b, certified, certified <= AR_TARGET
    )


def bounds_table_rows():
    """Rows (bound_id, inputs, value) over fixed grids, for the CLI.  The
    tail_upper and q2_ind_far rows at s0 < 1 are formulas, not bounds."""
    rows = []
    s_grid = np.linspace(0.0, 5.0, 51)
    for s in s_grid:
        rows.append(("lb1", f"s={s:.17g}", lb1(float(s))))
    for s in s_grid:
        if s > 1.0:
            rows.append(("lb2", f"s={s:.17g}", lb2(float(s))))
        rows.append(("q1_count", f"s={s:.17g}", q1_count_bound(float(s))))
    for s0 in np.linspace(0.0, 1.0, 21):
        rows.append(("tail_upper", f"s0={s0:.17g}", tail_upper(float(s0))))
        rows.append(("q2_ind_near", f"s={s0:.17g}", q2_ind_near_bound(float(s0))))
        if s0 > 0:
            t = q2_ind_far_threshold(float(s0))
            rows.append(("q2_ind_far", f"s0={s0:.17g},tau={t:.17g}", q2_ind_far_bound(float(s0), t)))
    for p in np.linspace(0.05, 0.95, 19):
        rows.append(("q2_ratio_lower_bound", f"p_bar={p:.17g}", q2_ratio_lower_bound(float(p))))
        rows.append(("tail_core_case2b", f"p_bar={p:.17g}", tail_core_case2b(float(p))))
    rows.append(("tail_core_case1", "", tail_core_case1()))
    rows.append(("q1_ratio", "", Q1_RATIO))
    return rows
