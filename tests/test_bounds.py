import math

import numpy as np
import pytest

from conftest import (
    case2a_kinks_reference,
    lb2_cumulative_grid_reference,
    q2_ind,
    q2_ind_grid_max,
    q2_ind_upper_objective,
    random_scaled_regular_family,
    split_integral_identity,
)
from kwrob import (
    AnonymousReserve,
    DiscretePMF,
    DomainError,
    ProductPrior,
    build_polytope,
    check_regular,
    minimize_revenue,
    revenue_exact,
    case2a_integral,
    certify_ar_constant,
    certify_iid_constant,
    lb1,
    lb2,
    q2_ratio_lower_bound,
    q2_ind_near_bound,
    q2_ind_far_bound,
    q2_ind_far_threshold,
    tail_core_case1,
    tail_core_case2b,
    tail_upper,
    q1_count_bound,
)
from kwrob import bounds
from kwrob.bounds import Q1_RATIO, BoundReport, _case2a_kinks, _lb2_kinks_in_s, lb2_cumulative_grid
from kwrob.quadrature import integrate

E = math.e


class TestLB1:
    def test_at_one(self):
        assert lb1(1.0) == pytest.approx(0.5)

    def test_at_zero(self):
        assert lb1(0.0) == 0.0

    def test_half(self):
        assert lb1(0.5) == pytest.approx(0.375)

    def test_three_halves(self):
        assert lb1(1.5) == pytest.approx(0.625)

    def test_domain(self):
        for s in (-1e-12, math.inf, math.nan):
            with pytest.raises(DomainError):
                lb1(s)

    def test_monotone_across_floor_breakpoints(self):
        s = np.linspace(0.0, 10.0, 20001)
        vals = [lb1(float(x)) for x in s]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestLB2:
    def test_at_two(self):
        assert lb2(2.0) == pytest.approx(1 / 3)

    def test_used_in_qr(self):
        assert lb2(1.674) == pytest.approx(0.2158103333, abs=1e-9)

    def test_near_one_vanishes(self):
        assert lb2(1.0 + 1e-6) < 1e-5

    def test_domain(self):
        for s in (1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                lb2(s)

    def test_monotone_and_below_lb1(self):
        s = np.linspace(1.0 + 1e-9, 10.0, 20001)
        vals = [lb2(float(x)) for x in s]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        for x, v in zip(s[::100], vals[::100]):
            assert v <= lb1(float(x)) + 1e-12


class TestSimpleBounds:
    def test_q1_count_bound(self):
        assert q1_count_bound(1.0) == pytest.approx(0.5)
        assert q1_count_bound(0.0) == 0.0
        # with gamma = 2 the sale probability bound is 1/(1+gamma)
        assert q1_count_bound(1 / 2) == pytest.approx(1 / 3)
        for s in (-1e-12, math.inf, math.nan):
            with pytest.raises(DomainError):
                q1_count_bound(s)

    def test_tail_upper_extremes(self):
        assert tail_upper(1.0) == pytest.approx(9 / 4 - 4 / E, abs=1e-12)
        assert tail_upper(0.0) == 0.0

    def test_tail_upper_formula_value(self):
        s0 = 0.5
        expect = 2 * s0 * (1 - math.exp(-s0) * (1 + s0)) / (2 - s0) ** 2 + s0**2 / 4
        assert tail_upper(s0) == pytest.approx(expect, abs=1e-15)

    def test_tail_upper_max_at_one(self):
        vals = [tail_upper(float(s)) for s in np.linspace(0, 1, 101)]
        assert max(vals) == vals[-1]

    def test_near_bound(self):
        assert q2_ind_near_bound(1.0) == pytest.approx(1 - 2 / E, abs=1e-12)
        assert q2_ind_near_bound(0.0) == 0.0

    def test_far_bound(self):
        assert q2_ind_far_bound(1.0, 3.0) == pytest.approx(1 / 16)
        assert q2_ind_far_threshold(1.0) == pytest.approx(3.0)
        with pytest.raises(DomainError):
            q2_ind_far_bound(1.0, 2.9)

    def test_far_bound_equality_case(self):
        # p1 = p2 = s0/2 with the envelope quantiles meets the bound
        s0, tau = 0.8, 4.0
        q = 1.0 / ((2 - s0) / s0 * tau + 1)
        assert q * q == pytest.approx(q2_ind_far_bound(s0, tau), abs=1e-12)

    def test_q1_ratio(self):
        assert Q1_RATIO == 1.299


class TestQRLB:
    def test_headline_value(self):
        assert q2_ratio_lower_bound(0.674) == pytest.approx(0.21581, abs=1e-5)
        assert q2_ratio_lower_bound(0.674) >= 0.215

    def test_near_one(self):
        assert q2_ratio_lower_bound(1 - 1e-9) == pytest.approx(1 / 3, abs=1e-6)

    def test_vacuous_for_small_p(self):
        assert q2_ratio_lower_bound(0.1) <= 0.0


class TestTailCore:
    def test_case1(self):
        v = tail_core_case1()
        assert v == pytest.approx((9 / 4 - 4 / E) / (1 - 1 / E), abs=1e-12)
        assert v < 1.24

    def test_case2b(self):
        assert tail_core_case2b(0.674) == pytest.approx(2.8963, abs=1e-4)
        assert tail_core_case2b(1.0) == pytest.approx(E / (E - 1), abs=1e-12)


class TestFactIntegral:
    def test_half(self):
        c, l, r = split_integral_identity(0.5)
        assert c == 0.5
        assert l == pytest.approx(0.5, abs=1e-10)
        assert r == pytest.approx(0.5, abs=1e-10)

    def test_agreement_grid(self):
        ps = list(np.linspace(0.02, 0.98, 46)) + [0.5 - 1e-6, 0.5 + 1e-6, 0.674, 0.5]
        for p in ps:
            c, l, r = split_integral_identity(float(p))
            assert abs(c - l) < 1e-8 and abs(c - r) < 1e-8 and abs(l - r) < 1e-8

    def test_symmetry(self):
        assert split_integral_identity(0.9)[0] == pytest.approx(split_integral_identity(0.1)[0], abs=1e-12)

    @pytest.mark.parametrize("dp", [0.0, 2e-9, -2e-9, 1e-7, -1e-7, 1e-4, -1e-4])
    def test_closed_form_near_half_against_mpmath(self, dp):
        mp = pytest.importorskip("mpmath")
        p = 0.5 + dp
        with mp.workdps(50):
            P = mp.mpf(p)
            exact = mp.mpf(0.5) if P == 0.5 else P * (1 - P) * mp.log((1 - P) / P) / (1 - 2 * P)
            closed = split_integral_identity(p)[0]
            assert abs(closed - exact) <= 1e-14 * exact


class TestCertifyIid:
    def test_minimum_location_and_value(self):
        rep = certify_iid_constant()
        assert abs(rep.inputs["beta_star"] - 1 / 3) < 0.01
        assert 1 / 2.64 <= rep.value <= 1 / 2.62
        assert rep.passed

    def test_endpoint(self):
        assert lb1(1.0) == pytest.approx(0.5)  # F(1) = 1 * LB1(1)

    def test_unique_minimum_region(self):
        from kwrob.bounds import iid_ratio_curve

        rows = iid_ratio_curve(2000)
        F = np.array([r[3] for r in rows])
        betas = np.array([r[0] for r in rows])
        near = np.nonzero(F <= F.min() + 1e-5)[0]
        # the near-minimal set is one contiguous run around 1/3
        assert np.all(np.diff(near) == 1)
        assert abs(betas[near].mean() - 1 / 3) < 0.02

    def test_shared_lb2_grid_gives_the_same_results(self):
        from kwrob.bounds import iid_ratio_curve, lb2_cumulative_grid

        grid = lb2_cumulative_grid()
        assert certify_iid_constant(lb2_grid=grid).inputs == certify_iid_constant().inputs
        assert iid_ratio_curve(1000, grid) == iid_ratio_curve(1000)

    def test_discrete_regular_marginal_is_outside_its_domain(self):
        """2.63 assumes marginals regular as continuous distributions.
        check_regular accepts this two-point marginal, yet AR at its
        monopoly reserve on 10 i.i.d. copies loses 2.55x to the worst
        pairwise-independent prior.  This is outside the constant's domain,
        not a counterexample to it."""
        points, masses = [0.303, 5.512], [0.9463, 0.0537]
        m = DiscretePMF(points, masses)
        assert check_regular(m)
        r = m.monopoly_reserve()
        assert r == 0.303
        worst = minimize_revenue(build_polytope([(points, masses)] * 10, 2), AnonymousReserve(r)).objective
        independent = revenue_exact(ProductPrior([m] * 10), AnonymousReserve(r)).mean
        assert worst == pytest.approx(0.318021, rel=1e-5)
        assert independent == pytest.approx(0.810430, rel=1e-5)
        assert independent / worst == pytest.approx(2.5484, rel=1e-4)


class TestCertifyAR:
    def test_headline(self):
        cert = certify_ar_constant(0.674)
        assert cert.case2a_integral >= 0.0984
        assert cert.q2_ratio_value >= 0.215
        assert cert.case1_constant == pytest.approx(2.91, abs=1e-3)
        assert cert.case2b_constant <= 18.07
        assert cert.certified_constant <= 18.07
        assert cert.passed

    def test_case1_independent_of_p(self):
        assert certify_ar_constant(0.8).case1_constant == certify_ar_constant(0.674).case1_constant

    def test_vacuous_p_fails(self):
        cert = certify_ar_constant(0.3)
        assert not cert.passed

    def test_integral_monotone_pieces(self):
        # spot-check the integrand at tau = 0 where it equals LB2(2) = 1/3
        val = case2a_integral(0.674, abs_tol=1e-8)
        assert 0.09 < val < 0.11

    def test_case2a_integral_cross_method(self):
        # the certificate's thinnest margin: validate the adaptive+kink
        # quadrature against a dense trapezoid rule
        from kwrob.bounds import lb2_vec

        p = 0.674
        tau = np.linspace(0.0, 1.0, 1_000_001)
        g = p / ((1 - p) * tau + p) + (1 - p) / (p * tau + (1 - p))
        dense = float(np.trapezoid(lb2_vec(g), tau))
        adaptive = case2a_integral(p, abs_tol=1e-11)
        assert adaptive == pytest.approx(dense, abs=1e-9)
        assert adaptive == pytest.approx(0.0984471029, abs=1e-9)


def _lb2_kinks_loop(s_lo, s_hi, m_cap):
    """Scalar reference for _lb2_kinks_in_s: one m at a time, stopping after
    the first m whose two roots both lie outside the window."""
    kinks = []
    m = 4
    while m <= m_cap:
        r = math.sqrt(m * m - 4.0 * m)
        for root in ((m - r) / 2.0, (m + r) / 2.0):
            if s_lo < root < s_hi:
                kinks.append(root)
        if (m - r) / 2.0 < s_lo and (m + r) / 2.0 > s_hi:
            break
        m += 1
    return sorted(set(kinks))


class TestCase2aClosedForm:
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5 - 1e-9, 0.5, 0.674, 0.95])
    def test_matches_kinked_quadrature(self, p):
        def f(tau):
            s = p / ((1 - p) * tau + p) + (1 - p) / (p * tau + (1 - p))
            return lb2(s) if s > 1.0 + 1e-15 else 0.0

        reference = integrate(f, 0.0, 1.0, abs_tol=1e-12, breakpoints=_case2a_kinks(p))
        assert abs(case2a_integral(p) - reference) <= 1e-12

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.45, 0.674, 0.9])
    def test_symmetric_in_p(self, p):
        # g(tau) is unchanged by p <-> 1 - p
        assert abs(case2a_integral(p) - case2a_integral(1.0 - p)) <= 1e-15

    @pytest.mark.parametrize("window", [(1.0, 2.0, 20_000), (1.0, 1e6, 4000)])
    def test_kinks_match_scalar_loop(self, window):
        assert _lb2_kinks_in_s(*window).tolist() == _lb2_kinks_loop(*window)

    @pytest.mark.parametrize("window", [(1.0, 2.0, 20_000), (1.0, 1e6, 4000)])
    def test_kink_roots_solve_the_floor_equation(self, window):
        # each root s of s^2/(s-1) = m lies within 1e-12 relative of the
        # exact root, taken from the cancellation-free pair
        # upper = (m + sqrt(m^2 - 4m))/2, lower = m / upper
        s = _lb2_kinks_in_s(*window)
        m = np.rint(s * s / (s - 1.0))
        upper = (m + np.sqrt(m * m - 4.0 * m)) / 2.0
        exact = np.where(s < 2.0, m / upper, upper)
        assert np.all(m >= 4) and len(np.unique(m[s < 2.0])) == np.sum(s < 2.0)
        assert np.max(np.abs(s - exact) / exact) <= 1e-12

    def test_tau_kinks_match_scalar_bisection(self):
        p = 0.674

        def g(tau):
            return p / ((1 - p) * tau + p) + (1 - p) / (p * tau + (1 - p))

        s_k = _lb2_kinks_in_s(1.0, 2.0, 20_000)
        tau_k = _case2a_kinks(p)
        for j in range(0, len(s_k), 997):
            lo, hi = 0.0, 1.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if g(mid) > s_k[j] else (lo, mid)
            assert tau_k[len(s_k) - 1 - j] == 0.5 * (lo + hi)

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.3, 0.5 - 1e-9, 0.5, 0.674, 0.9, 0.99])
    def test_seeded_kinks_equal_plain_bisection(self, p):
        assert np.array_equal(_case2a_kinks(p), case2a_kinks_reference(p))

    @pytest.mark.parametrize("half_width", [0.0, 1e-16, 1e-3])
    def test_any_bracket_gives_the_same_kinks(self, half_width, monkeypatch):
        # a zero-width bracket always fails and falls back to [0, 1]; one
        # below an ulp fails for some kinks; a wide one holds and needs
        # more halvings.  None of them moves a bit
        monkeypatch.setattr(bounds, "_KINK_BRACKET", half_width)
        for p in (0.05, 0.674):
            assert np.array_equal(_case2a_kinks(p), case2a_kinks_reference(p))


class TestLb2CumulativeGrid:
    def test_merged_grid_equals_unique_of_concatenation(self):
        u, integral = lb2_cumulative_grid()
        u_ref, integral_ref = lb2_cumulative_grid_reference()
        assert np.array_equal(u, u_ref) and np.array_equal(integral, integral_ref)
        assert np.all(np.diff(u) > 0.0)

    @pytest.mark.parametrize("piece", [257, 1000, 1 << 14, 1 << 19])
    def test_piecewise_sums_equal_one_cumsum(self, piece, monkeypatch):
        # pieces that do not divide the grid and one piece for the whole
        # grid give the floats of a single cumsum
        monkeypatch.setattr(bounds, "_LB2_PIECE", piece)
        u, integral = lb2_cumulative_grid()
        u_ref, integral_ref = lb2_cumulative_grid_reference()
        assert np.array_equal(u, u_ref) and np.array_equal(integral, integral_ref)

    def test_kinks_on_grid_points_are_not_doubled(self, monkeypatch):
        # kinks that land on base grid points, or on each other, appear once
        import conftest

        real = _lb2_kinks_in_s
        base = np.linspace(1e-6, 1.0, 400_001)[::997]
        on_grid = 1.0 / base[1.0 / (1.0 / base) == base]

        def with_duplicates(s_lo, s_hi, m_cap):
            s = real(s_lo, s_hi, m_cap)
            return np.sort(np.concatenate([s, s[:50], on_grid]))

        monkeypatch.setattr(bounds, "_lb2_kinks_in_s", with_duplicates)
        monkeypatch.setattr(conftest, "_lb2_kinks_in_s", with_duplicates)
        u, integral = lb2_cumulative_grid()
        u_ref, integral_ref = lb2_cumulative_grid_reference()
        assert len(on_grid) > 100 and np.all(np.diff(u) > 0.0)
        assert np.array_equal(u, u_ref) and np.array_equal(integral, integral_ref)


def equal_split_monotone_check(s, m_max):
    """True iff f(m) = 1 - (1 - s/m)^m (1 + m s/(m - s)) is nondecreasing on
    integers m in [ceil(s)+1, m_max] and stays below the m -> infinity limit
    1 - e^{-s}(1+s)."""
    m = np.arange(math.ceil(s) + 1, m_max + 1, dtype=float)
    f = 1.0 - (1.0 - s / m) ** m * (1.0 + m * s / (m - s))
    if np.any(np.diff(f) < -1e-12):
        return False
    return bool(np.all(f <= q2_ind_near_bound(s) + 1e-12))


class TestGridOracles:
    def test_two_equal_entries_maximize(self):
        val, p = q2_ind_grid_max(1.0, 3.0, 4)
        assert sorted(p, reverse=True)[0] == pytest.approx(0.5, abs=1 / 200 + 1e-12)
        assert sorted(p, reverse=True)[1] == pytest.approx(0.5, abs=1 / 200 + 1e-12)
        assert val == pytest.approx(1 / 16, abs=2e-3)
        assert val <= q2_ind_far_bound(1.0, 3.0) + 1e-9

    def test_grid_max_below_far_bound_at_full_budget(self):
        # the two-equal-entries bound is proved for total mass exactly 1;
        # the oracle confirms dominance there at several thresholds
        for tau in [3.0, 4.5, 8.0]:
            val, _ = q2_ind_grid_max(1.0, tau, 4)
            assert val <= q2_ind_far_bound(1.0, tau) + 1e-9

    def test_far_bound_fails_below_full_budget(self):
        # documented defect: with total mass s0 < 1 the maximiser is NOT two
        # equal entries - three (or more) equal entries beat the claimed
        # bound, e.g. s0 = 0.6, tau = 5.  The oracle exhibits the violation.
        s0, tau = 0.6, 5.0
        val, p = q2_ind_grid_max(s0, tau, 3)
        assert val > q2_ind_far_bound(s0, tau)
        assert np.allclose(sorted(p), [0.2, 0.2, 0.2])

    def test_two_bidder_objective_closed_form(self):
        p1, p2, tau = 0.3, 0.2, 2.5
        direct = q2_ind_upper_objective([p1, p2], tau)
        t1, t2 = p1 / (tau * (1 - p1)), p2 / (tau * (1 - p2))
        closed = 1 - (1 + t1 + t2) / ((1 + t1) * (1 + t2))
        assert direct == pytest.approx(closed, abs=1e-15)

    def test_monotone_merge_limit(self):
        assert equal_split_monotone_check(1.0, 10_000)
        assert equal_split_monotone_check(0.3, 1_000)

    def test_f_at_two(self):
        # two equal entries at s=1: 1 - (1/2)^2 * 3 = 1/4, below the limit
        s, m = 1.0, 2.0
        f2 = 1 - (1 - s / m) ** m * (1 + m * s / (m - s))
        assert f2 == pytest.approx(0.25)
        assert f2 <= q2_ind_near_bound(1.0)


def _merge_gain(p1, p2, others, tau):
    """Objective change when two entries are merged into their sum, the
    elementary step behind the far bound's two-entry maximiser."""
    before = q2_ind_upper_objective(list(others) + [p1, p2], tau)
    after = q2_ind_upper_objective(list(others) + [p1 + p2, 0.0], tau)
    return after - before


class TestMergePredicate:
    def test_merge_helps_when_rest_is_heavy(self, rng):
        # sound precondition: the untouched entries satisfy
        # sum p/(1-p) >= 1 - t, which a single entry >= 1/2 guarantees;
        # then tau >= 1 + t/(1-t)^2 makes merging weakly improve
        for _ in range(300):
            t = float(rng.uniform(0.02, 0.45))
            p1 = float(rng.uniform(0.01, t - 0.01)) if t > 0.02 else t / 2
            p2 = t - p1
            heavy = float(rng.uniform(0.5, 0.95))
            if t + heavy > 1.0:
                continue
            tau = 1.0 + t / (1.0 - t) ** 2 + float(rng.uniform(0.0, 3.0))
            assert _merge_gain(p1, p2, [heavy], tau) >= -1e-12

    def test_merge_fails_without_heavy_rest(self):
        # under the weaker stated precondition alone the merge can strictly
        # lose: three equal entries at total mass 0.6, tau = 5 (the same
        # configuration that breaks the far bound below full budget)
        t = 0.4
        tau = 5.0
        assert tau >= 1.0 + t / (1.0 - t) ** 2
        assert _merge_gain(0.2, 0.2, [0.2], tau) < -1e-6


def check_q1_ratio(q1_pairwise, q1_independent):
    lhs = Q1_RATIO * q1_pairwise
    return BoundReport(
        "q1_ratio",
        {"q1": q1_pairwise, "q1_ind": q1_independent},
        Q1_RATIO,
        (lhs, q1_independent, lhs >= q1_independent - 1e-9),
    )


class TestQ1RatioChecker:
    def test_adversarial_prior_satisfies_ratio(self):
        from conftest import q1_ind
        from kwrob import threshold_probs, uniform_q2_counterexample

        prior = uniform_q2_counterexample(10)
        tau = 0.9
        q1, _ = threshold_probs(prior, tau)
        assert q1 == pytest.approx(1.0)  # at least one bidder is always high
        rep = check_q1_ratio(q1, q1_ind(list(prior.marginals), tau))
        assert rep.passed

    def test_product_ratio_one(self):
        rep = check_q1_ratio(0.4, 0.4)
        assert rep.passed

    def test_lp_worst_case_q1(self):
        from kwrob import build_polytope, minimize_event_prob

        # four binary bidders with quantile sum 1: the pairwise-worst Q1
        # still clears the 1.299 gap to the independent value
        tables = [([0.0, 1.0], [0.75, 0.25])] * 4
        sol = minimize_event_prob(build_polytope(tables, 2), 1.0, 1)
        from conftest import q1q2_enumerate

        q1_indep = q1q2_enumerate([0.25] * 4)[0]
        rep = check_q1_ratio(sol.objective, q1_indep)
        assert rep.passed


class TestQRLBEmpirical:
    def test_lp_worst_pairwise_tables(self, rng):
        # for pairwise-worst tables with a large max quantile, the two-above
        # probability keeps at least the QR_LB fraction of the independent one
        from conftest import q1q2_enumerate
        from kwrob import build_polytope, minimize_event_prob

        grid = np.arange(0.1, 1.0, 0.1)
        checked = 0
        for _ in range(40):
            n = int(rng.integers(2, 5))
            qs = rng.choice(grid, size=n)
            p_bar = float(qs.max())
            if not 0.0 < p_bar < 1.0:
                continue
            bound = q2_ratio_lower_bound(p_bar)
            q2_indep = q1q2_enumerate(qs.tolist())[1]
            if q2_indep <= 0.0:
                continue
            tables = [([0.0, 1.0], [1.0 - q, q]) for q in qs]
            sol = minimize_event_prob(build_polytope(tables, 2), 1.0, 2)
            assert sol.objective / q2_indep >= bound - 1e-9
            checked += 1
        assert checked >= 20


class TestTailUpperDominates:
    def test_envelope_family_counterexample_small_s0(self):
        # documented defect: the closed-form tail bound fails for small s0
        # (many tiny equal quantiles track the one-above envelope pointwise),
        # while it holds near s0 = 1 where the downstream constants bind.
        from kwrob.quadrature import integrate_to_infinity

        s0, m = 0.3, 60
        p = s0 / m

        def q2(tau):
            q = p / ((1 - p) * tau + p)
            return 1 - (1 - q) ** m - m * q * (1 - q) ** (m - 1)

        tail = integrate_to_infinity(q2, 1.0, abs_tol=1e-8)
        assert tail > tail_upper(s0)  # the violation
        # and the configuration maximising the bound's own domain is fine:
        p1 = 0.5

        def q2_pair(tau):
            q = p1 / ((1 - p1) * tau + p1)
            return q * q

        worst_pair = integrate_to_infinity(q2_pair, 1.0, abs_tol=1e-8)
        assert worst_pair == pytest.approx(0.5, abs=1e-6)
        assert worst_pair <= tail_upper(1.0)

    def test_random_regular_scaled_instances(self, rng):
        for _ in range(50):
            ms = random_scaled_regular_family(rng)
            s0 = sum(m.quantile_q(1.0) - m.atom_mass(1.0) for m in ms)
            if s0 > 1.0:
                s0 = 1.0  # float fuzz at the normalization point
            hi = max(m.support[1] for m in ms)
            if hi <= 1.0:
                continue
            atoms = sorted({a for m in ms for a in m.atoms() if a > 1.0})
            tail = integrate(
                lambda t: q2_ind(ms, t), 1.0, hi, abs_tol=1e-10, breakpoints=atoms
            )
            assert tail <= tail_upper(s0) + 1e-9
