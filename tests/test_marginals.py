import math

import numpy as np
import pytest

from kwrob import (
    DiscretePMF,
    DomainError,
    EqualRevenue,
    ShiftedEqualRevenue,
    Uniform,
    check_regular,
    iron_discrete,
    regular_quantile_bound,
    revenue_curve,
)
from conftest import (
    cdf_identity_gaps,
    phi_inv_scan,
    prob_phi_geq_reference,
    q_inverse_reference,
    random_discrete,
    random_marginal,
)
from kwrob.marginals import revenue_at_quantile
from kwrob.mechanisms import virtual_values


def cdf(m, x):
    """F(x) = Pr[v <= x] = 1 - Pr[v >= x+], from the upper quantile just above x."""
    return 1.0 - m.quantile_q(np.nextafter(x, np.inf))


def below_reference(m, tau):
    """Pr[v < tau] in closed form, or by summing the points below tau."""
    if isinstance(m, Uniform):
        return min(max((tau - m.lo) / (m.hi - m.lo), 0.0), 1.0)
    if isinstance(m, EqualRevenue):
        return 0.0 if tau <= m.lo else 1.0 if tau > m.hi else 1.0 - m.lo / tau
    return sum(w for p, w in zip(m.points, m.masses) if p < tau)


class TestCdf:
    def test_uniform(self):
        assert cdf(Uniform(0, 1), 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_equal_revenue_interior(self):
        assert cdf(EqualRevenue(0.5, 1.0), 0.75) == pytest.approx(1 - 0.5 / 0.75, abs=1e-15)

    def test_equal_revenue_top_atom(self):
        assert cdf(EqualRevenue(0.5, 1.0), 1.0) == 1.0

    def test_right_continuity_at_atom(self):
        m = EqualRevenue(0.5, 1.0)
        assert cdf(m, 1.0) - cdf(m, 1.0 - 1e-12) == pytest.approx(0.5, abs=1e-9)


class TestQuantile:
    def test_equal_revenue(self):
        assert EqualRevenue(0.5, 1.0).quantile_q(0.75) == pytest.approx(2 / 3, abs=1e-15)

    def test_uniform_top(self):
        assert Uniform(0, 1).quantile_q(1.0) == 0.0

    def test_shifted_er_bottom(self):
        n, eps = 2, 1e-6
        m = ShiftedEqualRevenue(n, n * n, eps)
        assert m.quantile_q(n + eps) == 1.0

    def test_shifted_er_ends_in_own_frame(self):
        # (n^2 + eps) - eps need not be n^2, nor (n + eps) - eps be n: q
        # reads both ends in the shifted frame, so Pr[v >= top] is the atom
        rng = np.random.default_rng(16)
        draws = [(64, 3.2138545457220143e-06)]
        draws += [(int(rng.integers(2, 401)), float(10.0 ** rng.uniform(-7.0, -5.0))) for _ in range(2000)]
        for n, eps in draws:
            m = ShiftedEqualRevenue(float(n), float(n * n), eps)
            lo, top = m.support
            assert m.quantile_q(top) == m.atom_mass(top) == m.lo / m.hi, (n, eps)
            assert m.quantile_q(lo) == 1.0, (n, eps)

    def test_q_plus_left_cdf_is_one(self):
        # q(tau) = Pr[v >= tau] and Pr[v < tau] partition the line
        for m in [EqualRevenue(0.5, 2.0), Uniform(0.2, 3.0), DiscretePMF([1, 2, 5], [0.2, 0.5, 0.3])]:
            lo, hi = m.support
            taus = set(np.linspace(lo - 0.5, hi + 0.5, 101)) | set(m.atoms())
            for tau in taus:
                assert m.quantile_q(tau) + below_reference(m, tau) == pytest.approx(1.0, abs=1e-12)


MARGINALS = [
    EqualRevenue(0.5, 1.0),
    ShiftedEqualRevenue(1.0, 9.0, 0.25),
    Uniform(0.2, 3.0),
    DiscretePMF([1, 2, 5], [0.2, 0.5, 0.3]),
]


class TestValueRule:
    # the extra shifted marginal has (4 + 1e-5) - 1e-5 != 4, so only a
    # comparison in the shifted frame finds its top atom
    @pytest.mark.parametrize("m", MARGINALS + [ShiftedEqualRevenue(2.0, 4.0, 1e-5)])
    def test_atom_and_quantile_agree_one_ulp_around_atoms(self, m):
        gaps = cdf_identity_gaps(m, [*m.support, *m.atoms()])
        assert max(gaps.values()) <= 1e-12, gaps


class TestProbPhiGeq:
    def test_matches_the_per_class_formulas(self, rng):
        """The derived Pr[phi >= nu] against the formulas it replaced, at
        every virtual-value level and one ulp either side: exact on the
        parametric classes, and up to summation order on DiscretePMF."""
        ms = MARGINALS + [ShiftedEqualRevenue(64.0, 4096.0, 3.2138545457220143e-06)]
        ms += [random_marginal(rng) for _ in range(200)]
        for m in ms:
            xs = m.points if isinstance(m, DiscretePMF) else m.support
            levels = [0.0, *(float(m.virtual_value(x)) for x in xs)]
            for level in levels:
                for nu in (math.nextafter(level, -math.inf), level, math.nextafter(level, math.inf)):
                    got, want = m.prob_phi_geq(nu), prob_phi_geq_reference(m, nu)
                    if isinstance(m, DiscretePMF):
                        assert abs(got - want) <= 1e-15, (m, nu)
                    else:
                        assert got == want, (m, nu)


class TestQInverse:
    def test_uniform(self):
        assert Uniform(0, 1).q_inverse(0.25) == pytest.approx(0.75)

    def test_equal_revenue(self):
        assert EqualRevenue(0.5, 1.0).q_inverse(2 / 3) == pytest.approx(0.75)

    def test_p_zero_gives_top(self):
        for m in [EqualRevenue(0.5, 1.0), Uniform(0, 1), DiscretePMF([1, 3], [0.5, 0.5])]:
            assert m.q_inverse(0.0) == m.support[1]

    def test_domain_error(self):
        with pytest.raises(DomainError):
            Uniform(0, 1).q_inverse(1.5)

    @pytest.mark.parametrize("m", MARGINALS, ids=type)
    def test_array_matches_elementwise(self, m):
        ps = np.concatenate([np.linspace(0.0, 1.0, 41), [0.2, 0.7, 1e-17, 1.0 - 1e-16]])
        assert np.array_equal(m.q_inverse(ps), [m.q_inverse(p) for p in ps])
        for bad in (1.5, -0.1):
            with pytest.raises(DomainError):
                m.q_inverse(np.array([0.3, bad, 0.9]))

    def test_matches_reference_and_leaves_argument_unchanged(self, rng):
        # the public q_inverse runs the in-place inverse on a copy
        ms = [EqualRevenue(0.5, 1.0), ShiftedEqualRevenue(2.0, 4.0, 1e-5), Uniform(0.0, 2.0)]
        ms += [random_discrete(rng) for _ in range(5)]
        for m in ms:
            p = np.concatenate([rng.random(200), [0.0, 1.0, 0.5, 1e-17]])
            kept = p.copy()
            got = m.q_inverse(p)
            assert np.array_equal(p, kept)
            assert got is not p and np.array_equal(got, q_inverse_reference(m, kept))
            assert m.q_inverse(p.tolist()).tolist() == got.tolist()
            assert float(m.q_inverse(0.25)) == float(q_inverse_reference(m, 0.25))

    def test_zero_mass_point_never_drawn_at_one(self):
        # the tail above the zero-mass point 1 sums to 0.9999999999999998
        masses = (0, 0.4466260865835691, 0.2599100897797022, 0.056566062234973735, 0.2368977614017548)
        m = DiscretePMF([1, 2, 3, 4, 5], masses)
        assert m.q_inverse(1.0) == 2.0
        assert m.q_inverse(np.array([1.0, 1.0])).tolist() == [2.0, 2.0]

    def test_zero_mass_top_point_never_drawn(self):
        m = DiscretePMF([1, 2, 3], [0.5, 0.5, 0.0])
        assert m.q_inverse(1e-16) == 2.0
        assert m.q_inverse(np.array([0.0, 1e-16, 0.5])).tolist() == [2.0, 2.0, 2.0]

    def test_conditional_below_never_draws_its_cutoff(self):
        # p just above the tail at the excluded cutoff 2 selects the point below it
        m = DiscretePMF([1, 2, 3], [0.25, 0.5, 0.25])
        qc = m.quantile_q(2.0)
        assert m.q_inverse(np.nextafter(qc, 1.0)) == 1.0
        assert m.q_inverse(qc) == 2.0


class TestVirtualValue:
    def test_equal_revenue_interior_zero(self):
        assert EqualRevenue(0.5, 1.0).virtual_value(0.75) == 0.0

    def test_equal_revenue_top(self):
        assert EqualRevenue(0.5, 1.0).virtual_value(1.0) == 1.0
        assert EqualRevenue(0.5, 1.0).virtual_value(math.nextafter(1.0, 0.0)) == 0.0

    def test_uniform(self):
        assert Uniform(0, 1).virtual_value(0.8) == pytest.approx(0.6)

    def test_outside_support(self):
        with pytest.raises(DomainError):
            virtual_values(Uniform(0, 1), np.array([0.5, 1.5]), 0)

    def test_interior_atom_directs_to_ironing(self):
        m = DiscretePMF([1, 4, 10], [0.8, 0.1, 0.1])
        assert m.virtual_value(np.array([1.0, 4.0, 10.0])).tolist() == list(m.ironed.phi)
        with pytest.raises(DomainError, match="not in support"):
            m.virtual_value(np.array([4.0, 5.0]))
        with pytest.raises(DomainError, match="not in support"):
            m.virtual_value(np.array([math.nextafter(4.0, 5.0)]))

    def test_monotone_for_regular_parametrics(self):
        for m in [Uniform(0.3, 2.0), EqualRevenue(0.5, 4.0), ShiftedEqualRevenue(1.0, 9.0, 0.01)]:
            lo, hi = m.support
            phis = m.virtual_value(np.linspace(lo, hi, 1000))
            assert np.all(np.diff(phis) >= -1e-12)


class TestMonopolyReserve:
    def test_uniform(self):
        assert Uniform(0, 1).monopoly_reserve() == pytest.approx(0.5)

    def test_equal_revenue_bottom(self):
        assert EqualRevenue(1, 10).monopoly_reserve() == 1

    def test_shifted(self):
        n, eps = 3, 1e-6
        assert ShiftedEqualRevenue(n, n * n, eps).monopoly_reserve() == n + eps

    def test_discrete_maximises_posted_price_revenue(self, rng):
        for _ in range(100):
            m = random_discrete(rng, max_pts=6)
            r = m.monopoly_reserve()
            best = max(p * q for p, q in zip(m.points, m._tail))
            assert r * m.quantile_q(r) == pytest.approx(best, rel=1e-12)


class TestRevenueCurve:
    def test_equal_revenue_plateau(self):
        c = revenue_curve(EqualRevenue(0.5, 1.0), 101)
        for q, r in zip(c.qs, c.revs):
            if q >= 0.5:
                assert r == pytest.approx(0.5, abs=1e-12)

    def test_uniform_grid3(self):
        c = revenue_curve(Uniform(0, 1), 3)
        assert (0.0, 0.0) in set(zip(c.qs, c.revs))
        assert any(q == 0.5 and r == pytest.approx(0.25) for q, r in zip(c.qs, c.revs))
        assert any(q == 1.0 and abs(r) < 1e-15 for q, r in zip(c.qs, c.revs))

    def test_point_mass(self):
        c = revenue_curve(DiscretePMF([1], [1.0]), 2)
        assert list(zip(c.qs, c.revs)) == [(0.0, 0.0), (1.0, 1.0)]


class TestRegularity:
    def test_uniform_regular(self):
        assert check_regular(Uniform(0, 1))

    def test_equal_revenue_regular(self):
        assert check_regular(EqualRevenue(0.5, 1.0))

    def test_irregular_discrete(self):
        assert not check_regular(DiscretePMF([1, 4, 10], [0.8, 0.1, 0.1]))

    def test_grid_size_validation(self):
        with pytest.raises(DomainError):
            check_regular(Uniform(0, 1), 2)


class TestIroning:
    def test_hull_vertices(self):
        ic = iron_discrete(DiscretePMF([1, 4, 10], [0.8, 0.1, 0.1]))
        assert list(zip(ic.hull_q, ic.hull_rev)) == [(0.0, 0.0), (0.1, 1.0), (1.0, 1.0)]
        assert ic.phi[1] == pytest.approx(0.0, abs=1e-12)  # v=4 ironed flat

    def test_regular_two_point_hull_equals_curve(self):
        m = DiscretePMF([1, 2], [0.5, 0.5])
        ic = iron_discrete(m)
        c = revenue_curve(m, 2)
        assert list(zip(ic.hull_q, ic.hull_rev)) == list(zip(c.qs, c.revs))

    def test_one_segment_ties_exactly(self):
        ic = iron_discrete(DiscretePMF((3.287, 3.642, 5.758, 5.984), (0.278698, 0.218069, 0.380182, 0.123051)))
        assert ic.phi[0] == ic.phi[1]
        assert ic.phi[0] == pytest.approx(0.78383706244577, rel=1e-12)
        assert ic.phi[1] < ic.phi[2] < ic.phi[3]

    def test_point_mass(self):
        ic = iron_discrete(DiscretePMF([1], [1.0]))
        assert list(zip(ic.hull_q, ic.hull_rev)) == [(0.0, 0.0), (1.0, 1.0)]
        assert ic.phi == (1.0,)

    def test_hull_dominates_and_phi_monotone(self, rng):
        from conftest import random_discrete

        for _ in range(50):
            m = random_discrete(rng, max_pts=6)
            ic = iron_discrete(m)
            c = revenue_curve(m, 2)
            for q, r in zip(c.qs, c.revs):
                assert ic.hull_value(q) >= r - 1e-12
            hull_revs = list(ic.hull_rev)
            # concavity of the hull polyline
            for (q1, r1), (q2, r2), (q3, r3) in zip(
                zip(ic.hull_q, hull_revs), zip(ic.hull_q[1:], hull_revs[1:]), zip(ic.hull_q[2:], hull_revs[2:])
            ):
                assert (r2 - r1) * (q3 - q2) >= (r3 - r2) * (q2 - q1) - 1e-9
            assert all(b >= a - 1e-12 for a, b in zip(ic.phi, ic.phi[1:]))


class TestPhiInverse:
    def test_discrete_matches_first_index_scan(self, rng):
        for _ in range(200):
            m = random_discrete(rng, max_pts=6)
            phis = np.asarray(m.ironed.phi)
            ys = np.concatenate(
                [phis, phis + 1e-13, phis - 1e-13, (phis[:-1] + phis[1:]) / 2, [-np.inf, np.inf]]
            )
            for strict, inv in ((False, m.phi_geq_inv), (True, m.phi_gt_inv)):
                want = [phi_inv_scan(m.points, m.ironed.phi, y, strict) for y in ys]
                assert np.array_equal(inv(ys), [np.inf if w is None else w for w in want])

    def test_inf_where_no_support_value_reaches(self):
        for m in (EqualRevenue(1, 4), ShiftedEqualRevenue(1, 3, 0.5), Uniform(0, 4), DiscretePMF([1, 2], [0.5, 0.5])):
            lo, top = m.support
            assert m.phi_geq_inv(top) == top  # the top value's virtual value is itself
            assert m.phi_gt_inv(top) == np.inf
            assert m.phi_gt_inv(top + 1.0) == np.inf
            assert m.phi_geq_inv(np.array([top + 1.0, -100.0])).tolist() == [np.inf, lo]


class TestRegularQuantileBound:
    def test_tight_at_one(self):
        assert regular_quantile_bound(0.5, 1.0) == pytest.approx(0.5)

    def test_upper_bound_scaled_uniform(self):
        # Uniform(0, 2) has q(1) = 0.5; the envelope dominates above 1
        assert regular_quantile_bound(0.5, 3.0) == pytest.approx(0.25)
        assert Uniform(0, 2).quantile_q(3.0) <= 0.25

    def test_range_split_value(self):
        p = 0.674
        tau = 1 + (1 - p) / p**2
        val = regular_quantile_bound(p, tau)
        assert val == pytest.approx(p / ((1 - p) * tau + p), abs=1e-15)
        assert val == pytest.approx(0.5463, abs=5e-4)

    def test_envelope_for_regular_marginals(self):
        # marginals with q(1) = p in (0, 1): bound above for tau >= 1,
        # below for tau <= 1
        cases = [Uniform(0, 2), EqualRevenue(0.5, 2.0), ShiftedEqualRevenue(0.5, 1.5, 0.2)]
        for m in cases:
            p = m.quantile_q(1.0)
            assert 0 < p < 1
            lo, hi = m.support
            for tau in np.linspace(1.0, 10 * hi, 200):
                assert m.quantile_q(tau) <= regular_quantile_bound(p, tau) + 1e-10
            for tau in np.linspace(lo, 1.0, 200):
                assert m.quantile_q(tau) >= regular_quantile_bound(p, tau) - 1e-10

    def test_convexity_switch(self):
        # g(p) = p/((1-p)tau + p) convex in p for tau >= 1, concave for tau <= 1
        ps = np.linspace(0.01, 0.99, 99)
        for tau, sign in [(2.0, 1.0), (0.5, -1.0)]:
            g = np.array([regular_quantile_bound(p, tau) for p in ps])
            second = g[2:] - 2 * g[1:-1] + g[:-2]
            assert np.all(sign * second >= -1e-12)


class TestRevenueAtQuantile:
    def test_uniform(self):
        assert revenue_at_quantile(Uniform(0, 1), 0.25) == pytest.approx(0.1875)

    def test_discrete_chord(self):
        # between the vertices the hull prices the two-point lottery
        m = DiscretePMF([1, 10], [0.9, 0.1])
        assert revenue_at_quantile(m, 0.1) == pytest.approx(1.0)
        assert revenue_at_quantile(m, 1.0) == pytest.approx(1.0)
        assert revenue_at_quantile(m, 0.55) == pytest.approx(1.0)


class TestValidation:
    def test_masses_must_sum(self):
        with pytest.raises(DomainError):
            DiscretePMF([1, 2], [0.5, 0.6])

    def test_points_nonnegative(self):
        with pytest.raises(DomainError, match="nonnegative"):
            DiscretePMF([-1, 2], [0.5, 0.5])

    def test_points_ascending(self):
        with pytest.raises(DomainError):
            DiscretePMF([2, 1], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_points_and_masses_finite(self, bad):
        # every comparison with NaN is False, so the order, sign and sum
        # checks alone let it through
        with pytest.raises(DomainError, match="finite"):
            DiscretePMF([1, 2], [bad, 0.5])
        with pytest.raises(DomainError, match="finite"):
            DiscretePMF([1, bad], [0.5, 0.5])

    def test_er_invariant_constant_revenue(self):
        m = EqualRevenue(0.3, 7.0)
        for s in np.linspace(0.3, 7.0, 50):
            assert s * m.quantile_q(s) == pytest.approx(0.3, abs=1e-12)
