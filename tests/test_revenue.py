import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import q1q2_enumerate, random_regular_discrete, slot_mixtures, table_q1q2_enumerate
from kwrob import (
    AnonymousReserve,
    Branch,
    DiscretePMF,
    DomainError,
    FixedValue,
    MixturePrior,
    Myerson,
    ProductPrior,
    RandomIndexSlot,
    TablePrior,
    Uniform,
    ar_revenue_integral,
    check_3wise_inequalities,
    discretize,
    ex_ante_level,
    myerson_counterexample,
    natural_grids,
    q1_ind,
    q2_ind,
    revenue_exact,
    revenue_exact_table,
    revenue_mc,
    run_mechanism,
    threshold_probs,
    uniform_q2_counterexample,
)
from kwrob.revenue import _myerson_branch_revenue, posted_price_lower_bound


class TestExactTable:
    def test_point_masses_ar(self):
        t = TablePrior([(5.0,), (3.0,)], np.array([[1.0]]))
        assert revenue_exact_table(t, AnonymousReserve(4)).mean == 4.0

    def test_counterexample_collapse_small_n(self):
        n, eps = 3, 1e-6
        prior = myerson_counterexample(n, eps)
        mech = Myerson(list(prior.marginals))
        via_table = revenue_exact_table(discretize(prior), mech).mean
        via_mixture = revenue_exact(prior, mech).mean
        expect = 3 - 2 / n + eps / n
        assert via_table == pytest.approx(expect, abs=1e-12)
        assert via_mixture == pytest.approx(via_table, abs=1e-14)

    def test_ar_top_reserve_product(self):
        n, eps = 3, 1e-6
        prior = myerson_counterexample(n, eps)
        r = n * n + eps
        product = ProductPrior(prior.marginals)
        rev = revenue_exact(discretize(product), AnonymousReserve(r)).mean
        assert rev == pytest.approx(n + eps / n, abs=1e-9)

    def test_lex_prices_each_slot_member(self):
        # under lex the chosen member's threshold depends on its index, so
        # identical slot members cannot share one member's price
        m = DiscretePMF([1, 2, 3], [0.2, 0.3, 0.5])
        slot = RandomIndexSlot((0, 1), (FixedValue(3),) * 2, (FixedValue(2),) * 2)
        prior = MixturePrior([m, m], [Branch(1.0, (None, None), slot)])
        mech = Myerson([m, m], "lex")
        via_table = revenue_exact_table(discretize(prior), mech).mean
        assert via_table == pytest.approx(2.5, abs=1e-12)
        assert revenue_exact(prior, mech).mean == pytest.approx(via_table, abs=1e-12)

    @pytest.mark.parametrize("n", [40, 100, 300])
    @pytest.mark.parametrize("tie", ["highest_value", "lex"])
    def test_counterexample_closed_form(self, n, tie):
        # under lex every slot member is priced separately, yet the whole
        # slot branch is still one sweep: lex at n = 300 stays fast.  The
        # terms are summed correctly rounded, so the error stays within a
        # few units in the last place at every n
        eps = 1e-6
        prior = myerson_counterexample(n, eps)
        t0 = time.monotonic()
        rev = revenue_exact(prior, Myerson(list(prior.marginals), tie)).mean
        elapsed = time.monotonic() - t0
        assert rev == pytest.approx(3 - 2 / n + eps / n, rel=4e-16, abs=0.0)
        assert elapsed < 5.0

    def test_myerson_rejects_grid_missing_support(self):
        # the small bidders' grids stop at 1/3, below the top of their
        # support [1/3, 1], so their one cell (the point 1/3) holds none of
        # their mass
        prior = myerson_counterexample(3, 1e-6)
        grids = [[1 / 3]] * 3 + [[3.000001, 9.000001]]
        with pytest.raises(DomainError, match="does not cover the support"):
            revenue_exact(prior, Myerson(list(prior.marginals)), grids=grids)

    def test_exact_flag(self):
        t = TablePrior([(1.0,)], np.array([1.0]))
        est = revenue_exact_table(t, AnonymousReserve(0.5))
        assert est.exact and est.half_width_95 == 0.0


class TestSlotParts:
    """Slot parts, merged per exchangeability class or expanded per member,
    against the discretized table."""

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(slot_mixtures())
    def test_mixture_matches_its_table(self, mix):
        grids = natural_grids(mix)
        table = discretize(mix, grids)
        for tau in sorted({x for g in grids for x in g}):
            assert threshold_probs(mix, tau) == pytest.approx(
                threshold_probs(table, tau), rel=1e-12, abs=1e-12
            )
        for tie in ("highest_value", "lex"):
            mech = Myerson(list(mix.marginals), tie)
            assert revenue_exact(mix, mech).mean == pytest.approx(
                revenue_exact_table(table, mech).mean, rel=1e-12, abs=1e-12
            )


class TestProductSweep:
    """The key-grid sweep, on a branch without a slot, against brute-force
    enumeration."""

    @staticmethod
    def sweep(mech, dists):
        vals = [np.asarray(v, dtype=float) for v, _ in dists]
        masses = [(np.asarray(p, dtype=float), None) for _, p in dists]
        return _myerson_branch_revenue(mech, vals, masses)

    def brute(self, mech, dists):
        total = 0.0
        for combo in itertools.product(*[range(len(v)) for v, _ in dists]):
            vals = [float(dists[i][0][c]) for i, c in enumerate(combo)]
            w = float(np.prod([dists[i][1][c] for i, c in enumerate(combo)]))
            total += w * run_mechanism(mech, vals).payment
        return total

    @pytest.mark.parametrize("tie", ["highest_value", "lex"])
    def test_random_instances(self, tie, rng):
        for _ in range(15):
            n = int(rng.integers(1, 5))
            ms, dists = [], []
            for _ in range(n):
                m = random_regular_discrete(rng)
                ms.append(m)
                w2 = rng.dirichlet(np.ones(len(m.points)))
                dists.append((np.asarray(m.points), w2))
            mech = Myerson(ms, tie)
            assert self.sweep(mech, dists) == pytest.approx(
                self.brute(mech, dists), abs=1e-10
            )
            r = float(rng.uniform(0, 5))
            product = ProductPrior([DiscretePMF(points, w) for points, w in dists])
            assert revenue_exact(product, AnonymousReserve(r)).mean == pytest.approx(
                self.brute(AnonymousReserve(r), dists), abs=1e-10
            )

    def test_ironed_flat_duplicate_keys(self, rng):
        # an ironed-flat discrete marginal gives one bidder several support
        # values with the same allocation key under lex tie-breaking; the
        # sweep must aggregate them
        m_flat = DiscretePMF([1, 4, 10], [0.8, 0.1, 0.1])
        m_other = DiscretePMF([0.5, 6.0], [0.5, 0.5])
        ms = [m_flat, m_other, m_flat]
        dists = [(np.asarray(m.points), rng.dirichlet(np.ones(len(m.points)))) for m in ms]
        for tb in ["lex", "highest_value"]:
            mech = Myerson(ms, tb)
            assert self.sweep(mech, dists) == pytest.approx(
                self.brute(mech, dists), abs=1e-12
            )

    def test_irregular_marginals_random(self, rng):
        from conftest import random_discrete

        for _ in range(10):
            ms = [random_discrete(rng) for _ in range(int(rng.integers(2, 4)))]
            dists = [
                (np.asarray(m.points), rng.dirichlet(np.ones(len(m.points)))) for m in ms
            ]
            for tb in ["lex", "highest_value"]:
                mech = Myerson(ms, tb)
                assert self.sweep(mech, dists) == pytest.approx(
                    self.brute(mech, dists), abs=1e-10
                )

    def test_off_marginal_distributions(self, rng):
        # components need not match the mechanism's marginals
        n, eps = 2, 1e-6
        prior = myerson_counterexample(n, eps)
        mech = Myerson(list(prior.marginals))
        dists = [
            (np.array([0.5]), np.array([1.0])),
            (np.array([0.5, 1.0]), np.array([0.25, 0.75])),
            (np.array([n + eps, n * n + eps]), np.array([0.5, 0.5])),
        ]
        assert self.sweep(mech, dists) == pytest.approx(
            self.brute(mech, dists), abs=1e-12
        )


class TestMonteCarlo:
    def test_two_uniform_ar(self):
        est = revenue_mc(ProductPrior([Uniform(0, 1)] * 2), AnonymousReserve(0.5), 200_000, seed=42)
        # 4 standard errors keeps the flake rate around 1e-4
        assert abs(est.mean - 5 / 12) < 4 * est.half_width_95 / 1.96

    def test_counterexample_close_to_three(self):
        prior = myerson_counterexample(100, 1e-6)
        est = revenue_mc(prior, Myerson(list(prior.marginals)), 100_000, seed=9)
        exact = 3 - 2 / 100 + 1e-6 / 100
        assert abs(est.mean - exact) < 4 * est.half_width_95 / 1.96

    def test_point_mass_zero_variance(self):
        prior = ProductPrior([DiscretePMF([5.0], [1.0]), DiscretePMF([3.0], [1.0])])
        est = revenue_mc(prior, AnonymousReserve(4.0), 1000, seed=1)
        assert est.mean == 4.0 and est.half_width_95 == 0.0

    def test_default_block_size_follows_bidders(self):
        # the largest power of two up to 2^16 rows whose sample buffer fits
        # in 64 MiB: 2^16 rows at n = 64 (65 bidders), 2^14 at n = 300
        for n, rows in ((64, 1 << 16), (300, 1 << 14)):
            prior = myerson_counterexample(n, 1e-6)
            mech = AnonymousReserve(2.0 * n)  # sells when the big bidder clears 2n
            est = revenue_mc(prior, mech, rows + 3, seed=7)
            assert est == revenue_mc(prior, mech, rows + 3, seed=7, block_size=rows)
            assert est != revenue_mc(prior, mech, rows + 3, seed=7, block_size=rows // 2)

    def test_reproducible_across_threads(self):
        prior = uniform_q2_counterexample(3)
        mech = AnonymousReserve(0.5)
        a = revenue_mc(prior, mech, 300_000, seed=5, threads=1)
        b = revenue_mc(prior, mech, 300_000, seed=5, threads=4)
        assert a.mean == b.mean and a.half_width_95 == b.half_width_95


class TestIndependentClosedForms:
    def test_half_half(self):
        ms = [DiscretePMF([0.0, 1.0], [0.5, 0.5])] * 2
        assert q2_ind(ms, 1.0) == pytest.approx(0.25)

    def test_uniform_formula(self):
        n = 10
        ms = [Uniform(0, 1)] * (n + 1)
        expect = 1 - (1 - 1 / n) ** (n + 1) - (n + 1) * (1 / n) * (1 - 1 / n) ** n
        assert q2_ind(ms, (n - 1) / n) == pytest.approx(expect, abs=1e-12)

    def test_enumeration_oracle(self):
        from kwrob import q2_ind_from_q

        for qs in [(0.1, 0.2, 0.3, 0.4), (0.5, 0.5), (1.0, 0.3), (1.0, 1.0, 0.2), (0.0, 0.7)]:
            assert q2_ind_from_q(qs) == pytest.approx(q1q2_enumerate(qs)[1], abs=1e-14)


class TestIndMonotonicity:
    def test_q_curves_nonincreasing(self):
        ms = [Uniform(0, 1.5), DiscretePMF([0.5, 1.0, 2.0], [0.3, 0.4, 0.3])]
        taus = np.linspace(0.0, 2.5, 200)
        q1s = [q1_ind(ms, float(t)) for t in taus]
        q2s = [q2_ind(ms, float(t)) for t in taus]
        assert all(b <= a + 1e-12 for a, b in zip(q1s, q1s[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(q2s, q2s[1:]))
        assert all(y <= x + 1e-12 for x, y in zip(q1s, q2s))


class TestARIntegral:
    def test_two_uniforms(self):
        ms = [Uniform(0, 1)] * 2

        def q1(t):
            return q1_ind(ms, t)

        def q2(t):
            return q2_ind(ms, t)

        assert ar_revenue_integral(0.5, q1, q2, 1.0) == pytest.approx(5 / 12, abs=1e-9)

    def test_counterexample_tail_is_small(self):
        n = 5
        prior = uniform_q2_counterexample(n)
        r = (n - 1) / n

        def q2(t):
            return threshold_probs(prior, t)[1]

        tail = ar_revenue_integral(r, lambda t: 0.0, q2, 1.0)
        assert tail <= (1 / n**2) * (1 / n) + 1e-12

    def test_empty_integral(self):
        assert ar_revenue_integral(2.0, lambda t: 0.25, lambda t: 1.0, 1.5) == 0.5

    def test_matches_exact_table(self, rng):
        supports = [(0.2, 1.0, 2.5), (0.4, 1.8)]
        pmf = rng.dirichlet(np.ones(6)).reshape(3, 2)
        t = TablePrior(supports, pmf)
        r = 0.7

        def q1(x):
            return table_q1q2_enumerate(t, x)[0]

        def q2(x):
            return table_q1q2_enumerate(t, x)[1]

        via_integral = ar_revenue_integral(r, q1, q2, 2.5, breakpoints=[1.0, 1.8, 2.5])
        via_table = revenue_exact_table(t, AnonymousReserve(r)).mean
        assert via_integral == pytest.approx(via_table, abs=1e-9)


class TestExAnte:
    def test_two_uniforms(self):
        ea = ex_ante_level([Uniform(0, 1)] * 2)
        assert ea.tau_ex == pytest.approx(0.5, abs=1e-9)
        assert ea.v_bar == pytest.approx((0.75, 0.75))
        assert ea.q == pytest.approx((0.25, 0.25), abs=1e-9)
        assert ea.rev == pytest.approx((0.1875, 0.1875), abs=1e-9)
        assert ea.r_ex == pytest.approx(0.5, abs=1e-9)

    def test_single_uniform(self):
        ea = ex_ante_level([Uniform(0, 1)])
        assert ea.tau_ex == pytest.approx(0.0, abs=1e-9)
        assert ea.v_bar[0] == pytest.approx(0.5, abs=1e-9)
        assert ea.q[0] == pytest.approx(0.5, abs=1e-9)

    def test_counterexample_case2(self):
        n, eps = 4, 1e-6
        prior = myerson_counterexample(n, eps)
        ea = ex_ante_level(list(prior.marginals))
        assert ea.tau_ex > 0  # the nontrivial branch of the robustness proof
        assert sum(ea.q) == pytest.approx(0.5, abs=1e-9)
        assert ea.q[n] == pytest.approx(1 / n, abs=1e-9)
        assert ea.q[0] == pytest.approx((0.5 - 1 / n) / n, abs=1e-9)

    def test_budget_saturation(self, rng):
        for _ in range(20):
            ms = [random_regular_discrete(rng) for _ in range(int(rng.integers(1, 4)))]
            ea = ex_ante_level(ms)
            if ea.tau_ex >= 0:
                assert sum(ea.q) == pytest.approx(0.5, abs=1e-9)
            else:
                assert sum(ea.q) <= 0.5 + 1e-9

    def test_budget_validation(self):
        with pytest.raises(DomainError):
            ex_ante_level([Uniform(0, 1)], budget=0.0)

    def test_exante_upper_bound_uniforms(self):
        # v0 * n * q(v0) upper-bounds the optimal revenue for v0 between the
        # monopoly reserve and the ex-ante threshold
        n = 3
        uni = Uniform(0, 1)
        grid = np.linspace(0.0, 1.0, 101)[:-1]
        masses = np.full(100, 1 / 100)
        disc = DiscretePMF(grid.tolist(), masses.tolist())
        mech = Myerson([disc] * n)
        opt = revenue_exact(ProductPrior([disc] * n), mech).mean
        r_star, r_ex = 0.5, 1 - 1 / n
        for v0 in np.linspace(r_star, r_ex, 50, endpoint=False):
            assert v0 * n * uni.quantile_q(v0) >= opt - 1e-9


class TestThreeWise:
    def test_product_uniform_pair(self):
        ms = [Uniform(0, 1)] * 2
        rep = check_3wise_inequalities(ms, ProductPrior(ms))
        assert rep.relax_lhs == pytest.approx(0.75, abs=1e-9)
        assert rep.myer_ind == pytest.approx(5 / 12, abs=1e-9)
        assert rep.relax_ok and rep.case_ok and rep.global_ok

    def test_case1_instance(self):
        # tiny sale probabilities at the reserves: tau_ex <= 0, constant 2
        m = DiscretePMF([0.1, 10.0], [0.95, 0.05])
        ms = [m, m]
        rep = check_3wise_inequalities(ms, ProductPrior(ms))
        assert rep.case == "case1" and rep.case_constant == 2.0
        assert rep.relax_ok and rep.case_ok

    def test_rejects_non_threewise_prior(self):
        n = 5
        prior = myerson_counterexample(n, 1e-6)
        with pytest.raises(DomainError):
            check_3wise_inequalities(list(prior.marginals), prior)

    def test_random_regular_instances(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            ms = [random_regular_discrete(rng) for _ in range(n)]
            rep = check_3wise_inequalities(ms, ProductPrior(ms))
            assert rep.relax_ok, (rep.relax_lhs, rep.myer_ind)
            assert rep.case_ok and rep.global_ok


class TestPostedPriceBound:
    def test_counterexample(self):
        n, eps = 10, 1e-6
        prior = myerson_counterexample(n, eps)
        assert posted_price_lower_bound(prior.marginals) == pytest.approx(n + eps)
