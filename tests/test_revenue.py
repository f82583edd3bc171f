import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    myerson_branch_revenue_reference,
    q1_ind,
    q1q2_enumerate,
    q2_ind,
    random_discrete,
    random_marginal,
    random_regular_discrete,
    slot_mixtures,
    split_grids,
    table_q1q2_enumerate,
)
from kwrob import (
    AnonymousReserve,
    Branch,
    Conditioned,
    DiscretePMF,
    DomainError,
    EqualRevenue,
    FixedValue,
    MixturePrior,
    Myerson,
    ProductPrior,
    ShiftedEqualRevenue,
    TablePrior,
    Uniform,
    ar_revenue_integral,
    check_3wise_inequalities,
    discretize,
    ex_ante_level,
    mechanism_payments,
    myerson_counterexample,
    myerson_ind_revenue,
    natural_grids,
    revenue_exact,
    revenue_exact_table,
    revenue_mc,
    run_mechanism,
    sample,
    threshold_probs,
    uniform_q2_counterexample,
)
from kwrob.cli import main
from kwrob.priors import _kept_cells
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
        # the chosen member's threshold depends on its index, so identical
        # slot members cannot share one member's price
        m = DiscretePMF([1, 2, 3], [0.2, 0.3, 0.5])
        prior = MixturePrior([m, m], [Branch(1.0, (FixedValue(2),) * 2, (FixedValue(3),) * 2)])
        mech = Myerson([m, m])
        via_table = revenue_exact_table(discretize(prior), mech).mean
        assert via_table == pytest.approx(2.5, abs=1e-12)
        assert revenue_exact(prior, mech).mean == pytest.approx(via_table, abs=1e-12)

    @pytest.mark.parametrize("n", [40, 100, 300, 1000, 2000])
    def test_counterexample_closed_form(self, n):
        # each slot branch is one sweep over a key axis shared by all
        # bidders, so even n = 2000 stays fast.  The terms are summed
        # correctly rounded, so the error stays within a few units in the
        # last place at every n
        eps = 1e-6
        prior = myerson_counterexample(n, eps)
        t0 = time.monotonic()
        rev = revenue_exact(prior, Myerson(list(prior.marginals))).mean
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
    @given(slot_mixtures(), st.booleans())
    @example(uniform_q2_counterexample(4), True)
    @example(myerson_counterexample(4, 1e-6), True)
    def test_mixture_matches_its_table(self, mix, split):
        # a split grid takes one bidder out of its class's (class, grid)
        # group; the table is exact at the natural grids' points
        grids = split_grids(mix) if split else natural_grids(mix)
        table = discretize(mix, grids)
        for tau in sorted({x for g in natural_grids(mix) for x in g}):
            assert threshold_probs(mix, tau) == pytest.approx(
                threshold_probs(table, tau), rel=1e-12, abs=1e-12
            )
        mech = Myerson(list(mix.marginals))
        assert revenue_exact(mix, mech, grids).mean == pytest.approx(
            revenue_exact_table(table, mech).mean, rel=1e-12, abs=1e-12
        )


class TestProductSweep:
    """The key-grid sweep, on a branch without a slot, against brute-force
    enumeration."""

    @staticmethod
    def sweep(mech, dists):
        vals = [np.asarray(v, dtype=float) for v, _ in dists]
        masses = [(np.asarray(p, dtype=float), None) for _, p in dists]
        return _myerson_branch_revenue(mech, vals, masses, [[i] for i in range(len(dists))])

    def brute(self, mech, dists):
        total = 0.0
        for combo in itertools.product(*[range(len(v)) for v, _ in dists]):
            vals = [float(dists[i][0][c]) for i, c in enumerate(combo)]
            w = float(np.prod([dists[i][1][c] for i, c in enumerate(combo)]))
            total += w * run_mechanism(mech, vals).payment
        return total

    def test_random_instances(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 5))
            ms, dists = [], []
            for _ in range(n):
                m = random_regular_discrete(rng)
                ms.append(m)
                w2 = rng.dirichlet(np.ones(len(m.points)))
                dists.append((np.asarray(m.points), w2))
            mech = Myerson(ms)
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
        # values with the same allocation key; the sweep must aggregate them
        m_flat = DiscretePMF([1, 4, 10], [0.8, 0.1, 0.1])
        m_other = DiscretePMF([0.5, 6.0], [0.5, 0.5])
        ms = [m_flat, m_other, m_flat]
        dists = [(np.asarray(m.points), rng.dirichlet(np.ones(len(m.points)))) for m in ms]
        mech = Myerson(ms)
        assert self.sweep(mech, dists) == pytest.approx(self.brute(mech, dists), abs=1e-12)

    def test_irregular_marginals_random(self, rng):
        from conftest import random_discrete

        for _ in range(10):
            ms = [random_discrete(rng) for _ in range(int(rng.integers(2, 4)))]
            dists = [
                (np.asarray(m.points), rng.dirichlet(np.ones(len(m.points)))) for m in ms
            ]
            mech = Myerson(ms)
            assert self.sweep(mech, dists) == pytest.approx(self.brute(mech, dists), abs=1e-10)

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


class TestSharedKeyAxis:
    """The branch sweep on one key axis shared by all bidders against the
    reference sweep with its own key columns per bidder, and against
    enumeration where bidders of different marginals tie on one key."""

    @staticmethod
    def assert_matches_reference(prior, mech, grids=None):
        groups, supports, _, masses = _kept_cells(prior, grids)
        vals = [np.array(s) for s in supports]
        for bm in masses:
            assert _myerson_branch_revenue(mech, supports, bm, groups) == pytest.approx(
                myerson_branch_revenue_reference(mech, vals, bm), rel=1e-15, abs=0.0
            )

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(slot_mixtures(), st.booleans())
    def test_slot_mixtures(self, mix, split):
        grids = split_grids(mix) if split else natural_grids(mix)
        self.assert_matches_reference(mix, Myerson(list(mix.marginals)), grids)

    @pytest.mark.parametrize("n", [2, 8, 64, 300])
    def test_constructions(self, n):
        for prior in (myerson_counterexample(n, 1e-6), uniform_q2_counterexample(n)):
            self.assert_matches_reference(prior, Myerson(list(prior.marginals)))

    def test_random_products(self, rng):
        # bidders repeat a few marginals, so they share (class, grid)
        # groups; the mechanism may tell members of one group apart by
        # designing for other masses on the same points
        for _ in range(40):
            pool = [random_discrete(rng) for _ in range(int(rng.integers(1, 4)))]
            ms = [pool[int(j)] for j in rng.integers(0, len(pool), size=int(rng.integers(1, 7)))]
            designed = {id(m): DiscretePMF(m.points, rng.dirichlet(np.ones(len(m.points)))) for m in pool}
            mech_ms = [designed[id(m)] if rng.random() < 0.5 else m for m in ms]
            self.assert_matches_reference(ProductPrior(ms), Myerson(mech_ms))

    # two marginals with different points below a shared top point 3,
    # where both have virtual value 3
    A = DiscretePMF([2.5, 3.0], [0.5, 0.5])
    B = DiscretePMF([2.0, 3.0], [0.4, 0.6])

    def test_interleaved_ties_product(self):
        assert self.A.virtual_value(3.0) == self.B.virtual_value(3.0) == 3.0
        ms = [self.A, self.B, self.A, self.B]
        mech = Myerson(ms)
        prior = ProductPrior(ms)
        dists = [(m.points, m.masses) for m in ms]
        brute = TestProductSweep().brute(mech, dists)
        assert revenue_exact(prior, mech).mean == pytest.approx(brute, rel=1e-14)
        assert revenue_exact_table(discretize(prior), mech).mean == pytest.approx(brute, rel=1e-14)
        assert TestProductSweep.sweep(mech, dists) == pytest.approx(brute, rel=1e-14)

    def test_interleaved_ties_slot(self):
        # the slot's chosen member sits at the shared top point, where the
        # other bidders, of either marginal, can tie with it
        ms = [self.A, self.B, self.A, self.B]
        prior = MixturePrior(
            ms,
            [
                Branch(0.5, tuple(FixedValue(m.points[0]) for m in ms)),
                Branch(0.5, tuple(Conditioned(m) for m in ms), chosen=(FixedValue(3.0),) * 4),
            ],
        )
        mech = Myerson(ms)
        via_table = revenue_exact_table(discretize(prior), mech).mean
        assert revenue_exact(prior, mech).mean == pytest.approx(via_table, rel=1e-14)
        self.assert_matches_reference(prior, mech)


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
        # the largest power of two up to one sweep piece (2^14 rows) whose
        # sample buffer fits in 64 MiB: 2^14 rows at n = 64 (65 bidders) and
        # n = 300, 2^13 at n = 600, where the 64 MiB cap binds
        for n, rows in ((64, 1 << 14), (300, 1 << 14), (600, 1 << 13)):
            prior = myerson_counterexample(n, 1e-6)
            mech = AnonymousReserve(2.0 * n)  # sells when the big bidder clears 2n
            est = revenue_mc(prior, mech, rows + 3, seed=7)
            assert est == revenue_mc(prior, mech, rows + 3, seed=7, block_size=rows)
            assert est != revenue_mc(prior, mech, rows + 3, seed=7, block_size=rows // 2)

    def test_reused_buffer_keeps_every_block_draw(self):
        # every block refills one buffer; a short last block (452 rows)
        # takes its leading columns, and every block's draws are the ones
        # a fresh sample gives
        prior = myerson_counterexample(8, 1e-6)
        mech = Myerson(list(prior.marginals))
        rows, block = 2500, 1024
        total = 0.0
        for b in range(3):
            V = sample(prior, np.random.default_rng([3, b]), size=min(block, rows - b * block))
            total += float(mechanism_payments(mech, V).sum())
        assert revenue_mc(prior, mech, rows, seed=3, block_size=block).mean == total / rows


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
        from conftest import q2_ind_from_q

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


class TestExAnteMarks:
    """ex_ante_level reads both levels off the marks where their sums jump."""

    @staticmethod
    def count(ms, v):
        return sum(m.quantile_q(v) for m in ms)

    def test_random_mixed_classes(self, rng):
        for _ in range(1000):
            ms = [random_marginal(rng) for _ in range(int(rng.integers(1, 6)))]
            ea = ex_ante_level(ms)
            assert 0.0 <= ea.s0 <= 1.0 + 1e-12, ms
            assert self.count(ms, ea.r_ex) >= 1.0 - 1e-12, ms
            assert self.count(ms, math.nextafter(ea.r_ex, math.inf)) < 1.0 + 1e-12, ms
            if ea.tau_ex >= 0.0:
                assert sum(ea.q) == pytest.approx(0.5, abs=1e-12), ms

    def test_shifted_top_atom(self):
        # r_ex is the shifted marginal's top atom, which q reads in its own frame
        ms = [
            ShiftedEqualRevenue(0.21676554576715795, 1.5194856123246303, 0.30627818797101736),
            EqualRevenue(0.8728583247673515, 3.8726517559008466),
            Uniform(0.8713477912369889, 1.683887437806641),
            Uniform(0.8781495587119538, 2.4357091420351873),
        ]
        ea = ex_ante_level(ms)
        assert ea.r_ex == ms[0].support[1]
        assert ea.s0 == pytest.approx(0.8696816642581261, abs=1e-12)

    @pytest.mark.parametrize("zero_mass_bottom", [False, True])
    def test_one_bidder_masses_summing_below_one(self, zero_mass_bottom):
        # Pr[v >= 4.717] sums to one ulp below 1, so the count is below 1 at
        # every mark; the lowest point of positive mass still has q = 1
        points, masses = (4.717, 5.345, 7.093, 7.287), (0.065268, 0.358621, 0.378761, 0.19734999999999991)
        if zero_mass_bottom:
            points, masses = (1.0, *points), (0.0, *masses)
        ea = ex_ante_level([DiscretePMF(points, masses)])
        assert ea.r_ex == 4.717
        assert ea.s0 == pytest.approx(0.934732, abs=1e-12)


class TestIndependentOptimum:
    """myerson_ind_revenue is Myerson's identity E[max_i phi_i^+], exact up
    to rounding on every product of the shipped classes."""

    C1 = DiscretePMF([1, 2, 3], [0.5, 0.3, 0.2])
    C2 = DiscretePMF([2, 5, 8, 9], [0.8715, 0.0118, 0.0012, 0.1155])  # 2, 5 and 8 ironed onto one virtual value
    # ROADMAP faults B, C1 (n = 2 and 6) and C2: breaking virtual-value
    # ties by value, at the tied competitor's value, earns 1.09, 1.29,
    # 2.2353 and 2.2859 here
    OPTIMA = [([EqualRevenue(1, 10)] * 2, 1.9), ([C1] * 2, 1.6), ([C1] * 6, 2.54226), ([C2] * 3, 3.52361825)]

    @pytest.mark.parametrize("ms, want", [([Uniform(0, 1)] * 2, 5 / 12), ([Uniform(0, 1)] * 3, 0.53125), *OPTIMA])
    def test_closed_forms(self, ms, want):
        assert myerson_ind_revenue(ms) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("ms, want", OPTIMA)
    def test_sweep_and_kernel_earn_the_optimum(self, ms, want):
        # revenue_exact through the branch sweep (the product) and through
        # the batch kernel (its table)
        prior = ProductPrior(ms)
        for est in (revenue_exact(prior, Myerson(ms)), revenue_exact(discretize(prior), Myerson(ms))):
            assert est.exact and est.mean == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_equals_lex_sweep_on_discrete_products(self, rng):
        products = [[self.C2] * 3, [self.C1] * 6]
        for _ in range(60):
            products.append([random_discrete(rng) for _ in range(int(rng.integers(1, 5)))])
        for _ in range(40):
            products.append([random_discrete(rng)] * int(rng.integers(2, 6)))
        for ms in products:
            lex = revenue_exact(ProductPrior(ms), Myerson(ms)).mean
            assert myerson_ind_revenue(ms) == pytest.approx(lex, rel=1e-13, abs=0.0), ms

    @pytest.mark.parametrize(
        "m, n",
        [(Uniform(0, 1), 2), (Uniform(0.5, 2), 3), (Uniform(1, 3), 5), (EqualRevenue(1, 10), 2), (EqualRevenue(0.5, 4), 4)],
    )
    def test_identical_regular_equals_ar_at_monopoly_reserve(self, m, n):
        # exact AR integrates Q2 adaptively at abs_tol=1e-10
        ar = revenue_exact(ProductPrior([m] * n), AnonymousReserve(m.monopoly_reserve())).mean
        assert myerson_ind_revenue([m] * n) == pytest.approx(ar, rel=1e-10)

    def test_mixed_continuous_product_against_mc(self):
        ms = [Uniform(0, 1), Uniform(0.5, 2), EqualRevenue(1, 4), ShiftedEqualRevenue(1, 3, 0.5)]
        mc = revenue_mc(ProductPrior(ms), Myerson(ms), 1 << 17, seed=3)
        assert abs(myerson_ind_revenue(ms) - mc.mean) <= 5 * mc.half_width_95

    @pytest.mark.parametrize("n", [10, 100, 300])
    def test_equals_counterexample_report(self, n, tmp_path, capsys):
        assert main(["counterexample", "myerson", "--n", str(n), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / f"counterexample_myerson_n{n}.json").read_text())
        # E[max_i phi_i^+]: the big bidder's top atom (mass 1/n, phi n^2 +
        # eps), else a small bidder's top atom (phi 1), else the big
        # bidder's interior (phi eps), as a rational in the float eps
        eps = Fraction(report["eps"])
        want = eps + (1 - eps) * (1 - (1 - Fraction(1, n)) ** (n + 1)) + (n * n + eps - 1) / n
        # the report comes from myerson_ind_revenue; the product sweep is
        # within 1e-14 (-6.6e-15 at n = 300)
        ms = myerson_counterexample(n, report["eps"]).marginals
        sweep = revenue_exact(ProductPrior(ms), Myerson(list(ms))).mean
        assert abs(Fraction(report["independent_exact_discretized"]) / want - 1) <= 1e-15
        assert abs(Fraction(sweep) / want - 1) <= 1e-14


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
