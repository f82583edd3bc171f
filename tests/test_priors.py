import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import q1q2_enumerate, random_discrete, sample_reference, table_q1q2_enumerate
from kwrob import (
    DiscretePMF,
    DomainError,
    EqualRevenue,
    ProductPrior,
    ShiftedEqualRevenue,
    TablePrior,
    Uniform,
    discretize,
    myerson_counterexample,
    q1q2_from_qvec,
    sample,
    threshold_probs,
    uniform_q2_counterexample,
    verify_kwise,
)
from kwrob.io import table_from_csv, table_to_csv
from kwrob.priors import Branch, FixedValue, FullMarginal, MixturePrior, RandomIndexSlot


class TestProductPrior:
    def test_two_uniforms_joint(self):
        p = ProductPrior([Uniform(0, 1)] * 2)
        q1, q2 = threshold_probs(p, 0.5)
        assert q2 == pytest.approx(0.25)

    def test_construction_marginal_count(self):
        p = myerson_counterexample(2, 1e-6)
        assert p.n_bidders == 3

    def test_single_marginal(self):
        p = ProductPrior([EqualRevenue(0.5, 1.0)])
        assert threshold_probs(p, 0.75)[0] == pytest.approx(2 / 3)


class TestMyersonCounterexample:
    def test_branch_weights_n2(self):
        p = myerson_counterexample(2, 1e-6)
        assert [b.weight for b in p.branches] == pytest.approx([0.25, 0.25, 0.5])

    def test_big_bidder_atom(self):
        n, eps = 10, 1e-6
        p = myerson_counterexample(n, eps)
        assert p.marginal_atom(n, n * n + eps) == pytest.approx(1 / n, abs=1e-12)

    def test_small_bidder_atom(self):
        n = 3
        p = myerson_counterexample(n, 1e-6)
        assert p.marginal_atom(0, 1.0) == pytest.approx(1 / n, abs=1e-12)

    def test_needs_two_bidders(self):
        with pytest.raises(DomainError):
            myerson_counterexample(1, 1e-6)

    def test_mixture_marginals_match_parametric(self):
        n, eps = 4, 1e-6
        p = myerson_counterexample(n, eps)
        small = EqualRevenue(1 / n, 1.0)
        big = ShiftedEqualRevenue(n, n * n, eps)
        for tau in np.linspace(1 / n, 1.0, 100):
            assert p.marginal_quantile(0, tau) == pytest.approx(
                small.quantile_q(tau), abs=1e-10
            )
        for tau in np.linspace(n + eps, n * n + eps, 100):
            assert p.marginal_quantile(n, tau) == pytest.approx(
                big.quantile_q(tau), abs=1e-10
            )


class TestUniformQ2Counterexample:
    def test_marginal_above_cut(self):
        for n in [2, 5, 10]:
            p = uniform_q2_counterexample(n)
            assert p.marginal_quantile(0, (n - 1) / n) == pytest.approx(1 / n, abs=1e-12)

    def test_q2_is_inverse_square(self):
        for n in [2, 3, 10]:
            p = uniform_q2_counterexample(n)
            _, q2 = threshold_probs(p, (n - 1) / n)
            assert q2 == 1.0 / (n * n)

    def test_mixture_marginal_is_uniform(self):
        p = uniform_q2_counterexample(5)
        uni = Uniform(0, 1)
        for tau in np.linspace(0, 1, 100):
            assert p.marginal_quantile(2, tau) == pytest.approx(uni.quantile_q(tau), abs=1e-10)


class TestVerifyKwise:
    def test_product_passes(self):
        p = ProductPrior([Uniform(0, 1), EqualRevenue(0.5, 1.0)])
        rep = verify_kwise(p, 2)
        assert rep.passed and rep.max_deviation <= 1e-12

    def test_both_constructions_pairwise(self):
        for n in [2, 5]:
            for p in [myerson_counterexample(n, 1e-6), uniform_q2_counterexample(n)]:
                rep = verify_kwise(p, 2)
                assert rep.passed, (n, rep.max_deviation)
                assert rep.max_deviation <= 1e-12

    def test_threewise_violation_moderate_n(self):
        rep = verify_kwise(myerson_counterexample(20, 1e-6), 3)
        assert not rep.passed
        assert rep.violations

    def test_k_above_n_rejected(self):
        with pytest.raises(DomainError):
            verify_kwise(ProductPrior([Uniform(0, 1)] * 2), 3)

    def test_perturbed_two_bidder_table_fails(self):
        # with two bidders pairwise = mutual: any feasible perturbation of
        # the product table must violate the check
        pmf = np.array([[0.25, 0.25], [0.25, 0.25]])
        delta = 0.05
        pmf = pmf + np.array([[delta, -delta], [-delta, delta]])
        t = TablePrior([(0.0, 1.0), (0.0, 1.0)], pmf)
        rep = verify_kwise(t, 2)
        assert not rep.passed
        assert rep.max_deviation == pytest.approx(delta, abs=1e-12)


class TestDiscretize:
    def test_product_uniform_grid(self):
        p = ProductPrior([Uniform(0, 1)] * 2)
        t = discretize(p, [[0.0, 0.5, 1.0]] * 2)
        assert t.pmf.shape == (2, 2)
        assert np.allclose(t.pmf, 0.25)
        assert t.supports == ((0.0, 0.5), (0.0, 0.5))

    def test_q2_counterexample_all_high_cell(self):
        n = 3
        p = uniform_q2_counterexample(n)
        t = discretize(p)
        assert t.pmf.shape == (2,) * (n + 1)
        all_high = tuple(-1 for _ in range(n + 1))
        assert t.pmf[all_high] == pytest.approx(1 / n**2, abs=1e-15)

    def test_myerson_marginals_match_atoms(self):
        n, eps = 2, 1e-6
        t = discretize(myerson_counterexample(n, eps))
        assert np.allclose(t.marginal_masses(0), [0.5, 0.5], atol=1e-12)
        assert np.allclose(t.marginal_masses(2), [0.5, 0.5], atol=1e-12)
        assert t.supports[2] == (n + eps, n * n + eps)

    def test_mass_preservation(self):
        for prior in [myerson_counterexample(4, 1e-6), uniform_q2_counterexample(4)]:
            t = discretize(prior)
            assert t.pmf.sum() == pytest.approx(1.0, abs=1e-12)
            for i in range(prior.n_bidders):
                masses = t.marginal_masses(i)
                for v, mass in zip(t.supports[i], masses):
                    # cell masses equal the mixture's own cell probabilities
                    nxt = dict(zip(t.supports[i][:-1], t.supports[i][1:]))
                    if v in nxt:
                        expect = prior.marginal_quantile(i, v) - prior.marginal_quantile(i, nxt[v])
                    else:
                        expect = prior.marginal_quantile(i, v)
                    assert mass == pytest.approx(expect, abs=1e-12)

    def test_missing_atom_errors(self):
        p = myerson_counterexample(2, 1e-6)
        bad = [[0.5, 0.9], [0.5, 1.0], [2 + 1e-6, 4 + 1e-6]]
        with pytest.raises(DomainError):
            discretize(p, bad)

    def test_grid_errors_name_the_first_bad_bidder(self):
        # one exchangeability class, checked once per distinct grid: bidder
        # 2 repeats bidder 0's grid, and bidder 3's differs and misses a cutoff
        p = uniform_q2_counterexample(4)
        good = [0.0, 0.75, 1.0]
        grids = [good, [0.0, 0.5, 0.75, 1.0], good, [0.0, 1.0], [0.0, 0.5, 1.0]]
        with pytest.raises(DomainError, match=r"^grid for bidder 3 misses cutoff 0\.75$"):
            verify_kwise(p, 2, grids)
        grids[2] = [0.0, 0.75]
        with pytest.raises(DomainError, match=r"^grid for bidder 2 does not cover the support$"):
            discretize(p, grids)


class TestThresholdProbs:
    def test_product_uniforms(self):
        assert threshold_probs(ProductPrior([Uniform(0, 1)] * 2), 0.5) == pytest.approx(
            (0.75, 0.25)
        )

    def test_independent_closed_form_vs_enumeration(self):
        marginals = [Uniform(0, 1), EqualRevenue(0.5, 2.0), Uniform(0.2, 1.5)]
        p = ProductPrior(marginals)
        for tau in [0.3, 0.8, 1.2]:
            qs = [m.quantile_q(tau) for m in marginals]
            assert threshold_probs(p, tau) == pytest.approx(q1q2_enumerate(qs), abs=1e-14)

    def test_q1q2_full_relative_precision(self, rng):
        # exact rational enumeration of the same float inputs: tails far
        # below 1e-8, near-certain events, and one or two certain events
        vectors = [[1e-9, 1e-9], [1e-6, 1e-6], [0.4, 0.0], [1.0], [1.0, 0.3, 1e-9], [0.2, 1.0, 1e-7, 1.0]]
        for _ in range(40):
            n = int(rng.integers(1, 7))
            tails = 10.0 ** rng.uniform(-12.0, 0.0, n)
            vectors += [tails.tolist(), (1.0 - tails).tolist(), rng.uniform(0.0, 1.0, n).tolist()]
        for qs in vectors:
            want = q1q2_enumerate([Fraction(q) for q in qs])
            for got, exact in zip(q1q2_from_qvec(qs), want):
                assert abs(Fraction(got) - exact) <= Fraction(1, 10**13) * exact, (qs, got, float(exact))

    def test_table_matches_enumeration(self, rng):
        supports = [(0.0, 1.0, 2.0), (0.5, 1.5)]
        pmf = rng.dirichlet(np.ones(6)).reshape(3, 2)
        t = TablePrior(supports, pmf)
        for tau in [0.2, 0.9, 1.4]:
            assert threshold_probs(t, tau) == pytest.approx(
                table_q1q2_enumerate(t, tau), abs=1e-14
            )

    def test_monotone_in_tau(self):
        p = uniform_q2_counterexample(4)
        taus = np.linspace(0, 1, 50)
        q1s, q2s = zip(*[threshold_probs(p, t) for t in taus])
        assert all(b <= a + 1e-12 for a, b in zip(q1s, q1s[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(q2s, q2s[1:]))
        assert all(q2 <= q1 + 1e-12 for q1, q2 in zip(q1s, q2s))


class TestSampling:
    def test_point_mass_product(self):
        p = ProductPrior([DiscretePMF([2.0], [1.0]), DiscretePMF([3.0], [1.0])])
        assert sample(p, 0).tolist() == [2.0, 3.0]

    def test_counterexample_support(self):
        n, eps = 2, 1e-6
        p = myerson_counterexample(n, eps)
        V = sample(p, 12345, size=500)
        big = V[:, 2]
        top = n * n + eps
        assert np.all((big <= top + 1e-12) & (big >= n + eps - 1e-12))
        smalls = V[:, :2]
        assert np.all((smalls >= 1 / n - 1e-12) & (smalls <= 1.0 + 1e-12))

    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_myerson_construction_matches_reference(self, n):
        p = myerson_counterexample(n, 1e-6)
        for seed, size in ((3, 1), (5, 999), ([7, 1], 1 << 14)):
            V = sample(p, seed, size=size)
            assert np.array_equal(V, sample_reference(p, seed, size))
            assert V.T.flags.c_contiguous

    def test_product_matches_reference(self, rng):
        pool = [
            EqualRevenue(1.0, 4.0),
            ShiftedEqualRevenue(1.0, 3.0, 0.5),
            Uniform(0.0, 2.0),
        ]
        for trial in range(20):
            n = int(rng.integers(1, 7))
            ms = [
                pool[k] if k < len(pool) else random_discrete(rng)
                for k in rng.integers(0, len(pool) + 1, size=n)
            ]
            p = ProductPrior(ms)
            size = int(rng.integers(1, 3000))
            V = sample(p, trial, size=size)
            assert np.array_equal(V, sample_reference(p, trial, size))
            assert V.T.flags.c_contiguous

    def test_uniform_q2_chosen_draws(self):
        # the chosen component draws randomness here, so the stream differs
        # from the reference; check the law instead: a row has exactly one
        # bidder at or above (n-1)/n (slot branch) or all of them (the 1/n^2
        # branch), and each bidder's Pr[v >= tau] matches its marginal
        n, size = 5, 100_000
        p = uniform_q2_counterexample(n)
        cut = (n - 1) / n
        V = sample(p, 2024, size=size)
        assert V.T.flags.c_contiguous
        high = np.sum(V >= cut, axis=1)
        assert np.all((high == 1) | (high == n + 1))
        assert 0 < np.sum(high == n + 1) < size
        for tau in (0.3, cut, 0.9, 0.97):
            for i in range(n + 1):
                q = p.marginal_quantile(i, tau)
                se = math.sqrt(q * (1 - q) / size)
                assert abs(np.mean(V[:, i] >= tau) - q) < 4 * se

    def test_chosen_component_drawn_only_for_picking_rows(self):
        class Counted(FixedValue):
            def sample(self, rng, size):
                sizes.append(size)
                return super().sample(rng, size)

        sizes = []
        chosen, unchosen = Counted(0.9), FixedValue(0.2)
        slot = RandomIndexSlot((0, 1, 2), (chosen,) * 3, (unchosen,) * 3)
        p = MixturePrior(
            [Uniform(0.0, 1.0)] * 3,
            [Branch(0.5, (FullMarginal(Uniform(0.0, 1.0)),) * 3), Branch(0.5, (None,) * 3, slot)],
        )
        V = sample(p, 11, size=1000)
        in_slot = np.all(np.isin(V, [0.2, 0.9]), axis=1)
        assert 0 < in_slot.sum() < 1000
        assert np.all(np.sum(V[in_slot] == 0.9, axis=1) == 1)
        assert sum(sizes) == in_slot.sum()

    def test_deterministic(self):
        p = uniform_q2_counterexample(3)
        a = sample(p, 7, size=100)
        b = sample(p, 7, size=100)
        assert np.array_equal(a, b)

    def test_table_frequencies(self):
        pmf = np.array([[0.1, 0.2], [0.3, 0.4]])
        t = TablePrior([(0.0, 1.0), (0.0, 1.0)], pmf)
        V = sample(t, 99, size=100_000)
        assert V.T.flags.c_contiguous
        for i, vi in enumerate((0.0, 1.0)):
            for j, vj in enumerate((0.0, 1.0)):
                freq = np.mean((V[:, 0] == vi) & (V[:, 1] == vj))
                se = math.sqrt(pmf[i, j] * (1 - pmf[i, j]) / 100_000)
                assert abs(freq - pmf[i, j]) < 4 * se + 1e-9

    def test_empirical_q2_matches_exact(self):
        n = 5
        p = uniform_q2_counterexample(n)
        tau = (n - 1) / n
        V = sample(p, 31337, size=1_000_000)
        emp = np.mean(np.sum(V >= tau, axis=1) >= 2)
        exact = threshold_probs(p, tau)[1]
        se = math.sqrt(exact * (1 - exact) / 1_000_000)
        assert abs(emp - exact) < 4 * se


class TestVerifierCrossValidation:
    def test_mixture_agrees_with_table_enumeration(self):
        # heterogeneous mixture with a non-identical slot: the class-grouped
        # verifier must agree with brute-force marginalization of the full
        # discretized table, violation by violation
        from kwrob import (
            EqualRevenue as ER,
            MixturePrior,
        )
        from kwrob.priors import ConditionalBelow

        m0 = ER(0.5, 1.0)
        m1 = Uniform(0.0, 2.0)
        m2 = DiscretePMF([0.5, 1.5], [0.4, 0.6])
        b1 = Branch(0.3, (FixedValue(1.0), ConditionalBelow(m1, 1.0), FullMarginal(m2)))
        slot = RandomIndexSlot(
            (0, 1),
            (FixedValue(1.0), FixedValue(2.0)),
            (ConditionalBelow(m0, 1.0), ConditionalBelow(m1, 2.0)),
        )
        b2 = Branch(0.7, (None, None, FullMarginal(m2)), slot=slot)
        mix = MixturePrior((m0, m1, m2), (b1, b2))
        grids = [[0.5, 1.0], [0.0, 1.0, 2.0], [0.5, 1.5]]
        for k in (2, 3):
            rep_mix = verify_kwise(mix, k, grids)
            rep_tab = verify_kwise(discretize(mix, grids), k)
            assert rep_mix.max_deviation == pytest.approx(rep_tab.max_deviation, abs=1e-12)
            assert rep_mix.n_checked == rep_tab.n_checked
            dm = sorted(round(v.deviation, 10) for v in rep_mix.violations)
            dt = sorted(round(v.deviation, 10) for v in rep_tab.violations)
            assert dm == dt


class TestTableCsv:
    def test_round_trip(self, rng, tmp_path):
        supports = [(0.0, 1.0), (0.25, 0.75, 1.5)]
        pmf = rng.dirichlet(np.ones(6)).reshape(2, 3)
        t = TablePrior(supports, pmf)
        path = tmp_path / "table.csv"
        table_to_csv(t, path)
        t2 = table_from_csv(path)
        assert t2.supports == t.supports
        assert np.allclose(t2.pmf, t.pmf, atol=1e-15)
