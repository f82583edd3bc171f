import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    ConditionalAtLeast,
    ConditionalBelow,
    FullMarginal,
    cdf_identity_gaps,
    class_of_reference,
    q1q2_enumerate,
    q1q2_from_qvec_reference,
    random_discrete,
    sample_by_mask_reference,
    sample_reference,
    slot_mixtures,
    split_grids,
    table_csv_reference,
    table_q1q2_enumerate,
    threshold_probs_reference,
)
from kwrob import (
    AnonymousReserve,
    DiscretePMF,
    DomainError,
    EqualRevenue,
    Myerson,
    ProductPrior,
    ShiftedEqualRevenue,
    TablePrior,
    Uniform,
    build_polytope,
    discretize,
    minimize_event_prob,
    myerson_counterexample,
    natural_grids,
    q1q2_from_qvec,
    revenue_exact,
    sample,
    threshold_probs,
    uniform_q2_counterexample,
    verify_kwise,
)
from kwrob.io import table_from_csv, table_to_csv
from kwrob.priors import (
    Branch,
    Conditioned,
    FixedValue,
    MixturePrior,
    _MAX_RECORDED,
    _branch_parts,
    _joint,
    _kept_cells,
)


def marginal_cells(prior, i, taus=()):
    """Bidder i's mixture-marginal cells as (representatives, masses), on
    its natural grid refined by the taus."""
    grids = natural_grids(prior)
    grids[i] = sorted(set(grids[i]) | set(taus))
    _, supports, marginals, _ = _kept_cells(prior, grids)
    return np.asarray(supports[i]), marginals[i]


def pr_at_least(prior, i, taus):
    """Pr[v_i >= tau] per tau: the summed marginal masses of the cells at
    or above tau, a boundary of bidder i's grid."""
    values, masses = marginal_cells(prior, i, taus)
    return [masses[values >= tau].sum() for tau in taus]


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

    def test_is_the_one_branch_mixture(self):
        ms = [Uniform(0, 1), EqualRevenue(0.5, 1.0)]
        p = ProductPrior(ms)
        assert isinstance(p, MixturePrior)
        assert p.branches == (Branch(1.0, (Conditioned(ms[0]), Conditioned(ms[1]))),)
        with pytest.raises(DomainError, match="at least one marginal"):
            ProductPrior([])


class TestBranch:
    MARGINALS = (EqualRevenue(0.5, 1.0), Uniform(0.0, 2.0), DiscretePMF([0.5, 1.5], [0.4, 0.6]))

    def two_branch_prior(self, chosen):
        m0, m1, m2 = self.MARGINALS
        b1 = Branch(0.3, (FixedValue(1.0), Conditioned(m1, hi=1.0), Conditioned(m2)))
        b2 = Branch(0.7, (Conditioned(m0, hi=0.75), Conditioned(m1, lo=1.0), Conditioned(m2)), chosen)
        return MixturePrior(self.MARGINALS, (b1, b2))

    def test_all_none_chosen_is_no_slot(self):
        # a chosen tuple without a member is a branch without a slot, bit
        # for bit and draw for draw
        plain, empty = self.two_branch_prior(None), self.two_branch_prior((None,) * 3)
        assert empty.branches[1].members == ()
        assert np.array_equal(sample(plain, 5, size=2000), sample(empty, 5, size=2000))
        for tau in sorted({x for g in natural_grids(plain) for x in g} | {0.6, 1.2}):
            assert threshold_probs(plain, tau) == threshold_probs(empty, tau)
        for k in (1, 2, 3):
            a, b = verify_kwise(plain, k), verify_kwise(empty, k)
            assert (a.passed, a.max_deviation, a.n_checked) == (b.passed, b.max_deviation, b.n_checked)
        for mech in (Myerson(self.MARGINALS), AnonymousReserve(0.7)):
            assert revenue_exact(plain, mech) == revenue_exact(empty, mech)

    def test_members_ascending(self):
        x = FixedValue(1.0)
        assert Branch(1.0, (x,) * 4, (None, x, None, x)).members == (1, 3)
        assert Branch(1.0, (x,) * 4).members == ()

    def test_chosen_needs_one_entry_per_bidder(self):
        x = FixedValue(1.0)
        with pytest.raises(DomainError, match="chosen needs one entry per bidder"):
            Branch(1.0, (x, x, x), (x, x))

    def test_every_bidder_needs_a_component(self):
        x = FixedValue(1.0)
        with pytest.raises(DomainError, match="every bidder needs a component"):
            Branch(1.0, (x, None, x), (x, x, x))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_mixture_weights(self, bad):
        c = Conditioned(Uniform(0.0, 1.0))
        with pytest.raises(DomainError, match="finite"):
            MixturePrior([Uniform(0.0, 1.0)], [Branch(bad, (c,)), Branch(0.5, (c,))])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_table(self, bad):
        with pytest.raises(DomainError, match="finite"):
            TablePrior([(0.0, 1.0)], [bad, 0.5])
        with pytest.raises(DomainError, match="finite"):
            TablePrior([(0.0, bad)], [0.5, 0.5])

    def test_nan_threshold(self):
        # every comparison with NaN is False, so V >= NaN is the empty event
        prior = ProductPrior([DiscretePMF([1.0, 2.0], [0.5, 0.5])] * 2)
        poly = build_polytope([([1.0, 2.0], [0.5, 0.5])] * 2, 2)
        for call in (
            lambda: threshold_probs(prior, math.nan),
            lambda: threshold_probs(discretize(prior), math.nan),
            lambda: minimize_event_prob(poly, math.nan, 1),
        ):
            with pytest.raises(DomainError, match="NaN"):
                call()


class TestTablePrior:
    def test_rounding_negatives_are_stored_as_zero(self):
        # entries down to -1e-15 pass the check as rounding error; rng.choice
        # rejects any negative probability
        t = TablePrior([(0.0, 1.0), (0.0, 1.0)], [0.5, -1e-16, 0.25, 0.25 + 1e-16])
        assert t.pmf[0, 1] == 0.0 and t.pmf.min() >= 0.0
        draws = sample(t, 0, 1000)
        assert not np.any((draws[:, 0] == 0.0) & (draws[:, 1] == 1.0))


@st.composite
def conditioned_cases(draw):
    """A marginal, a cutoff and the taus to read it at.  The cutoff is a
    support end, an atom, the midpoint, or any float within one of the
    support, so events of zero probability come up; the taus add the
    cutoff, the atoms and the support ends to random floats."""
    kind = draw(st.sampled_from(["discrete", "uniform", "equal_revenue", "shifted"]))
    if kind == "discrete":
        k = draw(st.integers(1, 4))
        pts = sorted(draw(st.lists(st.integers(0, 40), min_size=k, max_size=k, unique=True)))
        w = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any))
        m = DiscretePMF([x / 4 for x in pts], [x / sum(w) for x in w])
    elif kind == "uniform":
        lo = draw(st.integers(0, 8)) / 2
        m = Uniform(lo, lo + draw(st.integers(1, 8)) / 2)
    else:
        lo = draw(st.integers(1, 8)) / 4
        hi = lo * draw(st.integers(2, 16)) / 2
        m = EqualRevenue(lo, hi) if kind == "equal_revenue" else ShiftedEqualRevenue(lo, hi, draw(st.integers(1, 8)) / 8)
    lo, hi = m.support
    marks = [lo, hi, 0.5 * (lo + hi), *m.atoms()]
    within = st.floats(lo - 1.0, hi + 1.0)
    cut = draw(st.one_of(st.sampled_from(marks), within))
    taus = draw(st.lists(within, max_size=20)) + marks + [cut]
    return m, cut, taus


def _same(a, b):
    """Equal as floats, signed zeros told apart."""
    return a == b and np.signbit(a) == np.signbit(b)


class TestConditioned:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(conditioned_cases(), st.sampled_from(["full", "below", "at_least"]), st.integers(0, 2**32 - 1))
    @example((Uniform(0.0, 1.0), 0.0, [0.5]), "below", 0)
    @example((Uniform(0.0, 1.0), 1.0, [0.5]), "at_least", 0)
    @example((DiscretePMF([1.0, 2.0], [0.5, 0.5]), 2.5, [1.5]), "at_least", 0)
    def test_equals_the_three_components_it_replaces(self, case, side, seed):
        # FullMarginal, ConditionalBelow and ConditionalAtLeast, bit for bit
        m, cut, taus = case
        make_ref, kw = {
            "full": (lambda: FullMarginal(m), {}),
            "below": (lambda: ConditionalBelow(m, cut), {"hi": cut}),
            "at_least": (lambda: ConditionalAtLeast(m, cut), {"lo": cut}),
        }[side]
        try:
            ref = make_ref()
        except DomainError:
            with pytest.raises(DomainError, match="zero probability"):
                Conditioned(m, **kw)
            return
        comp = Conditioned(m, **kw)
        for tau in taus:
            assert _same(comp.quantile_q(tau), ref.quantile_q(tau)), tau
            assert _same(comp.atom_mass(tau), ref.atom_mass(tau)), tau
        assert comp.support == ref.support
        assert comp.cutoffs() == ref.cutoffs()
        got = comp.sample(np.random.default_rng(seed), 257)
        assert np.array_equal(got, ref.sample(np.random.default_rng(seed), 257))

    def test_atom_and_quantile_agree_one_ulp_around_cutoffs(self):
        pmf = DiscretePMF([1.0, 2.0, 5.0], [0.2, 0.5, 0.3])
        big = ShiftedEqualRevenue(2.0, 4.0, 1e-5)  # (4 + 1e-5) - 1e-5 != 4
        top = 4.0 + 1e-5
        comps = [
            Conditioned(pmf),
            Conditioned(pmf, lo=2.0),
            Conditioned(pmf, hi=5.0),
            Conditioned(pmf, lo=1.0, hi=5.0),
            Conditioned(EqualRevenue(0.5, 1.0), hi=1.0),
            Conditioned(big),
            Conditioned(big, hi=top),
            Conditioned(Uniform(0.0, 1.0), lo=0.75),
            FixedValue(1.0),
            FixedValue(top),
        ]
        for comp in comps:
            marks = [*comp.support, *comp.cutoffs()]
            if isinstance(comp, Conditioned):
                marks += comp.marginal.atoms()
            gaps = cdf_identity_gaps(comp, marks)
            assert max(gaps.values()) <= 1e-12, (comp, gaps)

    def test_two_sided(self):
        c = Conditioned(Uniform(0.0, 4.0), lo=1.0, hi=3.0)
        assert [c.quantile_q(t) for t in (0.5, 1.0, 2.0, 3.0, 3.5)] == [1.0, 1.0, 0.5, 0.0, 0.0]
        assert c.support == (1.0, 3.0) and c.cutoffs() == [1.0, 3.0]
        v = c.sample(np.random.default_rng(0), 1000)
        assert np.all((v >= 1.0) & (v < 3.0))
        d = Conditioned(DiscretePMF([1.0, 2.0, 3.0], [0.2, 0.3, 0.5]), lo=2.0, hi=3.0)
        assert [d.atom_mass(x) for x in (1.0, 2.0, 3.0)] == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)
        with pytest.raises(DomainError, match="zero probability"):
            Conditioned(Uniform(0.0, 4.0), lo=2.0, hi=2.0)


class TestMyersonCounterexample:
    def test_branch_weights_n2(self):
        p = myerson_counterexample(2, 1e-6)
        assert [b.weight for b in p.branches] == pytest.approx([0.25, 0.25, 0.5])

    def test_big_bidder_atom(self):
        n, eps = 10, 1e-6
        p = myerson_counterexample(n, eps)
        values, masses = marginal_cells(p, n)
        assert values[-1] == n * n + eps  # the singleton cell at the top
        assert masses[-1] == pytest.approx(1 / n, abs=1e-12)

    def test_small_bidder_atom(self):
        n = 3
        p = myerson_counterexample(n, 1e-6)
        values, masses = marginal_cells(p, 0)
        assert values[-1] == 1.0
        assert masses[-1] == pytest.approx(1 / n, abs=1e-12)

    def test_needs_two_bidders(self):
        with pytest.raises(DomainError):
            myerson_counterexample(1, 1e-6)

    def test_mixture_marginals_match_parametric(self):
        n, eps = 4, 1e-6
        p = myerson_counterexample(n, eps)
        small = EqualRevenue(1 / n, 1.0)
        big = ShiftedEqualRevenue(n, n * n, eps)
        taus = np.linspace(1 / n, 1.0, 100)
        for tau, q in zip(taus, pr_at_least(p, 0, taus)):
            assert q == pytest.approx(small.quantile_q(tau), abs=1e-10)
        taus = np.linspace(n + eps, n * n + eps, 100)
        for tau, q in zip(taus, pr_at_least(p, n, taus)):
            assert q == pytest.approx(big.quantile_q(tau), abs=1e-10)


class TestUniformQ2Counterexample:
    def test_marginal_above_cut(self):
        for n in [2, 5, 10]:
            p = uniform_q2_counterexample(n)
            assert pr_at_least(p, 0, [(n - 1) / n])[0] == pytest.approx(1 / n, abs=1e-12)

    def test_q2_is_inverse_square(self):
        for n in [2, 3, 10]:
            p = uniform_q2_counterexample(n)
            _, q2 = threshold_probs(p, (n - 1) / n)
            assert q2 == 1.0 / (n * n)

    def test_mixture_marginal_is_uniform(self):
        p = uniform_q2_counterexample(5)
        uni = Uniform(0, 1)
        taus = np.linspace(0, 1, 100)
        for tau, q in zip(taus, pr_at_least(p, 2, taus)):
            assert q == pytest.approx(uni.quantile_q(tau), abs=1e-10)


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
                # cell masses equal the mixture's own marginal cell masses
                values, expected = marginal_cells(prior, i)
                assert t.supports[i] == tuple(values)
                for mass, expect in zip(t.marginal_masses(i), expected):
                    assert mass == pytest.approx(expect, abs=1e-12)

    def test_missing_atom_errors(self):
        p = myerson_counterexample(2, 1e-6)
        bad = [[0.5, 0.9], [0.5, 1.0], [2 + 1e-6, 4 + 1e-6]]
        with pytest.raises(DomainError):
            discretize(p, bad)
        # one ulp above the big bidder's top atom: covers the support, but
        # a value is the atom only when it equals it
        off = [[0.5, 1.0], [0.5, 1.0], [2 + 1e-6, math.nextafter(4 + 1e-6, math.inf)]]
        with pytest.raises(DomainError, match="misses atom"):
            discretize(p, off)

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


def threshold_probs_per_bidder(prior, tau):
    """(Q1, Q2) with quantile_q evaluated once per bidder per branch, the
    loop threshold_probs ran before it evaluated once per class."""
    q1 = q2 = 0.0
    for branch in prior.branches:
        pairs = [branch.component_pair(i) for i in range(prior.n_bidders)]
        q_plain = np.array([p.quantile_q(tau) for p, _ in pairs])
        for share, chosen in _branch_parts(prior, branch):
            qs = q_plain
            if chosen is not None:
                qs = q_plain.copy()
                qs[chosen] = pairs[chosen][1].quantile_q(tau)
            t1, t2 = q1q2_from_qvec(qs)
            q1 += branch.weight * share * t1
            q2 += branch.weight * share * t2
    return q1, q2


class TestThresholdProbs:
    @pytest.mark.parametrize("n", [2, 20, 300])
    def test_per_class_equals_per_bidder(self, n):
        # bit-identical to the per-bidder loop on both constructions and on
        # product priors, over a 101-point curve plus the constructions'
        # breakpoints
        myerson = myerson_counterexample(n, 1e-6)
        priors = [
            myerson,
            uniform_q2_counterexample(n),
            ProductPrior(myerson.marginals),
            ProductPrior([Uniform(0, 1), EqualRevenue(0.5, 2.0)] * n),
        ]
        taus = np.linspace(0.0, 2.0, 101).tolist() + [1.0 / n, (n - 1.0) / n, n + 1e-6, n * n + 1e-6]
        for prior in priors:
            for tau in taus:
                got = threshold_probs(prior, tau)
                assert got == threshold_probs_per_bidder(prior, tau), (prior, tau)
                if isinstance(prior, ProductPrior):
                    # the one-branch mixture reads as its marginals' q vector
                    assert got == q1q2_from_qvec([m.quantile_q(tau) for m in prior.marginals]), tau

    def test_mixture_equals_table_one_ulp_around_points(self, rng):
        # tau or r at a support point and one ulp either side: the mixture
        # path reads quantile_q, the table path compares values directly
        m = DiscretePMF([0.3, 1.0], [0.5, 0.5])
        priors = [ProductPrior([m, m])] + [
            ProductPrior([random_discrete(rng), random_discrete(rng), random_discrete(rng)]) for _ in range(5)
        ]
        for j, prior in enumerate(priors):
            table = discretize(prior)
            for x in sorted({x for mg in prior.marginals for x in mg.points}):
                for t in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)):
                    assert threshold_probs(prior, t) == pytest.approx(threshold_probs(table, t), abs=1e-15), t
                    if j == 0:  # AR on a random instance takes about 1 s
                        got = revenue_exact(prior, AnonymousReserve(t)).mean
                        assert got == pytest.approx(revenue_exact(table, AnonymousReserve(t)).mean, rel=1e-9), t
        above = math.nextafter(0.3, 1.0)
        assert threshold_probs(priors[0], above) == (0.75, 0.25)
        assert revenue_exact(priors[0], AnonymousReserve(above)).mean == pytest.approx(0.4, rel=1e-12)

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


def marks_and_neighbours(prior):
    """Every grid boundary of the prior (support ends, atoms, cutoffs and
    fixed values) and the floats either side of it."""
    marks = sorted({x for g in natural_grids(prior) for x in g})
    return [y for x in marks for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


def assert_batch_equals_reference(prior, taus):
    q1, q2 = threshold_probs(prior, np.array(taus))
    assert q1.shape == q2.shape == (len(taus),)
    for tau, a, b in zip(taus, q1.tolist(), q2.tolist()):
        assert (a, b) == threshold_probs_reference(prior, tau), tau


class TestBatchedThresholdProbs:
    """An array of tau gives, entry by entry, the scalar calls' bits."""

    @pytest.mark.parametrize("n", [2, 8, 64, 300])
    def test_constructions(self, n):
        myerson = myerson_counterexample(n, 3.3e-6)
        priors = [myerson, uniform_q2_counterexample(n), ProductPrior(myerson.marginals)]
        for prior in priors:
            taus = np.linspace(0.0, 2.0, 101).tolist() + np.linspace(0.0, n * n + 1.0, 51).tolist()
            assert_batch_equals_reference(prior, taus + marks_and_neighbours(prior))

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(slot_mixtures())
    def test_slot_mixtures(self, mix):
        taus = marks_and_neighbours(mix) + np.linspace(0.0, 11.0, 23).tolist()
        assert_batch_equals_reference(mix, taus)
        assert_batch_equals_reference(discretize(mix), taus)

    def test_table(self, rng):
        supports = [(0.0, 1.0, 2.0), (0.5, 1.0, 1.5), (1.0, 3.0)]
        table = TablePrior(supports, rng.dirichlet(np.ones(18)).reshape(3, 3, 2))
        assert_batch_equals_reference(table, marks_and_neighbours(table) + [-1.0, 0.7, 4.0])

    def test_scalar_and_shaped_tau(self):
        prior = uniform_q2_counterexample(5)
        got = threshold_probs(prior, 0.8)
        assert type(got[0]) is float and type(got[1]) is float
        assert got == threshold_probs_reference(prior, 0.8)
        assert threshold_probs(prior, np.float64(0.8)) == got
        grid = np.array([[0.1, 0.8], [0.9, 1.0]])
        q1, q2 = threshold_probs(prior, grid)
        assert q1.shape == q2.shape == (2, 2)
        assert (q1[0, 1], q2[0, 1]) == got
        q1, q2 = threshold_probs(prior, [])
        assert q1.shape == q2.shape == (0,)

    @pytest.mark.parametrize("taus", [[math.nan], [0.5, math.nan], [[0.2, 0.3], [math.nan, 0.4]]])
    def test_nan_anywhere_raises(self, taus):
        prior = uniform_q2_counterexample(4)
        for p in (prior, discretize(prior)):
            with pytest.raises(DomainError, match="NaN"):
                threshold_probs(p, taus)

    def test_q1q2_rows_equal_vectors(self, rng):
        # each row reduces as a vector does, whatever the matrix's layout;
        # rows of 1 to 40 events, some certain, some in the far tails
        for n in (1, 2, 7, 8, 9, 40):
            qs = rng.uniform(0.0, 1.0, (12, n)) ** rng.uniform(0.1, 30.0, (12, 1))
            qs[rng.random(qs.shape) < 0.1] = 1.0
            for matrix in (qs, np.asfortranarray(qs), qs.T.copy().T):
                q1, q2 = q1q2_from_qvec(matrix)
                for row, a, b in zip(qs, q1.tolist(), q2.tolist()):
                    assert (a, b) == q1q2_from_qvec_reference(row) == q1q2_from_qvec(row)


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
        taus = (0.3, cut, 0.9, 0.97)
        for i in range(n + 1):
            for tau, q in zip(taus, pr_at_least(p, i, taus)):
                se = math.sqrt(q * (1 - q) / size)
                assert abs(np.mean(V[:, i] >= tau) - q) < 4 * se

    def test_chosen_component_drawn_only_for_picking_rows(self):
        class Counted(FixedValue):
            def sample(self, rng, size):
                sizes.append(size)
                return super().sample(rng, size)

        sizes = []
        chosen, unchosen = Counted(0.9), FixedValue(0.2)
        p = MixturePrior(
            [Uniform(0.0, 1.0)] * 3,
            [Branch(0.5, (Conditioned(Uniform(0.0, 1.0)),) * 3), Branch(0.5, (unchosen,) * 3, (chosen,) * 3)],
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


class TestSamplingAgainstMaskedSampler:
    """sample against the sampler that took each slot member's rows by a
    mask and drew each step into a new array, bit for bit, including the
    constructions whose chosen component consumes randomness."""

    @staticmethod
    def _same(prior, seed, size):
        got, want = sample(prior, seed, size), sample_by_mask_reference(prior, seed, size)
        assert got.shape == want.shape and np.array_equal(got, want)
        if got.ndim == 2:
            assert got.T.flags.c_contiguous
            # the same draws into the leading columns of a used, wider buffer
            buf = np.full((prior.n_bidders, size + 5), np.nan)
            into = sample(prior, seed, size, out=buf[:, :size])
            assert np.array_equal(into, want) and (size == 0 or np.shares_memory(into, buf))

    @pytest.mark.parametrize("n", [2, 8, 64, 301])
    def test_myerson_construction(self, n):
        p = myerson_counterexample(n, 3e-6)
        for seed, size in ((3, None), (3, 1), (4, 0), (5, 999), ([7, 1], 1 << 12)):
            self._same(p, seed, size)

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_uniform_q2_construction(self, n):
        p = uniform_q2_counterexample(n)
        for seed, size in ((3, None), (3, 1), (4, 0), (5, 999), ([7, 1], 1 << 12)):
            self._same(p, seed, size)

    def test_heterogeneous_slot(self):
        for seed in range(5):
            self._same(heterogeneous_slot_mixture(), seed, 3000)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(slot_mixtures(), st.integers(0, 2**31), st.integers(0, 600))
    def test_slot_mixtures(self, mix, seed, size):
        self._same(mix, seed, size)

    def test_product_priors(self, rng):
        pool = [EqualRevenue(1.0, 4.0), ShiftedEqualRevenue(1.0, 3.0, 0.5), Uniform(0.0, 2.0)]
        for trial in range(20):
            n = int(rng.integers(1, 7))
            ms = [pool[k] if k < len(pool) else random_discrete(rng) for k in rng.integers(0, len(pool) + 1, size=n)]
            for size in (None, 0, 1, int(rng.integers(2, 3000))):
                self._same(ProductPrior(ms), trial, size)

    def test_out_must_fit(self):
        p = uniform_q2_counterexample(3)
        for bad in (np.empty((4, 9)), np.empty((3, 10)), np.empty((4, 10), dtype=np.float32), np.empty((10, 4)).T):
            with pytest.raises(DomainError, match="out must be"):
                sample(p, 1, 10, out=bad)

    def test_one_branch_takes_every_row(self):
        # the weight-0 branch never draws, so the other holds the whole block
        m = Uniform(0.0, 1.0)
        p = MixturePrior([m] * 3, [Branch(1.0, (Conditioned(m, hi=0.5),) * 3, (FixedValue(0.75),) * 3), Branch(0.0, (FixedValue(1.0),) * 3)])
        for seed, size in ((1, None), (2, 1), (3, 500)):
            self._same(p, seed, size)


def heterogeneous_slot_mixture():
    """Three bidders with distinct marginals and a slot whose two members
    get different chosen and unchosen components."""
    m0 = EqualRevenue(0.5, 1.0)
    m1 = Uniform(0.0, 2.0)
    m2 = DiscretePMF([0.5, 1.5], [0.4, 0.6])
    b1 = Branch(0.3, (FixedValue(1.0), Conditioned(m1, hi=1.0), Conditioned(m2)))
    b2 = Branch(
        0.7,
        (Conditioned(m0, hi=1.0), Conditioned(m1, hi=2.0), Conditioned(m2)),
        chosen=(FixedValue(1.0), FixedValue(2.0), None),
    )
    return MixturePrior((m0, m1, m2), (b1, b2))


class TestExchangeabilityClasses:
    """_class_of groups bidders by object identity, then by value; it must
    number the classes as the value-keyed reference does."""

    @pytest.mark.parametrize("n", [2, 10, 300])
    def test_constructions(self, n):
        for p in (myerson_counterexample(n, 1e-6), uniform_q2_counterexample(n)):
            assert p._class_of == class_of_reference(p)

    def test_product_prior(self):
        # equal marginals held as distinct objects fall in one class
        ms = [Uniform(0.0, 1.0), EqualRevenue(1.0, 4.0), Uniform(0.0, 1.0), Uniform(0.0, 2.0), EqualRevenue(1.0, 4.0)]
        p = ProductPrior(ms)
        assert p._class_of == class_of_reference(p) == (0, 1, 0, 2, 1)

    def test_equal_but_distinct_components(self):
        # every bidder holds its own component objects; bidders 0, 2 and 3
        # are equal by value, bidder 1 differs only in its chosen component
        m = Uniform(0.0, 1.0)
        chosen = (FixedValue(0.9), FixedValue(0.8), FixedValue(0.9), FixedValue(0.9))
        p = MixturePrior(
            [Uniform(0.0, 1.0) for _ in range(4)],
            [
                Branch(0.5, tuple(Conditioned(m) for _ in range(4))),
                Branch(0.5, tuple(Conditioned(m, hi=0.5) for _ in range(4)), chosen),
            ],
        )
        assert p._class_of == class_of_reference(p) == (0, 1, 0, 0)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(slot_mixtures())
    @example(heterogeneous_slot_mixture())
    def test_slot_mixtures(self, mix):
        assert mix._class_of == class_of_reference(mix)


class TestVerifierCrossValidation:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(slot_mixtures(), st.booleans())
    @example(heterogeneous_slot_mixture(), False)
    @example(uniform_q2_counterexample(4), True)
    @example(myerson_counterexample(4, 1e-6), True)
    def test_mixture_agrees_with_table_enumeration(self, mix, split):
        # the group-wise verifier checks one representative subset per
        # combination of (class, grid) groups (the first members of each
        # group it meets); it must agree with the all-subsets check of the
        # discretized table, violation by violation on those subsets.  A
        # split grid takes one bidder out of its class's group
        n = mix.n_bidders
        grids = split_grids(mix) if split else natural_grids(mix)
        table = discretize(mix, grids)
        groups, _, _, masses = _kept_cells(mix, grids)
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                others = tuple(j for j in range(n) if j not in subset)
                want = table.pmf.sum(axis=others)
                assert np.allclose(_joint(mix, masses, subset), want, rtol=0.0, atol=1e-12)

        group_of = {i: g for g, members in enumerate(groups) for i in members}

        def representative(bidders):
            return all(j in bidders for i in bidders for j in range(i) if group_of[j] == group_of[i])

        for k in range(1, n + 1):
            rep_mix = verify_kwise(mix, k, grids)
            rep_tab = verify_kwise(table, k)
            assert (rep_mix.passed, rep_mix.n_checked) == (rep_tab.passed, rep_tab.n_checked)
            assert rep_mix.max_deviation == pytest.approx(rep_tab.max_deviation, abs=1e-12)
            got = [(v.bidders, v.cells) for v in rep_mix.violations]
            want = [(v.bidders, v.cells) for v in rep_tab.violations if representative(v.bidders)]
            # the table stops recording after _MAX_RECORDED over all subsets
            assert got[: len(want)] == want
            if len(rep_tab.violations) < _MAX_RECORDED:
                assert len(got) == len(want)


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

    @staticmethod
    def assert_same_bytes(table, tmp_path):
        table_to_csv(table, tmp_path / "table.csv")
        table_csv_reference(table, tmp_path / "reference.csv")
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_cell_loop(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        special = [1e-300, 1 / 3, 5e15, 0.0, 2.0, 7.0]
        supports = []
        for _ in range(1 + seed % 5):
            pool = np.concatenate([special, rng.uniform(0, 10, 3), rng.integers(0, 100, 3)])
            supports.append(np.unique(rng.choice(pool, rng.integers(1, 4))).tolist())
        pmf = rng.dirichlet(np.ones(math.prod(len(s) for s in supports)))
        pmf[rng.random(pmf.size) < 0.3] = 0.0
        if pmf.sum() == 0.0:
            pmf[-1] = 1.0
        self.assert_same_bytes(TablePrior(supports, pmf / pmf.sum()), tmp_path)

    def test_special_masses(self, tmp_path):
        supports = [(1e-300, 1 / 3, 5e15), (0.0, 3.0)]
        pmf = [[1e-300, 0.0], [0.25, 1 / 3], [0.0, 1 - 0.25 - 1 / 3]]
        self.assert_same_bytes(TablePrior(supports, pmf), tmp_path)

    def test_signed_zero_masses(self, tmp_path):
        # the writer prints a +0.0 mass as the literal 0; a -0.0 mass, which
        # only a pmf set after construction can hold, still prints -0
        table = TablePrior([(1.0, 2.0), (0.5, 3.0)], [[0.5, 0.0], [0.0, 0.5]])
        table.pmf = np.array([[0.5, -0.0], [0.0, 0.5]])
        self.assert_same_bytes(table, tmp_path)
        assert (tmp_path / "table.csv").read_text().splitlines()[2:4] == ["1,3,-0", "2,0.5,0"]

    def test_conditioned_out_bidder(self, tmp_path):
        marginals = [([0.0, 1.0], [0.5, 0.5]), ([2.0, 5.0, 9.0], [0.0, 1.0, 0.0]), ([0.0, 1.0, 4.0], [0.2, 0.3, 0.5])]
        sol = minimize_event_prob(build_polytope(marginals, 2), 1.0, 2)
        assert sol.table.supports[1] == (5.0,)
        self.assert_same_bytes(sol.table, tmp_path)
