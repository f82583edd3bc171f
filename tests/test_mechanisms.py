import numpy as np
import pytest

from conftest import myerson_reference, random_discrete, random_regular_discrete, run_batch_reference
from kwrob import (
    AnonymousReserve,
    DiscretePMF,
    DomainError,
    EqualRevenue,
    Myerson,
    ShiftedEqualRevenue,
    Uniform,
    mechanism_payments,
    myerson_ind_revenue,
    revenue_exact,
    run_mechanism,
)
from kwrob.mechanisms import run_batch
from kwrob.priors import (
    Branch,
    Conditioned,
    FixedValue,
    MixturePrior,
    ProductPrior,
    cell_values,
    myerson_counterexample,
    sample,
    uniform_q2_counterexample,
)


class TestRunAR:
    def test_reserve_binds(self):
        o = run_mechanism(AnonymousReserve(4), [5, 3])
        assert (o.winner, o.payment) == (0, 4)

    def test_second_price_binds(self):
        o = run_mechanism(AnonymousReserve(2), [5, 3])
        assert (o.winner, o.payment) == (0, 3)

    def test_counterexample_top_reserve(self):
        n, eps = 3, 1e-6
        r = n * n + eps
        o = run_mechanism(AnonymousReserve(r), [1.0, 0.4, 0.9, r])
        assert o.winner == 3 and o.payment == r

    def test_no_sale(self):
        o = run_mechanism(AnonymousReserve(2), [1.0, 1.5])
        assert o.winner is None and o.payment == 0.0

    def test_tie_lowest_index(self):
        o = run_mechanism(AnonymousReserve(1), [3.0, 3.0])
        assert o.winner == 0 and o.payment == 3.0

    def test_matches_order_statistic_formula(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 6))
            vals = rng.uniform(0, 10, size=n)
            r = float(rng.uniform(0, 8))
            o = run_mechanism(AnonymousReserve(r), vals)
            if vals.max() < r:
                assert o.winner is None
            else:
                second = np.sort(vals)[-2] if n >= 2 else 0.0
                assert o.payment == pytest.approx(max(r, second), abs=1e-12)
                assert o.winner == int(np.argmax(vals))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            run_mechanism(AnonymousReserve(1), [-0.5, 2.0])


def _construction_mech(n=2, eps=1e-6):
    small = EqualRevenue(1 / n, 1.0)
    big = ShiftedEqualRevenue(n, n * n, eps)
    return Myerson([small] * n + [big])


class TestRunMyerson:
    def test_small_bidder_wins_at_one(self):
        o = run_mechanism(_construction_mech(), [1.0, 0.7, 3.0])
        assert o.winner == 0 and o.payment == pytest.approx(1.0, abs=1e-12)

    def test_big_bidder_floor_price(self):
        eps = 1e-6
        o = run_mechanism(_construction_mech(), [0.6, 0.7, 3.0])
        assert o.winner == 2 and o.payment == pytest.approx(2 + eps, abs=1e-12)

    def test_big_bidder_top_price(self):
        eps = 1e-6
        o = run_mechanism(_construction_mech(), [1.0, 0.7, 4 + eps])
        assert o.winner == 2 and o.payment == pytest.approx(4 + eps, abs=1e-12)

    def test_value_outside_support(self):
        with pytest.raises(DomainError):
            run_mechanism(_construction_mech(), [1.5, 0.7, 3.0])

    def test_no_winner_when_all_negative(self):
        o = run_mechanism(Myerson([Uniform(0, 1)] * 2), [0.1, 0.2])
        assert o.winner is None and o.payment == 0.0

    def test_lex_tie_break(self):
        m = EqualRevenue(1, 10)
        # all interior values tie at virtual value 0, and the tie goes to
        # bidder 0, although bidder 1 has the larger value
        o = run_mechanism(Myerson([m, m]), [3.0, 7.0])
        assert o.winner == 0
        assert o.payment == pytest.approx(1.0, abs=1e-12)  # competitor can never beat phi=0 below 10

    # 3.287 and 3.642 are ironed onto one hull segment: their virtual values
    # tie, so the lower index wins, and pays the segment's lowest point
    IRONED = DiscretePMF((3.287, 3.642, 5.758, 5.984), (0.278698, 0.218069, 0.380182, 0.123051))

    def test_ironed_tie_lex(self):
        o = run_mechanism(Myerson([self.IRONED] * 2), [3.642, 3.287])
        assert o.winner == 0 and o.payment == 3.287


def myerson_iid_equals_ar(marginal, values):
    """With i.i.d. bidders whose virtual value is strictly increasing, the
    optimal mechanism is the second-price auction at the monopoly reserve;
    check the two outcomes coincide on this value vector."""
    n = len(values)
    a = run_mechanism(Myerson([marginal] * n), values)
    b = run_mechanism(AnonymousReserve(marginal.monopoly_reserve()), values)
    if a.winner != b.winner:
        return False
    return abs(a.payment - b.payment) <= 1e-9 * max(1.0, abs(b.payment))


def exact_myerson_and_ar(marginal, n):
    """Exact revenue of the optimal mechanism and of AR at the monopoly
    reserve on n i.i.d. bidders."""
    prior = ProductPrior([marginal] * n)
    ar = AnonymousReserve(marginal.monopoly_reserve())
    return revenue_exact(prior, Myerson([marginal] * n)).mean, revenue_exact(prior, ar).mean


class TestIidEqualsAR:
    """On i.i.d. bidders with strictly increasing virtual values the
    optimal mechanism is AR at the monopoly reserve, row by row.  Where
    virtual values tie with positive probability the two split ties
    differently: on equal-revenue marginals they agree in expected revenue,
    and on a discrete marginal the optimal mechanism earns more."""

    def test_uniform_pair(self):
        assert myerson_iid_equals_ar(Uniform(0, 1), [0.9, 0.7])

    def test_equal_revenue_tie(self):
        # every value below 10 has virtual value 0: the optimal mechanism
        # sells a tie to the lower index at 1, AR to the larger value at the
        # other's value, and both earn 1.9
        myerson, ar = exact_myerson_and_ar(EqualRevenue(1, 10), 2)
        assert myerson == pytest.approx(1.9, rel=1e-15, abs=0.0)
        assert ar == pytest.approx(1.9, rel=1e-10)

    def test_equal_revenue_in_expectation(self):
        myerson, ar = exact_myerson_and_ar(EqualRevenue(0.5, 4.0), 3)
        assert myerson == pytest.approx(ar, rel=1e-10)

    def test_discrete_beats_ar(self):
        # value 1 has virtual value 0, which ties: bidder 1 with value 2 or
        # 3 against a 1 must beat virtual value 0 strictly and pays 2, where
        # AR at the monopoly reserve 1 charges the other's value 1
        m = DiscretePMF([1, 2, 3], [0.5, 0.3, 0.2])
        myerson, ar = exact_myerson_and_ar(m, 2)
        assert myerson == pytest.approx(1.6, rel=1e-15, abs=0.0)
        assert myerson == pytest.approx(myerson_ind_revenue([m, m]), rel=1e-15, abs=0.0)
        assert ar == pytest.approx(1.29, rel=1e-12)

    def test_below_reserve(self):
        assert myerson_iid_equals_ar(Uniform(0, 1), [0.3, 0.2])

    @pytest.mark.parametrize("marginal", [Uniform(0, 1), Uniform(1, 3)], ids=["uniform", "uniform_1_3"])
    def test_bulk_random_vectors(self, marginal, rng):
        # no two continuous values share a virtual value, so the outcomes
        # coincide row by row
        n = 3
        lo, hi = marginal.support
        V = rng.uniform(lo, hi, size=(100_000, n))
        pay_m = mechanism_payments(Myerson([marginal] * n), V)
        pay_a = mechanism_payments(AnonymousReserve(marginal.monopoly_reserve()), V)
        assert np.allclose(pay_m, pay_a, atol=1e-9)


class TestTruthfulness:
    def test_monotone_and_threshold(self, rng):
        n, eps = 2, 1e-6
        mech = _construction_mech(n, eps)
        prior_supports = [(1 / n, 1.0), (1 / n, 1.0), (n + eps, n * n + eps)]
        for _ in range(1000):
            vals = [float(rng.uniform(lo, hi)) for lo, hi in prior_supports]
            # sprinkle atoms
            for i in range(3):
                if rng.random() < 0.3:
                    vals[i] = prior_supports[i][1]
            o = run_mechanism(mech, vals)
            if o.winner is None:
                continue
            i = o.winner
            assert o.payment <= vals[i] + 1e-9  # individual rationality
            hi = prior_supports[i][1]
            # raising the winner's value never changes winner or payment
            raised = list(vals)
            raised[i] = hi
            o2 = run_mechanism(mech, raised)
            assert o2.winner == i
            assert o2.payment == pytest.approx(o.payment, abs=1e-9)
            # bidding just above the threshold still wins at the same price
            just_above = list(vals)
            bump = o.payment + 1e-9 * max(1.0, o.payment)
            if bump <= vals[i]:
                just_above[i] = bump
                o3 = run_mechanism(mech, just_above)
                assert o3.winner == i
                assert o3.payment == pytest.approx(o.payment, abs=1e-9)

    @pytest.mark.parametrize("draw", [random_regular_discrete, random_discrete], ids=["regular", "irregular"])
    def test_discrete_price_is_the_lowest_winning_point(self, draw, rng):
        # bidders share marginals, and irregular ones are ironed, so virtual
        # values tie often; a tie is won only against a higher index
        sales = 0
        for _ in range(300):
            pool = [draw(rng) for _ in range(2)]
            ms = [pool[k] for k in rng.integers(0, 2, size=int(rng.integers(2, 5)))]
            mech = Myerson(ms)
            vals = [float(rng.choice(m.points)) for m in ms]
            o = run_mechanism(mech, vals)
            if o.winner is None:
                continue
            sales += 1
            i, points = o.winner, np.asarray(ms[o.winner].points)
            assert o.payment in points and o.payment <= vals[i]
            bids = list(vals)
            bids[i] = o.payment
            assert run_mechanism(mech, bids) == o
            if o.payment > points[0]:
                bids[i] = float(points[points < o.payment][-1])
                assert run_mechanism(mech, bids).winner != i
        assert sales > 200

    def test_ar_individual_rationality(self, rng):
        for _ in range(1000):
            vals = rng.uniform(0, 5, size=3)
            o = run_mechanism(AnonymousReserve(float(rng.uniform(0, 5))), vals)
            if o.winner is not None:
                assert o.payment <= vals[o.winner] + 1e-12


class TestKernelAgainstReference:
    """The batch kernel against the scalar key-sort reference, bit for bit."""

    @staticmethod
    def _instance(rng, n=None, rows=40):
        pool = [
            EqualRevenue(1.0, 4.0),
            EqualRevenue(0.5, 3.0),
            ShiftedEqualRevenue(1.0, 3.0, 0.5),
            Uniform(0.0, 4.0),
            Uniform(1.0, 3.0),
            random_discrete(rng),  # usually irregular, so ironed flat
            random_regular_discrete(rng),
        ]
        n = int(rng.integers(1, 6)) if n is None else n
        ms = [pool[k] for k in rng.integers(0, len(pool), size=n)]
        # few values per bidder, shared between bidders, so phi ties
        # (interior equal-revenue values, ironed-flat points) and value
        # ties are frequent
        choices = []
        for m in ms:
            if isinstance(m, DiscretePMF):
                choices.append(np.asarray(m.points))
            else:
                lo, hi = m.support
                shared = [c for c in (1.0, 1.5, 2.0, 3.0) if lo <= c <= hi]
                choices.append(np.array([lo, hi, float(rng.uniform(lo, hi))] + shared))
        V = np.column_stack([c[rng.integers(0, len(c), size=rows)] for c in choices])
        return ms, V

    @staticmethod
    def _check(mech, V):
        """Winners and payments of the C-order V equal the reference on
        every row, and an F-order copy of V gives the same bits."""
        assert V.flags.c_contiguous
        winners, pays = run_batch(mech, V)
        for row, w, pay in zip(V, winners, pays):
            ref_w, ref_pay = myerson_reference(mech, row.tolist())
            assert (None if w < 0 else int(w), float(pay)) == (ref_w, ref_pay)
        w2, pay2 = run_batch(mech, np.asfortranarray(V))
        assert np.array_equal(w2, winners) and np.array_equal(pay2, pays)
        return winners

    def test_random_vectors(self, rng):
        ties = 0
        for _ in range(200):
            ms, V = self._instance(rng)
            self._check(Myerson(ms), V)
            ties += int(np.sum([len(set(row.tolist())) < len(row) for row in V]))
        assert ties > 1000

    def test_large_block(self, rng):
        # one 4,096-row block on 8 bidders: the top two change on many rows
        # at many columns, so the sparse top-two update runs over many changes
        ms, V = self._instance(rng, n=8, rows=4096)
        winners = self._check(Myerson(ms), V)
        assert len(np.unique(winners)) >= 3


class TestKernelAgainstParentSweep:
    """run_batch against the sweep that checked columns in three passes,
    made a new array per comparison, priced winners bidder by bidder and
    swept all rows at once: winners and payments bit for bit, dtypes and
    error messages included."""

    @pytest.fixture(params=["one_piece"], autouse=True)
    def whole_matrix(self):
        """Each matrix goes to run_batch whole and is swept in one piece."""

    @staticmethod
    def _mechanisms(marginals, r):
        return [AnonymousReserve(r), Myerson(marginals)]

    @staticmethod
    def _same(mech, V):
        got, want = run_batch(mech, V), run_batch_reference(mech, V)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @staticmethod
    def _priors(rng):
        m = [EqualRevenue(0.5, 1.0), Uniform(0.0, 2.0), DiscretePMF([0.5, 1.5], [0.4, 0.6])]
        slot = MixturePrior(
            m,
            [
                Branch(0.3, (FixedValue(1.0), Conditioned(m[1], hi=1.0), Conditioned(m[2]))),
                Branch(0.7, (Conditioned(m[0], hi=1.0), Conditioned(m[1], hi=2.0), Conditioned(m[2])), (FixedValue(1.0), FixedValue(2.0), None)),
            ],
        )
        pool = [EqualRevenue(1.0, 4.0), ShiftedEqualRevenue(1.0, 3.0, 0.5), Uniform(0.0, 2.0)]
        products = [
            ProductPrior([pool[k] if k < 3 else random_discrete(rng) for k in rng.integers(0, 4, size=int(rng.integers(1, 7)))])
            for _ in range(6)
        ]
        return [myerson_counterexample(n, 3e-6) for n in (2, 8, 64)] + [uniform_q2_counterexample(5), slot] + products

    def test_sampled_blocks(self, rng):
        for p in self._priors(rng):
            for seed, size in ((1, 1), (2, 777), ([3, 0], 1 << 12), ((4, 0), (1 << 14) + 5)):
                V = sample(p, seed, size)
                for mech in self._mechanisms(p.marginals, float(rng.uniform(0.2, 2.0))):
                    self._same(mech, V)

    @pytest.mark.parametrize("n", [3, 8])
    def test_cell_matrices(self, n, rng):
        # every cell of an lp instance's support: ties on value and on
        # (ironed) virtual value in most rows
        for _ in range(3):
            ms = [DiscretePMF((1.0, 2.0, 3.0), rng.dirichlet([2.0] * 3)) for _ in range(n)]
            V = cell_values([m.points for m in ms])
            for mech in self._mechanisms(ms, float(rng.uniform(2.2, 2.8))):
                self._same(mech, V)

    @pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf, 5.0, 0.75])
    def test_error_messages(self, bad):
        # the middle column's marginal is discrete: 0.75 lies in its support
        # range but is not one of its points
        p = myerson_counterexample(8, 1e-6)
        ms = list(p.marginals)
        ms[4] = DiscretePMF([0.125, 0.5, 1.0], [0.5, 0.25, 0.25])
        V = np.array(sample(p, 1, 50))
        V[:, 4] = np.resize(ms[4].points, 50)
        V[17, 4] = bad
        for mech in self._mechanisms(ms, 0.5):
            errors = []
            for kernel in (run_batch, run_batch_reference):
                try:
                    kernel(mech, V)
                    errors.append(None)
                except DomainError as exc:
                    errors.append(str(exc))
            assert errors[0] == errors[1]
            assert (errors[0] is None) == (isinstance(mech, AnonymousReserve) and bad in (5.0, 0.75))

    def test_first_bad_value_in_column_order(self):
        # bad values in a late row of column 2 and an early row of column 5:
        # a sweep of whole columns meets column 2 first
        p = myerson_counterexample(8, 1e-6)
        for rows in (50, (1 << 14) + 5):
            V = np.array(sample(p, 1, rows))
            for early, late in ((np.nan, -1.0), (5.0, np.inf), (np.inf, 5.0)):
                W = V.copy()
                W[rows - 5, 2], W[3, 5] = late, early
                for mech in self._mechanisms(p.marginals, 0.5):
                    with pytest.raises(DomainError) as got:
                        run_batch(mech, W)
                    with pytest.raises(DomainError) as want:
                        run_batch_reference(mech, W)
                    assert str(got.value) == str(want.value)

    def test_zero_rows(self):
        # no rows: empty winners and payments, but a Myerson matrix of the
        # wrong width still fails its bidder count
        ms = [Uniform(0.0, 1.0)] * 3
        for mech in self._mechanisms(ms, 0.5):
            winners, pays = run_batch(mech, np.empty((0, 3)))
            assert (winners.shape, winners.dtype, pays.shape, pays.dtype) == ((0,), np.dtype(int), (0,), np.dtype(float))
        with pytest.raises(DomainError, match="expected 3 values per row, got 2"):
            run_batch(Myerson(ms), np.empty((0, 2)))
