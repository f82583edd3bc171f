import numpy as np
import pytest

from conftest import myerson_reference, random_discrete, random_regular_discrete
from kwrob import (
    AnonymousReserve,
    DiscretePMF,
    DomainError,
    EqualRevenue,
    Myerson,
    ShiftedEqualRevenue,
    Uniform,
    myerson_iid_equals_ar,
    run_mechanism,
)
from kwrob.mechanisms import run_batch


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


def _construction_mech(n=2, eps=1e-6, tie="highest_value"):
    small = EqualRevenue(1 / n, 1.0)
    big = ShiftedEqualRevenue(n, n * n, eps)
    return Myerson([small] * n + [big], tie)


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
        # all interior values tie at virtual value 0; lex gives it to bidder 0
        o = run_mechanism(Myerson([m, m], "lex"), [3.0, 7.0])
        assert o.winner == 0
        assert o.payment == pytest.approx(1.0, abs=1e-12)  # competitor can never beat phi=0 below 10
        o2 = run_mechanism(Myerson([m, m], "highest_value"), [3.0, 7.0])
        assert o2.winner == 1 and o2.payment == pytest.approx(3.0, abs=1e-12)


class TestIidEqualsAR:
    def test_uniform_pair(self):
        assert myerson_iid_equals_ar(Uniform(0, 1), [0.9, 0.7])

    def test_equal_revenue_tie(self):
        assert myerson_iid_equals_ar(EqualRevenue(1, 10), [3.0, 7.0])

    def test_below_reserve(self):
        assert myerson_iid_equals_ar(Uniform(0, 1), [0.3, 0.2])

    @pytest.mark.parametrize(
        "marginal",
        [Uniform(0, 1), EqualRevenue(0.5, 4.0), DiscretePMF([1, 2, 3], [0.5, 0.3, 0.2])],
        ids=["uniform", "equal_revenue", "discrete"],
    )
    def test_bulk_random_vectors(self, marginal, rng):
        n = 3
        lo, hi = marginal.support
        if isinstance(marginal, DiscretePMF):
            pts = np.asarray(marginal.points)
            V = pts[rng.integers(0, len(pts), size=(100_000, n))]
        else:
            V = rng.uniform(lo, hi, size=(100_000, n))
        mech = Myerson([marginal] * n)
        r = marginal.monopoly_reserve()
        # vectorised comparison via the batch evaluator
        from kwrob import mechanism_payments

        pay_m = mechanism_payments(mech, V)
        pay_a = mechanism_payments(AnonymousReserve(r), V)
        assert np.allclose(pay_m, pay_a, atol=1e-9)


class TestTruthfulness:
    @pytest.mark.parametrize("tie", ["highest_value", "lex"])
    def test_monotone_and_threshold(self, tie, rng):
        n, eps = 2, 1e-6
        mech = _construction_mech(n, eps, tie)
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

    @pytest.mark.parametrize("tie", ["highest_value", "lex"])
    def test_random_vectors(self, tie, rng):
        ties = 0
        for _ in range(200):
            ms, V = self._instance(rng)
            self._check(Myerson(ms, tie), V)
            ties += int(np.sum([len(set(row.tolist())) < len(row) for row in V]))
        assert ties > 1000

    @pytest.mark.parametrize("tie", ["highest_value", "lex"])
    def test_large_block(self, tie, rng):
        # one 4,096-row block on 8 bidders: the top two change on many rows
        # at many columns, so the sparse top-two update runs over many changes
        ms, V = self._instance(rng, n=8, rows=4096)
        winners = self._check(Myerson(ms, tie), V)
        assert len(np.unique(winners)) >= 3
