"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run with -s to see them).  Tolerances and runtime
budgets are pinned here, not configurable.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import q1q2_enumerate, q2_ind, q2_ind_from_q, q2_ind_grid_max, random_regular_discrete, split_integral_identity, table_q1q2_enumerate
from kwrob import (
    AnonymousReserve,
    Myerson,
    ProductPrior,
    TablePrior,
    build_polytope,
    certify_ar_constant,
    certify_iid_constant,
    check_3wise_inequalities,
    ex_ante_level,
    lb1,
    lb2,
    minimize_event_prob,
    minimize_revenue,
    myerson_counterexample,
    myerson_ind_revenue,
    posted_price_lower_bound,
    q2_ind_near_bound,
    q2_ind_far_bound,
    regular_quantile_bound,
    revenue_exact,
    tail_upper,
    threshold_probs,
    uniform_q2_counterexample,
    verify_kwise,
)
from kwrob.marginals import EqualRevenue, ShiftedEqualRevenue, Uniform
from kwrob.quadrature import integrate


def report(criterion, detail):
    print(f"\nPASS criterion {criterion}: {detail}")


def test_criterion_1_myerson_collapse():
    t0 = time.monotonic()
    n, eps = 100, 1e-6
    prior = myerson_counterexample(n, eps)
    mech = Myerson(list(prior.marginals))
    adv = revenue_exact(prior, mech).mean
    expected = 3 - 2 / n + eps / n
    assert abs(adv - expected) <= 1e-6
    ind_lb = posted_price_lower_bound(prior.marginals)
    assert ind_lb >= n
    ratio = ind_lb / adv
    assert ratio >= n / 3
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(1, f"adv={adv:.9f} (=3-2/n+eps/n), ind>=n via {ind_lb:.6f}, "
              f"ratio={ratio:.2f}>=n/3, {elapsed:.2f}s")


def test_criterion_2_ar_revenue():
    t0 = time.monotonic()
    n, eps = 100, 1e-6
    prior = myerson_counterexample(n, eps)
    r = n * n + eps
    expected = n + eps / n
    mix = revenue_exact(prior, AnonymousReserve(r)).mean
    prod = revenue_exact(ProductPrior(prior.marginals), AnonymousReserve(r)).mean
    assert abs(mix - expected) <= 1e-9 * max(1.0, expected)
    assert abs(prod - expected) <= 1e-9 * max(1.0, expected)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(2, f"AR(n^2+eps) = {mix:.12f} on the mixture and {prod:.12f} on the "
              f"product (= n + eps/n), {elapsed:.3f}s")


def test_criterion_3_pairwise_certification():
    t0 = time.monotonic()
    devs = []
    for n in [2, 5, 10]:
        for prior in [myerson_counterexample(n, 1e-6), uniform_q2_counterexample(n)]:
            rep = verify_kwise(prior, 2)
            assert rep.passed and rep.max_deviation <= 1e-12, (n, rep.max_deviation)
            devs.append(rep.max_deviation)
    rep3 = verify_kwise(myerson_counterexample(200, 1e-6), 3)
    assert not rep3.passed
    assert rep3.violations, "a concrete violating triple must be reported"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    v = rep3.violations[0]
    report(3, f"pairwise max dev {max(devs):.2e} <= 1e-12; n=200 3-wise violation at "
              f"bidders {v.bidders} cells {v.cells} (dev {v.deviation:.2e}), {elapsed:.2f}s")


def test_criterion_4_q2_gap():
    vals = {}
    for n in [2, 10, 100]:
        prior = uniform_q2_counterexample(n)
        tau = (n - 1) / n
        closed = q2_ind(list(prior.marginals), tau)
        formula = 1 - (1 - 1 / n) ** (n + 1) - (n + 1) * (1 / n) * (1 - 1 / n) ** n
        assert abs(closed - formula) <= 1e-12
        _, q2adv = threshold_probs(prior, tau)
        assert q2adv == 1.0 / (n * n)
        vals[n] = closed
    assert abs(vals[100] - (1 - 2 / np.e)) < 0.01
    report(4, f"Q2_ind formula matches at n=2,10,100; Q2_ind(100)={vals[100]:.4f} "
              f"within 0.01 of 1-2/e; adversarial Q2 = 1/n^2 exactly")


def test_criterion_5_constant_2_63():
    t0 = time.monotonic()
    rep = certify_iid_constant()
    beta = rep.inputs["beta_star"]
    assert abs(beta - 1 / 3) <= 0.01
    assert 1 / 2.64 <= rep.value <= 1 / 2.62
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(5, f"beta*={beta:.5f} (~1/3), min ratio={rep.value:.6f} in [1/2.64,1/2.62], "
              f"{elapsed:.2f}s")


def test_criterion_6_constant_18_07():
    t0 = time.monotonic()
    cert = certify_ar_constant(0.674)
    assert cert.case2a_integral >= 0.0984
    assert cert.q2_ratio_value >= 0.215
    assert abs(cert.case1_constant - 2.91) <= 1e-3
    assert cert.certified_constant <= 18.07
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(6, f"I={cert.case2a_integral:.6f}>=0.0984, Q2ratio={cert.q2_ratio_value:.4f}>=0.215, "
              f"case1={cert.case1_constant:.5f}~2.91, final={cert.certified_constant:.4f}<=18.07, "
              f"{elapsed:.2f}s")


def test_criterion_7_closed_form_vs_brute_force():
    grid = np.round(np.arange(0.0, 1.0 + 1e-9, 0.1), 10)
    worst = 0.0
    count = 0
    for n in [1, 2, 3, 4]:
        for qs in itertools.product(grid, repeat=n):
            worst = max(worst, abs(q2_ind_from_q(qs) - q1q2_enumerate(qs)[1]))
            count += 1
    assert worst <= 1e-12
    rng = np.random.default_rng(7)
    for _ in range(20):
        shape = tuple(rng.integers(2, 4, size=int(rng.integers(2, 4))))
        pmf = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
        supports = [np.sort(rng.uniform(0, 5, size=k)).tolist() for k in shape]
        t = TablePrior(supports, pmf)
        for tau in rng.uniform(0, 5, size=3):
            assert threshold_probs(t, float(tau)) == pytest.approx(
                table_q1q2_enumerate(t, float(tau)), abs=1e-14
            )
    report(7, f"q2_ind vs enumeration on {count} grid vectors, worst dev {worst:.2e}; "
              f"table threshold probs match enumeration")


def test_criterion_8_bound_dominance_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(8)

    # (a) closed-form pairwise lower bounds vs LP minima, 200 random binary
    # instances with n <= 4
    grid = np.arange(0.1, 1.0, 0.1)
    checked_lb2 = 0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        qs = rng.choice(grid, size=n)
        tables = [([0.0, 1.0], [1.0 - q, q]) for q in qs]
        poly = build_polytope(tables, 2)
        s = float(qs.sum())
        q1_min = minimize_event_prob(poly, 1.0, 1).objective
        assert q1_min >= lb1(s) - 1e-9
        if s > 1.0:
            q2_min = minimize_event_prob(poly, 1.0, 2).objective
            assert q2_min >= lb2(s) - 1e-9
            checked_lb2 += 1

    # (b) closed-form tail bound vs direct quadrature on 50 random regular
    # instances normalized to expected count <= 1
    from conftest import random_scaled_regular_family

    tails = 0
    for _ in range(50):
        ms = random_scaled_regular_family(rng)
        s0 = min(sum(m.quantile_q(1.0) - m.atom_mass(1.0) for m in ms), 1.0)
        hi = max(m.support[1] for m in ms)
        if hi <= 1.0:
            continue
        atoms = sorted({a for m in ms for a in m.atoms() if a > 1.0})
        tail = integrate(lambda t: q2_ind(ms, t), 1.0, hi, abs_tol=1e-10, breakpoints=atoms)
        assert tail <= tail_upper(s0) + 1e-9
        tails += 1

    # (c) regular-quantile envelopes on dense grids
    for m in [Uniform(0, 2), EqualRevenue(0.5, 2.0), ShiftedEqualRevenue(0.5, 1.5, 0.2)]:
        p = m.quantile_q(1.0)
        lo, hi = m.support
        for tau in np.linspace(1.0, 10 * hi, 200):
            assert m.quantile_q(tau) <= regular_quantile_bound(p, tau) + 1e-10
        for tau in np.linspace(lo, 1.0, 200):
            assert m.quantile_q(tau) >= regular_quantile_bound(p, tau) - 1e-10

    # (d) the independent-prior upper bounds vs grid-search maxima at
    # resolution 1/200.  The near bound holds across its whole domain; the far
    # bound is checked at full budget (s0 = 1), where it is proven and where
    # the certificates rely (see the counterexample test in
    # test_bounds.py for its failure below full budget).
    for s in [0.25, 0.5, 0.75, 1.0]:
        best = 0.0
        for mm in range(2, 41):
            q = s / mm
            best = max(best, 1 - (1 - q) ** mm - mm * q * (1 - q) ** (mm - 1))
        assert best <= q2_ind_near_bound(s) + 1e-9
    for tau in [3.0, 4.0, 6.0, 10.0]:
        val, p = q2_ind_grid_max(1.0, tau, 4)
        assert val <= q2_ind_far_bound(1.0, tau) + 1e-9
        top2 = sorted(p, reverse=True)[:2]
        assert top2 == pytest.approx([0.5, 0.5], abs=1 / 200 + 1e-12)

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(8, f"LP dominance on 200 instances ({checked_lb2} with s>1), tail bound on "
              f"{tails} scaled instances, envelopes on dense grids, grid-search maxima "
              f"dominated (far bound at full budget), {elapsed:.1f}s")


def test_criterion_9_integral_identity():
    ps = list(np.linspace(0.02, 0.98, 47)) + [0.5, 0.5 - 1e-6, 0.5 + 1e-6]
    worst = 0.0
    for p in ps:
        closed, left, right = split_integral_identity(float(p))
        worst = max(worst, abs(closed - left), abs(closed - right), abs(left - right))
    assert worst <= 1e-8
    assert split_integral_identity(0.5)[0] == 0.5
    report(9, f"three-way agreement on {len(ps)} values (incl. 1/2 +- 1e-6), "
              f"worst dev {worst:.2e}; value at 1/2 is 1/2")


def test_criterion_10_threewise_predicates():
    t0 = time.monotonic()
    rng = np.random.default_rng(10)

    # (eq 3witau): twice the ex-ante half-budget revenue dominates the
    # independent optimum, exactly, on 100 random regular discrete instances
    for _ in range(100):
        n = int(rng.integers(1, 5))
        ms = [random_regular_discrete(rng) for _ in range(n)]
        ea = ex_ante_level(ms)
        ind = myerson_ind_revenue(ms)
        assert 2.0 * ea.total_rev >= ind - 1e-9

    # the global 3-wise constant on LP-generated worst tables
    checked = 0
    for _ in range(12):
        n = int(rng.integers(2, 5))
        ms = [random_regular_discrete(rng, max_pts=3) for _ in range(n)]
        tables = [(list(m.points), list(m.masses)) for m in ms]
        mech = Myerson(ms)
        # 3-wise collapses to mutual independence when n < 3
        sol = minimize_revenue(build_polytope(tables, min(3, n)), mech)
        ind = myerson_ind_revenue(ms)
        assert 64.0 * sol.objective >= ind - 1e-9
        rep = check_3wise_inequalities(ms, sol.table)
        assert rep.relax_ok and rep.global_ok
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(10, f"(eq 3witau) exact on 100 instances; 64x robustness on {checked} "
               f"LP-worst 3-wise tables, {elapsed:.1f}s")
