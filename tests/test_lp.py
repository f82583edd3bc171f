import itertools
from types import SimpleNamespace

import numpy as np
import pytest

import kwrob.lp
from kwrob.mechanisms import mechanism_payments
from kwrob.priors import cell_values

from conftest import (
    conditioned_out_solve,
    fine_solve,
    kwise_rows_reference,
    product_pmf,
    random_discrete,
    random_regular_discrete,
)
from kwrob import (
    AnonymousReserve,
    DiscretePMF,
    DomainError,
    Myerson,
    ProductPrior,
    build_polytope,
    discretize,
    lb1,
    lb2,
    minimize_event_prob,
    minimize_revenue,
    revenue_exact,
    threshold_probs,
    verify_kwise,
)

BINARY = ([0.0, 1.0], [0.5, 0.5])


class TestBuildPolytope:
    def test_two_binary_bidders_singleton(self):
        poly = build_polytope([BINARY] * 2, 2)
        sol = minimize_revenue(poly, AnonymousReserve(0.5))
        # pairwise = mutual for n = 2: the only feasible point is the product
        assert np.allclose(sol.table.pmf, 0.25, atol=1e-9)
        assert sol.objective == pytest.approx(0.25 * 1.0 + 0.5 * 0.5, abs=1e-9)

    def test_three_binary_one_dimensional_family(self):
        poly = build_polytope([BINARY] * 3, 2)
        assert poly.n_cells == 8
        assert poly.A_red.shape[0] == 7  # one degree of freedom left
        # the parity (xor) distribution is an extreme point of that family
        xor = np.zeros((2, 2, 2))
        for i in (0, 1):
            for j in (0, 1):
                xor[i, j, i ^ j] = 0.25
        assert np.allclose(poly.A @ xor.ravel(), poly.b, atol=1e-12)

    def test_ten_binary_k1_constraint_count(self):
        poly = build_polytope([BINARY] * 10, 1)
        assert poly.n_cells == 1024
        # 20 single-bidder rows describe the set; rank is 10 + 1 (total mass)
        assert poly.A_red.shape[0] == 11

    def test_product_always_feasible(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            tables = []
            for _ in range(n):
                m = random_regular_discrete(rng, max_pts=3)
                tables.append((list(m.points), list(m.masses)))
            k = int(rng.integers(1, n + 1))
            poly = build_polytope(tables, k)
            x = product_pmf(poly)
            assert np.max(np.abs(poly.A @ x - poly.b)) < 1e-12

    def test_degenerate_bidder_conditioned_out(self):
        tables = [BINARY, ([3.0], [1.0]), BINARY]
        poly = build_polytope(tables, 2)
        assert poly.supports[1] == [3.0] and poly.shape == (2, 1, 2)
        sol = minimize_revenue(poly, AnonymousReserve(2.0))
        # the fixed bidder always clears the reserve; others never do
        assert sol.objective == pytest.approx(2.0, abs=1e-9)
        assert sol.table.supports[1] == (3.0,)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_masses(self, bad):
        # a NaN mass fails no sum or sign test and would be dropped as if 0
        with pytest.raises(DomainError, match="bidder 1 values and masses must be finite"):
            build_polytope([BINARY, ([1.0, 2.0, 3.0], [bad, 0.5, 0.5])], 2)

    def test_cell_cap(self):
        big = (list(range(100)), [0.01] * 100)
        with pytest.raises(DomainError):
            build_polytope([big] * 3, 2)


class TestSolve:
    def test_written_table_meets_the_constraints(self, monkeypatch):
        # a solver x with an entry of -9e-8 that still meets A x = b: the
        # product pmf minus a multiple of the three-way interaction
        # direction, whose single and pairwise marginals are all zero
        poly = build_polytope([([0.0, 1.0], [0.01, 0.99])] * 3, 2)
        interaction = ((-1.0) ** np.indices((2, 2, 2)).sum(axis=0)).ravel()
        p = product_pmf(poly)
        x = p - (p[0] + 9e-8) * interaction
        assert x.min() == pytest.approx(-9e-8, rel=1e-6)
        assert np.max(np.abs(poly.A @ x - poly.b)) < 1e-14

        def fake_linprog(c, **kw):
            duals = SimpleNamespace(marginals=np.zeros(len(kw["b_eq"])))
            return SimpleNamespace(success=True, x=x.copy(), eqlin=duals, nit=0, message="")

        monkeypatch.setattr(kwrob.lp, "linprog", fake_linprog)
        try:
            sol = fine_solve(poly, np.zeros(poly.n_cells))
        except kwrob.lp.SolverError:
            return
        assert np.max(np.abs(poly.A @ sol.table.pmf.ravel() - poly.b)) <= kwrob.lp.FEAS_TOL


    def test_dual_infeasible_certificate_raises(self, monkeypatch):
        # duals with b.y = 0 = c.x that price cells below zero prove only
        # the bound b.y + min(c - A^T y) = -0.5, short of the objective
        poly = build_polytope([BINARY] * 2, 2)
        b = poly.b_red
        y = np.zeros(b.size)
        y[0], y[1] = b[1], -b[0]
        assert b @ y == 0.0

        def fake_linprog(c, **kw):
            duals = SimpleNamespace(marginals=y.copy())
            return SimpleNamespace(success=True, x=product_pmf(poly), eqlin=duals, nit=0, message="")

        monkeypatch.setattr(kwrob.lp, "linprog", fake_linprog)
        with pytest.raises(kwrob.lp.SolverError, match=r"objective 0\.0 is 0\.5 from its proven lower bound -0\.5"):
            fine_solve(poly, np.zeros(poly.n_cells))

    def test_solver_table_without_mass_raises(self, monkeypatch):
        # x = 0 and y = 0 pass the certificate (objective 0, bound
        # min(0, min c) = 0), but a table of no mass cannot be normalised:
        # a solver fault, not bad input
        poly = build_polytope([TestQuotient.POINTS] * 4, 2)

        def fake_linprog(c, **kw):
            duals = SimpleNamespace(marginals=np.zeros(len(kw["b_eq"])))
            return SimpleNamespace(success=True, x=np.zeros(len(c)), eqlin=duals, nit=0, message="")

        monkeypatch.setattr(kwrob.lp, "linprog", fake_linprog)
        with pytest.raises(kwrob.lp.SolverError, match="solver table has total mass 0.0"):
            minimize_revenue(poly, AnonymousReserve(2.5))

    def test_bound_never_passes_the_optimum(self, rng, monkeypatch):
        # the bound holds for any y: HiGHS's x with its own, perturbed,
        # random or zero duals never certifies a bound above the optimum,
        # and the product table, feasible, is refused for every y wherever
        # it is suboptimal beyond GAP_TOL
        from scipy.optimize import linprog

        def stub(x, duals):
            def fake_linprog(c, **kw):
                res = linprog(c, **kw)
                y = SimpleNamespace(marginals=duals(res.eqlin.marginals))
                return SimpleNamespace(success=True, x=res.x if x is None else x, eqlin=y, nit=res.nit, message="")

            return fake_linprog

        noise = [lambda y: y, lambda y: np.zeros(y.size), lambda y: rng.normal(size=y.size)]
        noise += [lambda y, s=s: y + rng.normal(scale=s, size=y.size) for s in (1e-12, 1e-9, 1e-6, 1e-3)]
        returned = refused = 0
        for _ in range(8):
            n, k = int(rng.integers(3, 6)), int(rng.integers(2, 4))
            marginals = [random_discrete(rng, max_pts=3) for _ in range(n)]
            poly = build_polytope([(m.points, m.masses) for m in marginals], k)
            V = cell_values(poly.supports)
            tau = float(rng.choice([v for m in marginals for v in m.points]))
            objectives = [mechanism_payments(mech, V) for mech in (Myerson(marginals), AnonymousReserve(tau))]
            objectives.append(((V >= tau).sum(axis=1) >= 2).astype(float))
            product = product_pmf(poly)
            for c in objectives:
                optimum = fine_solve(poly, c).objective
                suboptimal = c @ product - optimum > 2 * kwrob.lp.GAP_TOL * max(1.0, abs(c @ product))
                for duals in noise:
                    with monkeypatch.context() as mp:
                        mp.setattr(kwrob.lp, "linprog", stub(None, duals))
                        try:
                            sol = kwrob.lp._solve(poly, c)
                        except kwrob.lp.SolverError as exc:
                            assert "proven lower bound" in str(exc)
                        else:
                            returned += 1
                            assert sol.objective - sol.duality_gap <= optimum + 1e-12
                        if suboptimal:
                            mp.setattr(kwrob.lp, "linprog", stub(product, duals))
                            with pytest.raises(kwrob.lp.SolverError, match="proven lower bound"):
                                fine_solve(poly, c)
                            refused += 1
        assert returned > 0 and refused > 0


class TestPresolveOff:
    def test_same_optimum_as_presolve(self, rng, monkeypatch):
        # the solver runs without presolve on a full-rank basis; a
        # presolve-on solve of the same LP reaches the same optimal value.
        # These small LPs often have a face of optimal tables, from which
        # the two solves may pick different vertices, so each table is
        # checked to attain that value rather than to equal the other.
        from scipy.optimize import linprog

        def presolve_on(c, **kw):
            return linprog(c, **dict(kw, options=dict(kw["options"], presolve=True)))

        for _ in range(20):
            n = int(rng.integers(2, 6))
            marginals = [random_regular_discrete(rng, max_pts=3) for _ in range(n)]
            tables = [(list(m.points), list(m.masses)) for m in marginals]
            k = int(rng.integers(1, n + 1))
            poly = build_polytope(tables, k)
            basis = poly.A_red.toarray()
            assert np.linalg.matrix_rank(basis) == basis.shape[0]
            mech = Myerson(marginals)
            tau = float(np.median([v for m in marginals for v in m.points]))
            solves = (
                (lambda: minimize_revenue(poly, mech), lambda t: revenue_exact(t, mech).mean),
                (lambda: minimize_event_prob(poly, tau, 2), lambda t: threshold_probs(t, tau)[1]),
            )
            for solve, value_of in solves:
                off = solve()
                with monkeypatch.context() as mp:
                    mp.setattr(kwrob.lp, "linprog", presolve_on)
                    on = solve()
                assert off.objective == pytest.approx(on.objective, rel=1e-12, abs=1e-12)
                for sol in (off, on):
                    assert value_of(sol.table) == pytest.approx(on.objective, rel=1e-12, abs=1e-12)
                    assert np.max(np.abs(poly.A @ sol.table.pmf.ravel() - poly.b)) <= kwrob.lp.FEAS_TOL


class TestQuotient:
    """The LP on the classes of support points the objective cannot tell
    apart, lifted back to the fine cells."""

    POINTS = ([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])

    @staticmethod
    def quotient_columns(monkeypatch, solve):
        # the number of cells each LP handed to HiGHS had
        from scipy.optimize import linprog

        seen = []

        def spy(c, **kw):
            seen.append(len(c))
            return linprog(c, **kw)

        with monkeypatch.context() as mp:
            mp.setattr(kwrob.lp, "linprog", spy)
            sol = solve()
        return sol, seen

    def test_reserve_between_top_points_merges_every_bidder(self, monkeypatch):
        poly = build_polytope([self.POINTS] * 4, 2)
        sol, seen = self.quotient_columns(monkeypatch, lambda: minimize_revenue(poly, AnonymousReserve(2.5)))
        assert seen == [2**4]  # each bidder keeps {1, 2} against {3}
        assert np.max(np.abs(poly.A @ sol.table.pmf.ravel() - poly.b)) <= kwrob.lp.FEAS_TOL
        fine = fine_solve(poly, mechanism_payments(AnonymousReserve(2.5), cell_values(poly.supports)))
        assert sol.objective == pytest.approx(fine.objective, rel=1e-9)

    def test_reserve_below_middle_point_merges_none(self, monkeypatch):
        # with nothing merged the quotient is the fine LP, bit for bit
        poly = build_polytope([self.POINTS] * 4, 2)
        sol, seen = self.quotient_columns(monkeypatch, lambda: minimize_revenue(poly, AnonymousReserve(1.5)))
        assert seen == [3**4]
        fine = fine_solve(poly, mechanism_payments(AnonymousReserve(1.5), cell_values(poly.supports)))
        assert sol.objective == fine.objective
        assert np.array_equal(sol.table.pmf, fine.table.pmf)

    def test_reserve_above_every_point_gives_the_product(self):
        poly = build_polytope([self.POINTS] * 4, 2)
        sol = minimize_revenue(poly, AnonymousReserve(4.0))
        assert sol.objective == 0.0
        assert np.max(np.abs(sol.table.pmf.ravel() - product_pmf(poly))) <= 1e-15

    def test_lifted_table_is_rechecked_on_the_fine_family(self, monkeypatch):
        # all quotient mass on the cell where nobody clears the reserve:
        # zero objective and zero duals pass the certificate, but the lift
        # breaks every marginal, which only the fine re-check sees
        poly = build_polytope([self.POINTS] * 4, 2)

        def fake_linprog(c, **kw):
            assert len(c) == 2**4 and c[0] == 0.0
            x = np.zeros(len(c))
            x[0] = 1.0
            duals = SimpleNamespace(marginals=np.zeros(len(kw["b_eq"])))
            return SimpleNamespace(success=True, x=x, eqlin=duals, nit=0, message="")

        monkeypatch.setattr(kwrob.lp, "linprog", fake_linprog)
        with pytest.raises(kwrob.lp.SolverError, match="table violates constraints"):
            minimize_revenue(poly, AnonymousReserve(2.5))

    def test_dual_infeasible_quotient_certificate_raises(self, monkeypatch):
        # y = 1 on the total-mass row prices every cell at 1, so the cell
        # where nobody clears the reserve (c = 0) has reduced cost -1 and y
        # proves only optimum >= 1 - 1 = 0.  The quotient's product table is
        # feasible with objective above 0, and is refused as a fine solve's
        # would be
        poly = build_polytope([self.POINTS] * 4, 2)

        def fake_linprog(c, **kw):
            assert len(c) == 2**4 and c[0] == 0.0
            x = np.full(len(c), 1 / 16)  # each bidder's two classes weigh .5
            assert np.max(np.abs(kw["A_eq"] @ x - kw["b_eq"])) < 1e-15 and c @ x > 0
            y = np.zeros(len(kw["b_eq"]))
            y[0] = 1.0
            duals = SimpleNamespace(marginals=y)
            return SimpleNamespace(success=True, x=x, eqlin=duals, nit=0, message="")

        monkeypatch.setattr(kwrob.lp, "linprog", fake_linprog)
        with pytest.raises(kwrob.lp.SolverError, match="from its proven lower bound 0.0"):
            minimize_revenue(poly, AnonymousReserve(2.5))

    def test_quotient_matches_the_fine_lp(self, rng):
        # every objective kind, on instances whose points merge in
        # different ways: the quotient's value is the fine LP's, and the
        # lifted table is k-wise independent with the given marginals
        merged = full = 0
        for _ in range(16):
            n = int(rng.integers(2, 6))
            marginals = [random_discrete(rng, max_pts=3) for _ in range(n)]
            k = int(rng.integers(1, n + 1))
            poly = build_polytope([(m.points, m.masses) for m in marginals], k)
            points = sorted({v for m in marginals for v in m.points})
            on = float(rng.choice(points))
            between = float(np.mean(rng.choice(points, size=2, replace=False)))
            V = cell_values(poly.supports)
            objectives = [mechanism_payments(mech, V) for mech in (
                Myerson(marginals),
                AnonymousReserve(on),
                AnonymousReserve(between),
            )]
            objectives += [((V >= on).sum(axis=1) >= count).astype(float) for count in (1, 2)]
            for c in objectives:
                sol = kwrob.lp._solve(poly, c)
                fine = fine_solve(poly, c)
                C = c.reshape([len(v) for v in poly.supports])
                merged += any(
                    len({tuple(row) for row in np.moveaxis(C, i, 0).reshape(C.shape[i], -1).tolist()}) < C.shape[i]
                    for i in range(C.ndim)
                )
                assert sol.objective == pytest.approx(fine.objective, rel=1e-9, abs=1e-12)
                assert float(c @ sol.table.pmf.ravel()) == pytest.approx(fine.objective, rel=1e-9, abs=1e-12)
                assert np.max(np.abs(poly.A @ sol.table.pmf.ravel() - poly.b)) <= kwrob.lp.FEAS_TOL
                assert verify_kwise(sol.table, k).passed
                if k == n:
                    full += 1
                    assert np.max(np.abs(sol.table.pmf.ravel() - product_pmf(poly))) <= kwrob.lp.FEAS_TOL
        assert merged > 0 and full > 0


class TestOnePointAxes:
    """A bidder with one positive-mass point is an axis of length 1.  The
    solve must equal, bit for bit, the rule that conditions such bidders
    out: solve on the others, then insert their singleton axes."""

    @staticmethod
    def random_instance(rng, all_one_point):
        n = int(rng.integers(2, 7))
        n_one = n if all_one_point else int(rng.integers(1, n))
        marginals = []
        for i in range(n):
            m = 1 if i < n_one else int(rng.integers(2, 4))
            points = sorted(rng.choice(np.arange(1.0, 10.0), size=m, replace=False).tolist())
            marginals.append(DiscretePMF(points, rng.dirichlet(np.ones(m)).tolist()))
        return [marginals[i] for i in rng.permutation(n)]

    def test_same_solve_as_conditioning_out(self, rng):
        shapes = set()
        for trial in range(40):
            marginals = self.random_instance(rng, all_one_point=trial % 8 == 0)
            n = len(marginals)
            poly = build_polytope([(m.points, m.masses) for m in marginals], int(rng.integers(1, n + 1)))
            shapes.add(max(poly.shape) > 1)
            V = cell_values(poly.supports)
            tau = float(rng.choice(V.ravel()))
            cases = [(minimize_revenue(poly, mech), mechanism_payments(mech, V)) for mech in (
                Myerson(marginals),
                AnonymousReserve(float(rng.uniform(1.0, 9.0))),
            )]
            cases += [
                (minimize_event_prob(poly, tau, count), ((V >= tau).sum(axis=1) >= count).astype(float))
                for count in (1, 2)
            ]
            for sol, c in cases:
                ref = conditioned_out_solve(poly, c)
                assert (sol.objective, sol.iterations, sol.duality_gap, sol.feasibility_residual) == (
                    ref.objective, ref.iterations, ref.duality_gap, ref.feasibility_residual
                )
                assert sol.table.supports == ref.table.supports
                assert sol.table.pmf.shape == ref.table.pmf.shape
                assert sol.table.pmf.tobytes() == ref.table.pmf.tobytes()
        assert shapes == {True, False}  # some instances, not all, are one-point only


class TestMinimizeRevenue:
    def test_k_equals_n_gives_product_revenue(self, rng):
        tables = [BINARY] * 3
        poly = build_polytope(tables, 3)
        sol = minimize_revenue(poly, AnonymousReserve(0.5))
        marginals = [DiscretePMF(*BINARY)] * 3
        exact = revenue_exact(discretize(ProductPrior(marginals)), AnonymousReserve(0.5)).mean
        assert sol.objective == pytest.approx(exact, abs=1e-9)
        # at k = n the product is the only feasible point, so the LP's
        # optimum is the product prior's value and its table the product pmf
        for _ in range(12):
            n = int(rng.integers(2, 5))
            marginals = [random_discrete(rng, max_pts=3) for _ in range(n)]
            poly = build_polytope([(m.points, m.masses) for m in marginals], n)
            product = ProductPrior(marginals)
            tau = float(rng.choice([v for m in marginals for v in m.points]))
            cases = [(minimize_revenue(poly, mech), revenue_exact(product, mech).mean) for mech in (
                Myerson(marginals),
                AnonymousReserve(tau),
            )]
            cases += [(minimize_event_prob(poly, tau, c), threshold_probs(product, tau)[c - 1]) for c in (1, 2)]
            for sol, value in cases:
                assert sol.objective == pytest.approx(value, rel=1e-9, abs=1e-12)
                assert np.max(np.abs(sol.table.pmf.ravel() - product_pmf(poly))) <= kwrob.lp.FEAS_TOL

    def test_monotone_in_k(self, rng):
        tables = []
        for _ in range(4):
            m = random_regular_discrete(rng, max_pts=3)
            tables.append((list(m.points), list(m.masses)))
        marginals = [DiscretePMF(*t) for t in tables]
        mech = Myerson(marginals)
        objs = []
        for k in [4, 3, 2, 1]:
            objs.append(minimize_revenue(build_polytope(tables, k), mech).objective)
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    def test_solution_reverified(self, rng):
        tables = [(list(m.points), list(m.masses)) for m in
                  [random_regular_discrete(rng, max_pts=3) for _ in range(3)]]
        poly = build_polytope(tables, 2)
        mech = Myerson([DiscretePMF(*t) for t in tables])
        sol = minimize_revenue(poly, mech)
        assert sol.feasibility_residual <= 1e-9
        assert sol.duality_gap <= 1e-7 * max(1.0, abs(sol.objective))
        # recompute the objective from the returned table
        recomputed = revenue_exact(sol.table, mech).mean
        assert recomputed == pytest.approx(sol.objective, abs=1e-8)

    def test_counterexample_marginals_k2_collapse(self):
        # discretized adversarial marginals at small n: the pairwise-worst
        # prior drives the optimal mechanism's revenue down to O(1)
        n, eps = 3, 1e-6
        from kwrob import myerson_counterexample

        prior = myerson_counterexample(n, eps)
        table = discretize(prior)
        tables = [
            (list(table.supports[i]), list(table.marginal_masses(i)))
            for i in range(table.n_bidders)
        ]
        mech = Myerson(list(prior.marginals))
        adversarial = revenue_exact(prior, mech).mean
        sol2 = minimize_revenue(build_polytope(tables, 2), mech)
        assert sol2.objective <= adversarial + 1e-9  # LP is at least as adversarial
        ind = revenue_exact(ProductPrior(prior.marginals), mech).mean
        sol3 = minimize_revenue(build_polytope(tables, 3), mech)
        assert 64.0 * sol3.objective >= ind - 1e-9  # 3-wise robustness kicks in

    def test_worst_table_is_kwise(self, rng):
        tables = [(list(m.points), list(m.masses)) for m in
                  [random_regular_discrete(rng, max_pts=3) for _ in range(3)]]
        sol = minimize_revenue(build_polytope(tables, 2), AnonymousReserve(1.0))
        rep = verify_kwise(sol.table, 2)
        assert rep.max_deviation <= 1e-8


class TestMinimizeEventProb:
    def test_three_binary_q1(self):
        poly = build_polytope([BINARY] * 3, 2)
        sol = minimize_event_prob(poly, 1.0, 1)
        assert sol.objective >= lb1(1.5) - 1e-9

    def test_four_binary_q2_at_s2(self):
        poly = build_polytope([BINARY] * 4, 2)
        sol = minimize_event_prob(poly, 1.0, 2)
        assert sol.objective >= 1 / 3 - 1e-9  # LB2(2)

    def test_k_equals_n_matches_independent(self):
        poly = build_polytope([BINARY] * 3, 3)
        sol = minimize_event_prob(poly, 1.0, 2)
        from conftest import q1q2_enumerate

        q1, q2 = q1q2_enumerate([0.5] * 3)
        assert sol.objective == pytest.approx(q2, abs=1e-9)

    def test_pairwise_lower_bound_dominance_sample(self, rng):
        # the closed-form pairwise lower bounds never exceed the LP optimum
        grid = np.arange(0.1, 1.0, 0.1)
        for _ in range(30):
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

    def test_count_validation(self):
        poly = build_polytope([BINARY] * 2, 2)
        with pytest.raises(DomainError):
            minimize_event_prob(poly, 1.0, 3)


class TestStreamedRows:
    """The row family is read one subset's block at a time: the solver's
    basis and the table re-check must equal what the full CSR family gives."""

    @staticmethod
    def random_polytope(rng, n_fixed=0):
        # 1-4 points per bidder; a one-point bidder is an axis of length 1
        n = int(rng.integers(1, 5))
        tables = []
        for i in range(n):
            m = 1 if i < n_fixed else int(rng.integers(1, 5))
            tables.append((sorted(rng.choice(10, size=m, replace=False).tolist()), rng.dirichlet(np.ones(m)).tolist()))
        order = rng.permutation(n)
        return build_polytope([tables[i] for i in order], int(rng.integers(1, n + 1)))

    @staticmethod
    def basis_mask(shape, k):
        # the rows of the full family, in order, whose c avoids each
        # bidder's last point; the family has no subset with a one-point axis
        keep = [True]
        for size in range(1, k + 1):
            for subset in itertools.combinations([i for i, m in enumerate(shape) if m > 1], size):
                keep += [all(c < shape[i] - 1 for i, c in zip(subset, combo))
                         for combo in itertools.product(*[range(shape[i]) for i in subset])]
        return np.flatnonzero(keep)

    @staticmethod
    def assert_same_csr(A, B):
        assert A.shape == B.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(A, name), getattr(B, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def polytopes(self, rng):
        for n_fixed in (0, 0, 0, 1, 4):  # 4: at most four bidders, all one-point
            for _ in range(12):
                yield self.random_polytope(rng, n_fixed)

    def test_residual_is_the_csr_residual_bit_for_bit(self, rng):
        seen = set()
        for poly in self.polytopes(rng):
            seen.add((1 in poly.shape, max(poly.shape) > 1))
            pmfs = [rng.dirichlet(np.ones(poly.n_cells)), rng.random(poly.n_cells) ** 4]
            pmfs[1][rng.random(poly.n_cells) < 0.5] = 0.0
            for pmf in pmfs:
                streamed = kwrob.lp._residual(poly.shape, poly.masses, poly.k, pmf)
                assert streamed == float(np.max(np.abs(poly.A @ pmf - poly.b)))
        assert {(True, True), (True, False), (False, True)} <= seen  # some, all and no bidders one-point

    def test_written_residual_is_the_csr_residual_bit_for_bit(self, rng):
        for poly in self.polytopes(rng):
            points = sorted({v for s in poly.supports for v in s})
            for sol in (
                minimize_revenue(poly, AnonymousReserve(float(rng.choice(points)))),
                minimize_event_prob(poly, float(np.mean(points)), 1),
                kwrob.lp._solve(poly, rng.random(poly.n_cells)),
            ):
                pmf = sol.table.pmf.ravel()
                assert sol.feasibility_residual == float(np.max(np.abs(poly.A @ pmf - poly.b)))

    def test_basis_is_the_row_subset_of_the_family(self, rng):
        for poly in self.polytopes(rng):
            rows = self.basis_mask(poly.shape, poly.k)
            self.assert_same_csr(poly.A_red, poly.A[rows])
            assert np.array_equal(poly.b_red, poly.b[rows])

    def test_basis_on_quotient_shapes(self, rng):
        # a bidder whose points all merge has one class, so no basis rows:
        # the family leaves out every subset that holds it, and loses no
        # row by that, since each such row repeats one it keeps when that
        # class has all the mass
        one_point = 0
        for _ in range(40):
            shape = tuple(int(m) for m in rng.integers(1, 4, size=int(rng.integers(1, 5))))
            masses = [rng.dirichlet(np.ones(m)) for m in shape]
            k = int(rng.integers(1, len(shape) + 1))
            A, b = kwrob.lp._rows(shape, masses, k)
            A_red, b_red = kwrob.lp._basis(shape, masses, k)
            rows = self.basis_mask(shape, k)
            self.assert_same_csr(A_red, A[rows])
            assert np.array_equal(b_red, b[rows])
            if 1 in shape:
                one_point += 1
                masses = [m if m.size > 1 else np.ones(1) for m in masses]
                A, b = kwrob.lp._rows(shape, masses, k)
                kept = {(tuple(A.indices[A.indptr[r]:A.indptr[r + 1]]), b[r].tobytes()) for r in range(A.shape[0])}
                A_ref, b_ref = kwise_rows_reference(shape, masses, k)
                for row, rhs in zip(A_ref, b_ref):
                    assert (tuple(np.flatnonzero(row)), rhs.tobytes()) in kept
        assert one_point > 0
        A_red, b_red = kwrob.lp._basis((1, 1, 1), [np.ones(1)] * 3, 3)
        assert A_red.toarray().tolist() == [[1.0]] and b_red.tolist() == [1.0]

    def test_merging_solves_never_build_the_fine_family(self, monkeypatch):
        poly = build_polytope([TestQuotient.POINTS] * 4, 2)
        basis, built = kwrob.lp._basis, []

        def no_full_family(*args):
            raise AssertionError("the full row family was built")

        def spy(shape, masses, k):
            built.append(shape)
            return basis(shape, masses, k)

        monkeypatch.setattr(kwrob.lp, "_rows", no_full_family)
        monkeypatch.setattr(kwrob.lp, "_basis", spy)
        revenue = minimize_revenue(poly, AnonymousReserve(2.5))
        event = minimize_event_prob(poly, 2.5, 2)
        assert built == [(2,) * 4] * 2  # only the quotients' bases
        for sol in (revenue, event):
            assert sol.feasibility_residual <= kwrob.lp.FEAS_TOL
        monkeypatch.undo()
        for sol in (revenue, event):
            pmf = sol.table.pmf.ravel()
            assert sol.feasibility_residual == float(np.max(np.abs(poly.A @ pmf - poly.b)))

    def test_lifted_table_breaking_one_pairwise_row_is_refused(self, monkeypatch):
        # c = 1 when bidders 0 and 1 both take their top point: they keep
        # {1, 2} against {3}, and bidders 2 and 3 merge into one class each.
        # The stub's x meets total mass and both single marginals but puts
        # no mass where both are low, so it breaks the one pairwise basis
        # row; zero duals certify its zero objective.
        poly = build_polytope([TestQuotient.POINTS] * 4, 2)
        V = cell_values(poly.supports)
        c = ((V[:, 0] == 3.0) & (V[:, 1] == 3.0)).astype(float)

        def fake_linprog(c, **kw):
            assert c.tolist() == [0.0, 0.0, 0.0, 1.0]
            x = np.array([0.0, 0.5, 0.5, 0.0])
            broken = np.flatnonzero(np.abs(kw["A_eq"] @ x - kw["b_eq"]) > 0)
            assert kw["A_eq"].shape[0] == 4 and broken.tolist() == [3]
            duals = SimpleNamespace(marginals=np.zeros(len(kw["b_eq"])))
            return SimpleNamespace(success=True, x=x, eqlin=duals, nit=0, message="")

        monkeypatch.setattr(kwrob.lp, "linprog", fake_linprog)
        with pytest.raises(kwrob.lp.SolverError, match="table violates constraints"):
            kwrob.lp._solve(poly, c)
