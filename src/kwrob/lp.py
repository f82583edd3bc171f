"""Worst-case prior search by linear programming.

The feasible set is the polytope of joint pmfs on a finite product support
whose every subset of at most k coordinates has product-form marginals
(k-wise independence with the given per-bidder masses).  Minimising a
mechanism's expected payment, or the probability of a threshold event, over
that polytope gives exact worst-case instances with a duality certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from .marginals import DomainError
from .mechanisms import Mechanism, mechanism_payments
from .priors import TablePrior, cell_values

CELL_CAP = 100_000
FEAS_TOL = 1e-9
GAP_TOL = 1e-7


@dataclass
class KwisePolytope:
    supports: list  # active (non-degenerate) bidders only
    masses: list
    k: int
    A: np.ndarray  # full constraint rows, A p = b
    b: np.ndarray
    A_red: np.ndarray  # rank-reduced rows actually handed to the solver
    b_red: np.ndarray
    fixed: dict  # bidder index -> fixed value (conditioned out)
    order: list  # original indices of the active bidders

    @property
    def n_cells(self):
        return int(np.prod([len(s) for s in self.supports])) if self.supports else 1

    @property
    def full_supports(self):
        """Supports of all bidders in their original order, a conditioned-out
        bidder's as the singleton of its fixed value.  Their C-order cell
        grid is the LP's variable order: active bidders keep their order and
        singleton axes do not move cells."""
        out = [None] * (len(self.order) + len(self.fixed))
        for i, v in self.fixed.items():
            out[i] = (v,)
        for j, i in enumerate(self.order):
            out[i] = tuple(self.supports[j])
        return out

    def product_pmf(self):
        out = np.ones(1)
        for m in self.masses:
            out = np.multiply.outer(out, np.asarray(m)).ravel()
        return out


@dataclass
class WorstCaseSolution:
    table: TablePrior
    objective: float
    duality_gap: float
    iterations: int
    feasibility_residual: float


def build_polytope(marginal_tables, k: int) -> KwisePolytope:
    """marginal_tables: per bidder (support values, masses).  Zero-mass
    points are dropped; single-point bidders are conditioned out of the LP
    entirely and reattached to solutions afterwards."""
    n_all = len(marginal_tables)
    if not 1 <= k <= n_all:
        raise DomainError(f"need 1 <= k <= {n_all}")
    supports, masses, order, fixed = [], [], [], {}
    for i, (vals, ms) in enumerate(marginal_tables):
        vals = [float(v) for v in vals]
        ms = [float(m) for m in ms]
        if abs(sum(ms) - 1.0) > 1e-9:
            raise DomainError(f"bidder {i} masses sum to {sum(ms)}")
        keep = [(v, m) for v, m in zip(vals, ms) if m > 0]
        if len(keep) == 1:
            fixed[i] = keep[0][0]
            continue
        supports.append([v for v, _ in keep])
        masses.append(np.array([m for _, m in keep]))
        order.append(i)
    n = len(supports)
    shape = tuple(len(s) for s in supports)
    n_cells = int(np.prod(shape)) if n else 1
    if n_cells > CELL_CAP:
        raise DomainError(f"{n_cells} cells exceeds the cap {CELL_CAP}")

    rows, rhs = [], []
    k_eff = min(k, n) if n else 0
    for size in range(1, k_eff + 1):
        for subset in itertools.combinations(range(n), size):
            for combo in itertools.product(*[range(shape[i]) for i in subset]):
                mask = np.ones(shape, dtype=bool)
                for i, ci in zip(subset, combo):
                    sel = np.zeros(shape[i], dtype=bool)
                    sel[ci] = True
                    expand = [1] * n
                    expand[i] = shape[i]
                    mask &= sel.reshape(expand)
                rows.append(mask.ravel().astype(float))
                rhs.append(float(np.prod([masses[i][ci] for i, ci in zip(subset, combo)])))
    if not rows:  # all bidders degenerate
        rows = [np.ones(1)]
        rhs = [1.0]
    A = np.array(rows)
    b = np.array(rhs)
    # always pin total mass (implied by any |S|=1 family, but keep explicit
    # so rank reduction has an anchor even in corner cases)
    A = np.vstack([np.ones((1, A.shape[1])), A])
    b = np.concatenate([[1.0], b])

    # rank-reduce rows: QR with column pivoting on A^T picks independent rows
    q, r, piv = scipy.linalg.qr(A.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int((diag > diag[0] * 1e-12).sum()) if diag.size else 0
    sel = np.sort(piv[:rank])
    return KwisePolytope(supports, masses, k, A, b, A[sel], b[sel], fixed, order)


def _solve(poly: KwisePolytope, c) -> WorstCaseSolution:
    # HiGHS may break x >= 0 by its primal feasibility tolerance; keep that
    # below FEAS_TOL, since the table written is x clipped at 0
    res = linprog(
        c,
        A_eq=poly.A_red,
        b_eq=poly.b_red,
        bounds=(0.0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise RuntimeError(f"LP failed: {res.message}")
    x = res.x
    obj = float(c @ x)
    # duality certificate: eqlin marginals are the equality duals y; weak
    # duality gives obj >= b.y with reduced costs c - A^T y >= 0
    y = np.asarray(res.eqlin.marginals, dtype=float)
    dual_obj = float(poly.b_red @ y)
    gap = abs(obj - dual_obj)
    if gap > GAP_TOL * max(1.0, abs(obj)):
        raise RuntimeError(f"duality gap {gap} exceeds tolerance")
    pmf = np.maximum(x, 0.0)
    pmf /= pmf.sum()
    resid = float(np.max(np.abs(poly.A @ pmf - poly.b)))
    if resid > FEAS_TOL:
        raise RuntimeError(f"table violates constraints, residual {resid}")
    table = TablePrior(poly.full_supports, pmf)
    nit = int(getattr(res, "nit", 0))
    return WorstCaseSolution(table, obj, gap, nit, resid)


def minimize_revenue(poly: KwisePolytope, mech: Mechanism) -> WorstCaseSolution:
    return _solve(poly, mechanism_payments(mech, cell_values(poly.full_supports)))


def minimize_event_prob(poly: KwisePolytope, tau: float, count_at_least: int) -> WorstCaseSolution:
    if count_at_least not in (1, 2):
        raise DomainError("count_at_least must be 1 or 2")
    V = cell_values(poly.full_supports)
    return _solve(poly, ((V >= tau).sum(axis=1) >= count_at_least).astype(float))
