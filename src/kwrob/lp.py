"""Worst-case prior search by linear programming.

The feasible set is the polytope of joint pmfs on a finite product support
whose every subset of at most k coordinates has product-form marginals
(k-wise independence with the given per-bidder masses).  Minimising a
mechanism's expected payment, or the probability of a threshold event, over
that polytope gives exact worst-case instances with a duality certificate.

The constraints are sparse rows Pr[x_S = c] = prod masses for |S| <= k.  The
solver gets their closed-form basis, the rows whose c avoids each bidder's
last support point (rank 1 + sum_{1<=|S|<=k} prod_{i in S} (m_i - 1)); the
others follow by inclusion-exclusion, and all re-check the written table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.optimize import linprog

from .marginals import DomainError
from .mechanisms import Mechanism, mechanism_payments
from .priors import CELL_CAP, TablePrior, cell_values

FEAS_TOL = 1e-9
GAP_TOL = 1e-7


@dataclass
class KwisePolytope:
    supports: list  # active (non-degenerate) bidders only
    masses: list
    k: int
    A: scipy.sparse.csr_array  # full constraint family, A p = b
    b: np.ndarray
    A_red: scipy.sparse.csr_array  # its basis, the rows handed to the solver
    b_red: np.ndarray
    fixed: dict  # bidder index -> fixed value (conditioned out)
    order: list  # original indices of the active bidders

    @property
    def n_cells(self):
        return math.prod(len(s) for s in self.supports)

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
    shape = tuple(len(s) for s in supports)
    if math.prod(shape) > CELL_CAP:
        raise DomainError(f"{math.prod(shape)} cells exceeds the cap {CELL_CAP}")
    A, b = _rows(shape, masses, k, drop=0)
    A_red, b_red = _rows(shape, masses, k, drop=1)
    return KwisePolytope(supports, masses, k, A, b, A_red, b_red, fixed, order)


def _rows(shape, masses, k, drop):
    """Rows Pr[x_S = c] = prod_{i in S} masses[i][c_i] over the C-order cells
    of `shape`, for S the empty set (total mass) and then every subset with
    |S| <= k, each block in C order over the c with c_i < shape[i] - drop.
    drop = 0 gives the full family; drop = 1 gives a basis of it."""
    n, n_cells = len(shape), math.prod(shape)
    cells = np.indices(shape).reshape(n, n_cells)
    rows, cols, rhs = [np.zeros(n_cells, dtype=np.int64)], [np.arange(n_cells)], [np.ones(1)]
    n_rows = 1
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(n), size):
            dims = tuple(shape[i] - drop for i in subset)
            coords = cells[list(subset)]
            keep = np.flatnonzero((coords < np.array(dims)[:, None]).all(axis=0))
            rows.append(n_rows + np.ravel_multi_index(coords[:, keep], dims))
            cols.append(keep)
            block = np.ones(1)
            for i, d in zip(subset, dims):
                block = np.multiply.outer(block, masses[i][:d]).ravel()
            rhs.append(block)
            n_rows += block.size
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    A = scipy.sparse.csr_array((np.ones(rows.size), (rows, cols)), shape=(n_rows, n_cells))
    return A, np.concatenate(rhs)


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
