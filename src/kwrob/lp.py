"""Worst-case prior search by linear programming.

The feasible set is the polytope of joint pmfs on a finite product support
whose every subset of at most k coordinates has product-form marginals
(k-wise independence with the given per-bidder masses).  Minimising a
mechanism's expected payment, or the probability of a threshold event, over
that polytope gives exact worst-case instances, each with a proven lower
bound on the optimum (`_certified_optimum`).

Every bidder is an axis of the cell grid, a bidder with one point an axis
of length 1.  The constraints are sparse rows Pr[x_S = c] = prod masses
for |S| <= k, defined once as a sequence of per-subset blocks (`_blocks`).
The solver gets their closed-form basis, the rows whose c avoids each
bidder's last support point (rank 1 + sum_{1<=|S|<=k} prod_{i in S}
(m_i - 1)), built from the blocks directly; the others follow by
inclusion-exclusion.  The written table is re-checked against every row,
one block at a time, so no command holds the full family:
`KwisePolytope.A` builds it only when read.

The minimisers solve the LP on a quotient.  With C the objective on the
cell grid, two points a, b of bidder i merge when C.take(a, axis=i) and
C.take(b, axis=i) are equal as floats; each class gets its points' summed
mass P_i, and the quotient polytope is the same row family on the classes.
This is exact for any k:
- projecting a fine k-wise table onto the classes gives a quotient table
  with the same objective, since C is constant on classes;
- a quotient table x-bar lifts to x(v) = x-bar(class(v)) prod_i p_i(v_i) /
  P_i(class(v_i)), refining each class independently and in proportion to
  the masses, which keeps every |S| <= k marginal in product form.
So the quotient's optimum is the fine LP's, and the lower bound proven on
the quotient bounds the fine LP too.  The lifted table is re-checked
against every fine row, the residual written.  This is the one solve path:
when nothing merges, the labels are each axis's own points and the solver
gets the fine LP bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .marginals import DomainError
from .mechanisms import Mechanism, mechanism_payments
from .priors import CELL_CAP, TablePrior, cell_values

FEAS_TOL = 1e-9
GAP_TOL = 1e-7


def __getattr__(name):
    # scipy is imported on the first LP solve, not with kwrob: it costs
    # about half a second, which commands that solve no LP need not pay.
    # The solver stays a module attribute, so it can be rebound.
    if name == "linprog":
        from scipy.optimize import linprog

        globals()["linprog"] = linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class KwisePolytope:
    supports: list  # per bidder, its positive-mass points
    masses: list
    k: int

    @property
    def shape(self):
        return tuple(len(s) for s in self.supports)

    @property
    def n_cells(self):
        return math.prod(self.shape)

    @functools.cached_property
    def _family(self):
        return _rows(self.shape, self.masses, self.k)

    @functools.cached_property
    def _solver_rows(self):
        return _basis(self.shape, self.masses, self.k)

    # each built on first access; a solve builds its quotient's basis instead
    A = property(lambda self: self._family[0], doc="The full constraint family, A p = b (CSR).")
    b = property(lambda self: self._family[1])
    A_red = property(lambda self: self._solver_rows[0], doc="Its basis, the solver's rows when no point merges (CSR).")
    b_red = property(lambda self: self._solver_rows[1])


@dataclass
class WorstCaseSolution:
    table: TablePrior
    objective: float
    duality_gap: float
    iterations: int
    feasibility_residual: float


def build_polytope(marginal_tables, k: int) -> KwisePolytope:
    """marginal_tables: per bidder (support values, masses).  Zero-mass
    points are dropped; a bidder left with one point is an axis of length 1,
    which no row but the total mass mentions (see `_blocks`)."""
    n = len(marginal_tables)
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= {n}")
    supports, masses = [], []
    for i, (vals, ms) in enumerate(marginal_tables):
        vals = [float(v) for v in vals]
        ms = [float(m) for m in ms]
        if not all(map(math.isfinite, vals + ms)):
            raise DomainError(f"bidder {i} values and masses must be finite")
        if abs(sum(ms) - 1.0) > 1e-9:
            raise DomainError(f"bidder {i} masses sum to {sum(ms)}")
        keep = [(v, m) for v, m in zip(vals, ms) if m > 0]
        supports.append([v for v, _ in keep])
        masses.append(np.array([m for _, m in keep]))
    poly = KwisePolytope(supports, masses, k)
    if poly.n_cells > CELL_CAP:
        raise DomainError(f"{poly.n_cells} cells exceeds the cap {CELL_CAP}")
    return poly


def _blocks(shape, masses, k):
    """The row family Pr[x_S = c] = prod_{i in S} masses[i][c_i] over the
    C-order cells of `shape`, one block per subset: S the empty set (total
    mass), then every S with 1 <= |S| <= k of axes longer than 1, in
    combinations order.  A subset holding a length-1 axis is left out: that
    axis's one point has all the mass, so its rows repeat those of S without
    it, and none is a basis row.  Yields (cells, rhs, basis) with a row per
    c in C order: cells[r] lists the cells of row r ascending, rhs[r] is its
    right-hand side, and basis[r] says whether c avoids each bidder's last
    point."""
    n_cells = math.prod(shape)
    grid = np.arange(n_cells).reshape(shape)
    yield grid.reshape(1, n_cells), np.ones(1), np.ones(1, dtype=bool)
    axes = [i for i, m in enumerate(shape) if m > 1]
    for size in range(1, k + 1):
        for subset in itertools.combinations(axes, size):
            # with S's axes moved to the front, the cells of each row x_S = c
            # are one ascending run of the C-order ravel: a CSR row as is
            rows = math.prod(shape[i] for i in subset)
            cells = np.moveaxis(grid, subset, range(size)).reshape(rows, n_cells // rows)
            rhs = functools.reduce(np.multiply.outer, [masses[i] for i in subset]).ravel()
            basis = functools.reduce(np.logical_and.outer, [np.arange(shape[i]) < shape[i] - 1 for i in subset])
            yield cells, rhs, basis.ravel()


def _csr(blocks, n_cells):
    """(A, b) stacking (cells, rhs) blocks: a CSR row of ones per row of cells."""
    import scipy.sparse

    cells, rhs = zip(*blocks)
    lengths = np.repeat([c.shape[1] for c in cells], [c.shape[0] for c in cells])
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    indices = np.concatenate([c.ravel() for c in cells])
    A = scipy.sparse.csr_array((np.ones(indices.size), indices, indptr), shape=(lengths.size, n_cells))
    return A, np.concatenate(rhs)


def _rows(shape, masses, k):
    """The full family of `_blocks` as (A, b)."""
    return _csr(((cells, rhs) for cells, rhs, _ in _blocks(shape, masses, k)), math.prod(shape))


def _basis(shape, masses, k):
    """The basis rows of `_blocks`, in order, as (A_red, b_red): the rows of
    `_rows` whose c avoids each bidder's last point, built without it."""
    blocks = _blocks(shape, masses, k)
    return _csr(((cells[keep], rhs[keep]) for cells, rhs, keep in blocks), math.prod(shape))


def _residual(shape, masses, k, pmf):
    """max |A pmf - b| over the full family of `_blocks`, one block at a
    time.  Each row sums its cells in order, as a CSR product does, so this
    is np.max(np.abs(A @ pmf - b)) bit for bit."""
    blocks = _blocks(shape, masses, k)
    worst = [np.max(np.abs(np.cumsum(pmf[cells], axis=1)[:, -1] - rhs)) for cells, rhs, _ in blocks]
    return float(np.max(worst))


def _certified_optimum(A_red, b_red, c):
    """Solve min c.x over A_red x = b_red, x >= 0; returns (x, objective,
    gap, iterations), gap the objective's distance from a proven lower bound.

    Every LP here ranges over probability tables: x >= 0, and the total-mass
    row, always the first basis row of `_blocks`, fixes sum x = 1.  So for
    any y, c.x = b.y + (c - A^T y).x >= b.y + min(0, min_j (c - A^T y)_j)
    on every feasible x (Neumaier & Shcherbina, Math. Programming 99, 2004):
    no dual feasibility is needed, a wrong y only lowers the bound."""
    # HiGHS may break x >= 0 by its primal feasibility tolerance; keep that
    # below FEAS_TOL, since the table written is x clipped at 0.  Presolve
    # is off: the rows are a full-rank basis with positive right-hand sides,
    # which it never reduces.  The solver is looked up on the module, where
    # __getattr__ imports it.
    res = sys.modules[__name__].linprog(
        c,
        A_eq=A_red,
        b_eq=b_red,
        bounds=(0.0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "presolve": False},
    )
    if not res.success:
        raise RuntimeError(f"LP failed: {res.message}")
    x = res.x
    obj = float(c @ x)
    y = np.asarray(res.eqlin.marginals, dtype=float)
    bound = float(b_red @ y) + min(0.0, float(np.min(c - A_red.T @ y)))
    gap = abs(obj - bound)
    if not gap <= GAP_TOL * max(1.0, abs(obj)):
        raise RuntimeError(f"objective {obj} is {gap} from its proven lower bound {bound}")
    return x, obj, gap, int(getattr(res, "nit", 0))


def _table(poly: KwisePolytope, x, obj, gap, nit) -> WorstCaseSolution:
    """The table written for solver output x on poly's cells: x clipped at 0
    and renormalised, re-checked against every row of the family."""
    pmf = np.maximum(x, 0.0)
    mass = pmf.sum()
    if not mass > 0:
        raise RuntimeError(f"solver table has total mass {mass}")
    pmf /= mass
    resid = _residual(poly.shape, poly.masses, poly.k, pmf)
    if not resid <= FEAS_TOL:
        raise RuntimeError(f"table violates constraints, residual {resid}")
    return WorstCaseSolution(TablePrior(poly.supports, pmf), obj, gap, nit, resid)


def _point_classes(C, axis):
    """Label each support point on `axis` by its class, in order of first
    appearance: two points share a class when their slices of C are equal
    as floats.  Adding 0.0 turns -0.0 into 0.0, so for finite C equal
    slices are exactly those with equal bytes."""
    rows = np.moveaxis(C, axis, 0).reshape(C.shape[axis], -1) + 0.0
    keys = {}
    return np.array([keys.setdefault(row.tobytes(), len(keys)) for row in rows])


def _solve(poly: KwisePolytope, c) -> WorstCaseSolution:
    """Minimise c.x over poly on the quotient that merges the support points
    c cannot tell apart, with its table lifted back to poly's cells.

    Each class gets its points' summed mass and each quotient cell the
    objective of its first point; quotient x-bar lifts to
    x(v) = x-bar(class(v)) prod_i p_i(v_i) / P_i(class(v_i)), and that table
    is re-checked against every row of poly's family.  When no points
    merge, the labels are arange, the masses and objective are copied and
    the lift multiplies by exactly 1.0: the fine LP, bit for bit."""
    shape = poly.shape
    C = np.asarray(c, dtype=float).reshape(shape)
    labels = [_point_classes(C, i) for i in range(len(shape))]
    qshape = tuple(int(lab.max()) + 1 for lab in labels)
    firsts = [np.unique(lab, return_index=True)[1] for lab in labels]
    qmasses = [np.bincount(lab, weights=m) for lab, m in zip(labels, poly.masses)]
    x, obj, gap, nit = _certified_optimum(*_basis(qshape, qmasses, poly.k), C[np.ix_(*firsts)].ravel())
    lifted = x.reshape(qshape)
    for i, (lab, m, qm) in enumerate(zip(labels, poly.masses, qmasses)):
        within = (m / qm[lab]).reshape([-1 if j == i else 1 for j in range(len(shape))])
        lifted = lifted.take(lab, axis=i) * within
    return _table(poly, lifted.ravel(), obj, gap, nit)


def minimize_revenue(poly: KwisePolytope, mech: Mechanism) -> WorstCaseSolution:
    return _solve(poly, mechanism_payments(mech, cell_values(poly.supports)))


def minimize_event_prob(poly: KwisePolytope, tau: float, count_at_least: int) -> WorstCaseSolution:
    if count_at_least not in (1, 2):
        raise DomainError("count_at_least must be 1 or 2")
    if math.isnan(tau):
        raise DomainError("tau must not be NaN")
    V = cell_values(poly.supports)
    return _solve(poly, ((V >= tau).sum(axis=1) >= count_at_least).astype(float))
