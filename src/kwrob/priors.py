"""Joint priors over bidder values.

Two representations:

* MixturePrior      - a finite mixture of branches; within a branch the
                      per-bidder components are independent.  A branch lists
                      one component per bidder and may add a random-index
                      slot: a per-bidder `chosen` tuple whose non-None
                      entries are the members.  One member, drawn uniformly,
                      takes its chosen component; the others keep their
                      listed (unchosen) one.  That is how the adversarial
                      pairwise-independent constructions are encoded without
                      expanding n sub-branches.  ProductPrior, mutually
                      independent marginals, is the one-branch mixture of
                      unconditioned marginals.
* TablePrior        - explicit finite-support joint pmf.

A branch component is one of two kinds: FixedValue, a point mass, or
Conditioned, a bidder's marginal conditioned on lo <= v < hi with either
side open (the constructions condition on v < 1, v < n^2 + eps and
v >= (n-1)/n).

Everything needed downstream (threshold probabilities, discretization,
independence checks, sampling) is computed branch-wise in closed form; no
construction is ever verified by sampling.  A branch with a slot is a
mixture of product-form parts, one per chosen member; _branch_parts is the
one place that expands them, merging the parts a quantity cannot tell
apart: per exchangeability class for threshold_probs, which reads all
bidders symmetrically, and the slot members outside the bidders a subset
joint reads.  _kept_cells is the one cell table: it groups the bidders once
by (exchangeability class, grid), checks and cuts each group's grid, and
computes each group's plain and chosen cell masses per branch and its
marginal, shared by every member.  A subset's joint (_joint) sums outer
products of those masses over the parts, a bidder's marginal is its joint
on {i}, discretize is the joint of all bidders, and the exact Myerson
sweep (revenue._myerson_branch_revenue) reads each group once and folds
the slot members into one pass per branch.  verify_kwise runs one
comparison loop, joint against the product of marginals per subset, for
tables and mixtures alike; on a mixture it checks one representative
subset per combination of groups.

Sampling is one generator, _draws: it yields a group of rows (on the
constructions, every row of a block), then each bidder's column on them,
drawn as it is read, so the Monte Carlo sweep (revenue.revenue_mc) prices
a block without a matrix of samples, and `sample` writes the same columns
into one.  It draws the chosen member directly, and draws its chosen
component only for the rows that picked it: a branch's slot rows are
grouped by member once (a stable radix sort of the pick), so each
member's rows are one slice.  Each draw is transformed in place (u -> 1 -
u -> the conditioned quantile -> the marginal's in-place inverse) in one
array per branch.  `sample` returns
the transpose of a bidder-major (n, rows) buffer, so every bidder's column
is contiguous; table priors come back in the same layout.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .marginals import (
    DiscretePMF,
    DomainError,
    EqualRevenue,
    Marginal,
    ShiftedEqualRevenue,
    Uniform,
    _probabilities,
)

CELL_CAP = 100_000
KWISE_TOL = 1e-10


# ---------------------------------------------------------------------------
# Branch components


@dataclass(frozen=True)
class Conditioned:
    """Marginal conditioned on lo <= v < hi: the atom at lo included, the
    atom at hi excluded, None for an open side.  An open lo reads as
    q_lo = 1 and an open hi as q_hi = 0, so the unconditioned marginal
    reproduces its own quantile_q, atom_mass and draws bit for bit."""

    marginal: Marginal
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self._q_lo - self._q_hi <= 0.0:
            raise DomainError(f"conditioning event {self.lo} <= v < {self.hi} has zero probability")

    @cached_property
    def _q_lo(self):
        return 1.0 if self.lo is None else self.marginal.quantile_q(self.lo)

    @cached_property
    def _q_hi(self):
        return 0.0 if self.hi is None else self.marginal.quantile_q(self.hi)

    def quantile_q(self, tau):
        if self.lo is not None and tau <= self.lo:
            return 1.0
        if self.hi is not None and tau > self.hi:
            return 0.0
        return (self.marginal.quantile_q(tau) - self._q_hi) / (self._q_lo - self._q_hi)

    def atom_mass(self, x):
        if (self.lo is not None and x < self.lo) or (self.hi is not None and x >= self.hi):
            return 0.0
        return self.marginal.atom_mass(x) / (self._q_lo - self._q_hi)

    @property
    def support(self):
        lo, hi = self.marginal.support
        return (lo if self.lo is None else max(lo, self.lo), hi if self.hi is None else min(hi, self.hi))

    def cutoffs(self):
        return [c for c in (self.lo, self.hi) if c is not None]

    def sample(self, rng, size, out=None):
        """size draws, written into out (a contiguous float array of that
        length) when given: q_inverse of q_hi + u (q_lo - q_hi), u uniform
        on (0, 1], each step in place."""
        u = rng.random(size, out=out)
        np.subtract(1.0, u, out=u)  # in (0, 1]
        u *= self._q_lo - self._q_hi
        u += self._q_hi
        return self.marginal._q_inverse_inplace(_probabilities(u))


@dataclass(frozen=True)
class FixedValue:
    value: float

    def quantile_q(self, tau):
        return 1.0 if tau <= self.value else 0.0

    def atom_mass(self, x):
        return 1.0 if x == self.value else 0.0

    @property
    def support(self):
        return (self.value, self.value)

    def cutoffs(self):
        return [self.value]

    def sample(self, rng, size, out=None):
        out = np.empty(size) if out is None else out
        out.fill(self.value)
        return out


@dataclass(frozen=True)
class Branch:
    """Per bidder i, components[i] is its plain component, or its unchosen
    one when i is a slot member.  A slot ("pick one member uniformly at
    random, give it its chosen component") is given by `chosen`, a
    per-bidder tuple whose non-None entries mark the members and hold their
    chosen components."""

    weight: float
    components: tuple
    chosen: tuple | None = None

    def __post_init__(self):
        if any(comp is None for comp in self.components):
            raise DomainError("every bidder needs a component")
        if self.chosen is not None and len(self.chosen) != len(self.components):
            raise DomainError("chosen needs one entry per bidder")

    @cached_property
    def members(self):
        """The slot members, ascending; empty without a slot."""
        return tuple(i for i, c in enumerate(self.chosen or ()) if c is not None)

    def component_pair(self, i):
        """(plain_or_unchosen, chosen_or_None) component for bidder i."""
        return self.components[i], None if self.chosen is None else self.chosen[i]


# ---------------------------------------------------------------------------
# Priors


@dataclass(frozen=True)
class MixturePrior:
    marginals: tuple
    branches: tuple

    def __init__(self, marginals, branches):
        marginals = tuple(marginals)
        branches = tuple(branches)
        if not all(0.0 <= b.weight < math.inf for b in branches):
            raise DomainError("branch weights must be finite and nonnegative")
        total = sum(b.weight for b in branches)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"branch weights sum to {total}, not 1")
        for b in branches:
            if len(b.components) != len(marginals):
                raise DomainError("each branch needs one component per bidder")
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "branches", branches)

    @property
    def n_bidders(self):
        return len(self.marginals)

    @cached_property
    def _class_of(self):
        """Per bidder, the index of its exchangeability class: bidders with
        the same marginal and the same (plain, chosen) components in every
        branch can be swapped without changing the prior.  Bidders are
        grouped first by the ids of those objects, which the constructions
        share, then the groups by value, one representative each; classes
        are numbered by their first bidder."""
        columns = [self.marginals] + [c for b in self.branches for c in (b.components, b.chosen) if c is not None]
        keys = list(zip(*[map(id, column) for column in columns]))
        first = {}
        for i, key in enumerate(keys):
            first.setdefault(key, i)
        ids = {}
        of_group = {
            key: ids.setdefault((self.marginals[i],) + tuple(b.component_pair(i) for b in self.branches), len(ids))
            for key, i in first.items()
        }
        return tuple(of_group[key] for key in keys)


class ProductPrior(MixturePrior):
    """Mutually independent marginals: the one-branch mixture whose every
    bidder draws from its unconditioned marginal."""

    def __init__(self, marginals):
        if len(marginals) < 1:
            raise DomainError("need at least one marginal")
        # one component per distinct marginal, shared as in the constructions;
        # bidders with one marginal are one exchangeability class, so
        # _kept_cells computes their cells once per (class, grid) group
        comp = {m: Conditioned(m) for m in set(marginals)}
        super().__init__(marginals, (Branch(1.0, tuple(comp[m] for m in marginals)),))


def cell_values(supports) -> np.ndarray:
    """(cells x bidders) matrix of the values of every cell of a product
    support, cells in C order (the last bidder varies fastest), the order
    of a table's flattened pmf."""
    axes = np.meshgrid(*[np.asarray(s, dtype=float) for s in supports], indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


class TablePrior:
    """Explicit joint pmf on a finite product support."""

    def __init__(self, supports, pmf):
        self.supports = tuple(tuple(float(v) for v in s) for s in supports)
        pmf = np.asarray(pmf, dtype=float)
        shape = tuple(len(s) for s in self.supports)
        if pmf.shape != shape:
            pmf = pmf.reshape(shape)
        if pmf.size > CELL_CAP:
            raise DomainError(f"table has {pmf.size} cells, cap is {CELL_CAP}")
        if not (np.isfinite(pmf).all() and all(map(math.isfinite, itertools.chain(*self.supports)))):
            raise DomainError("supports and pmf must be finite")
        if np.any(pmf < -1e-15):
            raise DomainError("pmf must be nonnegative")
        if abs(float(pmf.sum()) - 1.0) > 1e-12:
            raise DomainError(f"pmf sums to {pmf.sum()}, not 1")
        # entries down to -1e-15 pass as rounding error; stored as 0, so
        # sampling and every sum see a true pmf
        self.pmf = np.maximum(pmf, 0.0)
        for s in self.supports:
            if any(b <= a for a, b in zip(s, s[1:])):
                raise DomainError("supports must be strictly ascending")

    @property
    def n_bidders(self):
        return len(self.supports)

    def marginal_masses(self, i):
        axes = tuple(j for j in range(self.n_bidders) if j != i)
        return self.pmf.sum(axis=axes)

    def to_marginals(self):
        """Per-bidder DiscretePMF of the table's own marginals."""
        out = []
        for i in range(self.n_bidders):
            masses = self.marginal_masses(i)
            keep = masses > 0
            pts = [v for v, k in zip(self.supports[i], keep) if k]
            ms = masses[keep]
            out.append(DiscretePMF(pts, (ms / ms.sum()).tolist()))
        return out


JointPrior = MixturePrior | TablePrior


# ---------------------------------------------------------------------------
# Product-form parts of a branch


def _branch_parts(mix: MixturePrior, branch: Branch, bidders=None):
    """The branch as a mixture of product-form parts: yields (share, chosen
    slot member or None), where the chosen member gets its chosen component
    and every other bidder its plain (or unchosen) one.  A branch without a
    slot is one part; a slot gives one part per member with share 1/k.
    Parts the caller cannot tell apart are merged into one carrying their
    summed share.  With no `bidders` the quantity must be symmetric in the
    bidders, and the parts of one exchangeability class's members merge;
    when it reads only `bidders`, the parts of the slot members outside
    them merge into one part with no chosen member."""
    if not branch.members:
        yield 1.0, None
        return
    groups = {}
    for m in branch.members:
        if bidders is None:
            key = mix._class_of[m]
        else:
            key = m if m in bidders else None
        groups.setdefault(key, []).append(m)
    for key, group in groups.items():
        yield len(group) / len(branch.members), None if key is None else group[0]


def _joint(mix: MixturePrior, masses, bidders):
    """Joint masses of the bidders' cells, one axis per bidder in the given
    order, from the per-branch cell masses of _kept_cells: each branch part
    contributes the outer product of the bidders' masses under it."""
    joint = np.zeros(tuple(len(masses[0][i][0]) for i in bidders))
    for branch, bm in zip(mix.branches, masses):
        for share, chosen in _branch_parts(mix, branch, bidders=bidders):
            vecs = [bm[i][1] if i == chosen else bm[i][0] for i in bidders]
            joint += branch.weight * share * functools.reduce(np.multiply.outer, vecs)
    return joint


# ---------------------------------------------------------------------------
# Adversarial constructions


def myerson_counterexample(n: int, eps: float) -> MixturePrior:
    """Pairwise-independent prior on n+1 bidders under which the optimal
    (virtual-value-maximising) mechanism collapses to O(1) revenue while the
    product prior with the same marginals yields Omega(n).

    Marginals: bidders 0..n-1 equal-revenue on [1/n, 1]; bidder n a
    shifted equal-revenue on [n + eps, n^2 + eps].
    """
    if n < 2:
        raise DomainError("need n >= 2")
    if eps <= 0:
        raise DomainError("need eps > 0")
    small = EqualRevenue(1.0 / n, 1.0)
    big = ShiftedEqualRevenue(float(n), float(n * n), eps)
    marginals = tuple([small] * n + [big])
    top = n * n + eps
    below_one = Conditioned(small, hi=1.0)

    b1 = Branch(
        1.0 / n**2,
        tuple([FixedValue(1.0)] * n + [FixedValue(top)]),
    )
    b2 = Branch(
        1.0 / n - 1.0 / n**2,
        tuple([below_one] * n + [FixedValue(top)]),
    )
    b3 = Branch(
        1.0 - 1.0 / n,
        tuple([below_one] * n + [Conditioned(big, hi=top)]),
        chosen=tuple([FixedValue(1.0)] * n + [None]),
    )
    return MixturePrior(marginals, (b1, b2, b3))


def uniform_q2_counterexample(n: int) -> MixturePrior:
    """Pairwise-independent prior on n+1 Uniform[0,1] bidders whose
    probability of two bidders clearing (n-1)/n is 1/n^2, versus a constant
    under the product prior."""
    if n < 2:
        raise DomainError("need n >= 2")
    uni = Uniform(0.0, 1.0)
    cut = (n - 1.0) / n
    marginals = tuple([uni] * (n + 1))
    high = Conditioned(uni, lo=cut)
    low = Conditioned(uni, hi=cut)

    b1 = Branch(1.0 / n**2, tuple([high] * (n + 1)))
    b2 = Branch(1.0 - 1.0 / n**2, tuple([low] * (n + 1)), chosen=tuple([high] * (n + 1)))
    return MixturePrior(marginals, (b1, b2))


# ---------------------------------------------------------------------------
# Sampling


def sample(prior: JointPrior, seed, size=None) -> np.ndarray:
    """Draw from the prior; deterministic for a fixed seed.  Returns an
    (size, n) matrix, or a single length-n vector when size is None.

    The draws are `_draws`'s, written into a bidder-major (n, size)
    buffer whose transpose is returned, so each bidder's column is
    contiguous (Fortran order) and the mechanism sweeps read it without a
    copy."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    m = 1 if size is None else int(size)
    out = np.empty((prior.n_bidders, m))
    for rows, columns in _draws(prior, rng, m):
        for i, v in enumerate(columns):
            out[i, rows] = v
    return out[:, 0] if size is None else out.T


def _draws(prior: JointPrior, rng, m):
    """m rows of draws from the prior, as (rows, columns) groups: rows the
    group's row indices (ascending within each branch), columns a
    generator of each bidder's values on them, in bidder order.  The draws
    are made as the columns are read, so read each group's columns to the
    end, and each column before the next: a group draws every bidder into
    one array it reuses.

    A table draws a cell per row, one group of every row.  A mixture draws
    its branch per row (skipped when there is one branch, so a ProductPrior
    gets one draw per marginal in bidder order), then the branches that
    hold rows, in order, each by `_branch_columns`.  The branches other
    than the one with the most rows, few rows on the constructions, are
    drawn into one (n, rows) buffer in their turn.  Those before the
    largest lead each of its columns, so they and the largest branch are
    one group, drawn as its columns are read; those after it come last as
    a group of their own.  A sweep over the groups so pays its per-column
    cost once per block when the largest branch is the last that holds
    rows, as on the constructions, and twice otherwise, not once per
    branch."""
    if isinstance(prior, TablePrior):
        flat = prior.pmf.ravel()
        idx = rng.choice(flat.size, size=m, p=flat / flat.sum())
        cells = np.unravel_index(idx, prior.pmf.shape)
        yield np.arange(m), (np.asarray(s)[j] for s, j in zip(prior.supports, cells))
        return
    if len(prior.branches) == 1:
        branch_rows = [np.arange(m)]
    else:
        weights = np.array([b.weight for b in prior.branches])
        branch_idx = rng.choice(len(weights), size=m, p=weights / weights.sum())
        branch_rows = [np.flatnonzero(branch_idx == bi) for bi in range(len(weights))]
    big = max(range(len(branch_rows)), key=lambda k: branch_rows[k].size)
    others = np.empty((prior.n_bidders, m - branch_rows[big].size))
    at = 0
    for k, (branch, rows) in enumerate(zip(prior.branches, branch_rows)):
        if k == big:
            head = at
            if rows.size:
                yield np.concatenate(branch_rows[: k + 1]), _branch_columns(branch, rng, rows.size, others[:, :head])
        elif rows.size:
            for i, v in enumerate(_branch_columns(branch, rng, rows.size)):
                others[i, at : at + rows.size] = v
            at += rows.size
    if at > head:
        yield np.concatenate(branch_rows[big + 1 :]), iter(others[:, head:])


def _branch_columns(branch: Branch, rng, size, head=None):
    """Each bidder's values on `size` rows of the branch, in bidder order,
    every one drawn into the same array, behind the bidder's row of `head`
    when given (an (n, h) array whose rows lead the columns): first the
    slot pick, then per bidder one draw of its plain component for all the
    rows and one of its chosen component for the rows that picked it."""
    h = 0 if head is None else head.shape[1]
    slot = _slot_rows(branch.members, size, rng) if branch.members else {}
    col = np.empty(h + size)
    drawn = col[h:]
    for i in range(len(branch.components)):
        plain, chosen = branch.component_pair(i)
        if h:
            col[:h] = head[i]
        plain.sample(rng, size, out=drawn)
        if chosen is not None and slot[i].size:
            drawn[slot[i]] = chosen.sample(rng, slot[i].size)
        yield col


def _slot_rows(members, size, rng):
    """Per slot member, the ascending positions, among a branch's `size`
    rows, that picked it: one uniform pick per row, grouped by a stable
    sort, so each member's positions equal flatnonzero(pick == member)."""
    pick = rng.integers(0, len(members), size=size)
    # the smallest integer dtype lets numpy sort by radix
    order = np.argsort(pick.astype(np.min_scalar_type(len(members) - 1)), kind="stable")
    ends = np.cumsum(np.bincount(pick, minlength=len(members)))
    return dict(zip(members, np.split(order, ends[:-1])))


# ---------------------------------------------------------------------------
# Grids and discretization


def _bidder_components(prior: MixturePrior, i):
    comps = []
    for b in prior.branches:
        plain, chosen = b.component_pair(i)
        comps.append(plain)
        if chosen is not None:
            comps.append(chosen)
    return comps


def natural_grids(prior: JointPrior):
    """Per-bidder grid boundaries: support endpoints, every marginal atom,
    and every branch cutoff / fixed value.  Exact discretization of the
    shipped constructions needs nothing finer."""
    if isinstance(prior, TablePrior):
        return [sorted(s) for s in prior.supports]
    grids, of_class = [], {}
    for i, mg in enumerate(prior.marginals):
        # class members share their marginal and components, hence their grid
        c = prior._class_of[i]
        if c not in of_class:
            lo, hi = mg.support
            pts = {lo, hi, *mg.atoms()}
            for comp in _bidder_components(prior, i):
                pts.update(comp.cutoffs())
            of_class[c] = sorted(pts)
        grids.append(list(of_class[c]))
    return grids


def _check_grid(mix: MixturePrior, i, grid):
    """Raise DomainError if bidder i's grid misses its support, an atom or
    a cutoff."""
    g = set(grid)
    lo, hi = mix.marginals[i].support
    if min(g) > lo or max(g) < hi:
        raise DomainError(f"grid for bidder {i} does not cover the support")
    for a in mix.marginals[i].atoms():
        if a not in g:
            raise DomainError(f"grid for bidder {i} misses atom at {a}")
    for comp in _bidder_components(mix, i):
        for c in comp.cutoffs():
            if c not in g:
                raise DomainError(f"grid for bidder {i} misses cutoff {c}")


def _kept_cells(mix: MixturePrior, grids=None):
    """The cell table of a mixture on the grids (natural_grids when None).

    Bidders are grouped once by (exchangeability class, grid), in order of
    each group's first member.  Members of a group share their marginal,
    their components in every branch and their grid, so the first member
    stands for the group: its grid is checked (_check_grid, so an error
    names the first bad bidder) and cut into half-open cells [b_j, b_{j+1})
    plus a singleton at the top boundary, and per branch its (plain,
    chosen) cell masses come from quantile_q/atom_mass, chosen None off the
    slot.  A cell is kept when its mixture-marginal mass, the joint on
    {i}, is above 1e-15.

    Returns the groups; per bidder the kept cells' representatives (lower
    endpoints) and marginal masses; and per branch, per bidder, the kept
    cells' (plain, chosen) masses.  A group's members share one set of
    arrays."""
    if grids is None:
        grids = natural_grids(mix)
    by_key = {}
    for i in range(mix.n_bidders):
        by_key.setdefault((mix._class_of[i], tuple(grids[i])), []).append(i)
    groups = list(by_key.values())
    supports, marginals = [None] * mix.n_bidders, [None] * mix.n_bidders
    masses = [[None] * mix.n_bidders for _ in mix.branches]

    for group in groups:
        i, grid = group[0], grids[group[0]]
        _check_grid(mix, i, grid)
        # (lo, hi, singleton): the half-open [lo, hi), or the atom at lo
        cells = [(a, b, False) for a, b in zip(grid, grid[1:])] + [(grid[-1], grid[-1], True)]
        for branch, bm in zip(mix.branches, masses):
            bm[i] = tuple(
                None
                if comp is None
                else np.array(
                    [
                        comp.atom_mass(lo) if single else comp.quantile_q(lo) - comp.quantile_q(hi)
                        for lo, hi, single in cells
                    ]
                )
                for comp in branch.component_pair(i)
            )
        marginal = _joint(mix, masses, (i,))
        keep = marginal > 1e-15
        kept = (tuple(c[0] for c, k in zip(cells, keep) if k), marginal[keep])
        for bm in masses:
            pair = tuple(m if m is None else m[keep] for m in bm[i])
            for j in group:
                bm[j] = pair
        for j in group:
            supports[j], marginals[j] = kept
    return groups, supports, marginals, masses


def discretize(prior: JointPrior, grids=None) -> TablePrior:
    """Exact finite table of the prior on the given grids (closed-form cell
    masses per branch, no sampling): the joint of all bidders on the cells
    of positive marginal mass.  The cell representative is the cell's lower
    endpoint; the top grid boundary becomes a singleton cell so atoms stay
    separated."""
    if isinstance(prior, TablePrior):
        return prior
    _, supports, _, masses = _kept_cells(prior, grids)
    size = math.prod(len(s) for s in supports)
    if size > CELL_CAP:
        raise DomainError(f"discretization would need {size} cells")
    return TablePrior(supports, _joint(prior, masses, tuple(range(prior.n_bidders))))


# ---------------------------------------------------------------------------
# Threshold probabilities


def q1q2_from_qvec(qs) -> tuple:
    """(Pr[at least one above], Pr[at least two above]) for independent
    events with probabilities qs, to full relative precision in the tails.
    A matrix of qs reads one event vector per row and gives one (Q1, Q2)
    entry per row; a vector gives floats.

    Q1 = 1 - prod(1 - q_i) comes from expm1 of the summed log1p(-q_i); Q2
    sums, over the last event i that occurs, q_i * Pr[one of j < i occurs]
    * prod_{j > i}(1 - q_j).  Every term is nonnegative, and a certain
    event (q = 1) gives log1p(-1) = -inf and a factor exactly 0."""
    # rows contiguous, so each row's sums run as a vector's do (pairwise)
    q = np.clip(np.ascontiguousarray(qs, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        logs = np.log1p(-q)
    edge = np.zeros(q.shape[:-1] + (1,))
    any_before = 0.0 - np.expm1(np.concatenate((edge, np.cumsum(logs[..., :-1], axis=-1)), axis=-1))
    none_after = np.concatenate((np.cumprod((1.0 - q)[..., :0:-1], axis=-1)[..., ::-1], edge + 1.0), axis=-1)
    q1 = 0.0 - np.expm1(logs.sum(axis=-1))
    q2 = np.sum(q * any_before * none_after, axis=-1)
    return (float(q1), float(q2)) if q.ndim == 1 else (q1, q2)


def threshold_probs(prior: JointPrior, tau) -> tuple:
    """Exact (Q1, Q2) = Pr[>=1 value >= tau], Pr[>=2 values >= tau].

    tau is a float, giving floats, or an array of floats, giving two arrays
    of tau's shape whose entries equal the scalar calls bit for bit.  An
    array is evaluated in one pass: the table's cell values, a branch's
    parts, its class representatives and a part's chosen column are found
    once for all tau, and each part's (tau x bidders) q matrix is reduced
    by one q1q2_from_qvec call.  A NaN anywhere in tau raises DomainError."""
    taus = np.asarray(tau, dtype=float)
    if np.isnan(taus).any():
        raise DomainError("tau must not be NaN")
    ts = taus.ravel().tolist()
    if isinstance(prior, TablePrior):
        values, flat = cell_values(prior.supports), prior.pmf.ravel()
        counts = [(values >= t).sum(axis=1) for t in ts]
        q1 = np.array([flat[c >= 1].sum() for c in counts])
        q2 = np.array([flat[c >= 2].sum() for c in counts])
    else:
        # one quantile_q per exchangeability class, gathered in bidder order:
        # a class's members share their components in every branch
        classes = np.asarray(prior._class_of)
        reps = np.unique(classes, return_index=True)[1]
        q1, q2 = np.zeros(len(ts)), np.zeros(len(ts))
        for branch in prior.branches:
            comps = [branch.components[r] for r in reps]
            q_plain = np.array([[c.quantile_q(t) for c in comps] for t in ts]).reshape(len(ts), len(comps))[:, classes]
            for share, chosen in _branch_parts(prior, branch):
                qs = q_plain
                if chosen is not None:
                    qs = q_plain.copy()
                    qs[:, chosen] = [branch.chosen[chosen].quantile_q(t) for t in ts]
                t1, t2 = q1q2_from_qvec(qs)
                q1 += branch.weight * share * t1
                q2 += branch.weight * share * t2
    if taus.ndim == 0:
        return float(q1[0]), float(q2[0])
    return q1.reshape(taus.shape), q2.reshape(taus.shape)


# ---------------------------------------------------------------------------
# k-wise independence verification


@dataclass
class KwiseViolation:
    bidders: tuple
    cells: tuple  # cell representative values
    joint: float
    product: float
    deviation: float


@dataclass
class KwiseReport:
    k: int
    max_deviation: float
    passed: bool
    violations: list
    n_checked: int
    tolerance: float = KWISE_TOL


_MAX_RECORDED = 50


def verify_kwise(prior: JointPrior, k: int, grids=None) -> KwiseReport:
    """Check |Pr_joint - prod Pr_marginal| over every bidder subset of size
    <= k and every grid-cell combination.

    One loop compares, per checked subset, its joint cell masses with the
    outer product of its marginals.  A table checks every subset.  A
    mixture checks one representative subset per combination of the
    (exchangeability class, grid) groups of _kept_cells, counted once per
    subset it stands for, so the check is exhaustive over subsets while the
    work is exhaustive only over groups; the shipped constructions on their
    natural grids have two groups regardless of n.  Subsets of one size are
    checked in lexicographic order.
    """
    n = prior.n_bidders
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= {n}, got k={k}")
    if isinstance(prior, TablePrior):
        supports = prior.supports
        marginals = [prior.marginal_masses(i) for i in range(n)]
        sizes = range(1, k + 1)
        subsets = [(1, s) for size in sizes for s in itertools.combinations(range(n), size)]

        def joint_of(subset):
            return prior.pmf.sum(axis=tuple(j for j in range(n) if j not in subset))

    else:
        groups, supports, marginals, masses = _kept_cells(prior, grids)
        subsets = []
        for size in range(1, k + 1):
            level = []
            for combo in itertools.combinations_with_replacement(range(len(groups)), size):
                counts = {g: combo.count(g) for g in set(combo)}
                if all(cnt <= len(groups[g]) for g, cnt in counts.items()):
                    reps = tuple(sorted(i for g, cnt in counts.items() for i in groups[g][:cnt]))
                    multiplicity = math.prod(math.comb(len(groups[g]), cnt) for g, cnt in counts.items())
                    level.append((multiplicity, reps))
            subsets += sorted(level, key=lambda t: t[1])

        def joint_of(subset):
            return _joint(prior, masses, subset)

    max_dev = 0.0
    violations = []
    n_checked = 0
    for multiplicity, subset in subsets:
        joint = joint_of(subset)
        prod = functools.reduce(np.multiply.outer, [marginals[i] for i in subset])
        dev = np.abs(joint - prod)
        n_checked += multiplicity * dev.size
        max_dev = max(max_dev, float(dev.max()))
        for idx in zip(*np.nonzero(dev > KWISE_TOL)):
            if len(violations) >= _MAX_RECORDED:
                break
            violations.append(
                KwiseViolation(
                    subset,
                    tuple(supports[i][c] for i, c in zip(subset, idx)),
                    float(joint[idx]),
                    float(prod[idx]),
                    float(dev[idx]),
                )
            )
    return KwiseReport(k, max_dev, max_dev <= KWISE_TOL, violations, n_checked)
