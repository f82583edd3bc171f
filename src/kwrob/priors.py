"""Joint priors over bidder values.

Three representations:

* ProductPrior      - mutually independent marginals.
* MixturePrior      - a finite mixture of branches; within a branch the
                      per-bidder components are independent.  A branch may
                      carry a RandomIndexSlot ("pick one bidder uniformly at
                      random, give it the chosen component, everyone else in
                      the slot the unchosen one"), which is how the
                      adversarial pairwise-independent constructions are
                      encoded without expanding n sub-branches.
* TablePrior        - explicit finite-support joint pmf.

Everything needed downstream (threshold probabilities, discretization,
independence checks, sampling) is computed branch-wise in closed form; no
construction is ever verified by sampling.  A branch with a slot is a
mixture of product-form parts, one per chosen member; _branch_parts is the
one place that expands them, merging the parts a quantity cannot tell
apart: per exchangeability class for threshold_probs, which reads all
bidders symmetrically, and the slot members outside the bidders a subset
joint reads.  _cell_masses, each bidder's plain and chosen cell masses per
branch, is the one source of cell masses: a subset's joint (_joint) sums
outer products of them over the parts, a bidder's marginal is its joint on
{i}, discretize is the joint of all bidders, and the exact Myerson sweep
(revenue._myerson_branch_revenue) folds the slot members into one pass per
branch.  verify_kwise runs one comparison loop, joint against the product
of marginals per subset, for tables and mixtures alike.

Sampling draws the chosen member directly, and draws its chosen component
only for the rows that picked it.  Samples are column-major: `sample`
fills a bidder-major (n, rows) buffer, one contiguous row per draw, and
returns its (rows, n) transpose, so every bidder's column is contiguous.
Product and table priors come back in the same layout; a ProductPrior
samples as its one-branch mixture.
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
)

CELL_CAP = 100_000
KWISE_TOL = 1e-10


# ---------------------------------------------------------------------------
# Branch components


@dataclass(frozen=True)
class FullMarginal:
    marginal: Marginal

    def quantile_q(self, tau):
        return self.marginal.quantile_q(tau)

    def atom_mass(self, x):
        return self.marginal.atom_mass(x)

    @property
    def support(self):
        return self.marginal.support

    def cutoffs(self):
        return []

    def sample(self, rng, size):
        u = 1.0 - rng.random(size)
        return self.marginal.ppf_upper(u)


@dataclass(frozen=True)
class ConditionalBelow:
    """Marginal conditioned on v < cutoff (atom at the cutoff excluded)."""

    marginal: Marginal
    cutoff: float

    def __post_init__(self):
        if self.marginal.quantile_q(self.cutoff) >= 1.0:
            raise DomainError("conditioning event v < cutoff has zero probability")

    @cached_property
    def _qc(self):
        return self.marginal.quantile_q(self.cutoff)

    def quantile_q(self, tau):
        qc = self._qc
        if tau > self.cutoff:
            return 0.0
        return (self.marginal.quantile_q(tau) - qc) / (1.0 - qc)

    def atom_mass(self, x):
        if x >= self.cutoff - 1e-15 * max(1.0, abs(self.cutoff)):
            return 0.0
        return self.marginal.atom_mass(x) / (1.0 - self._qc)

    @property
    def support(self):
        lo, hi = self.marginal.support
        return (lo, min(hi, self.cutoff))

    def cutoffs(self):
        return [self.cutoff]

    def sample(self, rng, size):
        qc = self._qc
        u = 1.0 - rng.random(size)  # in (0, 1]
        return self.marginal.ppf_upper(qc + u * (1.0 - qc))


@dataclass(frozen=True)
class ConditionalAtLeast:
    """Marginal conditioned on v >= cutoff (atom at the cutoff included)."""

    marginal: Marginal
    cutoff: float

    def __post_init__(self):
        if self.marginal.quantile_q(self.cutoff) <= 0.0:
            raise DomainError("conditioning event v >= cutoff has zero probability")

    @cached_property
    def _qc(self):
        return self.marginal.quantile_q(self.cutoff)

    def quantile_q(self, tau):
        if tau <= self.cutoff:
            return 1.0
        return self.marginal.quantile_q(tau) / self._qc

    def atom_mass(self, x):
        if x < self.cutoff - 1e-15 * max(1.0, abs(self.cutoff)):
            return 0.0
        return self.marginal.atom_mass(x) / self._qc

    @property
    def support(self):
        lo, hi = self.marginal.support
        return (max(lo, self.cutoff), hi)

    def cutoffs(self):
        return [self.cutoff]

    def sample(self, rng, size):
        u = 1.0 - rng.random(size)
        return self.marginal.ppf_upper(u * self._qc)


@dataclass(frozen=True)
class FixedValue:
    value: float

    def quantile_q(self, tau):
        return 1.0 if tau <= self.value else 0.0

    def atom_mass(self, x):
        return 1.0 if abs(x - self.value) <= 1e-15 * max(1.0, abs(self.value)) else 0.0

    @property
    def support(self):
        return (self.value, self.value)

    def cutoffs(self):
        return [self.value]

    def sample(self, rng, size):
        return np.full(size, self.value)


@dataclass(frozen=True)
class RandomIndexSlot:
    """One index in `indices` is drawn uniformly; it receives chosen[j],
    every other slot member receives unchosen[j]."""

    indices: tuple
    chosen: tuple  # component per slot position
    unchosen: tuple

    def __post_init__(self):
        if not (len(self.indices) == len(self.chosen) == len(self.unchosen)):
            raise DomainError("slot arrays must be aligned")

    @cached_property
    def _positions(self):
        return {b: j for j, b in enumerate(self.indices)}

    def position(self, bidder):
        """Slot position of `bidder`, or None when it is not a member."""
        return self._positions.get(bidder)


@dataclass(frozen=True)
class Branch:
    weight: float
    components: tuple  # per bidder; None for slot members
    slot: RandomIndexSlot | None = None

    def __post_init__(self):
        slot_set = set(self.slot.indices) if self.slot else set()
        for i, comp in enumerate(self.components):
            if (comp is None) != (i in slot_set):
                raise DomainError(
                    f"bidder {i}: component must be None exactly when in the slot"
                )

    def component_pair(self, i):
        """(plain_or_unchosen, chosen_or_None) component for bidder i."""
        j = self.slot.position(i) if self.slot else None
        if j is not None:
            return self.slot.unchosen[j], self.slot.chosen[j]
        return self.components[i], None


# ---------------------------------------------------------------------------
# Priors


@dataclass(frozen=True)
class ProductPrior:
    marginals: tuple

    def __init__(self, marginals):
        if len(marginals) < 1:
            raise DomainError("need at least one marginal")
        object.__setattr__(self, "marginals", tuple(marginals))

    @property
    def n_bidders(self):
        return len(self.marginals)


@dataclass(frozen=True)
class MixturePrior:
    marginals: tuple
    branches: tuple

    def __init__(self, marginals, branches):
        marginals = tuple(marginals)
        branches = tuple(branches)
        total = sum(b.weight for b in branches)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"branch weights sum to {total}, not 1")
        if any(b.weight < 0 for b in branches):
            raise DomainError("branch weights must be nonnegative")
        for b in branches:
            if len(b.components) != len(marginals):
                raise DomainError("each branch needs one component slot per bidder")
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "branches", branches)

    @property
    def n_bidders(self):
        return len(self.marginals)

    @cached_property
    def _class_of(self):
        """Per bidder, the index of its exchangeability class: bidders with
        the same marginal and the same (plain, chosen) components in every
        branch can be swapped without changing the prior."""
        ids = {}
        return tuple(
            ids.setdefault(
                (m,) + tuple(b.component_pair(i) for b in self.branches), len(ids)
            )
            for i, m in enumerate(self.marginals)
        )


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
        if np.any(pmf < -1e-15):
            raise DomainError("pmf must be nonnegative")
        if abs(float(pmf.sum()) - 1.0) > 1e-12:
            raise DomainError(f"pmf sums to {pmf.sum()}, not 1")
        self.pmf = pmf
        for s in self.supports:
            if any(b <= a for a, b in zip(s, s[1:])):
                raise DomainError("supports must be strictly ascending")

    @property
    def n_bidders(self):
        return len(self.supports)

    def marginal_masses(self, i):
        axes = tuple(j for j in range(self.n_bidders) if j != i)
        return self.pmf.sum(axis=axes)

    def cells(self):
        """Iterate (value tuple, mass) over all cells."""
        for idx in np.ndindex(self.pmf.shape):
            yield tuple(self.supports[j][idx[j]] for j in range(self.n_bidders)), float(
                self.pmf[idx]
            )

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


JointPrior = ProductPrior | MixturePrior | TablePrior


def _as_mixture(prior: ProductPrior) -> MixturePrior:
    comps = tuple(FullMarginal(m) for m in prior.marginals)
    return MixturePrior(prior.marginals, (Branch(1.0, comps),))


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
    slot = branch.slot
    if slot is None:
        yield 1.0, None
        return
    groups = {}
    for m in slot.indices:
        if bidders is None:
            key = mix._class_of[m]
        else:
            key = m if m in bidders else None
        groups.setdefault(key, []).append(m)
    for key, members in groups.items():
        yield len(members) / len(slot.indices), None if key is None else members[0]


def _cell_masses(mix: MixturePrior, cells):
    """Per branch, per bidder i: the (plain, chosen) arrays of exact masses
    of the cells in cells[i] under bidder i's plain (or unchosen) and chosen
    components; chosen is None off the slot.  A cell is (lo, hi, singleton):
    the half-open [lo, hi), or the atom at lo.  Each component object is
    evaluated once per distinct cell list, since the constructions share
    one component object across their bidders."""
    grid_ids = {}
    grid_of = [grid_ids.setdefault(tuple(c), len(grid_ids)) for c in cells]
    memo = {}

    def masses(comp, i):
        if comp is None:
            return None
        key = (id(comp), grid_of[i])
        if key not in memo:
            memo[key] = np.array(
                [
                    comp.atom_mass(lo) if single else comp.quantile_q(lo) - comp.quantile_q(hi)
                    for lo, hi, single in cells[i]
                ]
            )
        return memo[key]

    return [
        [tuple(masses(comp, i) for comp in b.component_pair(i)) for i in range(mix.n_bidders)]
        for b in mix.branches
    ]


def _joint(mix: MixturePrior, masses, bidders):
    """Joint masses of the bidders' cells, one axis per bidder in the given
    order, from the per-branch cell masses of _cell_masses: each branch part
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
    below_one = ConditionalBelow(small, 1.0)

    b1 = Branch(
        1.0 / n**2,
        tuple([FixedValue(1.0)] * n + [FixedValue(top)]),
    )
    b2 = Branch(
        1.0 / n - 1.0 / n**2,
        tuple([below_one] * n + [FixedValue(top)]),
    )
    slot = RandomIndexSlot(
        indices=tuple(range(n)),
        chosen=tuple([FixedValue(1.0)] * n),
        unchosen=tuple([below_one] * n),
    )
    b3 = Branch(
        1.0 - 1.0 / n,
        tuple([None] * n + [ConditionalBelow(big, top)]),
        slot=slot,
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
    high = ConditionalAtLeast(uni, cut)
    low = ConditionalBelow(uni, cut)

    b1 = Branch(1.0 / n**2, tuple([high] * (n + 1)))
    slot = RandomIndexSlot(
        indices=tuple(range(n + 1)),
        chosen=tuple([high] * (n + 1)),
        unchosen=tuple([low] * (n + 1)),
    )
    b2 = Branch(1.0 - 1.0 / n**2, tuple([None] * (n + 1)), slot=slot)
    return MixturePrior(marginals, (b1, b2))


# ---------------------------------------------------------------------------
# Sampling


def sample(prior: JointPrior, seed, size=None) -> np.ndarray:
    """Draw from the prior; deterministic for a fixed seed.  Returns an
    (size, n) matrix, or a single length-n vector when size is None.

    The matrix is the transpose of a bidder-major (n, size) buffer, so each
    bidder's column is contiguous (Fortran order) and the mechanism sweeps
    read it without a copy.  A mixture draws its branch per row (skipped
    when there is one branch, so a ProductPrior gets one draw per marginal
    in bidder order), then per branch the slot pick, then per bidder one
    draw of its plain component for the branch's rows and one of its chosen
    component for the rows that picked it."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    m = 1 if size is None else int(size)
    if isinstance(prior, TablePrior):
        flat = prior.pmf.ravel()
        idx = rng.choice(flat.size, size=m, p=flat / flat.sum())
        multi = np.unravel_index(idx, prior.pmf.shape)
        out = np.stack([np.asarray(s)[j] for s, j in zip(prior.supports, multi)])
    else:
        mix = _as_mixture(prior) if isinstance(prior, ProductPrior) else prior
        out = np.empty((mix.n_bidders, m))
        if len(mix.branches) == 1:
            branch_rows = [np.arange(m)]
        else:
            weights = np.array([b.weight for b in mix.branches])
            branch_idx = rng.choice(len(weights), size=m, p=weights / weights.sum())
            branch_rows = [np.flatnonzero(branch_idx == bi) for bi in range(len(weights))]
        for branch, rows in zip(mix.branches, branch_rows):
            if rows.size == 0:
                continue
            slot = branch.slot
            if slot is not None:
                pick = rng.integers(0, len(slot.indices), size=rows.size)
            for i in range(mix.n_bidders):
                plain, chosen = branch.component_pair(i)
                out[i, rows] = plain.sample(rng, rows.size)
                if chosen is not None:
                    mine = rows[pick == slot.position(i)]
                    if mine.size:
                        out[i, mine] = chosen.sample(rng, mine.size)
    return out[:, 0] if size is None else out.T


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
    mix = _as_mixture(prior) if isinstance(prior, ProductPrior) else prior
    grids, of_class = [], {}
    for i, mg in enumerate(mix.marginals):
        # class members share their marginal and components, hence their grid
        c = mix._class_of[i]
        if c not in of_class:
            lo, hi = mg.support
            pts = {lo, hi, *mg.atoms()}
            for comp in _bidder_components(mix, i):
                pts.update(comp.cutoffs())
            of_class[c] = sorted(pts)
        grids.append(list(of_class[c]))
    return grids


def _grid_cells(grid):
    """Cells for one bidder: half-open [b_j, b_{j+1}) plus a singleton at the
    top boundary.  cell = (lo, hi, singleton)."""
    cells = [(a, b, False) for a, b in zip(grid, grid[1:])]
    cells.append((grid[-1], grid[-1], True))
    return cells


def _check_grid(prior_mix: MixturePrior, grids):
    """Raise DomainError naming the first bidder whose grid misses its
    support, an atom or a cutoff.  Bidders of one exchangeability class
    share all three, so each (class, grid) is checked once."""
    checked = set()
    for i, mg in enumerate(prior_mix.marginals):
        key = (prior_mix._class_of[i], tuple(grids[i]))
        if key in checked:
            continue
        checked.add(key)
        g = set(grids[i])
        lo, hi = mg.support
        if min(grids[i]) > lo + 1e-12 or max(grids[i]) < hi - 1e-12:
            raise DomainError(f"grid for bidder {i} does not cover the support")
        for a in mg.atoms():
            if not any(abs(a - x) <= 1e-12 * max(1.0, abs(a)) for x in g):
                raise DomainError(f"grid for bidder {i} misses atom at {a}")
        for comp in _bidder_components(prior_mix, i):
            for c in comp.cutoffs():
                if not any(abs(c - x) <= 1e-12 * max(1.0, abs(c)) for x in g):
                    raise DomainError(f"grid for bidder {i} misses cutoff {c}")


def _kept_cells(mix: MixturePrior, grids=None):
    """The cells of positive mixture-marginal mass (above 1e-15) on the
    grids (natural_grids when None), after _check_grid.  Returns per bidder
    the kept cells' representatives (lower endpoints) and marginal masses,
    and per branch the _cell_masses table masked to the kept cells.  A
    bidder's marginal is its joint on {i}; bidders of one exchangeability
    class and grid share all three, so each (class, grid) is computed once."""
    if grids is None:
        grids = natural_grids(mix)
    _check_grid(mix, grids)
    cells = [_grid_cells(g) for g in grids]
    masses = _cell_masses(mix, cells)
    shared, keys = {}, []
    for i in range(mix.n_bidders):
        keys.append((mix._class_of[i], tuple(grids[i])))
        if keys[i] not in shared:
            marginal = _joint(mix, masses, (i,))
            keep = marginal > 1e-15
            shared[keys[i]] = (
                tuple(c[0] for c, kept in zip(cells[i], keep) if kept),
                marginal[keep],
                [tuple(m if m is None else m[keep] for m in bm[i]) for bm in masses],
            )
    supports, marginals, per_branch = zip(*(shared[key] for key in keys))
    return supports, marginals, list(zip(*per_branch))


def discretize(prior: JointPrior, grids=None) -> TablePrior:
    """Exact finite table of the prior on the given grids (closed-form cell
    masses per branch, no sampling): the joint of all bidders on the cells
    of positive marginal mass.  The cell representative is the cell's lower
    endpoint; the top grid boundary becomes a singleton cell so atoms stay
    separated."""
    if isinstance(prior, TablePrior):
        return prior
    mix = _as_mixture(prior) if isinstance(prior, ProductPrior) else prior
    supports, _, masses = _kept_cells(mix, grids)
    size = math.prod(len(s) for s in supports)
    if size > CELL_CAP:
        raise DomainError(f"discretization would need {size} cells")
    return TablePrior(supports, _joint(mix, masses, tuple(range(mix.n_bidders))))


# ---------------------------------------------------------------------------
# Threshold probabilities


def q1q2_from_qvec(qs) -> tuple:
    """(Pr[at least one above], Pr[at least two above]) for independent
    events with probabilities qs, to full relative precision in the tails.

    Q1 = 1 - prod(1 - q_i) comes from expm1 of the summed log1p(-q_i); Q2
    sums, over the last event i that occurs, q_i * Pr[one of j < i occurs]
    * prod_{j > i}(1 - q_j).  Every term is nonnegative, and a certain
    event (q = 1) gives log1p(-1) = -inf and a factor exactly 0."""
    q = np.clip(np.asarray(qs, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        logs = np.log1p(-q)
    any_before = 0.0 - np.expm1(np.concatenate(([0.0], np.cumsum(logs[:-1]))))
    none_after = np.append(np.cumprod((1.0 - q)[:0:-1])[::-1], 1.0)
    return float(0.0 - np.expm1(logs.sum())), float(np.sum(q * any_before * none_after))


def threshold_probs(prior: JointPrior, tau: float) -> tuple:
    """Exact (Q1, Q2) = Pr[>=1 value >= tau], Pr[>=2 values >= tau]."""
    if isinstance(prior, TablePrior):
        counts = np.zeros(prior.pmf.shape, dtype=int)
        for j, s in enumerate(prior.supports):
            above = (np.asarray(s) >= tau).astype(int)
            shape = [1] * prior.n_bidders
            shape[j] = len(s)
            counts = counts + above.reshape(shape)
        q1 = float(prior.pmf[counts >= 1].sum())
        q2 = float(prior.pmf[counts >= 2].sum())
        return q1, q2
    mix = _as_mixture(prior) if isinstance(prior, ProductPrior) else prior
    q1 = q2 = 0.0
    for branch in mix.branches:
        pairs = [branch.component_pair(i) for i in range(mix.n_bidders)]
        q_plain = np.array([p.quantile_q(tau) for p, _ in pairs])
        for share, chosen in _branch_parts(mix, branch):
            qs = q_plain
            if chosen is not None:
                qs = q_plain.copy()
                qs[chosen] = pairs[chosen][1].quantile_q(tau)
            t1, t2 = q1q2_from_qvec(qs)
            q1 += branch.weight * share * t1
            q2 += branch.weight * share * t2
    return q1, q2


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
    mixture checks one representative subset per combination of
    exchangeability classes (MixturePrior._class_of), counted once per
    subset it stands for, so the check is exhaustive over subsets while the
    work is exhaustive only over classes; the shipped constructions have
    two classes regardless of n.  Subsets of one size are checked in
    lexicographic order.
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
        mix = _as_mixture(prior) if isinstance(prior, ProductPrior) else prior
        supports, marginals, masses = _kept_cells(mix, grids)
        by_class = {}
        for i, c in enumerate(mix._class_of):
            by_class.setdefault(c, []).append(i)
        members = list(by_class.values())
        subsets = []
        for size in range(1, k + 1):
            level = []
            for combo in itertools.combinations_with_replacement(range(len(members)), size):
                counts = {c: combo.count(c) for c in set(combo)}
                if all(cnt <= len(members[c]) for c, cnt in counts.items()):
                    reps = tuple(sorted(i for c, cnt in counts.items() for i in members[c][:cnt]))
                    multiplicity = math.prod(math.comb(len(members[c]), cnt) for c, cnt in counts.items())
                    level.append((multiplicity, reps))
            subsets += sorted(level, key=lambda t: t[1])

        def joint_of(subset):
            return _joint(mix, masses, subset)

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
