"""Truthful single-item auction rules.

Two mechanisms:

* AnonymousReserve(r) - second-price auction with reserve r; the high
  bidder at or above r wins and pays max(r, second-highest value).
* Myerson(marginals) - the optimal mechanism (Myerson, "Optimal auction
  design", 1981): allocate to the highest nonnegative (ironed) virtual
  value, a tie going to the lower index; the winner pays the threshold bid,
  the infimum of bids that would still win against the realized
  competitors.  Its allocation is constant on ironed intervals, which keeps
  it optimal on discrete and ironed marginals.

One kernel runs both mechanisms: `run_batch` takes a (rows x bidders)
value matrix, sweeps the bidders once to find each row's winner and its
strongest eligible competitor, and prices the winners.  Myerson winners pay
`threshold_payment`, the threshold bid in closed form from the winner's
marginal's virtual-value inverses.  `run_mechanism` is the one-row call,
and `mechanism_payments` returns the kernel's payments for Monte Carlo
blocks, exact table revenue and the LP objective; the exact branch sweep
calls `threshold_payment` over its whole key axis, shared by all bidders,
once per distinct marginal against a competitor of lower and of higher
index (`idx_star` -1 and n).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .marginals import DomainError, Marginal

# rows per piece of a sweep, whose per-row state fits a core's cache; also
# revenue_mc's default Monte Carlo block, so one block is one piece
_PIECE_ROWS = 1 << 14


@dataclass(frozen=True)
class Outcome:
    winner: int | None
    payment: float

    def __post_init__(self):
        if self.winner is None and self.payment != 0.0:
            raise DomainError("no winner implies zero payment")


@dataclass(frozen=True)
class AnonymousReserve:
    r: float

    def __post_init__(self):
        if not np.isfinite(self.r) or self.r < 0:
            raise DomainError("reserve must be finite and nonnegative")


@dataclass(frozen=True)
class Myerson:
    marginals: tuple

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(self.marginals))


Mechanism = AnonymousReserve | Myerson


def virtual_values(m: Marginal, v, i: int):
    """(Ironed) virtual values of bidder i's values v, elementwise.  Raises
    DomainError for a value outside the marginal's support and, for a
    DiscretePMF, for a value that is not one of its points."""
    lo, hi = m.support
    outside = (v < lo - 1e-9) | (v > hi + 1e-9)
    if outside.any():
        raise DomainError(f"value {v[outside][0]} of bidder {i} outside support [{lo}, {hi}]")
    return m.virtual_value(v)


def threshold_payment(mech: Myerson, i, phi_star, idx_star):
    """inf over bids b of bidder i that still win against its strongest
    eligible competitor, elementwise over arrays of that competitor's
    virtual value phi_star and index idx_star.  i is one bidder, or an
    array of bidders, one per element, that share one marginal.  With no
    eligible competitor (phi_star = -inf, idx_star = -1) it is the
    eligibility floor; inf where no bid wins.

    Bidder i wins a virtual-value tie only against a higher index, so it
    needs a virtual value of at least phi_star (phi_geq_inv) when i <
    idx_star and above it (phi_gt_inv) otherwise.  Eligibility (virtual
    value >= 0) floors both.
    """
    m = mech.marginals[i if np.ndim(i) == 0 else i[0]]
    t = np.where(i < idx_star, m.phi_geq_inv(phi_star), m.phi_gt_inv(phi_star))
    return np.maximum(m.phi_geq_inv(0.0), t)


def _columns(V):
    """(bidder, values, min, max) per column of V, which has at least one
    row, each column read once into a contiguous array (a view when V is
    column-major, as `priors.sample` returns it) and checked finite and
    nonnegative through its min and max, which NaN makes NaN."""
    for i in range(V.shape[1]):
        v = np.ascontiguousarray(V[:, i])
        lo, hi = v.min(), v.max()
        if not (lo >= 0.0 and hi < np.inf):
            raise DomainError(f"values of bidder {i} must be finite and nonnegative")
        yield i, v, lo, hi


def run_batch(mech: Mechanism, V):
    """Winners (-1 for no sale) and payments of the auction on each row of
    a (rows x bidders) value matrix.

    One pass over the bidders keeps, per row, the top two allocation keys:
    AR ranks bidders by value and sells when the top value reaches r;
    Myerson ranks eligible bidders (virtual value >= 0) by virtual value
    and prices its winner against the second key with threshold_payment.
    Ties go to the lower index.  The rows are swept in pieces of
    _PIECE_ROWS, so the per-row state a sweep updates stays in cache.
    Each column is checked through its min and max, and its comparisons
    are written into masks allocated once per piece; Myerson's top two are
    updated only on the rows where the bidder enters them, a few per row
    over the whole sweep, and its winners are priced per distinct
    marginal, not per bidder.  Raises
    DomainError for a value that is not finite and nonnegative or that its
    Myerson marginal cannot produce, naming the first such value in column
    order.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise DomainError(f"expected a (rows, bidders) value matrix, got shape {V.shape}")
    rows, n = V.shape
    if isinstance(mech, AnonymousReserve):
        sweep = functools.partial(_ar_piece, mech)
    else:
        if n != len(mech.marginals):
            raise DomainError(f"expected {len(mech.marginals)} values per row, got {n}")
        kinds = {}
        of_bidder = [kinds.setdefault(m, len(kinds)) for m in mech.marginals]
        kind_of = np.array(of_bidder + [-1], dtype=np.min_scalar_type(-1 - len(kinds)))  # -1: no sale
        sweep = functools.partial(_myerson_piece, mech, kind_of, len(kinds))
    winners, pays = np.empty(rows, dtype=int), np.empty(rows)
    try:
        for a in range(0, rows, _PIECE_ROWS):
            winners[a : a + _PIECE_ROWS], pays[a : a + _PIECE_ROWS] = sweep(V[a : a + _PIECE_ROWS])
    except DomainError:
        # a piece names its own first bad value: raise the one a sweep of
        # whole columns meets first
        for i, v, _, _ in _columns(V):
            if isinstance(mech, Myerson):
                virtual_values(mech.marginals[i], v, i)
        raise
    return winners, pays


def _ar_piece(mech: AnonymousReserve, V):
    """AR's sweep and prices on the rows of V."""
    rows = V.shape[0]
    top, second, winner = np.full(rows, -np.inf), np.full(rows, -np.inf), np.zeros(rows, dtype=int)
    above, low = np.empty(rows, dtype=bool), np.empty(rows)
    for i, v, _, _ in _columns(V):
        winner[np.greater(v, top, out=above)] = i
        np.maximum(second, np.minimum(top, v, out=low), out=second)
        np.maximum(top, v, out=top)
    winner[top < mech.r] = -1
    return winner, np.where(winner >= 0, np.maximum(mech.r, second), 0.0)


def _myerson_piece(mech: Myerson, kind_of, n_kinds, V):
    """Myerson's sweep and pricing on the rows of V.  kind_of[i] numbers
    bidder i's marginal among the distinct ones (n_kinds of them), and
    kind_of[-1] is -1."""
    rows = V.shape[0]
    NEG = -np.inf
    b_phi, b_val, b_idx = np.full(rows, NEG), np.zeros(rows), np.full(rows, -1)
    s_phi, s_idx = np.full(rows, NEG), np.full(rows, -1)
    beats_best, beats_second, ineligible = (np.empty(rows, dtype=bool) for _ in range(3))
    for i, v, v_lo, v_hi in _columns(V):
        m = mech.marginals[i]
        lo, hi = m.support
        if v_lo < lo - 1e-9 or v_hi > hi + 1e-9:
            virtual_values(m, v, i)  # raises, naming the first value outside
        phi = m.virtual_value(v)
        phi[np.less(phi, 0.0, out=ineligible)] = NEG
        if i == 0:
            # the first bidder is the best key wherever it is eligible
            b_phi, b_val, b_idx = phi, np.where(ineligible, b_val, v), np.where(ineligible, b_idx, 0)
            continue
        np.greater(phi, b_phi, out=beats_best)
        np.greater(phi, s_phi, out=beats_second)
        # only rows where the newcomer enters the top two change.  The best
        # key is never below the second, so beats_best implies beats_second:
        # of the rows that enter, those that beat the best demote it to
        # second, and the others take second place
        enter = np.flatnonzero(beats_second)
        to_top = beats_best[enter]
        top, sec = enter[to_top], enter[np.logical_not(to_top, out=to_top)]
        s_phi[top], s_idx[top] = b_phi[top], b_idx[top]
        b_phi[top], b_val[top], b_idx[top] = phi[top], v[top], i
        s_phi[sec], s_idx[sec] = phi[sec], i

    # price the winners once per distinct marginal; b_val holds each
    # winner's value, V[row, b_idx] as the sweep read it
    pay = np.zeros(rows)
    kind = kind_of[b_idx]
    for k in range(n_kinds):
        at = np.flatnonzero(kind == k)
        if at.size == 0:
            continue
        thr, value = threshold_payment(mech, b_idx[at], s_phi[at], s_idx[at]), b_val[at]
        if np.any(thr > value + 1e-9):
            j = int(np.argmax(thr - value))
            raise AssertionError(f"threshold {thr[j]} above the winning value {value[j]}")
        pay[at] = np.minimum(thr, value)
    return b_idx, pay


def run_mechanism(mech: Mechanism, values) -> Outcome:
    """One auction on a vector of values: the one-row call of run_batch."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DomainError(f"expected a vector of values, got shape {values.shape}")
    winners, pays = run_batch(mech, values[None, :])
    if winners[0] < 0:
        return Outcome(None, 0.0)
    return Outcome(int(winners[0]), float(pays[0]))


def mechanism_payments(mech: Mechanism, V) -> np.ndarray:
    """Payment on each row of a (rows x bidders) value matrix (run_batch)."""
    return run_batch(mech, V)[1]
