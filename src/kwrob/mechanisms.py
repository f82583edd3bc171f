"""Truthful single-item auction rules.

Two mechanisms:

* AnonymousReserve(r) - second-price auction with reserve r; the high
  bidder at or above r wins and pays max(r, second-highest value).
* Myerson(marginals, tie_break) - allocate to the highest nonnegative
  (ironed) virtual value; the winner pays the threshold bid, the infimum of
  bids that would still win against the realized competitors.

Tie-breaking is part of the mechanism: "highest_value" breaks virtual-value
ties toward the larger value (then lower index), "lex" toward the lower
index.  With equal-revenue marginals the whole support shares one virtual
value, so the tie rule decides essentially every auction and the two
policies genuinely differ.

One kernel runs both mechanisms: `run_batch` takes a (rows x bidders)
value matrix, sweeps the bidders once to find each row's winner and its
strongest eligible competitor, and prices the winners.  Myerson winners pay
`threshold_payment`, the threshold bid in closed form from the winner's
marginal's virtual-value inverses; for value-tie wins the threshold is the
infimum (the competitor's value), matching the second-price rule even when
the tie itself would resolve against the winner.  `run_mechanism` is the
one-row call, and `mechanism_payments` returns the kernel's payments for
Monte Carlo blocks, exact table revenue and the LP objective; the exact
branch sweep calls `threshold_payment` over its whole key axis, shared by
all bidders, once per distinct marginal against a competitor of lower and
of higher index (`idx_star` -1 and n), which under highest_value coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .marginals import DomainError, Marginal

HIGHEST_VALUE = "highest_value"
LEX = "lex"


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
    tie_break: str = HIGHEST_VALUE

    def __init__(self, marginals, tie_break=HIGHEST_VALUE):
        if tie_break not in (HIGHEST_VALUE, LEX):
            raise DomainError(f"unknown tie_break {tie_break!r}")
        object.__setattr__(self, "marginals", tuple(marginals))
        object.__setattr__(self, "tie_break", tie_break)


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


def threshold_payment(mech: Myerson, i: int, phi_star, val_star, idx_star):
    """inf over bids b of bidder i that still win against its strongest
    eligible competitor, elementwise over arrays of that competitor's
    virtual value phi_star, value val_star and index idx_star.  With no
    eligible competitor (phi_star = -inf, idx_star = -1) it is the
    eligibility floor; inf where no bid wins.

    Routes to the win: strictly beat the competing virtual value, or match
    it and win the tie.  For highest_value the tie route's infimum is the
    competitor's value itself (whether or not the tie resolves for i); for
    lex it exists only when i has the smaller index.  Eligibility
    (virtual value >= 0) floors everything.
    """
    m = mech.marginals[i]
    t_strict = m.phi_gt_inv(phi_star)
    t_geq = m.phi_geq_inv(phi_star)
    if mech.tie_break == HIGHEST_VALUE:
        t_tie = np.maximum(t_geq, val_star)
    else:
        t_tie = np.where(i < idx_star, t_geq, np.inf)
    return np.maximum(m.phi_geq_inv(0.0), np.minimum(t_strict, t_tie))


def _columns(V):
    """(bidder, values) per column of V, each read once into a contiguous
    array (a view when V is column-major, as `priors.sample` returns it)
    and checked finite and nonnegative."""
    for i in range(V.shape[1]):
        v = np.ascontiguousarray(V[:, i])
        if not ((v >= 0.0) & (v < np.inf)).all():
            raise DomainError(f"values of bidder {i} must be finite and nonnegative")
        yield i, v


def run_batch(mech: Mechanism, V):
    """Winners (-1 for no sale) and payments of the auction on each row of
    a (rows x bidders) value matrix.

    One pass over the bidders keeps, per row, the top two allocation keys:
    AR ranks bidders by value and sells when the top value reaches r;
    Myerson ranks eligible bidders (virtual value >= 0) by virtual value,
    then by value under highest_value, and prices its winner against the
    second key with threshold_payment.  Remaining ties go to the lower
    index.  Myerson's top two are updated only on the rows where the
    bidder enters them, a few per row over the whole sweep.  Raises
    DomainError for a value that is not finite and nonnegative or that its
    Myerson marginal cannot produce.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise DomainError(f"expected a (rows, bidders) value matrix, got shape {V.shape}")
    rows, n = V.shape
    NEG = -np.inf
    if isinstance(mech, AnonymousReserve):
        top, second, winner = np.full(rows, NEG), np.full(rows, NEG), np.zeros(rows, dtype=int)
        for i, v in _columns(V):
            winner[v > top] = i
            second = np.maximum(second, np.minimum(top, v))
            top = np.maximum(top, v)
        winner[top < mech.r] = -1
        return winner, np.where(winner >= 0, np.maximum(mech.r, second), 0.0)

    if n != len(mech.marginals):
        raise DomainError(f"expected {len(mech.marginals)} values per row, got {n}")
    by_value = mech.tie_break == HIGHEST_VALUE
    b_phi, b_val, b_idx = np.full(rows, NEG), np.zeros(rows), np.full(rows, -1)
    s_phi, s_val, s_idx = np.full(rows, NEG), np.zeros(rows), np.full(rows, -1)
    for i, v in _columns(V):
        phi = virtual_values(mech.marginals[i], v, i)
        phi = np.where(phi >= 0.0, phi, NEG)
        beats_best = phi > b_phi
        beats_second = phi > s_phi
        if by_value:
            beats_best |= (phi == b_phi) & (v > b_val) & (phi > NEG)
            beats_second |= (phi == s_phi) & (v > s_val) & (phi > NEG)
        # only rows where the newcomer enters the top two change: where it
        # beats the best, the old best is demoted to second (one gathered
        # array at a time, to keep the block's peak memory down); elsewhere
        # it may take second place
        top = np.flatnonzero(beats_best)
        sec = np.flatnonzero(beats_second & ~beats_best)
        for second, best in ((s_phi, b_phi), (s_val, b_val), (s_idx, b_idx)):
            second[top] = best[top]
        b_phi[top], b_val[top], b_idx[top] = phi[top], v[top], i
        s_phi[sec], s_val[sec], s_idx[sec] = phi[sec], v[sec], i

    pay = np.zeros(rows)
    for i in np.unique(b_idx[b_idx >= 0]):
        won = b_idx == i
        pay[won] = threshold_payment(mech, i, s_phi[won], s_val[won], s_idx[won])
    won = np.flatnonzero(b_idx >= 0)
    value = V[won, b_idx[won]]
    if np.any(pay[won] > value + 1e-9):
        k = int(np.argmax(pay[won] - value))
        raise AssertionError(f"threshold {pay[won][k]} above the winning value {value[k]}")
    pay[won] = np.minimum(pay[won], value)
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
