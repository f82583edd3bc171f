"""Single-bidder marginal value distributions.

All marginals are bounded. Every variant exposes the same small surface:
upper quantile q(tau) = Pr[v >= tau] (atom at tau included), its inverse,
atoms, virtual values and their inverses.  The base class derives the
rest from that surface: the monopoly reserve (the smallest value with
virtual value >= 0) and prob_phi_geq = Pr[virtual value >= nu].  Virtual
values and the inverses are elementwise over arrays; q_inverse of
u ~ Uniform(0, 1] is a draw from the marginal.  Each class inverts q in
place (`_q_inverse_inplace`), which the sampler runs on its own draws;
the public q_inverse runs it on a copy.  Discrete marginals take
their virtual values from the ironed revenue-quantile polyline (its upper
concave hull).

Quantile convention: q is left-continuous and includes the atom at tau,
i.e. q(tau) = Pr[v >= tau], so the CDF is F(tau) = 1 - q(tau) + atom(tau).

Value rule: a value is an atom or a support point only when it equals it
as a float, with no window around it.  So q, atom_mass and the CDF agree
at every x, and one ulp off an atom is not the atom.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MASS_TOL = 1e-12
REGULARITY_TOL = 1e-9


class DomainError(ValueError):
    """Argument outside the domain the operation is defined on."""


def _probabilities(p):
    """p as a float array, checked to lie in [0, 1]."""
    p = np.asarray(p, dtype=float)
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise DomainError(f"p must be in [0, 1], got {p[~((p >= 0.0) & (p <= 1.0))][0]}")
    return p


class Marginal:
    """Base of the marginal classes: what follows from their own surface."""

    phi_degree = 0  # degree of prob_phi_geq in nu between its marks (revenue._marks)

    def monopoly_reserve(self) -> float:
        """Smallest support value with virtual value >= 0: the eligibility
        floor of the optimal mechanism."""
        return float(self.phi_geq_inv(0.0))

    def q_inverse(self, p):
        """Value v with q(v) = p, elementwise; DomainError outside [0, 1].
        p itself is not written."""
        return self._q_inverse_inplace(_probabilities(np.array(p, dtype=float)))

    def prob_phi_geq(self, nu: float) -> float:
        """Pr[virtual value >= nu].  The ironed virtual value is
        nondecreasing in v, so this is q at the first value reaching nu
        (q(inf) = 0 where none does)."""
        return self.quantile_q(float(self.phi_geq_inv(nu)))


@dataclass(frozen=True)
class EqualRevenue(Marginal):
    """Equal-revenue distribution on [lo, hi]: s * Pr[v >= s] = lo on the
    support, with an atom of mass lo/hi at hi.  Regular; virtual value is 0
    on [lo, hi) and hi at the top atom."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo > 0 and self.hi >= self.lo):
            raise DomainError(f"need 0 < lo <= hi, got lo={self.lo}, hi={self.hi}")

    @property
    def support(self):
        return (self.lo, self.hi)

    def quantile_q(self, tau: float) -> float:
        if tau <= self.lo:
            return 1.0
        if tau > self.hi:
            return 0.0
        return self.lo / tau

    def _q_inverse_inplace(self, p):
        """q_inverse written over the float array p, checked to lie in
        [0, 1]; returns p."""
        at_top = p <= self.lo / self.hi
        # lo / p can divide by zero or overflow only where p is at_top,
        # which the top value then overwrites
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(self.lo, p, out=p)
        p[at_top] = self.hi
        return p

    def atom_mass(self, x: float) -> float:
        return self.lo / self.hi if x == self.hi else 0.0

    def atoms(self):
        return [self.hi]

    def virtual_value(self, v):
        return np.where(v >= self.hi, self.hi, 0.0)

    def phi_geq_inv(self, y):
        """Smallest support value v with virtual value >= y, elementwise;
        inf where there is none."""
        y = np.asarray(y, dtype=float)
        return np.where(y <= 0.0, self.lo, np.where(y <= self.hi, self.hi, np.inf))

    def phi_gt_inv(self, y):
        """inf{v in support : virtual value(v) > y}, elementwise; inf where
        the set is empty."""
        y = np.asarray(y, dtype=float)
        return np.where(y < 0.0, self.lo, np.where(y < self.hi, self.hi, np.inf))


@dataclass(frozen=True)
class ShiftedEqualRevenue(Marginal):
    """EqualRevenue{lo, hi} translated by +shift.  The whole point of the
    variant is its virtual-value structure: phi = shift on the interior of
    the support and hi + shift at the top atom."""

    lo: float
    hi: float
    shift: float

    def __post_init__(self):
        if not (self.lo > 0 and self.hi >= self.lo and self.shift >= 0):
            raise DomainError(
                f"need 0 < lo <= hi and shift >= 0, got {self.lo}, {self.hi}, {self.shift}"
            )

    @cached_property
    def _base(self):
        return EqualRevenue(self.lo, self.hi)

    @property
    def support(self):
        return (self.lo + self.shift, self.hi + self.shift)

    def quantile_q(self, tau):
        # in the shifted frame, as atom_mass, so q(top) is the atom's mass
        if tau <= self.lo + self.shift:
            return 1.0
        top = self.hi + self.shift
        if tau >= top:
            return self.lo / self.hi if tau == top else 0.0
        return self.lo / (tau - self.shift)

    def _q_inverse_inplace(self, p):
        p = self._base._q_inverse_inplace(p)
        p += self.shift
        return p

    def atom_mass(self, x):
        # in the shifted frame: (hi + shift) - shift need not be hi
        return self.lo / self.hi if x == self.hi + self.shift else 0.0

    def atoms(self):
        return [self.hi + self.shift]

    def virtual_value(self, v):
        top = self.hi + self.shift
        return np.where(v >= top, top, self.shift)

    def phi_geq_inv(self, y):
        y = np.asarray(y, dtype=float)
        top = self.hi + self.shift
        return np.where(y <= self.shift, self.lo + self.shift, np.where(y <= top, top, np.inf))

    def phi_gt_inv(self, y):
        y = np.asarray(y, dtype=float)
        top = self.hi + self.shift
        return np.where(y < self.shift, self.lo + self.shift, np.where(y < top, top, np.inf))


@dataclass(frozen=True)
class Uniform(Marginal):
    lo: float
    hi: float
    phi_degree = 1  # Pr[2v - hi >= nu] is linear on [2 lo - hi, hi]

    def __post_init__(self):
        if not (self.lo >= 0 and self.hi > self.lo):
            raise DomainError(f"need 0 <= lo < hi, got {self.lo}, {self.hi}")

    @property
    def support(self):
        return (self.lo, self.hi)

    def quantile_q(self, tau):
        return float(np.clip((self.hi - tau) / (self.hi - self.lo), 0.0, 1.0))

    def _q_inverse_inplace(self, p):
        p *= self.hi - self.lo
        return np.subtract(self.hi, p, out=p)

    def atom_mass(self, x):
        return 0.0

    def atoms(self):
        return []

    def virtual_value(self, v):
        return 2.0 * np.asarray(v, dtype=float) - self.hi

    def phi_geq_inv(self, y):
        y = np.asarray(y, dtype=float)
        # phi(hi) = hi, so no support value reaches y > hi
        return np.where(y > self.hi, np.inf, np.clip((y + self.hi) / 2.0, self.lo, self.hi))

    def phi_gt_inv(self, y):
        # phi is continuous and increasing up to phi(hi) = hi
        return np.where(np.asarray(y, dtype=float) >= self.hi, np.inf, self.phi_geq_inv(y))


@dataclass(frozen=True)
class DiscretePMF(Marginal):
    """Finite-support marginal.  points nonnegative and strictly ascending,
    masses >= 0 summing to 1.  Virtual values come from the ironed
    revenue-quantile polyline (interior atoms have no density, so the
    regular formula does not apply there)."""

    points: tuple
    masses: tuple

    def __init__(self, points, masses):
        pts = tuple(float(p) for p in points)
        ms = tuple(float(m) for m in masses)
        if len(pts) != len(ms) or not pts:
            raise DomainError("points and masses must be equal-length and non-empty")
        if not all(map(math.isfinite, pts + ms)):
            raise DomainError("points and masses must be finite")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise DomainError("points must be strictly ascending")
        if pts[0] < 0:
            raise DomainError(f"points must be nonnegative, got {pts[0]}")
        if any(m < 0 for m in ms):
            raise DomainError("masses must be nonnegative")
        if abs(sum(ms) - 1.0) > MASS_TOL:
            raise DomainError(f"masses sum to {sum(ms)}, not 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", ms)

    @property
    def support(self):
        return (self.points[0], self.points[-1])

    @cached_property
    def _tail(self):
        # _tail[k] = Pr[v >= points[k]]
        return np.cumsum(self.masses[::-1])[::-1]

    def quantile_q(self, tau):
        k = bisect.bisect_left(self.points, tau)
        if k >= len(self.points):
            return 0.0
        return float(self._tail[k])

    def _q_inverse_inplace(self, p):
        """The largest point whose tail Pr[v >= point] reaches p, kept among
        the points of positive mass, written over p."""
        # -tail ascends in point order
        k = np.searchsorted(-self._tail, np.negative(p, out=p), side="right") - 1
        return np.take(self.points, np.clip(k, *self._positive_span), out=p)

    @cached_property
    def _positive_span(self):
        # first and last index of a point with positive mass
        pos = np.flatnonzero(np.asarray(self.masses) > 0)
        return int(pos[0]), int(pos[-1])

    def atom_mass(self, x):
        k = bisect.bisect_left(self.points, x)
        return self.masses[k] if k < len(self.points) and self.points[k] == x else 0.0

    def atoms(self):
        return [p for p, m in zip(self.points, self.masses) if m > 0]

    def virtual_value(self, v):
        """Ironed virtual values, elementwise; every value must be one of
        the support points."""
        v = np.asarray(v, dtype=float)
        pts = np.asarray(self.points)
        idx = np.minimum(np.searchsorted(pts, v), len(pts) - 1)
        off = pts[idx] != v
        if off.any():
            raise DomainError(f"value {v[off][0]} not in support {self.points}")
        return np.asarray(self.ironed.phi)[idx]

    @cached_property
    def ironed(self):
        return iron_discrete(self)

    @cached_property
    def _phi_max(self):
        # running maximum of the ironed virtual values: the first point whose
        # phi reaches a level is the first point where this maximum does
        return np.maximum.accumulate(self.ironed.phi)

    def phi_geq_inv(self, y):
        """First support point with ironed virtual value >= y, elementwise;
        inf where there is none."""
        k = np.searchsorted(self._phi_max, y, side="left")
        return np.append(self.points, np.inf)[k]

    def phi_gt_inv(self, y):
        """First support point with ironed virtual value > y, elementwise;
        inf where there is none."""
        k = np.searchsorted(self._phi_max, y, side="right")
        return np.append(self.points, np.inf)[k]


# ---------------------------------------------------------------------------
# Revenue-quantile curves, regularity, ironing


@dataclass(frozen=True)
class RevenueQuantileCurve:
    """Piecewise-linear curve of (quantile q, revenue q * price(q)) pairs,
    ascending in q, starting at (0, 0)."""

    qs: tuple
    revs: tuple

    def is_concave(self, tol: float = REGULARITY_TOL) -> bool:
        scale = max(1.0, max(abs(r) for r in self.revs))
        for (q1, r1), (q2, r2), (q3, r3) in zip(
            zip(self.qs, self.revs), zip(self.qs[1:], self.revs[1:]), zip(self.qs[2:], self.revs[2:])
        ):
            cross = (r2 - r1) * (q3 - q2) - (r3 - r2) * (q2 - q1)
            if cross < -tol * scale:
                return False
        return True


@dataclass(frozen=True)
class IronedCurve:
    """Upper concave hull of a revenue-quantile polyline plus the ironed
    virtual value at each support point (slope of the hull segment that
    holds the point's quantile interval)."""

    hull_q: tuple
    hull_rev: tuple
    phi: tuple  # per support point, ascending in value

    def hull_value(self, q: float) -> float:
        return float(np.interp(q, self.hull_q, self.hull_rev))


def revenue_curve(m: Marginal, grid_size: int = 1000) -> RevenueQuantileCurve:
    """For continuous marginals: sample (q, q * q_inverse(q)) on a quantile
    grid plus all atom quantiles.  For DiscretePMF the curve is the vertex
    polyline (q_k, q_k * v_k) - the lottery-optimal revenue at quantile q_k -
    which is the curve whose concavity characterises regularity."""
    if grid_size < 2:
        raise DomainError("grid_size must be >= 2")
    if isinstance(m, DiscretePMF):
        pts = [(0.0, 0.0)]
        for k, p in enumerate(m.points):
            qk = m._tail[k]
            pts.append((qk, qk * p))
        pts = sorted(set(pts))
        qs, revs = zip(*pts)
        return RevenueQuantileCurve(qs, revs)
    qs = set(np.linspace(0.0, 1.0, grid_size).tolist())
    for a in m.atoms():
        qa = m.quantile_q(a)
        qs.add(qa)
        qs.add(max(0.0, qa - m.atom_mass(a)))
    qs = np.array(sorted(qs))
    return RevenueQuantileCurve(tuple(qs.tolist()), tuple((qs * m.q_inverse(qs)).tolist()))


def check_regular(m: Marginal, grid_size: int = 1000) -> bool:
    """Whether the revenue curve through `revenue_curve`'s points is
    concave.  For a discrete marginal that is the polyline through its
    points, which is weaker than the regularity of continuous distributions
    that the 2.63 constant assumes: it accepts
    DiscretePMF([0.303, 5.512], [0.9463, 0.0537]), and AR at its monopoly
    reserve on 10 i.i.d. copies loses 2.55x to a pairwise-independent
    prior."""
    if grid_size < 3:
        raise DomainError("grid_size must be >= 3")
    return revenue_curve(m, grid_size).is_concave()


def _upper_concave_hull(qs, revs):
    """Andrew's monotone chain, upper hull of points sorted by q."""
    pts = sorted(zip(qs, revs))
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep only right turns (concave from above)
            if (y2 - y1) * (p[0] - x2) <= (p[1] - y2) * (x2 - x1) + 1e-15:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def iron_discrete(m: DiscretePMF) -> IronedCurve:
    if not isinstance(m, DiscretePMF):
        raise DomainError("only DiscretePMF marginals are ironed")
    curve = revenue_curve(m, 2)
    hull_q, hull_rev = zip(*_upper_concave_hull(curve.qs, curve.revs))
    hq, hr = np.asarray(hull_q), np.asarray(hull_rev)
    q_hi = m._tail
    q_lo = np.append(q_hi[1:], 0.0)  # quantile interval of each point
    # a point of positive mass takes the slope of the hull segment holding
    # its interval, so points ironed onto one segment tie exactly
    phi = (np.diff(hr) / np.diff(hq))[np.maximum(np.searchsorted(hq, q_hi) - 1, 0)]
    # zero-mass point: slope at its quantile
    zero = q_hi - q_lo < 1e-15
    qz, h = q_hi[zero], 1e-12
    phi[zero] = (np.interp(np.minimum(qz + h, 1.0), hq, hr) - np.interp(np.maximum(qz - h, 0.0), hq, hr)) / (2 * h)
    return IronedCurve(hull_q, hull_rev, tuple(phi.tolist()))


def revenue_at_quantile(m: Marginal, q: float) -> float:
    """Best revenue from a single bidder when selling with probability q
    (price posting, with a lottery at the marginal price).  For the
    parametric regulars this is q * q_inverse(q); for discrete marginals it
    is the ironed hull, whose chords price the winning lottery between the
    two adjacent support points."""
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"quantile must be in [0, 1], got {q}")
    if isinstance(m, DiscretePMF):
        return m.ironed.hull_value(q)
    return float(q * m.q_inverse(q))


def regular_quantile_bound(p: float, tau: float) -> float:
    """p / ((1-p) tau + p): for a regular marginal scaled so q(1) = p this
    upper-bounds q(tau) for tau >= 1 and lower-bounds it for tau <= 1."""
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    if tau < 0.0:
        raise DomainError("tau must be nonnegative")
    return p / ((1.0 - p) * tau + p)
