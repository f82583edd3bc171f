"""Single-bidder marginal value distributions.

All marginals are bounded. Every variant exposes the same small surface:
cumulative distribution, upper quantile q(tau) = Pr[v >= tau] (atom at tau
included), its inverse, virtual values, atoms, and sampling via inverse
quantiles. Discrete marginals additionally support ironing via the upper
concave hull of their revenue-quantile polyline.

Quantile convention: q is left-continuous and includes the atom at tau,
i.e. q(tau) = Pr[v >= tau]; the CDF is right-continuous. The two satisfy
q(tau) + lim_{x->tau-} F(x) = 1.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MASS_TOL = 1e-12
REGULARITY_TOL = 1e-9


class DomainError(ValueError):
    """Argument outside the domain the operation is defined on."""


def _is_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class EqualRevenue:
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

    def cdf(self, x: float) -> float:
        if x < self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        return 1.0 - self.lo / x

    def quantile_q(self, tau: float) -> float:
        if tau <= self.lo:
            return 1.0
        if tau > self.hi:
            return 0.0
        return self.lo / tau

    def q_inverse(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"p must be in [0, 1], got {p}")
        if p <= self.lo / self.hi:
            return self.hi
        return self.lo / p

    def atom_mass(self, x: float) -> float:
        if _is_close(x, self.hi):
            return self.lo / self.hi
        return 0.0

    def atoms(self):
        return [self.hi]

    def virtual_value(self, v: float) -> float:
        if _is_close(v, self.hi):
            return self.hi
        if self.lo - 1e-12 <= v < self.hi:
            return 0.0
        raise DomainError(f"value {v} outside support [{self.lo}, {self.hi}]")

    def virtual_value_vec(self, v: np.ndarray) -> np.ndarray:
        return np.where(v >= self.hi - 1e-12 * max(1.0, self.hi), self.hi, 0.0)

    def monopoly_reserve(self) -> float:
        return self.lo

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

    def prob_phi_geq(self, nu: float) -> float:
        if nu <= 0.0:
            return 1.0
        if nu <= self.hi:
            return self.lo / self.hi
        return 0.0

    def phi_levels(self):
        """Virtual-value levels that carry probability mass, as (level, mass)."""
        return [(0.0, 1.0 - self.lo / self.hi), (self.hi, self.lo / self.hi)]

    def ppf_upper(self, u):
        """Value v with q(v) = u under the upper-quantile convention
        (vectorised); u ~ Uniform(0,1] gives a draw from the marginal."""
        u = np.asarray(u, dtype=float)
        return np.where(u <= self.lo / self.hi, self.hi, self.lo / np.maximum(u, 1e-300))


@dataclass(frozen=True)
class ShiftedEqualRevenue:
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

    def cdf(self, x):
        return self._base.cdf(x - self.shift)

    def quantile_q(self, tau):
        return self._base.quantile_q(tau - self.shift)

    def q_inverse(self, p):
        return self._base.q_inverse(p) + self.shift

    def atom_mass(self, x):
        return self._base.atom_mass(x - self.shift)

    def atoms(self):
        return [self.hi + self.shift]

    def virtual_value(self, v):
        top = self.hi + self.shift
        if _is_close(v, top):
            return top
        if self.lo + self.shift - 1e-12 <= v < top:
            return self.shift
        raise DomainError(f"value {v} outside support {self.support}")

    def virtual_value_vec(self, v):
        top = self.hi + self.shift
        return np.where(v >= top - 1e-12 * max(1.0, top), top, self.shift)

    def monopoly_reserve(self):
        return self.lo + self.shift

    def phi_geq_inv(self, y):
        y = np.asarray(y, dtype=float)
        top = self.hi + self.shift
        return np.where(y <= self.shift, self.lo + self.shift, np.where(y <= top, top, np.inf))

    def phi_gt_inv(self, y):
        y = np.asarray(y, dtype=float)
        top = self.hi + self.shift
        return np.where(y < self.shift, self.lo + self.shift, np.where(y < top, top, np.inf))

    def prob_phi_geq(self, nu):
        if nu <= self.shift:
            return 1.0
        if nu <= self.hi + self.shift:
            return self.lo / self.hi
        return 0.0

    def phi_levels(self):
        frac = self.lo / self.hi
        return [(self.shift, 1.0 - frac), (self.hi + self.shift, frac)]

    def ppf_upper(self, u):
        return self._base.ppf_upper(u) + self.shift


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo >= 0 and self.hi > self.lo):
            raise DomainError(f"need 0 <= lo < hi, got {self.lo}, {self.hi}")

    @property
    def support(self):
        return (self.lo, self.hi)

    def cdf(self, x):
        return float(np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0))

    def quantile_q(self, tau):
        return float(np.clip((self.hi - tau) / (self.hi - self.lo), 0.0, 1.0))

    def q_inverse(self, p):
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"p must be in [0, 1], got {p}")
        return self.hi - p * (self.hi - self.lo)

    def atom_mass(self, x):
        return 0.0

    def atoms(self):
        return []

    def virtual_value(self, v):
        if not (self.lo - 1e-12 <= v <= self.hi + 1e-12):
            raise DomainError(f"value {v} outside support [{self.lo}, {self.hi}]")
        return 2.0 * v - self.hi

    def virtual_value_vec(self, v):
        return 2.0 * np.asarray(v, dtype=float) - self.hi

    def monopoly_reserve(self):
        return max(self.lo, self.hi / 2.0)

    def phi_geq_inv(self, y):
        y = np.asarray(y, dtype=float)
        # phi(hi) = hi, so no support value reaches y > hi
        return np.where(y > self.hi, np.inf, np.clip((y + self.hi) / 2.0, self.lo, self.hi))

    def phi_gt_inv(self, y):
        # phi is continuous and increasing up to phi(hi) = hi
        return np.where(np.asarray(y, dtype=float) >= self.hi, np.inf, self.phi_geq_inv(y))

    def prob_phi_geq(self, nu):
        return self.quantile_q((nu + self.hi) / 2.0)

    def phi_levels(self):
        return []

    def ppf_upper(self, u):
        u = np.asarray(u, dtype=float)
        return self.hi - u * (self.hi - self.lo)


@dataclass(frozen=True)
class DiscretePMF:
    """Finite-support marginal.  points strictly ascending, masses >= 0
    summing to 1.  Virtual values come from the ironed revenue-quantile
    polyline (interior atoms have no density, so the regular formula does
    not apply there)."""

    points: tuple
    masses: tuple

    def __init__(self, points, masses):
        pts = tuple(float(p) for p in points)
        ms = tuple(float(m) for m in masses)
        if len(pts) != len(ms) or not pts:
            raise DomainError("points and masses must be equal-length and non-empty")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise DomainError("points must be strictly ascending")
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
        return tuple(np.cumsum(self.masses[::-1])[::-1])

    def cdf(self, x):
        total = 0.0
        for p, m in zip(self.points, self.masses):
            if p <= x + 1e-15 * max(1.0, abs(x)):
                total += m
        return min(total, 1.0)

    def quantile_q(self, tau):
        k = bisect.bisect_left(self.points, tau - 1e-15 * max(1.0, abs(tau)))
        if k >= len(self.points):
            return 0.0
        return float(self._tail[k])

    def q_inverse(self, p):
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"p must be in [0, 1], got {p}")
        if p == 0.0:
            return self.points[-1]
        best = self.points[0]
        for k, pt in enumerate(self.points):
            if self._tail[k] >= p - 1e-15:
                best = pt
        return best

    def atom_mass(self, x):
        for p, m in zip(self.points, self.masses):
            if _is_close(p, x):
                return m
        return 0.0

    def atoms(self):
        return [p for p, m in zip(self.points, self.masses) if m > 0]

    def _index_of(self, v):
        for k, p in enumerate(self.points):
            if _is_close(p, v):
                return k
        raise DomainError(f"value {v} not in support {self.points}")

    def virtual_value(self, v):
        k = self._index_of(v)
        if k == len(self.points) - 1:
            return self.points[-1]
        raise DomainError(
            "interior atom has no density; use the ironed virtual value "
            "(iron_discrete / virtual_value_vec)"
        )

    def virtual_value_vec(self, v):
        """Ironed virtual values, elementwise; every value must be one of
        the support points (to relative 1e-12)."""
        v = np.asarray(v, dtype=float)
        pts = np.asarray(self.points)
        tol = 1e-12 * np.maximum(1.0, np.abs(v))
        idx = np.minimum(np.searchsorted(pts, v - tol), len(pts) - 1)
        off = np.abs(pts[idx] - v) > tol
        if off.any():
            raise DomainError(f"value {v[off][0]} not in support {self.points}")
        return np.asarray(self.ironed.phi)[idx]

    @cached_property
    def ironed(self):
        return iron_discrete(self)

    def monopoly_reserve(self):
        for p, ph in zip(self.points, self.ironed.phi):
            if ph >= 0.0:
                return p
        return self.points[-1]

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

    def prob_phi_geq(self, nu):
        return sum(m for m, ph in zip(self.masses, self.ironed.phi) if ph >= nu)

    def phi_levels(self):
        levels = {}
        for m, ph in zip(self.masses, self.ironed.phi):
            levels[ph] = levels.get(ph, 0.0) + m
        return sorted(levels.items())

    def ppf_upper(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        tail = np.asarray(self._tail)
        # largest point with tail >= u; tail is descending in point order
        idx = np.searchsorted(-tail, -u, side="right") - 1
        idx = np.clip(idx, 0, len(self.points) - 1)
        out = np.asarray(self.points)[idx]
        return out if out.size > 1 else out.reshape(u.shape)


Marginal = EqualRevenue | ShiftedEqualRevenue | Uniform | DiscretePMF


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
    virtual value at each support point (hull slope over the point's
    quantile interval)."""

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
    qs = sorted(qs)
    revs = [q * m.q_inverse(q) for q in qs]
    return RevenueQuantileCurve(tuple(qs), tuple(revs))


def check_regular(m: Marginal, grid_size: int = 1000) -> bool:
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
    hull = _upper_concave_hull(curve.qs, curve.revs)
    hull_q, hull_rev = zip(*hull)
    phi = []
    tails = list(m._tail) + [0.0]
    for k in range(len(m.points)):
        q_hi, q_lo = tails[k], tails[k + 1]  # quantile interval of point k
        if q_hi - q_lo < 1e-15:
            # zero-mass point: slope at its quantile
            h = 1e-12
            lo_v = float(np.interp(max(q_hi - h, 0.0), hull_q, hull_rev))
            hi_v = float(np.interp(min(q_hi + h, 1.0), hull_q, hull_rev))
            phi.append((hi_v - lo_v) / (2 * h))
            continue
        r_hi = float(np.interp(q_hi, hull_q, hull_rev))
        r_lo = float(np.interp(q_lo, hull_q, hull_rev))
        phi.append((r_hi - r_lo) / (q_hi - q_lo))
    return IronedCurve(hull_q, hull_rev, tuple(phi))


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
    return q * m.q_inverse(q)


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
