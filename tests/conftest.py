"""Shared generators and independent oracles for the test suite.

The oracles here are deliberately naive (full enumeration, direct
integration) and never call the code paths they are used to check.
"""

import itertools

import numpy as np
import pytest

from kwrob import DiscretePMF, DomainError, EqualRevenue, ProductPrior, Uniform, check_regular
from kwrob.mechanisms import HIGHEST_VALUE
from kwrob.priors import FullMarginal


def q1q2_enumerate(qs):
    """Pr[>=1], Pr[>=2] for independent Bernoulli events, by enumerating
    all 2^n outcomes; exact when qs are Fractions."""
    n = len(qs)
    q1 = q2 = 0
    for bits in itertools.product([0, 1], repeat=n):
        p = 1
        for b, q in zip(bits, qs):
            p *= q if b else (1 - q)
        c = sum(bits)
        if c >= 1:
            q1 += p
        if c >= 2:
            q2 += p
    return q1, q2


def table_q1q2_enumerate(table, tau):
    q1 = q2 = 0.0
    for values, mass in table.cells():
        c = sum(v >= tau for v in values)
        if c >= 1:
            q1 += mass
        if c >= 2:
            q2 += mass
    return q1, q2


def table_revenue_enumerate(table, payment_fn):
    return sum(mass * payment_fn(values) for values, mass in table.cells())


def phi_inv_scan(points, phis, y, strict):
    """First point whose virtual value is > y (strict) or >= y, by a linear
    scan; None when there is none."""
    for p, ph in zip(points, phis):
        if (ph > y) if strict else (ph >= y):
            return p
    return None


def _phi_inv(m, y, strict):
    if isinstance(m, Uniform):  # phi(v) = 2v - hi is continuous and increasing
        if (y >= m.hi) if strict else (y > m.hi):
            return None
        return min(max((y + m.hi) / 2.0, m.lo), m.hi)
    if isinstance(m, DiscretePMF):
        return phi_inv_scan(m.points, m.ironed.phi, y, strict)
    # (shifted) equal revenue: phi is its shift below the top atom
    lo, top = m.support
    return phi_inv_scan((lo, top), (getattr(m, "shift", 0.0), top), y, strict)


def threshold_reference(mech, i, best_key):
    """Scalar threshold bid of bidder i against the strongest competing
    allocation key (None when no competitor is eligible)."""
    m = mech.marginals[i]
    t0 = _phi_inv(m, 0.0, False)
    if t0 is None:
        raise DomainError(f"marginal {i} never reaches nonnegative virtual value")
    if best_key is None:
        return t0
    phi_star = best_key[0]
    candidates = []
    t_strict = _phi_inv(m, phi_star, True)
    if t_strict is not None:
        candidates.append(t_strict)
    t_geq = _phi_inv(m, phi_star, False)
    if t_geq is not None:
        if mech.tie_break == HIGHEST_VALUE:
            candidates.append(max(t_geq, best_key[1]))
        elif i < -best_key[-1]:
            candidates.append(t_geq)
    if not candidates:
        return np.inf
    return max(t0, min(candidates))


def myerson_reference(mech, values):
    """(winner, payment) of the optimal mechanism on one value vector, by
    sorting the eligible bidders' allocation keys (phi, v, -i) under
    highest_value or (phi, -i) under lex, one bidder at a time."""
    keys = []
    for i, (m, v) in enumerate(zip(mech.marginals, values)):
        lo, hi = m.support
        if not (lo - 1e-9 <= v <= hi + 1e-9):
            raise DomainError(f"value {v} of bidder {i} outside support [{lo}, {hi}]")
        phi = m.ironed.phi[m._index_of(v)] if isinstance(m, DiscretePMF) else m.virtual_value(v)
        if phi >= 0.0:
            keys.append(((phi, v, -i) if mech.tie_break == HIGHEST_VALUE else (phi, -i), i))
    if not keys:
        return None, 0.0
    keys.sort(reverse=True)
    winner = keys[0][1]
    pay = threshold_reference(mech, winner, keys[1][0] if len(keys) > 1 else None)
    assert pay <= values[winner] + 1e-9
    return winner, min(pay, values[winner])


def sample_reference(prior, seed, size):
    """(size x n) draws from a product or mixture prior, one bidder column
    at a time: a product draws each marginal in bidder order; a mixture
    draws every row's branch, then per branch the slot pick and per bidder
    its plain component for all the branch's rows and, when any row picked
    it, its chosen component for all of them too, keeping the picked rows'
    chosen draws."""
    rng = np.random.default_rng(seed)
    if isinstance(prior, ProductPrior):
        return np.column_stack([FullMarginal(m).sample(rng, size) for m in prior.marginals])
    n = prior.n_bidders
    weights = np.array([b.weight for b in prior.branches])
    branch_idx = rng.choice(len(weights), size=size, p=weights / weights.sum())
    out = np.empty((size, n))
    for bi, branch in enumerate(prior.branches):
        rows = np.nonzero(branch_idx == bi)[0]
        if rows.size == 0:
            continue
        if branch.slot:
            pick = rng.integers(0, len(branch.slot.indices), size=rows.size)
        for i in range(n):
            plain, chosen = branch.component_pair(i)
            vals = plain.sample(rng, rows.size)
            if chosen is not None:
                mine = pick == branch.slot.position(i)
                if np.any(mine):
                    vals = np.where(mine, chosen.sample(rng, rows.size), vals)
            out[rows, i] = vals
    return out


def kwise_rows_reference(shape, masses, k):
    """The k-wise constraint family A p = b on the C-order cells of `shape`,
    one dense 0/1 mask at a time: the total-mass row, then a row per subset
    S with |S| <= k (in combinations order) and per cell c of S (in C
    order), whose right-hand side is prod_{i in S} masses[i][c_i]."""
    n = len(shape)
    rows, rhs = [np.ones(int(np.prod(shape)))], [1.0]
    for size in range(1, min(k, n) + 1):
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
    return np.array(rows), np.array(rhs)


def random_regular_discrete(rng, max_pts=4, lo=0.1, hi=10.0):
    """Rejection-sample a discrete marginal whose revenue-quantile polyline
    is concave."""
    for _ in range(2000):
        k = int(rng.integers(2, max_pts + 1))
        pts = np.unique(np.round(np.sort(rng.uniform(lo, hi, size=k)), 3))
        if len(pts) < 2:
            continue
        w = rng.dirichlet(np.ones(len(pts)))
        w = np.round(w, 6)
        w[-1] = 1.0 - w[:-1].sum()
        if np.any(w <= 0):
            continue
        m = DiscretePMF(pts.tolist(), w.tolist())
        if check_regular(m):
            return m
    raise RuntimeError("failed to sample a regular discrete marginal")


def random_discrete(rng, max_pts=4, lo=0.1, hi=10.0):
    for _ in range(100):
        k = int(rng.integers(2, max_pts + 1))
        pts = np.unique(np.round(np.sort(rng.uniform(lo, hi, size=k)), 3))
        if len(pts) < 2:
            continue
        w = rng.dirichlet(np.ones(len(pts)))
        w = np.round(w, 6)
        w[-1] = 1.0 - w[:-1].sum()
        if np.any(w <= 0):
            continue
        return DiscretePMF(pts.tolist(), w.tolist())
    raise RuntimeError


def random_scaled_regular_family(rng, n_max=5):
    """Random regular parametric marginals rescaled so the expected number
    of bidders strictly above 1 is at most 1 (the normalization the tail
    bounds assume)."""
    n = int(rng.integers(2, n_max + 1))
    ms = []
    for _ in range(n):
        if rng.random() < 0.5:
            lo = float(rng.uniform(0.05, 1.0))
            hi = lo * float(rng.uniform(1.5, 20.0))
            ms.append(EqualRevenue(lo, hi))
        else:
            lo = float(rng.uniform(0.0, 1.0))
            hi = lo + float(rng.uniform(0.5, 10.0))
            ms.append(Uniform(lo, hi))

    def above(v):
        return sum(m.quantile_q(v) for m in ms)

    lo_v = min(m.support[0] for m in ms)
    hi_v = max(m.support[1] for m in ms)
    a, b = lo_v - 1.0, hi_v + 1.0
    for _ in range(100):
        mid = 0.5 * (a + b)
        if above(mid) >= 1.0:
            a = mid
        else:
            b = mid
    scale = 1.0 / max(a, 1e-9)

    def rescale(m):
        if isinstance(m, EqualRevenue):
            return EqualRevenue(m.lo * scale, m.hi * scale)
        return Uniform(m.lo * scale, m.hi * scale)

    return [rescale(m) for m in ms]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
