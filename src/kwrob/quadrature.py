"""Adaptive Simpson quadrature with mandatory breakpoints.

Integrands here are bounded and piecewise smooth (step-probability curves,
floor-function bound formulas); splitting at known atoms / kinks keeps the
adaptive refinement cheap and the error estimate honest.
"""

from __future__ import annotations

import math

MAX_DEPTH = 48  # bisections a panel may take before it counts as not converging


class QuadratureError(RuntimeError):
    pass


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, whole, m, fm, tol, depth, span):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if not math.isfinite(delta):
        raise QuadratureError(f"integrand is not finite on [{a}, {b}]")
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0 or b - a <= 1e-12 * span:
        # a finite jump pinched into a vanishing pocket contributes at most
        # |jump| * width; accept it.  Anything wider is real non-convergence.
        if b - a <= 1e-12 * span:
            return left + right + delta / 15.0
        raise QuadratureError(f"quadrature failed to converge on [{a}, {b}]")
    return _adaptive(f, a, fa, m, fm, left, lm, flm, tol / 2.0, depth - 1, span) + _adaptive(
        f, m, fm, b, fb, right, rm, frm, tol / 2.0, depth - 1, span
    )


def integrate(f, a: float, b: float, abs_tol: float = 1e-9, breakpoints=()) -> float:
    """Integral of f over [a, b] to absolute tolerance abs_tol, with the
    given interior breakpoints forced as panel boundaries."""
    if b <= a:
        return 0.0
    cuts = sorted({a, b} | {x for x in breakpoints if a < x < b})
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        # tolerance budget proportional to panel length
        tol = abs_tol * (hi - lo) / (b - a)
        flo, fhi = f(lo), f(hi)
        m, fm, whole = _simpson(f, lo, flo, hi, fhi)
        total += _adaptive(
            f, lo, flo, hi, fhi, whole, m, fm, max(tol, 1e-16), MAX_DEPTH, b - a
        )
    return total


def integrate_to_infinity(f, a: float, abs_tol: float = 1e-9, breakpoints=()) -> float:
    """Integral of f over [a, inf) via the substitution x = a - 1 + 1/u,
    valid when f decays at least quadratically (true for all tail bounds
    used here)."""
    if not math.isfinite(a):
        raise QuadratureError("lower limit must be finite")
    shift = a - 1.0

    def g(u):
        # u = 0 is the x -> infinity limit; with quadratic decay the
        # transformed integrand is continuous there, so nudge off zero
        u = max(u, 1e-12)
        x = shift + 1.0 / u
        return f(x) / (u * u)

    inner = sorted({1.0 / (x - shift) for x in breakpoints if x > a})
    return integrate(g, 0.0, 1.0, abs_tol=abs_tol, breakpoints=inner)
