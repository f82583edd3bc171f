import math

import pytest

from kwrob.quadrature import QuadratureError, integrate, integrate_to_infinity


class TestIntegrate:
    @pytest.mark.parametrize(
        "f",
        [lambda x: math.nan, lambda x: math.nan if x == 0.0 else x, lambda x: math.inf if x == 0.5 else x],
        ids=["nan", "nan-at-end", "inf-at-midpoint"],
    )
    def test_non_finite_integrand_raises(self, f):
        # a NaN never passes the convergence test, so without the check every
        # panel would be bisected to the full depth
        with pytest.raises(QuadratureError, match="not finite"):
            integrate(f, 0.0, 1.0)


class TestIntegrateToInfinity:
    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_lower_limit_must_be_finite(self, a):
        with pytest.raises(QuadratureError, match="lower limit must be finite"):
            integrate_to_infinity(lambda x: 1.0 / (x * x), a)
