"""The family protocol: per-family facts, and a family defined outside the library."""

from dataclasses import dataclass

import numpy as np
import pytest

from kmarkets import (
    Constant,
    KMarkets,
    Packing,
    PerturbedConditional,
    marginal_y_cdf,
    optimal_uniform_price,
    partial_expectation,
    validate_density,
    welfare,
)
from kmarkets.families import DistributionSpec

# (family, covariate values inside and outside its perturbed windows)
HAT_CASES = [
    (PerturbedConditional(a=1.0, delta=0.1, x0=0.5), (0.2, 0.5, 0.52, 0.55)),
    (PerturbedConditional(a=1.5, delta=0.24, x0=0.3), (0.1, 0.3, 0.35, 0.42)),
    (Packing(m=8, a=1.0, alpha=(1, 0, 1, 1, 0, 0, 1, 0)), (0.03, 0.16, 0.3, 0.4, 0.9)),
    (Packing(m=16, a=1.7, alpha=(0, 1) * 8), (0.01, 0.08, 0.11, 0.5, 0.99)),
]


@pytest.mark.parametrize("spec,xs", HAT_CASES, ids=["cond-0.1", "cond-0.24", "pack-8", "pack-16"])
def test_partial_expectation_matches_quadrature(spec, xs):
    # int_p^1 y f(y|x) dy by a 200k-node trapezoid; the closed form is exact
    for x in xs:
        for p in (0.0, 0.2, 0.45, 0.5, 0.53, 0.6, 0.7, 0.95):
            ys = np.linspace(p, 1.0, 200_001)
            want = np.trapezoid(ys * spec.conditional_density(ys, x), ys)
            assert abs(partial_expectation(spec, p, x) - want) <= 1e-10


@dataclass(frozen=True)
class TiltedUniform(DistributionSpec):
    """f(y|x) = 1 + b*x*(2y - 1): valuations tilt upward as x grows."""

    b: float = 0.8

    def conditional_density(self, y, x):
        y, x = np.broadcast_arrays(np.asarray(y, float), np.asarray(x, float))
        return 1.0 + self.b * x * (2.0 * y - 1.0)

    def conditional_cdf(self, y, x):
        y, x = np.broadcast_arrays(np.asarray(y, float), np.asarray(x, float))
        return y + self.b * x * (y * y - y)

    def ppf(self, u, x):
        u, x = np.broadcast_arrays(np.asarray(u, float), np.asarray(x, float))
        c = self.b * x
        return 2.0 * u / ((1.0 - c) + np.sqrt((1.0 - c) ** 2 + 4.0 * c * u))

    def partial_expectation(self, p, x):
        p, x = np.broadcast_arrays(np.asarray(p, float), np.asarray(x, float))
        return _tilt_base(p) + self.b * x * _tilt_extra(p)

    def normalization(self, xs):
        # the trapezoid on y in {0, 1} is exact for a density linear in y
        return 0.5 * (self.conditional_density(0.0, xs) + self.conditional_density(1.0, xs))


def _tilt_base(p):
    return 0.5 * (1.0 - p * p)  # int_p^1 y dy


def _tilt_extra(p):
    return 2.0 * (1.0 - p**3) / 3.0 - 0.5 * (1.0 - p * p)  # int_p^1 y (2y - 1) dy


def test_family_defined_outside_the_library():
    spec = TiltedUniform()
    b = spec.b

    report = validate_density(spec)
    assert report.max_norm_error <= 1e-15
    assert report.min_density == pytest.approx(1.0 - b, abs=1e-12)

    ys = np.linspace(0.0, 1.0, 11)
    xs = np.linspace(0.0, 1.0, 7)
    grid = ys[:, None] + 0.0 * xs[None, :]
    assert np.allclose(spec.ppf(spec.conditional_cdf(grid, xs), xs), grid, rtol=0, atol=1e-14)
    assert partial_expectation(spec, 0.3, 0.5) == pytest.approx(
        _tilt_base(0.3) + 0.5 * b * _tilt_extra(0.3), abs=1e-15
    )

    # F_Y(p) = p + (b/2)(p^2 - p); Simpson is exact for a CDF linear in x
    assert np.allclose(marginal_y_cdf(spec, ys), ys + 0.5 * b * (ys * ys - ys), rtol=0, atol=1e-14)

    p_star, r_star = optimal_uniform_price(spec)
    dense = np.linspace(0.0, 1.0, 2_000_001)
    rev = dense * (1.0 - dense) * (1.0 + 0.5 * b * dense)
    assert r_star == pytest.approx(rev.max(), abs=1e-12)
    assert abs(p_star - dense[np.argmax(rev)]) <= 1e-6

    # welfare: int_0^1 E[Y 1{Y >= p(x)} | x] dx, linear in x within each market
    assert welfare(spec, Constant(0.4)) == pytest.approx(
        _tilt_base(0.4) + 0.5 * b * _tilt_extra(0.4), abs=1e-14
    )
    two = welfare(spec, KMarkets(k=2, prices=(0.3, 0.6)))
    want = 0.5 * (_tilt_base(0.3) + _tilt_base(0.6)) + b * (_tilt_extra(0.3) / 8 + 3 * _tilt_extra(0.6) / 8)
    assert two == pytest.approx(want, abs=1e-14)
