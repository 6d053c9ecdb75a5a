"""True-distribution quantities: optimal prices, expected revenue, welfare.

Integrals over the unit square use composite Simpson rules; maximizations
use a dense grid scan followed by golden-section refinement of the
bracketing interval.  Pointwise revenue of posting price y to covariate x
is r(y, x) = y * (1 - F(y|x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import _simpson_weights, DistributionSpec, ParameterDomainError
from .pricing import KMarkets, PricingFunction, price_at

GRID_POINTS = 4097  # scan grid for all price maximizations
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class QuadratureConfig:
    y_panels: int = 4096
    x_panels: int = 1024
    refine_tol: float = 1e-10

    def __post_init__(self):
        for panels in (self.y_panels, self.x_panels):
            if panels < 8 or panels % 2:
                raise ParameterDomainError("panel counts must be even and >= 8")
        if not self.refine_tol > 0.0:
            raise ParameterDomainError("refine_tol must be positive")


DEFAULT_QUAD = QuadratureConfig()


@dataclass(frozen=True)
class TabulatedPolicy:
    """A pricing policy recorded on a covariate grid (linear in between)."""

    x_grid: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        xg = np.asarray(self.x_grid, dtype=float)
        pr = np.asarray(self.prices, dtype=float)
        if xg.ndim != 1 or xg.shape != pr.shape or xg.size < 2:
            raise ParameterDomainError("x_grid and prices must be equal-length 1-d arrays")
        # Written so that NaN, which diff, min and max propagate, fails the checks.
        if not (np.all(np.diff(xg) > 0.0) and 0.0 <= xg[0] and xg[-1] <= 1.0):
            raise ParameterDomainError("x_grid must be strictly increasing within [0, 1]")
        if not (0.0 <= pr.min() and pr.max() <= 1.0):
            raise ParameterDomainError("prices must lie in [0, 1]")
        xg, pr = xg.copy(), pr.copy()
        xg.flags.writeable = False
        pr.flags.writeable = False
        object.__setattr__(self, "x_grid", xg)
        object.__setattr__(self, "prices", pr)


def pointwise_revenue(spec: DistributionSpec, y, x):
    """Expected revenue y * (1 - F(y|x)) of posting y to covariate x."""
    y = np.asarray(y, dtype=float)
    return y * (1.0 - spec.conditional_cdf(y, x))


def marginal_y_cdf(spec: DistributionSpec, p, cfg: QuadratureConfig = DEFAULT_QUAD):
    """Valuation marginal F_Y(p), integrating the conditional CDF over x."""
    p = np.asarray(p, dtype=float)
    if spec.x_independent:  # the x-average is free
        return spec.conditional_cdf(p, 0.5)
    w = _simpson_weights(cfg.x_panels)
    xs = np.linspace(0.0, 1.0, cfg.x_panels + 1)
    flat = p.reshape(-1)
    vals = spec.conditional_cdf(flat[:, None], xs[None, :]) @ w
    return vals.reshape(p.shape) if p.ndim else float(vals[0])


def _golden_max(f, lo, hi, tol):
    """Vectorized golden-section maximization on per-element brackets.

    Returns the best evaluated point and value per element; f must map an
    array of abscissae to an array of values.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float)).copy()
    hi = np.atleast_1d(np.asarray(hi, dtype=float)).copy()
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if np.max(hi - lo) <= tol:
            break
        right = fc < fd  # maximum sits in [c, hi]
        lo = np.where(right, c, lo)
        hi = np.where(right, hi, d)
        probe = np.where(right, lo + _INV_PHI * (hi - lo), hi - _INV_PHI * (hi - lo))
        f_probe = f(probe)
        c, d, fc, fd = (
            np.where(right, d, probe),
            np.where(right, probe, c),
            np.where(right, fd, f_probe),
            np.where(right, f_probe, fc),
        )
    best = fc >= fd
    return np.where(best, c, d), np.maximum(fc, fd)


def _scan_then_refine(f, tol):
    """Maximize f over prices in [0, 1], one maximization per batch column.

    f maps prices of shape (GRID_POINTS, 1) to revenues of shape
    (GRID_POINTS, m) for the grid scan, and prices of shape (m,) to
    revenues of shape (m,) for the golden-section refinement of the bracket
    around the best grid point.  Returns (prices, revenues), each (m,).
    The grid point is kept unless refinement strictly improves on it: near
    a flat maximum the refined revenue ties in floats and the grid abscissa
    (often an exact value like 1/2) is the better answer.
    """
    ys = np.linspace(0.0, 1.0, GRID_POINTS)
    rev = f(ys[:, None])
    i = np.argmax(rev, axis=0)
    lo = ys[np.maximum(i - 1, 0)]
    hi = ys[np.minimum(i + 1, GRID_POINTS - 1)]
    p_ref, r_ref = _golden_max(f, lo, hi, tol)
    grid_rev = rev[i, np.arange(rev.shape[1])]
    better = r_ref > grid_rev
    return np.where(better, p_ref, ys[i]), np.where(better, r_ref, grid_rev)


def optimal_uniform_price(
    spec: DistributionSpec, cfg: QuadratureConfig = DEFAULT_QUAD
) -> tuple[float, float]:
    """Best single posted price and its expected revenue."""
    p, r = _scan_then_refine(lambda q: q * (1.0 - marginal_y_cdf(spec, q, cfg)), cfg.refine_tol)
    return float(p[0]), float(r[0])


def optimal_3pd_policy(
    spec: DistributionSpec,
    x_grid_size: int = 1025,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> TabulatedPolicy:
    """Tabulate the pointwise-optimal price p*(x) on a covariate grid."""
    if x_grid_size < 2:
        raise ParameterDomainError("x_grid_size must be at least 2")
    xs = np.linspace(0.0, 1.0, x_grid_size)
    prices, _ = _scan_then_refine(lambda q: pointwise_revenue(spec, q, xs), cfg.refine_tol)
    return TabulatedPolicy(x_grid=xs, prices=prices)


def _policy_prices_at(pf, xs):
    return np.atleast_1d(np.asarray(price_at(pf, xs), dtype=float))


def _integrate_policy(spec, pf, cfg, integrand):
    """Simpson-integrate integrand(prices, xs) against the covariate law.

    Step policies are integrated bin by bin so the price discontinuities
    always land on panel boundaries.
    """
    if isinstance(pf, KMarkets):
        panels = max(8, -(-cfg.x_panels // pf.k))
        panels += panels % 2
        w = _simpson_weights(panels)
        t = np.linspace(0.0, 1.0, panels + 1)
        nodes = (np.arange(pf.k)[:, None] + t[None, :]) / pf.k
        prices = np.asarray(pf.prices, dtype=float)[:, None]
        vals = integrand(prices, nodes)
        return float((vals @ w).sum() / pf.k)
    xs = np.linspace(0.0, 1.0, cfg.x_panels + 1)
    w = _simpson_weights(cfg.x_panels)
    return float(integrand(_policy_prices_at(pf, xs), xs) @ w)


def expected_revenue(
    spec: DistributionSpec,
    pf: PricingFunction | TabulatedPolicy,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """Expected revenue of a pricing function under the true distribution."""
    return _integrate_policy(spec, pf, cfg, lambda p, x: pointwise_revenue(spec, p, x))


def partial_expectation(spec: DistributionSpec, p, x):
    """E[Y 1{Y >= p} | X = x], the social value served at price p."""
    return spec.partial_expectation(p, x)


def welfare(
    spec: DistributionSpec,
    pf: PricingFunction | TabulatedPolicy,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """Expected social welfare E[Y 1{Y >= p(X)}] of a pricing function."""
    return _integrate_policy(spec, pf, cfg, lambda p, x: partial_expectation(spec, p, x))
