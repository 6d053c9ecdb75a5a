"""True-distribution quantities: optimal prices, expected revenue, welfare.

Integrals over the unit square use composite Simpson rules; maximizations
use a dense grid scan followed by golden-section refinement of the
bracketing interval.  Pointwise revenue of posting price y to covariate x
is r(y, x) = y * (1 - F(y|x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .families import _check_count, _check_unit, _is_int, _simpson_rule, DistributionSpec, ParameterDomainError
from .pricing import PricingFunction, price_at

GRID_POINTS = 4097  # scan grid for all price maximizations
BLOCK = 64  # covariate columns (or price rows) evaluated at once by a grid scan
# Elements per batched array: (R, n) sample blocks and integrate_rows blocks.
# 8192 float64 are 64 KB, under glibc's 128 KB mmap threshold, so the
# blocks come from the heap instead of faulting in fresh pages each time.
BATCH = 8192
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class QuadratureConfig:
    y_panels: int = 4096
    x_panels: int = 1024
    refine_tol: float = 1e-10

    def __post_init__(self):
        for panels in (self.y_panels, self.x_panels):
            if not _is_int(panels) or panels < 8 or panels % 2:
                raise ParameterDomainError("panel counts must be even integers >= 8")
        if not 0.0 < self.refine_tol < math.inf:  # inf would skip refinement, NaN fails too
            raise ParameterDomainError("refine_tol must be positive and finite")


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
        # Written so that NaN, which diff propagates, fails the check.
        if not (np.all(np.diff(xg) > 0.0) and 0.0 <= xg[0] and xg[-1] <= 1.0):
            raise ParameterDomainError("x_grid must be strictly increasing within [0, 1]")
        _check_unit("prices", pr)
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
    """Valuation marginal F_Y(p), integrating the conditional CDF over x.

    Prices are integrated BLOCK rows at a time to bound memory; the remainder
    joins the last block, because the BLAS matrix-vector product may round a
    lone row differently from the same row inside a larger block.
    """
    p = np.asarray(p, dtype=float)
    _check_unit("prices", p)
    if spec.x_independent:  # the x-average is free
        return spec.conditional_cdf(p, 0.5)
    xs, w = _simpson_rule(cfg.x_panels)
    flat = p.reshape(-1)
    vals = np.empty(flat.size)
    starts = range(0, max(flat.size - BLOCK, 0) + 1, BLOCK)
    for start, stop in zip(starts, [*starts[1:], flat.size]):
        vals[start:stop] = spec.conditional_cdf(flat[start:stop, None], xs) @ w
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


def _scan_then_refine(f, xs, tol):
    """Maximize f over prices in [0, 1], one maximization per covariate in xs.

    f(prices, x) maps prices of shape (GRID_POINTS, 1) and a slice of xs to
    revenues of shape (GRID_POINTS, len(slice)) for the grid scan, which runs
    BLOCK columns at a time so that its memory stays bounded, and prices of
    shape (m,) with all of xs to revenues of shape (m,) for one golden-section
    refinement of the bracket around every column's best grid point.
    Returns (prices, revenues), each (m,) for m = xs.size.  The grid point is
    kept unless refinement strictly improves on it: near a flat maximum the
    refined revenue ties in floats and the grid abscissa (often an exact
    value like 1/2) is the better answer.
    """
    ys = np.linspace(0.0, 1.0, GRID_POINTS)
    i = np.empty(xs.size, dtype=np.intp)
    grid_rev = np.empty(xs.size)
    for start in range(0, xs.size, BLOCK):
        cols = slice(start, start + BLOCK)
        rev = f(ys[:, None], xs[cols])
        i[cols] = np.argmax(rev, axis=0)
        grid_rev[cols] = rev[i[cols], np.arange(rev.shape[1])]
    lo = ys[np.maximum(i - 1, 0)]
    hi = ys[np.minimum(i + 1, GRID_POINTS - 1)]
    p_ref, r_ref = _golden_max(lambda q: f(q, xs), lo, hi, tol)
    better = r_ref > grid_rev
    return np.where(better, p_ref, ys[i]), np.where(better, r_ref, grid_rev)


def optimal_uniform_price(
    spec: DistributionSpec, cfg: QuadratureConfig = DEFAULT_QUAD
) -> tuple[float, float]:
    """Best single posted price and its expected revenue."""
    p, r = _scan_then_refine(
        lambda q, _: q * (1.0 - marginal_y_cdf(spec, q, cfg)), np.zeros(1), cfg.refine_tol
    )
    return float(p[0]), float(r[0])


def optimal_3pd_policy(
    spec: DistributionSpec,
    x_grid_size: int = 1025,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> TabulatedPolicy:
    """Tabulate the pointwise-optimal price p*(x) on a covariate grid."""
    _check_count("x_grid_size", x_grid_size, 2)
    xs = np.linspace(0.0, 1.0, x_grid_size)
    prices, _ = _scan_then_refine(partial(pointwise_revenue, spec), xs, cfg.refine_tol)
    return TabulatedPolicy(x_grid=xs, prices=prices)


def integrate_rows(spec, prices, cfg: QuadratureConfig, integrands) -> np.ndarray:
    """Simpson-integrate each integrand(spec, prices, xs) against the covariate law.

    prices has one leading row per policy and broadcasts against the nodes of
    ``_simpson_rule(cfg.x_panels, k)``, k = prices.shape[1]: (rows, k, 1) for
    step rules, (1, 1, m + 1) for a tabulated policy priced at the one-market
    nodes.  Rows run in blocks of about BATCH nodes; each row's integrand is
    its own (k, m + 1) matrix-vector product, so a row integrates to the same
    bits alone or in any block.  Returns a (len(integrands), rows) array.
    """
    nodes, w = _simpson_rule(cfg.x_panels, prices.shape[1])
    step = max(1, BATCH // nodes.size)
    out = np.empty((len(integrands), len(prices)))
    for start in range(0, len(prices), step):
        block = prices[start : start + step]
        out[:, start : start + step] = [(f(spec, block, nodes) @ w).sum(axis=1) for f in integrands]
    return out / nodes.shape[0]


def _integrate_policy(spec, pf, cfg, integrand):
    """One policy as one row of integrate_rows.

    A step rule (a Constant is one market) is priced market by market; a
    tabulated policy is one market priced at the one-market nodes.
    """
    if isinstance(pf, PricingFunction):
        prices = np.asarray(pf.prices, dtype=float)[None, :, None]
    else:
        prices = price_at(pf, _simpson_rule(cfg.x_panels, 1)[0])[None]
    return float(integrate_rows(spec, prices, cfg, (integrand,))[0, 0])


def expected_revenue(
    spec: DistributionSpec,
    pf: PricingFunction | TabulatedPolicy,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """Expected revenue of a pricing function under the true distribution."""
    return _integrate_policy(spec, pf, cfg, pointwise_revenue)


def partial_expectation(spec: DistributionSpec, p, x):
    """E[Y 1{Y >= p} | X = x], the social value served at price p."""
    return spec.partial_expectation(p, x)


def welfare(
    spec: DistributionSpec,
    pf: PricingFunction | TabulatedPolicy,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """Expected social welfare E[Y 1{Y >= p(X)}] of a pricing function."""
    return _integrate_policy(spec, pf, cfg, partial_expectation)
