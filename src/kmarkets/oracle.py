"""True-distribution quantities: optimal prices, expected revenue, welfare.

Integrals over the unit square use composite Simpson rules; maximizations
use a dense grid scan followed by golden-section refinement of the
bracketing interval.  Pointwise revenue of posting price y to covariate x
is r(y, x) = y * (1 - F(y|x)).

Every revenue maximized here is a price times a nonincreasing, finite
demand, so the revenue at the left end p_a of a price segment [p_a, p_b]
bounds the whole segment: by r(p_a) * p_b / p_a, or by r(p_a) where the
demand is negative.  The grid scan evaluates only the segments whose bound
can reach the best left-end revenue, and returns the full scan's result bit
for bit (see _scan_then_refine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .families import BLOCK, _check_count, _check_unit, _frozen_copy, _is_int, _row_blocks, _simpson_rule
from .families import DistributionSpec, ParameterDomainError
from .pricing import PricingFunction, price_at

GRID_POINTS = 4097  # scan grid for all price maximizations
# Elements per batched array: (R, n) sample blocks and integrate_rows blocks.
# For n <= BATCH, 8192 float64 are 64 KB, under glibc's 128 KB mmap threshold,
# so the blocks come from the heap instead of faulting in fresh pages each
# time.  Above it R = 1 and a block is one row of n values, 256 KB at n = 2^15,
# over the threshold: with glibc on Linux x86-64, crossing_scan(PowerSimulated())
# at reps = 100 holds its peak RSS flat from n = 1024 to 16384 and adds about
# 0.6 MB at n = 32768.
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
        xg, pr = _frozen_copy(self.x_grid), _frozen_copy(self.prices)
        if xg.ndim != 1 or xg.shape != pr.shape or xg.size < 2:
            raise ParameterDomainError("x_grid and prices must be equal-length 1-d arrays")
        # Written so that NaN, which diff propagates, fails the check.
        if not (np.all(np.diff(xg) > 0.0) and 0.0 <= xg[0] and xg[-1] <= 1.0):
            raise ParameterDomainError("x_grid must be strictly increasing within [0, 1]")
        _check_unit("prices", pr)
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
        vals = spec.conditional_cdf(p, 0.5)
    else:
        xs, w = _simpson_rule(cfg.x_panels)
        flat = p.reshape(-1)
        vals = np.empty(flat.size)
        for start, stop in zip(*_row_blocks(flat.size)):
            vals[start:stop] = spec.conditional_cdf(flat[start:stop, None], xs) @ w
        vals = vals.reshape(p.shape)
    return vals if p.ndim else float(vals)


def _golden_max(f, lo, hi, tol):
    """Vectorized golden-section maximization on per-element brackets.

    Returns the best evaluated point and value per element; f must map an
    array of abscissae to an array of values.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
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

    f(prices, x) maps prices of shape (rows, 1) and a slice of xs to revenues
    of shape (rows, len(slice)) for the grid scan, which runs BLOCK columns at
    a time so that its memory stays bounded, and prices of shape (m,) with all
    of xs to revenues of shape (m,) for one golden-section refinement of the
    bracket around every column's best grid point.  f must be the price times
    a nonincreasing, finite demand, as every family's revenue is.
    Returns (prices, revenues), each (m,) for m = xs.size.  The grid point is
    kept unless refinement strictly improves on it: near a flat maximum the
    refined revenue ties in floats and the grid abscissa (often an exact
    value like 1/2) is the better answer.

    The scan skips the grid segments that cannot hold a maximum.  The
    segments are marginal_y_cdf's row blocks of the grid.  On a segment
    [p_a, p_b] with p_a > 0, r(p) = p * D(p) <= p_b * D(p_a) = r(p_a) * p_b / p_a
    when r(p_a) >= 0, and r(p) <= r(p_a) when the demand is negative.  A
    segment is skipped only when, in every column of the block, this bound
    plus 1e-9 * |best| stays below best, the largest left-end revenue; a NaN
    keeps it, and the first segment (p_a = 0) is always kept.  So a skipped
    row is strictly below a revenue the grid reaches: it is neither the first
    maximum nor tied with it.  Each block's kept segments go to f in one
    call.  Every segment but the last has BLOCK rows and the last holds the
    remainder, so marginal_y_cdf's row blocks of the kept rows cut exactly at
    segment edges and integrate the full grid's own blocks; with an
    elementwise f the result is the full grid scan's, bit for bit.
    """
    ys = np.linspace(0.0, 1.0, GRID_POINTS)
    seg_starts, seg_stops = _row_blocks(GRID_POINTS)
    left = ys[seg_starts]
    growth = ys[np.subtract(seg_stops[1:], 1)] / left[1:]  # p_b / p_a past the first segment
    i = np.empty(xs.size, dtype=np.intp)
    grid_rev = np.empty(xs.size)
    for start in range(0, xs.size, BLOCK):
        cols = slice(start, start + BLOCK)
        r_a = f(left[:, None], xs[cols])
        best = r_a.max(axis=0)
        bound = np.where(r_a[1:] >= 0.0, r_a[1:] * growth[:, None], r_a[1:])
        keep = [True, *~np.all(bound + 1e-9 * np.abs(best) < best, axis=1)]
        rows = np.concatenate([np.arange(a, b) for a, b, kept in zip(seg_starts, seg_stops, keep) if kept])
        rev = f(ys[rows, None], xs[cols])
        k = np.argmax(rev, axis=0)
        i[cols] = rows[k]
        grid_rev[cols] = rev[k, np.arange(rev.shape[1])]
        del rev  # before the next block's f call, so one block's revenues are alive at a time
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
    """Tabulate the pointwise-optimal price p*(x) on a covariate grid.

    Each distinct conditional law is solved once: the grid's covariates are
    grouped by the spec's ``law_key`` (DistributionSpec's default, x itself,
    makes each covariate its own group), the first covariate of each group
    goes to the scan, and its price is scattered back to the group.  The bits
    hold because equal keys mean equal revenues at every price, the scan
    returns each column's full-grid first maximum whatever the block's other
    columns are, and golden section is elementwise: columns of equal keys
    share one bracket, so the set of bracket widths, which stops it, is
    unchanged.
    """
    _check_count("x_grid_size", x_grid_size, 2)
    xs = np.linspace(0.0, 1.0, x_grid_size)
    _, first, inverse = np.unique(spec.law_key(xs), return_index=True, return_inverse=True)
    prices, _ = _scan_then_refine(partial(pointwise_revenue, spec), xs[first], cfg.refine_tol)
    return TabulatedPolicy(x_grid=xs, prices=prices[inverse.reshape(-1)])


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
