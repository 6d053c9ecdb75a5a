"""Empirical revenue maximization: uniform and K-markets pricing.

A buyer purchases when their valuation is at least the posted price, so the
empirical revenue of price p on a sample is p * #{Y_i >= p} / n.  Candidate
prices are the sample values themselves (the empirical revenue curve only
changes there, and on each flat piece the left endpoint dominates); ties go
to the lowest price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .families import _is_int, Dataset, EmptyDataError, ParameterDomainError


@dataclass(frozen=True)
class Constant:
    """Post one price everywhere: the one-market step rule."""

    p: float
    k = 1  # a class attribute, not a field

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ParameterDomainError("price must lie in [0, 1]")

    @property
    def prices(self) -> tuple[float]:
        return (self.p,)


@dataclass(frozen=True)
class KMarkets:
    """One price per equal-width covariate bin: bin k of x is min(floor(x*K), K-1)."""

    k: int
    prices: tuple[float, ...]

    def __post_init__(self):
        if not (_is_int(self.k) and self.k >= 1):
            raise ParameterDomainError("market count must be an integer >= 1")
        if len(self.prices) != self.k:
            raise ParameterDomainError("need exactly one price per market")
        if any(not 0.0 <= p <= 1.0 for p in self.prices):
            raise ParameterDomainError("prices must lie in [0, 1]")


PricingFunction = Union[Constant, KMarkets]


@dataclass(frozen=True)
class MarketPartition:
    """Which dataset indices landed in which market, and how K got there."""

    k_requested: int
    k_effective: int
    markets: tuple[np.ndarray, ...]  # index arrays into the dataset, one per market


def empirical_demand(valuations, p: float) -> float:
    """Fraction of the sample willing to buy at price p."""
    v = np.asarray(valuations, dtype=float)
    if v.size == 0:
        raise EmptyDataError("empirical demand of an empty sample")
    # Written so that NaN, which min/max propagate, fails the check.
    if not (0.0 <= v.min() and v.max() <= 1.0):
        raise ParameterDomainError("valuations must lie in [0, 1]")
    if not 0.0 <= p <= 1.0:
        raise ParameterDomainError("price must lie in [0, 1]")
    return float(np.count_nonzero(v >= p)) / v.size


def _erm_sorted(v, m):
    """Lowest revenue-maximizing price of each row of ascending values.

    m is the row length, or an (R, 1) array of counts: row i then holds its
    m[i] values first, padded past them with a value above 1.  At the first
    copy of a value, m - j values are >= it.  A later copy has a smaller
    count, hence strictly lower revenue when the value is positive, and
    argmax takes the first maximum: the lowest maximizing price.  A padded
    slot has m - j <= 0, so its revenue never beats the first slot's.
    """
    revenue = v * (m - np.arange(v.shape[1]))
    revenue /= m
    return v[np.arange(v.shape[0]), np.argmax(revenue, axis=1)]


def uniform_erm_rows(y) -> np.ndarray:
    """Uniform ERM price of each row of an (R, n) array of valuations."""
    return _erm_sorted(np.sort(y, axis=1), y.shape[1])


def uniform_erm(valuations) -> float:
    """Revenue-maximizing single price over the sample's own values.

    Returns the lowest maximizer, which is always one of the sample values.
    Valuations must lie in [0, 1]; NaN and inf are rejected.  The one-row
    case of ``uniform_erm_rows``.
    """
    v = np.sort(np.asarray(valuations, dtype=float).ravel())
    if v.size == 0:
        raise EmptyDataError("cannot price an empty sample")
    if not (v[0] >= 0.0 and v[-1] <= 1.0):  # NaN sorts last, so it fails too
        raise ParameterDomainError("valuations must lie in [0, 1]")
    return float(_erm_sorted(v[None], v.size)[0])


def _market_prices(y, bins, counts):
    """Per-market ERM prices (R, k) of rows whose k markets are all occupied.

    Market b of every row is gathered out of y (row-major, so row i
    contributes its m[i] values in turn), padded with 2.0 to the largest
    count when the rows' counts differ, sorted and priced by _erm_sorted:
    values are sorted, never indices, and each only within its own market.
    """
    prices = np.empty(counts.shape)
    for b, (low, width) in enumerate(zip(counts.min(axis=0).tolist(), counts.max(axis=0).tolist())):
        # flatnonzero and take, not y[mask]: boolean indexing branches per element.
        seg = np.take(y, np.flatnonzero(bins == b))
        m = width
        if low < width:
            m = counts[:, b : b + 1]
            padded = np.full((len(counts), width), 2.0)
            padded[np.arange(width) < m] = seg
            seg = padded
        seg = seg.reshape(len(counts), width)
        seg.sort(axis=1)
        prices[:, b] = _erm_sorted(seg, m)
    return prices


def k_markets_erm_rows(x, y, k: int):
    """K-markets ERM of each row of (R, n) covariates x and valuations y.

    Each row runs the empty-bin countdown of ``k_markets_erm`` on its own.
    Yields (rows, prices) once per effective market count k_eff, largest
    first: the indices of the rows with that count and their
    (len(rows), k_eff) prices.  The one-market step is uniform ERM on the
    unbinned rows.
    """
    rows = np.arange(x.shape[0])
    # Bins beyond the sample size are guaranteed to leave one empty, so the
    # countdown can start at min(k, n) without changing the result.  Nor
    # can a row fill more bins than it has distinct covariates: once a
    # step leaves a row unfilled, the countdown skips every count above
    # the most distinct values any remaining row holds.
    k_eff, distinct = min(k, x.shape[1]), None
    while k_eff > 1:
        # floor(min(x k, k - 1)) == min(floor(x k), k - 1), held in the
        # smallest dtype that also holds the per-row bincount keys.
        scaled = x * k_eff
        np.minimum(scaled, k_eff - 1, out=scaled)
        key = np.min_scalar_type(rows.size * k_eff - 1)
        bins = scaled.astype(key)
        keys = bins + np.arange(0, rows.size * k_eff, k_eff, dtype=key)[:, None]
        counts = np.bincount(keys.ravel(), minlength=rows.size * k_eff).reshape(-1, k_eff)
        full = counts.all(axis=1)
        if full.all():
            yield rows, _market_prices(y, bins, counts)
            return
        if full.any():
            yield rows[full], _market_prices(y[full], bins[full], counts[full])
        rows, x, y = rows[~full], x[~full], y[~full]
        if distinct is None:
            xs = np.sort(x, axis=1)
            distinct = 1 + int(np.count_nonzero(xs[:, 1:] != xs[:, :-1], axis=1).max())
        k_eff = min(k_eff - 1, distinct)
    yield rows, uniform_erm_rows(y)[:, None]


def k_markets_erm(data: Dataset, k: int) -> tuple[PricingFunction, MarketPartition]:
    """Split the covariate into K equal bins and price each bin by ERM.

    If any bin is empty, K is decremented (re-binning each time) until all
    bins are occupied; K=1 always works and degenerates to uniform pricing,
    in which case a Constant pricing function is returned.  The one-row
    case of ``k_markets_erm_rows``.
    """
    if not (_is_int(k) and k >= 1):
        raise ParameterDomainError("k must be an integer >= 1")
    ((_, prices),) = k_markets_erm_rows(data.x[None], data.y[None], k)
    k_eff = prices.shape[1]
    bins = np.minimum((data.x * k_eff).astype(int), k_eff - 1)
    partition = MarketPartition(k, k_eff, tuple(np.flatnonzero(bins == b) for b in range(k_eff)))
    if k_eff == 1:
        return Constant(float(prices[0, 0])), partition
    return KMarkets(k=k_eff, prices=tuple(prices[0].tolist())), partition


def price_at(pf, x) -> float | np.ndarray:
    """Evaluate a pricing rule at covariate value(s) x in [0, 1].

    Accepts a step rule (Constant or KMarkets), or any tabulated policy
    carrying x_grid and prices arrays (interpolated linearly).
    """
    x = np.asarray(x, dtype=float)
    # Written so that NaN fails the check.
    if not ((0.0 <= x) & (x <= 1.0)).all():
        raise ParameterDomainError("covariates must lie in [0, 1]")
    if isinstance(pf, PricingFunction):
        idx = np.minimum((x * pf.k).astype(int), pf.k - 1)
        out = np.asarray(pf.prices, dtype=float)[idx]
    elif hasattr(pf, "x_grid"):
        out = np.interp(x, pf.x_grid, pf.prices)
    else:
        raise TypeError(f"not a pricing rule: {type(pf).__name__}")
    return float(out) if out.ndim == 0 else out


def k_schedule(n: int, variant: str = "theory", fixed: int | None = None) -> int:
    """Market count as a function of the sample size.

    theory: floor(n^(1/4)); ebay: floor(2*n^(1/4) - 7); sim: floor of a
    fifth of the theory count; fixed: the given constant.  All floored at 1
    and computed in exact integer arithmetic.
    """
    if not (_is_int(n) and n >= 1):
        raise ParameterDomainError("sample size must be an integer >= 1")
    root = math.isqrt(math.isqrt(n))  # exact floor(n^(1/4))
    if variant == "theory":
        return max(1, root)
    if variant == "sim":
        return max(1, root // 5)
    if variant == "ebay":
        return max(1, math.isqrt(math.isqrt(16 * n)) - 7)  # floor(2 n^(1/4)) == floor((16 n)^(1/4))
    if variant == "fixed":
        if not (_is_int(fixed) and fixed >= 1):
            raise ParameterDomainError("fixed schedule needs a positive integer market count")
        return fixed
    raise ParameterDomainError(f"unknown schedule variant: {variant!r}")
