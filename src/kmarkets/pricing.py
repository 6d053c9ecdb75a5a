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

from .families import Dataset, EmptyDataError, ParameterDomainError


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
        if self.k < 1 or len(self.prices) != self.k:
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


def uniform_erm(valuations) -> float:
    """Revenue-maximizing single price over the sample's own values.

    Returns the lowest maximizer, which is always one of the sample values.
    Valuations must lie in [0, 1]; NaN and inf are rejected.
    """
    v = np.sort(np.asarray(valuations, dtype=float).ravel())
    if v.size == 0:
        raise EmptyDataError("cannot price an empty sample")
    if not (v[0] >= 0.0 and v[-1] <= 1.0):  # NaN sorts last, so it fails too
        raise ParameterDomainError("valuations must lie in [0, 1]")
    n = v.size
    # At the first copy of a value, n - i values are >= it.  A later copy has a
    # smaller count, hence strictly lower revenue when the value is positive,
    # and argmax takes the first maximum: the lowest maximizing price.
    revenue = v * np.arange(n, 0, -1) / n
    return float(v[np.argmax(revenue)])


def k_markets_erm(data: Dataset, k: int) -> tuple[PricingFunction, MarketPartition]:
    """Split the covariate into K equal bins and price each bin by ERM.

    If any bin is empty, K is decremented (re-binning each time) until all
    bins are occupied; K=1 always works and degenerates to uniform pricing,
    in which case a Constant pricing function is returned.
    """
    if k < 1:
        raise ParameterDomainError("k must be at least 1")
    n = len(data)
    # Bins beyond the sample size are guaranteed to leave one empty, so the
    # countdown can start at min(k, n) without changing the result.
    for k_eff in range(min(k, n), 0, -1):
        bins = np.minimum((data.x * k_eff).astype(int), k_eff - 1)
        counts = np.bincount(bins, minlength=k_eff)
        if counts.min() > 0:
            break
    markets = tuple(np.flatnonzero(bins == i) for i in range(k_eff))
    prices = tuple(uniform_erm(data.y[idx]) for idx in markets)
    partition = MarketPartition(k_requested=k, k_effective=k_eff, markets=markets)
    if k_eff == 1:
        return Constant(prices[0]), partition
    return KMarkets(k=k_eff, prices=prices), partition


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
    fifth of the theory count; fixed: the given constant.  All floored at 1.
    """
    if n < 1:
        raise ParameterDomainError("sample size must be at least 1")
    root = math.isqrt(math.isqrt(n))  # exact floor(n^(1/4))
    if variant == "theory":
        return max(1, root)
    if variant == "sim":
        return max(1, root // 5)
    if variant == "ebay":
        if root**4 == n:  # perfect fourth powers sit on the floor boundary
            return max(1, 2 * root - 7)
        return max(1, math.floor(2.0 * n**0.25 - 7.0))
    if variant == "fixed":
        if fixed is None or fixed < 1:
            raise ParameterDomainError("fixed schedule needs a positive market count")
        return fixed
    raise ParameterDomainError(f"unknown schedule variant: {variant!r}")
