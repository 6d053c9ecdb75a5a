"""Monte Carlo engine for revenue, pointwise, and welfare deficiency.

Replication j of curve point i always uses seed base_seed + i*2^32 + j, so
results are bit-identical no matter how replications are scheduled or how
many strategies share a draw; the optional process pool only changes wall
time.  Deficiency is measured against the best policy of the strategy's own
class under the true distribution: the optimal single price for uniform
ERM, the pointwise optimal policy for K-markets.

Replications run in blocks of R = max(1, BATCH // n) seeds (``oracle.BATCH``).
Each block is drawn once as (R, n) arrays by ``families.sample_rows``, one
seeded row per replication, fitted row by row by one countdown
(``pricing.k_markets_erm_rows``, which uniform ERM asks for one market) and
integrated by the one policy integrator, ``oracle.integrate_rows``, about
BATCH nodes at a time.  Every
row goes through the same arithmetic as a lone replication, so no block size
changes a bit; blocks only remove per-replication Python overhead at small n.
"""

from __future__ import annotations

import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .families import _check_count, _check_seed, _check_unit_number, _is_int, _market_of
from .families import DistributionSpec, ParameterDomainError, sample_rows
from .oracle import (
    BATCH,
    DEFAULT_QUAD,
    QuadratureConfig,
    _scan_then_refine,
    expected_revenue,
    integrate_rows,
    optimal_3pd_policy,
    optimal_uniform_price,
    partial_expectation,
    pointwise_revenue,
    welfare,
)
from .pricing import Constant, k_markets_erm_rows, k_schedule

SEED_STRIDE = 1 << 32  # seed offset between consecutive curve points


def __getattr__(name):
    # The pool pulls in multiprocessing, which a serial run never needs, so
    # ProcessPoolExecutor is imported on first use and then kept as a module
    # attribute that callers may read or replace.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Strategy:
    """Which estimator to fit per replication: uniform ERM or K-markets ERM.

    K-markets takes either a fixed market count or a schedule name mapping
    the sample size to a market count.
    """

    kind: str
    k: Optional[int] = None
    schedule: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("uniform", "kmarkets"):
            raise ParameterDomainError("strategy kind must be 'uniform' or 'kmarkets'")
        if self.kind == "kmarkets" and (self.k is None) == (self.schedule is None):
            raise ParameterDomainError("kmarkets needs exactly one of k or schedule")
        if self.kind == "uniform" and (self.k is not None or self.schedule is not None):
            raise ParameterDomainError("uniform is the one-market ERM: it takes no k or schedule")
        if self.k is not None:
            _check_count("market count", self.k)
        if self.schedule is not None and self.schedule not in ("theory", "sim", "ebay"):
            raise ParameterDomainError(f"unknown schedule variant: {self.schedule!r}")

    def market_count(self, n: int) -> int:
        """Market count to fit at sample size n: uniform ERM is the one-market ERM."""
        if self.kind == "uniform":
            return 1
        return self.k if self.k is not None else k_schedule(n, self.schedule)

    @property
    def tag(self) -> str:
        if self.kind == "uniform":
            return "uniform"
        if self.k is not None:
            return f"k={self.k}"
        return f"k-sched:{self.schedule}"


def uniform_strategy() -> Strategy:
    return Strategy(kind="uniform")


def kmarkets_strategy(k: int | None = None, schedule: str | None = None) -> Strategy:
    return Strategy(kind="kmarkets", k=k, schedule=schedule)


@dataclass(frozen=True)
class DeficiencyPoint:
    n: int
    strategy_tag: str
    mean_deficiency: float
    std_error: float
    reps: int
    mean_revenue: float


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def _revenue_gap(spec, prices, cfg, bench):
    (r,) = integrate_rows(spec, prices[:, :, None], cfg, (pointwise_revenue,))
    return bench - r, r


def _welfare_gap(spec, prices, cfg, bench):
    w, r = integrate_rows(spec, prices[:, :, None], cfg, (partial_expectation, pointwise_revenue))
    return np.abs(w - bench), r


def _pointwise_gap(spec, prices, cfg, bench, x0):
    # One scalar call per price: numpy's scalar power (np.float64 ** 2 runs
    # pow) and its array power (squares) can differ in the last bit.
    market = prices[:, _market_of(x0, prices.shape[1], np.intp)]
    r = np.array([float(pointwise_revenue(spec, p, x0)) for p in market.tolist()])
    return bench - r, r


def _rep_chunk(args):
    """Deficiencies and revenues of every arm on the replications with the given seeds.

    Seeds run in blocks of R = max(1, BATCH // n).  Each block is drawn once
    as (R, n) arrays by ``sample_rows``, one row per seed, and each arm
    (strategy, metric, bench) fits and evaluates all of its rows at once.
    metric(spec, prices, cfg, bench) -> (deficiencies, revenues)
    takes (rows, k) step-rule prices; it is a module-level function (or a
    partial of one), so chunks pickle for the process pool.
    Returns an (arms, 2, seeds) array: deficiencies in [:, 0], revenues in [:, 1].
    """
    spec, n, seeds, cfg, arms = args
    out = np.empty((len(arms), 2, len(seeds)))
    step = max(1, BATCH // n)
    for start in range(0, len(seeds), step):
        x, y = sample_rows(spec, n, seeds[start : start + step])
        for a, (strategy, metric, bench) in enumerate(arms):
            for rows, prices in k_markets_erm_rows(x, y, strategy.market_count(n)):
                out[a][:, start + rows] = metric(spec, prices, cfg, bench)
    return out


def _plan_chunks(reps: int, workers: int) -> list[np.ndarray]:
    """Split replication indices into one chunk per worker process.

    The worker count is capped at the cores this process may run on; empty
    chunks are dropped, so there are never more chunks than replications.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    count = min(workers, cores)
    return [c for c in np.array_split(np.arange(reps), count) if c.size]


def _point(n, strategy, defs, revs) -> DeficiencyPoint:
    reps = defs.size
    se = float(np.std(defs, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    return DeficiencyPoint(
        n=int(n),
        strategy_tag=strategy.tag,
        mean_deficiency=float(defs.mean()),
        std_error=se,
        reps=int(reps),
        mean_revenue=float(revs.mean()),
    )


def _revenue_benchmark(spec, strategy, cfg) -> float:
    if strategy.kind == "uniform":
        return optimal_uniform_price(spec, cfg)[1]
    return expected_revenue(spec, optimal_3pd_policy(spec, cfg=cfg), cfg)


def _welfare_benchmark(spec, strategy, cfg) -> float:
    if strategy.kind == "uniform":
        p_star, _ = optimal_uniform_price(spec, cfg)
        return welfare(spec, Constant(p_star), cfg)
    return welfare(spec, optimal_3pd_policy(spec, cfg=cfg), cfg)


# curve kind -> (benchmark of the strategy's own class, per-replication metric)
_KINDS = {
    "revenue": (_revenue_benchmark, _revenue_gap),
    "welfare": (_welfare_benchmark, _welfare_gap),
}


def _pointwise_kind(x0: float):
    """(benchmark, metric) of the revenue shortfall at the covariate value x0."""
    _check_unit_number("x0", x0)

    def benchmark(spec, strategy, cfg):
        _, best = _scan_then_refine(partial(pointwise_revenue, spec), np.array([x0], dtype=float), cfg.refine_tol)
        return float(best[0])

    return benchmark, partial(_pointwise_gap, x0=x0)


def revenue_deficiency(
    spec: DistributionSpec,
    strategy: Strategy,
    n: int,
    reps: int,
    base_seed: int,
    cfg: QuadratureConfig = DEFAULT_QUAD,
    workers: int = 1,
) -> DeficiencyPoint:
    """Mean revenue shortfall of the fitted strategy at sample size n."""
    return _curve(spec, strategy, [n], reps, base_seed, cfg, _KINDS["revenue"], workers)[0]


def welfare_deficiency(
    spec: DistributionSpec,
    strategy: Strategy,
    n: int,
    reps: int,
    base_seed: int,
    cfg: QuadratureConfig = DEFAULT_QUAD,
    workers: int = 1,
) -> DeficiencyPoint:
    """Mean absolute welfare gap to the strategy's own optimal policy."""
    return _curve(spec, strategy, [n], reps, base_seed, cfg, _KINDS["welfare"], workers)[0]


def pointwise_deficiency(
    spec: DistributionSpec,
    n: int,
    k: int,
    x0: float,
    reps: int,
    base_seed: int,
    cfg: QuadratureConfig = DEFAULT_QUAD,
    workers: int = 1,
) -> DeficiencyPoint:
    """Revenue shortfall of the K-markets price at a single covariate value."""
    kind = _pointwise_kind(x0)
    return _curve(spec, kmarkets_strategy(k=k), [n], reps, base_seed, cfg, kind, workers)[0]


def _check_n_list(n_list) -> list[int]:
    n_list = list(n_list)
    if not all(_is_int(n) and n >= 1 for n in n_list):
        raise ParameterDomainError("sample sizes must be integers >= 1")
    ns = [int(n) for n in n_list]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ParameterDomainError("n_list must be nonempty and strictly increasing")
    return ns


def _curves(spec, arms, ns, reps, base_seed, cfg, workers):
    """One curve per arm, all from the same draws; point i uses seeds base_seed + i*2^32 + j.

    arms is a sequence of (strategy, kind) pairs, kind a (benchmark, metric)
    pair.  One draw feeds every arm: each (n, j) dataset is sampled once and
    every arm is fitted and evaluated on it.  Each arm's benchmark is computed
    once; the chunk plan is made once, and with more than one chunk one pool
    serves every arm and size.  Returns one list of points per arm.
    """
    _check_count("replications", reps)
    _check_count("workers", workers)
    _check_seed(base_seed)
    ns = _check_n_list(ns)
    benched = tuple((strategy, metric, benchmark(spec, strategy, cfg)) for strategy, (benchmark, metric) in arms)
    chunks = _plan_chunks(reps, workers)
    curves = tuple([] for _ in benched)
    with ExitStack() as stack:
        run = map
        if len(chunks) > 1:
            pool = sys.modules[__name__].ProcessPoolExecutor  # read at call time: patchable
            run = stack.enter_context(pool(max_workers=len(chunks))).map
        for i, n in enumerate(ns):
            seed0 = int(base_seed) + i * SEED_STRIDE  # a numpy integer would wrap near its maximum
            jobs = [(spec, n, [seed0 + int(j) for j in c], cfg, benched) for c in chunks]
            out = np.concatenate(list(run(_rep_chunk, jobs)), axis=-1)
            for points, (strategy, _, _), (defs, revs) in zip(curves, benched, out):
                points.append(_point(n, strategy, defs, revs))
    return curves


def _curve(spec, strategy, ns, reps, base_seed, cfg, kind, workers):
    """One point per sample size; point i uses seeds base_seed + i*2^32 + j.

    The one-arm case of _curves: kind is a (benchmark, metric) pair, the
    benchmark is computed once, and one draw per (n, j) feeds the one arm.
    """
    return _curves(spec, [(strategy, kind)], ns, reps, base_seed, cfg, workers)[0]


def deficiency_curve(
    spec: DistributionSpec,
    strategy: Strategy,
    n_list: Sequence[int],
    reps: int,
    base_seed: int,
    cfg: QuadratureConfig = DEFAULT_QUAD,
    workers: int = 1,
    kind: str = "revenue",
) -> list[DeficiencyPoint]:
    """Deficiency versus sample size; point i uses seeds base_seed + i*2^32 + j."""
    ns = _check_n_list(n_list)
    if len(ns) < 3:
        raise ParameterDomainError("a curve needs at least 3 sample sizes")
    if kind not in _KINDS:
        raise ParameterDomainError("curve kind must be 'revenue' or 'welfare'")
    return _curve(spec, strategy, ns, reps, base_seed, cfg, _KINDS[kind], workers)


def fit_rate(curve: Sequence[DeficiencyPoint]) -> RateFit:
    """OLS fit of log mean deficiency on log n."""
    if len(curve) < 3:
        raise ParameterDomainError("rate fit needs at least 3 points")
    ns = np.array([p.n for p in curve], dtype=float)
    means = np.array([p.mean_deficiency for p in curve], dtype=float)
    if len(set(ns)) != len(ns):
        raise ParameterDomainError("rate fit needs distinct sample sizes")
    if ns.min() < 1.0:
        raise ParameterDomainError("rate fit needs sample sizes >= 1")
    # Written so that NaN fails the check.
    if not (0.0 < means.min() and means.max() < np.inf):
        raise ParameterDomainError("rate fit needs finite, strictly positive mean deficiencies")
    lx, ly = np.log(ns), np.log(means)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = ly - ly.mean()
    sst = float(total @ total)
    r2 = 1.0 if sst == 0.0 else 1.0 - float(resid @ resid) / sst
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


@dataclass(frozen=True)
class CrossingResult:
    n_crossing: Optional[int]
    uniform_curve: tuple[DeficiencyPoint, ...]
    kmarkets_curve: tuple[DeficiencyPoint, ...]


def crossing_scan(
    spec: DistributionSpec,
    n_list: Sequence[int],
    k: int,
    reps: int,
    base_seed: int,
    cfg: QuadratureConfig = DEFAULT_QUAD,
    workers: int = 1,
) -> CrossingResult:
    """Run uniform and K-markets on shared seeds and find where K-markets pulls ahead.

    One draw feeds both strategies: each (n, replication) dataset is sampled
    once and both are fitted on it, with one pool for the whole scan.
    Returns the smallest n whose mean K-markets revenue weakly exceeds the
    mean uniform revenue, with both full curves attached.
    """
    arms = [(uniform_strategy(), _KINDS["revenue"]), (kmarkets_strategy(k=k), _KINDS["revenue"])]
    uni, km = _curves(spec, arms, n_list, reps, base_seed, cfg, workers)
    n_crossing = None
    for pu, pk in zip(uni, km):
        if pk.mean_revenue >= pu.mean_revenue:
            n_crossing = pu.n
            break
    return CrossingResult(
        n_crossing=n_crossing, uniform_curve=tuple(uni), kmarkets_curve=tuple(km)
    )


def crossing_point(
    spec: DistributionSpec,
    n_list: Sequence[int],
    k: int,
    reps: int,
    base_seed: int,
    cfg: QuadratureConfig = DEFAULT_QUAD,
    workers: int = 1,
) -> Optional[int]:
    """Smallest tested n at which K-markets mean revenue catches uniform."""
    return crossing_scan(spec, n_list, k, reps, base_seed, cfg, workers).n_crossing
