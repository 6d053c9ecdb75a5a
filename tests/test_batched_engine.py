"""The batched replication engine equals the per-seed loop bit for bit, in bounded memory.

The reference below is the per-seed loop the engine replaced, written out
with the ERM and Simpson formulas inlined: sample one dataset, fit one
pricing rule, integrate it, one seed at a time.  ``experiment._rep_chunk``
fits and evaluates blocks of R = max(1, BATCH // n) seeds at once and must
return the same bytes.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kmarkets import (
    Constant,
    Dataset,
    KMarkets,
    Packing,
    PerturbedConditional,
    PerturbedUniform,
    PowerSimulated,
    QuadratureConfig,
    UniformJoint,
    experiment,
    k_markets_erm,
    k_schedule,
    kmarkets_strategy,
    price_at,
    pricing,
    sample,
    uniform_strategy,
)
from kmarkets.families import _simpson_rule, sample_rows
from kmarkets.oracle import BATCH, partial_expectation, pointwise_revenue
from kmarkets.pricing import k_markets_erm_rows, uniform_erm_rows

FAMILIES = [
    UniformJoint(),
    PowerSimulated(),
    PerturbedUniform(a=1.0, delta=0.1),
    PerturbedConditional(a=1.0, delta=0.2, x0=0.4),
    Packing(m=16, a=1.0, alpha=(0, 1, 1, 0) * 4),
]


def _reference_erm(values):
    v = np.sort(values)
    n = v.size
    return float(v[np.argmax(v * np.arange(n, 0, -1) / n)])


def _reference_fit(strategy, data):
    if strategy.kind == "uniform":
        return Constant(_reference_erm(data.y))
    n = len(data)
    k = strategy.k if strategy.k is not None else k_schedule(n, strategy.schedule)
    for k_eff in range(min(k, n), 0, -1):
        bins = np.minimum((data.x * k_eff).astype(int), k_eff - 1)
        if np.bincount(bins, minlength=k_eff).min() > 0:
            break
    prices = tuple(_reference_erm(data.y[np.flatnonzero(bins == i)]) for i in range(k_eff))
    return Constant(prices[0]) if k_eff == 1 else KMarkets(k=k_eff, prices=prices)


def _reference_integral(spec, pf, cfg, integrand):
    nodes, w = _simpson_rule(cfg.x_panels, pf.k)
    prices = np.asarray(pf.prices, dtype=float)[:, None]
    return float((integrand(spec, prices, nodes) @ w).sum() / nodes.shape[0])


def _reference_metric(kind, spec, pf, cfg, bench):
    if kind == "revenue":
        r = _reference_integral(spec, pf, cfg, pointwise_revenue)
        return bench - r, r
    if kind == "welfare":
        w = _reference_integral(spec, pf, cfg, partial_expectation)
        return abs(w - bench), _reference_integral(spec, pf, cfg, pointwise_revenue)
    r = float(pointwise_revenue(spec, price_at(pf, kind), kind))  # kind is x0
    return bench - r, r


def _reference_chunk(spec, n, seeds, cfg, arms):
    out = np.empty((len(arms), 2, len(seeds)))
    for j, seed in enumerate(seeds):
        data = sample(spec, n, seed)
        for a, (strategy, kind, bench) in enumerate(arms):
            out[a, :, j] = _reference_metric(kind, spec, _reference_fit(strategy, data), cfg, bench)
    return out


def _engine_arms(arms):
    metric = {"revenue": experiment._revenue_gap, "welfare": experiment._welfare_gap}
    return tuple(
        (strategy, metric[kind] if kind in metric else experiment._pointwise_kind(kind)[1], bench)
        for strategy, kind, bench in arms
    )


strategies = st.one_of(
    st.just(uniform_strategy()),
    st.integers(1, 13).map(lambda k: kmarkets_strategy(k=k)),
    st.sampled_from(["theory", "sim", "ebay"]).map(lambda s: kmarkets_strategy(schedule=s)),
)
kinds = st.one_of(st.sampled_from(["revenue", "welfare", 0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
arms = st.lists(st.tuples(strategies, kinds, st.floats(0.0, 1.0)), min_size=1, max_size=3)


@settings(deadline=None, max_examples=150)
@given(
    spec=st.sampled_from(FAMILIES),
    n=st.one_of(st.integers(1, 12), st.integers(13, 300)),
    reps=st.integers(1, 40),
    batch=st.sampled_from([1, 7, 64, 1000, experiment.BATCH]),
    panels=st.sampled_from([8, 16, 1024]),
    arms=arms,
    seed=st.integers(0, 2**40),
)
@example(spec=FAMILIES[1], n=experiment.BATCH - 1, reps=3, batch=experiment.BATCH, panels=1024,
         arms=[(uniform_strategy(), "welfare", 0.2), (kmarkets_strategy(k=4), "revenue", 0.3)], seed=5)
@example(spec=FAMILIES[1], n=experiment.BATCH + 1, reps=2, batch=experiment.BATCH, panels=1024,
         arms=[(kmarkets_strategy(schedule="theory"), "welfare", 0.2)], seed=6)
@example(spec=FAMILIES[4], n=1, reps=5, batch=experiment.BATCH, panels=16,
         arms=[(kmarkets_strategy(k=4), "revenue", 0.3), (kmarkets_strategy(k=2), 1.0, 0.1)], seed=7)
def test_batched_chunk_equals_the_per_seed_loop(spec, n, reps, batch, panels, arms, seed):
    cfg = QuadratureConfig(x_panels=panels)
    seeds = [seed + j for j in range(reps)]
    want = _reference_chunk(spec, n, seeds, cfg, arms)
    with mock.patch.object(experiment, "BATCH", batch):
        got = experiment._rep_chunk((spec, n, seeds, cfg, _engine_arms(arms)))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=100)
@given(
    spec=st.sampled_from(FAMILIES),
    n=st.one_of(st.just(1), st.integers(1, 200).map(lambda h: 2 * h + 1), st.integers(BATCH + 1, 2 * BATCH)),
    seeds=st.lists(st.integers(0, 2**64), min_size=1, max_size=40),
)
@example(spec=FAMILIES[4], n=BATCH + 1, seeds=list(range(40)))
def test_sample_rows_equal_the_one_row_samples(spec, n, seeds):
    # A block-shaped ppf must not take another SIMD path than a lone row.
    x, y = sample_rows(spec, n, seeds)
    assert x.shape == y.shape == (len(seeds), n)
    for i, seed in enumerate(seeds):
        data = sample(spec, n, seed)
        assert x[i].tobytes() == data.x.tobytes() and y[i].tobytes() == data.y.tobytes()


@pytest.mark.parametrize("k", [127, 128, 129, 255, 256, 257])
def test_market_counts_at_the_key_dtype_boundaries(k):
    # Bins and per-row bincount keys use the smallest unsigned dtype that
    # holds rows * k - 1, so these counts cross from uint8 to uint16.
    x = (np.arange(k) + 0.5) / k  # one point per market
    rng = np.random.default_rng(k)
    rows = [Dataset(y=rng.random(k), x=x) for _ in range(2)]
    pf, part = k_markets_erm(rows[0], k)
    assert part.k_effective == k and pf == _reference_fit(kmarkets_strategy(k=k), rows[0])
    ((_, prices),) = k_markets_erm_rows(np.stack([x, x]), np.stack([d.y for d in rows]), k)
    assert [tuple(p) for p in prices.tolist()] == [_reference_fit(kmarkets_strategy(k=k), d).prices for d in rows]


@pytest.mark.parametrize(
    "k, x",
    [
        (1, np.random.default_rng(1).random((5, 40))),  # one market asked for
        (4, np.random.default_rng(2).random((5, 1))),  # n < k
        (4, np.random.default_rng(3).random((5, 40)) / 4),  # every x in [0, 1/4)
    ],
)
def test_the_one_market_step_is_uniform_erm(monkeypatch, k, x):
    # Rows that count down to one market are priced by the uniform kernel on
    # their own valuations: nothing is binned or gathered at that step.
    def no_gather(*args):
        raise AssertionError("the one-market step gathered markets")

    y = np.random.default_rng(4).random(x.shape)
    monkeypatch.setattr(pricing, "_market_prices", no_gather)
    groups = list(k_markets_erm_rows(x, y, k))
    rows, prices = groups[-1]
    assert len(groups) == 1 and rows.tolist() == list(range(len(x)))
    assert prices.shape == (len(x), 1) and prices.tobytes() == uniform_erm_rows(y)[:, None].tobytes()
    pf, part = k_markets_erm(Dataset(y=y[0], x=x[0]), k)
    assert pf == Constant(float(prices[0, 0])) and part.markets[0].tolist() == list(range(x.shape[1]))


@pytest.mark.parametrize("shape", [(64, 1), (7, 4, 1), (3, 13, 1)])
def test_power_family_temporaries_keep_the_broadcast_bits(shape):
    # x + 1.0 and x + 2.0 on x's own shape give the numbers the broadcast
    # arrays gave, for the blocks the oracles, the engine and sample evaluate.
    k = shape[1] if len(shape) == 3 else 1
    xs = _simpson_rule(1024, k)[0]
    ys = np.random.default_rng(1).random(shape)
    yb, xb = np.broadcast_arrays(ys, xs)
    power = PowerSimulated()
    assert power.conditional_cdf(ys, xs).tobytes() == (yb ** (xb + 1.0)).tobytes()
    assert power.conditional_density(ys, xs).tobytes() == ((xb + 1.0) * yb**xb).tobytes()
    want = (xb + 1.0) / (xb + 2.0) * (1.0 - yb ** (xb + 2.0))
    assert power.partial_expectation(ys, xs).tobytes() == want.tobytes()
    assert power.ppf(ys, xs).tobytes() == (yb ** (1.0 / (xb + 1.0))).tobytes()


def _block_shapes(monkeypatch, n, reps):
    shapes = []
    rows = pricing.uniform_erm_rows

    def recording(y):
        shapes.append(y.shape)
        return rows(y)

    monkeypatch.setattr(pricing, "uniform_erm_rows", recording)
    arms = ((uniform_strategy(), experiment._revenue_gap, 0.3),)
    experiment._rep_chunk((PowerSimulated(), n, list(range(reps)), QuadratureConfig(x_panels=8), arms))
    return shapes


@pytest.mark.parametrize("batch", [None, 100])
@pytest.mark.parametrize("n", [1, 64, 3000])
def test_batch_sets_the_block_size(monkeypatch, batch, n):
    if batch is not None:
        monkeypatch.setattr(experiment, "BATCH", batch)
    size = max(1, experiment.BATCH // n)
    reps = 2 * size + 1  # two full blocks and a remainder of one
    assert _block_shapes(monkeypatch, n, reps) == [(size, n), (size, n), (1, n)]


def test_a_sample_larger_than_batch_runs_alone(monkeypatch):
    assert _block_shapes(monkeypatch, experiment.BATCH + 1, 3) == [(1, experiment.BATCH + 1)] * 3


@pytest.mark.parametrize("n, cap", [(64, 2 * 2**20), (2**15, 4 * 2**20)])
def test_chunk_memory_is_bounded(n, cap):
    # numpy reports its buffers to tracemalloc, so the peak is deterministic.
    # Blocks of BATCH elements hold the n = 64 peak near 0.6 MB, where one
    # evaluation pass over all 300 replications would need 2.4 MB per
    # temporary; at n = 2^15 one replication's own arrays set it (1.8 MB).
    spec = PowerSimulated()
    arms = (
        (uniform_strategy(), experiment._welfare_gap, 0.2),
        (kmarkets_strategy(k=4), experiment._revenue_gap, 0.3),
    )
    job = (spec, n, list(range(300)), QuadratureConfig(), arms)
    experiment._rep_chunk((spec, n, [0], QuadratureConfig(), arms))  # warm the cached Simpson rules
    tracemalloc.start()
    try:
        experiment._rep_chunk(job)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cap
