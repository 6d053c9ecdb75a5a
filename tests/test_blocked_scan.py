"""The blocked grid scan and blocked marginal CDF equal the one-shot versions byte for byte, for FAMILIES.

The references below are the one-shot forms: the whole (GRID_POINTS x m)
revenue grid and the whole (prices x x-nodes) CDF grid evaluated at once.
For the five laws in FAMILIES the blocked forms agree with them exactly,
and stay small in memory.  That is not so for every law: a matrix-vector
product over 64 price rows need not round like the same rows inside one
product over all prices, because BLAS blocks the sum differently, so
``PerturbedConditional(a=0.16796875, delta=0.16766666666666666,
x0=0.6257673759200567)`` reads a marginal CDF 5.55e-17 apart at p = 1/2.
"""

import tracemalloc

import numpy as np
import pytest

from kmarkets import (
    DEFAULT_QUAD,
    Packing,
    PerturbedConditional,
    PerturbedUniform,
    PowerSimulated,
    UniformJoint,
    experiment,
    optimal_3pd_policy,
    optimal_uniform_price,
)
from kmarkets.families import _simpson_rule
from kmarkets.oracle import BLOCK, GRID_POINTS, _golden_max, marginal_y_cdf, pointwise_revenue

FAMILIES = [
    UniformJoint(),
    PowerSimulated(),
    PerturbedUniform(a=1.0, delta=0.1),
    PerturbedConditional(a=1.0, delta=0.2, x0=0.4),
    Packing(m=16, a=1.0, alpha=(0, 1, 1, 0) * 4),
]
IDS = [type(spec).__name__ for spec in FAMILIES]
TOL = DEFAULT_QUAD.refine_tol


def _one_shot_scan(f, tol):
    ys = np.linspace(0.0, 1.0, GRID_POINTS)
    rev = f(ys[:, None])
    i = np.argmax(rev, axis=0)
    lo = ys[np.maximum(i - 1, 0)]
    hi = ys[np.minimum(i + 1, GRID_POINTS - 1)]
    p_ref, r_ref = _golden_max(f, lo, hi, tol)
    grid_rev = rev[i, np.arange(rev.shape[1])]
    better = r_ref > grid_rev
    return np.where(better, p_ref, ys[i]), np.where(better, r_ref, grid_rev)


def _one_shot_marginal_y_cdf(spec, p, cfg=DEFAULT_QUAD):
    p = np.asarray(p, dtype=float)
    if spec.x_independent:
        vals = spec.conditional_cdf(p, 0.5)
        return vals if p.ndim else float(vals)
    xs, w = _simpson_rule(cfg.x_panels)
    flat = p.reshape(-1)
    vals = spec.conditional_cdf(flat[:, None], xs) @ w
    return vals.reshape(p.shape) if p.ndim else float(vals[0])


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec", FAMILIES, ids=IDS)
@pytest.mark.parametrize("size", [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 1025])
def test_3pd_policy_equals_the_one_shot_scan(spec, size):
    xs = np.linspace(0.0, 1.0, size)
    want, _ = _one_shot_scan(lambda q: pointwise_revenue(spec, q, xs), TOL)
    assert _same(optimal_3pd_policy(spec, size).prices, want)


@pytest.mark.parametrize("spec", FAMILIES, ids=IDS)
def test_uniform_price_equals_the_one_shot_scan(spec):
    p, r = _one_shot_scan(lambda q: q * (1.0 - _one_shot_marginal_y_cdf(spec, q)), TOL)
    assert _same(optimal_uniform_price(spec), (p[0], r[0]))


@pytest.mark.parametrize("spec", FAMILIES, ids=IDS)
@pytest.mark.parametrize(
    "prices",
    [
        np.array([0.37]),
        np.linspace(0.0, 1.0, BLOCK - 1),
        np.linspace(0.0, 1.0, BLOCK),
        np.linspace(0.0, 1.0, BLOCK + 1),
        np.linspace(0.0, 1.0, GRID_POINTS),
        np.linspace(0.0, 1.0, GRID_POINTS)[:, None],
        np.linspace(0.0, 1.0, 300).reshape(20, 15),
        0.37,
    ],
    ids=["1", "63", "64", "65", "4097", "4097x1", "20x15", "scalar"],
)
def test_marginal_cdf_equals_the_one_matvec_form(spec, prices):
    got = marginal_y_cdf(spec, prices)
    want = _one_shot_marginal_y_cdf(spec, prices)
    assert type(got) is type(want)
    assert _same(got, want)


@pytest.mark.parametrize("spec", FAMILIES, ids=IDS)
@pytest.mark.parametrize("x0", [0.0, 0.3, 1.0])
def test_pointwise_benchmark_equals_the_one_shot_scan(spec, x0):
    _, want = _one_shot_scan(lambda q: pointwise_revenue(spec, q, np.full_like(q, x0)), TOL)
    benchmark, _ = experiment._pointwise_kind(x0)
    assert _same(benchmark(spec, None, DEFAULT_QUAD), float(want[0]))


@pytest.mark.parametrize(
    "n, rows",
    [(1, [1]), (BLOCK + 1, [BLOCK + 1]), (2 * BLOCK, [BLOCK, BLOCK]),
     (GRID_POINTS, [BLOCK] * (GRID_POINTS // BLOCK - 1) + [BLOCK + 1])],
)
def test_marginal_cdf_never_integrates_a_lone_trailing_row(monkeypatch, n, rows):
    # A one-row matrix-vector product may round differently from the same
    # row inside a block, so the remainder joins the last block.
    seen = []
    cdf = PowerSimulated.conditional_cdf

    def counting(self, y, x):
        seen.append(np.shape(y)[0])
        return cdf(self, y, x)

    monkeypatch.setattr(PowerSimulated, "conditional_cdf", counting)
    marginal_y_cdf(PowerSimulated(), np.linspace(0.0, 1.0, n))
    assert seen == rows


@pytest.mark.parametrize(
    "call",
    [
        lambda: optimal_3pd_policy(PowerSimulated()),
        lambda: optimal_uniform_price(PowerSimulated()),
        lambda: marginal_y_cdf(PowerSimulated(), np.linspace(0.0, 1.0, GRID_POINTS)),
        lambda: experiment._pointwise_kind(0.3)[0](PowerSimulated(), None, DEFAULT_QUAD),
    ],
    ids=["3pd_policy", "uniform_price", "marginal_cdf", "pointwise"],
)
def test_oracle_memory_is_bounded(call):
    # numpy reports its buffers to tracemalloc, so the peak is deterministic.
    call()  # warm the cached Simpson rule
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
