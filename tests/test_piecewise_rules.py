"""The paper's two piecewise rules, each stated once in ``families``.

The market rule puts covariate x in market min(floor(x k), k - 1) of k
equal-width bins; the K-markets fit, its partition, ``price_at``, the
pointwise metric and the packing family's m bins all read it.  The hat
``phi_y`` is read off one knot table and must equal, bit for bit, the
``np.select`` form it replaced, kept here as the reference.  So must the
covariate bump ``phi_x``, one ``np.where`` over both lobes, equal the
per-lobe loop it replaced.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kmarkets import Dataset, KMarkets, Packing, UniformJoint, k_markets_erm, price_at
from kmarkets import families
from kmarkets.experiment import _pointwise_gap
from kmarkets.families import phi_x, phi_y
from kmarkets.oracle import DEFAULT_QUAD, pointwise_revenue


def reference_market(x: float, k: int) -> int:
    return min(math.floor(x * k), k - 1)


def reference_phi_y(t):
    t = np.asarray(t, dtype=float)
    out = np.select(
        [t < -1.0, t <= 0.0, t <= 2.0, t <= 3.0],
        [0.0, t + 1.0, 1.0 - t, t - 3.0],
        default=0.0,
    )
    return out if out.ndim else float(out)


def reference_phi_x(t):
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.zeros_like(t)
    for lo, hi, sign in ((0.0, 0.5, 1.0), (0.5, 1.0, -1.0)):
        mask = (t > lo) & (t < hi)
        if np.any(mask):
            z = 4.0 * t[mask] - (4.0 * lo + 1.0)
            with np.errstate(divide="ignore"):
                out[mask] = sign * np.exp(-z * z / (1.0 - z * z))
    return float(out[0]) if scalar else out


@st.composite
def edge_probes(draw):
    """A market count k and covariates at market edges i/k and their neighbours."""
    k = draw(st.integers(1, 1000))
    edges = {0, k} | set(draw(st.lists(st.integers(0, k), max_size=6)))
    xs = set()
    for i in edges:
        e = i / k
        xs.update(min(max(v, 0.0), 1.0) for v in (np.nextafter(e, -1.0), e, np.nextafter(e, 2.0)))
    return k, np.array(sorted(xs))


@settings(deadline=None, max_examples=150)
@given(edge_probes())
def test_every_reader_of_the_market_rule_agrees(case):
    k, xs = case
    want = np.array([reference_market(float(x), k) for x in xs])

    # The fit: every market holds its midpoint at valuation 0.3; a market
    # that also holds a probe at valuation 0.9 prices at 0.9, else at 0.3.
    mids = (np.arange(k) + 0.5) / k
    data = Dataset(y=np.r_[np.full(xs.size, 0.9), np.full(k, 0.3)], x=np.r_[xs, mids])
    pf, partition = k_markets_erm(data, k)
    assert partition.k_effective == k
    for j, b in enumerate(want):
        assert j in partition.markets[b]
    probed = np.zeros(k, dtype=bool)
    probed[want] = True
    assert np.array_equal(price_at(pf, mids), np.where(probed, 0.9, 0.3))

    step = np.arange(k) / k
    assert np.array_equal(price_at(KMarkets(k, tuple(step.tolist())), xs), step[want])

    row = np.arange(k) / (2 * k)  # revenue p (1 - p) is strictly increasing on [0, 1/2)
    for x, b in zip(xs.tolist(), want):
        _, r = _pointwise_gap(UniformJoint(), row[None], DEFAULT_QUAD, 0.0, x)
        assert r[0] == float(pointwise_revenue(UniformJoint(), float(row[b]), x))

    if k >= 8:
        # A packing coefficient is zero at its bin edges whichever bin x is
        # given, so read the bin Packing.coef computes instead.
        market_of, bins = families._market_of, []

        def recorded(*args):
            bins.append(market_of(*args))
            return bins[-1]

        with mock.patch.object(families, "_market_of", recorded):
            Packing(m=k, a=1.0, alpha=(1,) * k).coef(xs)
        assert len(bins) == 1 and np.array_equal(bins[0], want)


def _hat_inputs():
    rng = np.random.default_rng(20261019)
    knots = np.array([-1.0, 0.0, 1.0, 2.0, 3.0])
    y = rng.random(100_000)
    return np.concatenate(
        [
            rng.uniform(-2.0, 4.0, 200_000),
            knots,
            np.nextafter(knots, -np.inf),
            np.nextafter(knots, np.inf),
            [np.inf, -np.inf, -0.0],
            *[(y - 0.5) / s for s in (0.02, 0.05, 0.1, 1 / 8, 1 / 64, 0.24)],
        ]
    )


def test_phi_y_equals_the_select_form_bit_for_bit():
    t = _hat_inputs()
    assert phi_y(t).tobytes() == reference_phi_y(t).tobytes()
    for v in (-1.0, 0.0, 2.0, 3.0, 0.5, np.inf):
        assert type(phi_y(v)) is float and phi_y(v) == reference_phi_y(v)


@settings(deadline=None, max_examples=300)
@given(st.floats(allow_nan=False))
def test_phi_y_equals_the_select_form_on_any_float(t):
    assert np.float64(phi_y(t)).tobytes() == np.float64(reference_phi_y(t)).tobytes()


def test_phi_y_of_nan_is_nan():
    # The select form returned 0.0 here: a plausible number for bad input.
    assert math.isnan(phi_y(math.nan))
    assert np.isnan(phi_y(np.array([0.5, math.nan]))).tolist() == [False, True]


def test_phi_x_equals_the_per_lobe_loop_bit_for_bit():
    rng = np.random.default_rng(11)
    edges = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    x = rng.uniform(0.0, 1.0, 20_000)
    t = np.concatenate(
        [
            rng.uniform(-0.5, 1.5, 200_000),
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e-17],
            *[m * x - np.floor(m * x) for m in (8, 16, 64)],
        ]
    )
    assert phi_x(t).tobytes() == reference_phi_x(t).tobytes()
    grid = t[:200_000].reshape(-1, 8)
    assert phi_x(grid).tobytes() == reference_phi_x(grid).tobytes()
    for v in (0.0, 0.25, 0.5, 0.75, 1.0, 0.1, np.nan):
        assert type(phi_x(v)) is float
        assert np.float64(phi_x(v)).tobytes() == np.float64(reference_phi_x(v)).tobytes()


@settings(deadline=None, max_examples=300)
@given(st.floats())
def test_phi_x_equals_the_per_lobe_loop_on_any_float(t):
    assert np.float64(phi_x(t)).tobytes() == np.float64(reference_phi_x(t)).tobytes()
