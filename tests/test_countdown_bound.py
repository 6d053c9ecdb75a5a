"""The empty-bin countdown skips market counts that cannot be filled.

``reference_rows`` is the countdown as it stood before the distinct-covariate
bound: it re-bins every row at every count from min(k, n) down.  The bounded
countdown must yield the same groups, prices and partitions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kmarkets import k_markets_erm
from kmarkets.families import Dataset
from kmarkets.pricing import _market_prices, k_markets_erm_rows, uniform_erm_rows


def reference_rows(x, y, k):
    rows = np.arange(x.shape[0])
    for k_eff in range(min(k, x.shape[1]), 1, -1):
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
    yield rows, uniform_erm_rows(y)[:, None]


def _groups(gen):
    return [(rows.tobytes(), prices.shape, prices.tobytes()) for rows, prices in gen]


# Few distinct covariates, several on bin edges, so most counts leave a bin empty.
TIE_HEAVY_X = st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5, 0.5 + 1e-12, 0.75, 0.9, 1.0])
VALUES = st.sampled_from([0.0, 0.2, 0.5, 0.5, 0.7, 1.0]) | st.floats(0.0, 1.0)


@settings(deadline=None, max_examples=300)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 40)),
    data=st.data(),
)
def test_bounded_countdown_matches_the_full_countdown(shape, data):
    r, n = shape
    x = np.array(data.draw(st.lists(TIE_HEAVY_X, min_size=r * n, max_size=r * n))).reshape(r, n)
    y = np.array(data.draw(st.lists(VALUES, min_size=r * n, max_size=r * n))).reshape(r, n)
    k = data.draw(st.integers(1, n + 2))
    assert _groups(k_markets_erm_rows(x, y, k)) == _groups(reference_rows(x, y, k))

    pf, part = k_markets_erm(Dataset(y=y[0], x=x[0]), k)
    ((_, prices),) = reference_rows(x[:1], y[:1], k)
    k_eff = prices.shape[1]
    assert part.k_effective == k_eff
    assert list(pf.prices) == prices[0].tolist()
    bins = np.minimum((x[0] * k_eff).astype(int), k_eff - 1)
    assert [m.tobytes() for m in part.markets] == [np.flatnonzero(bins == b).tobytes() for b in range(k_eff)]


def _count_binning_passes(monkeypatch):
    calls = []
    bincount = np.bincount

    def counting(*args, **kwargs):
        calls.append(1)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)  # the name kmarkets.pricing calls
    return calls


def test_countdown_at_k_equal_n_makes_few_passes_on_discrete_covariates(monkeypatch):
    rng = np.random.default_rng(5)
    n, levels = 4000, 7
    x = rng.integers(levels, size=n) / (levels - 1)
    y = rng.random(n)
    calls = _count_binning_passes(monkeypatch)
    pf, part = k_markets_erm(Dataset(y=y, x=x), n)
    # One pass at k = n, then at most one per count from 7 down; the full
    # countdown made n - k_eff + 1 passes.
    assert len(calls) <= 1 + levels
    assert part.k_effective == levels


def test_bounded_countdown_pass_count_over_a_block(monkeypatch):
    rng = np.random.default_rng(6)
    n = 500
    x = np.stack([rng.integers(d, size=n) / (d - 1) for d in (3, 5, 9)])
    y = rng.random((3, n))
    calls = _count_binning_passes(monkeypatch)
    groups = list(k_markets_erm_rows(x, y, n))
    assert sorted(p.shape[1] for _, p in groups) == [3, 5, 9]
    assert len(calls) <= 1 + 9
