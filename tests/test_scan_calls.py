"""The grid scan prices each column block in two calls of the revenue function.

The first call takes the segments' left ends; the second takes every kept
segment at once, whole and in ascending order, so the blocked marginal CDF
cuts the kept rows exactly where the full grid's blocks are cut.
"""

import numpy as np

from kmarkets import PowerSimulated, optimal_3pd_policy, oracle
from kmarkets.oracle import BLOCK, GRID_POINTS


def test_each_scan_block_prices_its_kept_segments_in_one_call(monkeypatch):
    calls = []  # grid indices of the prices in each f call before refinement
    refining = []
    scan = oracle._scan_then_refine
    golden = oracle._golden_max

    def recording(f, xs, tol):
        def counted(q, x):
            if not refining:
                calls.append(np.asarray(q)[:, 0] * (GRID_POINTS - 1))
            return f(q, x)

        return scan(counted, xs, tol)

    def refine(*args):
        refining.append(True)
        return golden(*args)

    monkeypatch.setattr(oracle, "_scan_then_refine", recording)
    monkeypatch.setattr(oracle, "_golden_max", refine)
    optimal_3pd_policy(PowerSimulated(), 1025)

    assert len(calls) == 2 * -(-1025 // BLOCK) == 34
    starts, stops = oracle._row_blocks(GRID_POINTS)
    for left, kept in zip(calls[::2], calls[1::2]):
        assert np.array_equal(left, starts)
        rows = kept.astype(int)
        assert np.array_equal(rows, kept) and np.all(np.diff(rows) > 0)
        mask = np.zeros(GRID_POINTS, dtype=bool)
        mask[rows] = True
        assert mask[:BLOCK].all()
        for a, b in zip(starts, stops):
            assert mask[a:b].all() or not mask[a:b].any()
