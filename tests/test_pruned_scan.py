"""The pruned grid scan equals the one-shot scan byte for byte, from a fraction of the grid.

The scan skips the price segments whose revenue bound cannot reach the best
left-end revenue.  Skipping must not change a bit of the 3PD policy, the
uniform price or the pointwise benchmark, across families whose revenue
curves are not concave, whose hats clip at y = 1, and whose covariate bins
are narrow.  The one-shot references live in tests/test_blocked_scan.py.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kmarkets import (
    DEFAULT_QUAD,
    Packing,
    PerturbedConditional,
    PerturbedUniform,
    PowerSimulated,
    experiment,
    optimal_3pd_policy,
    optimal_uniform_price,
    oracle,
)
from kmarkets.oracle import BLOCK, GRID_POINTS, marginal_y_cdf, pointwise_revenue
from test_blocked_scan import TOL, _one_shot_scan, _same

ROOT = Path(__file__).resolve().parents[1]
AMPLITUDE = st.floats(0.05, 1.95)


@st.composite
def perturbed_uniform(draw):
    # Signed amplitudes up to |a| < 2 and delta up to 1/6, non-concave cases included.
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return PerturbedUniform(a=sign * draw(AMPLITUDE), delta=draw(st.floats(0.005, 1.0 / 6.0)))


@st.composite
def clipped_conditional(draw):
    # delta > 1/6 clips the hat at y = 1, so F(1|x) may exceed 1 and demand turn negative.
    delta = draw(st.floats(1.0 / 6.0 + 1e-3, 0.249))
    x0 = draw(st.floats(delta / 4.0, 1.0 - 0.75 * delta))
    return PerturbedConditional(a=draw(AMPLITUDE), delta=delta, x0=x0)


@st.composite
def packing(draw):
    m = draw(st.integers(8, 64))
    return Packing(m=m, a=draw(AMPLITUDE), alpha=tuple(draw(st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m))))


SPECS = st.one_of(perturbed_uniform(), clipped_conditional(), packing())


@settings(deadline=None, max_examples=60)
@given(spec=SPECS, size=st.sampled_from([2, BLOCK - 1, BLOCK, BLOCK + 1, 1025]), x0=st.floats(0.0, 1.0))
def test_pruned_scan_equals_the_one_shot_scan(spec, size, x0):
    xs = np.linspace(0.0, 1.0, size)
    want, _ = _one_shot_scan(lambda q: pointwise_revenue(spec, q, xs), TOL)
    assert _same(optimal_3pd_policy(spec, size).prices, want)

    # The reference prices the whole grid through the blocked marginal CDF,
    # as the unpruned scan did: the one-matvec marginal may differ from it in
    # the last bit (PerturbedConditional(0.168, 0.168, 0.626) at p = 1/2).
    p, r = _one_shot_scan(lambda q: q * (1.0 - marginal_y_cdf(spec, q)), TOL)
    assert _same(optimal_uniform_price(spec), (p[0], r[0]))

    _, best = _one_shot_scan(lambda q: pointwise_revenue(spec, q, np.full_like(q, x0)), TOL)
    benchmark, _ = experiment._pointwise_kind(x0)
    assert _same(benchmark(spec, None, DEFAULT_QUAD), float(best[0]))


def test_3pd_policy_evaluates_at_most_a_quarter_of_the_grid(monkeypatch):
    # (price, covariate) pairs handed to the CDF, refinement included.
    pairs = []
    cdf = PowerSimulated.conditional_cdf

    def counting(self, y, x):
        pairs.append(np.broadcast(np.asarray(y), np.asarray(x)).size)
        return cdf(self, y, x)

    monkeypatch.setattr(PowerSimulated, "conditional_cdf", counting)
    optimal_3pd_policy(PowerSimulated())
    assert sum(pairs) <= 0.25 * GRID_POINTS * 1025


def test_uniform_scan_integrates_only_whole_blocks(monkeypatch):
    # A lone row in a BLAS matrix-vector product may round differently from
    # the same row inside a block; refinement prices one row at a time as before.
    rows = []
    refining = []
    cdf = PowerSimulated.conditional_cdf
    golden = oracle._golden_max

    def counting(self, y, x):
        if not refining:
            rows.append(np.shape(y)[0])
        return cdf(self, y, x)

    def refine(*args):
        refining.append(True)
        return golden(*args)

    monkeypatch.setattr(PowerSimulated, "conditional_cdf", counting)
    monkeypatch.setattr(oracle, "_golden_max", refine)
    optimal_uniform_price(PowerSimulated())
    assert rows and min(rows) >= BLOCK and max(rows) <= BLOCK + 1
    assert sum(rows) < GRID_POINTS


def test_importing_the_cli_loads_no_process_pool():
    # A serial run never starts a pool, so it should not pay multiprocessing's import.
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = (
        "import kmarkets.cli, sys; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": pythonpath}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
