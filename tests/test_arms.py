"""Several arms per draw: one sample per (n, replication), fitted by every arm."""

import pytest

from kmarkets import (
    DEFAULT_QUAD,
    PowerSimulated,
    crossing_scan,
    experiment,
    kmarkets_strategy,
    uniform_strategy,
)

NS = [16, 32, 64]
REPS = 6


@pytest.mark.parametrize("workers", [1, 2])
def test_arms_equal_separate_single_arm_curves(workers):
    spec = PowerSimulated()
    revenue, welfare = experiment._KINDS["revenue"], experiment._KINDS["welfare"]
    arms = [
        (uniform_strategy(), revenue),
        (kmarkets_strategy(k=3), welfare),
        (kmarkets_strategy(schedule="theory"), revenue),
        (uniform_strategy(), welfare),
    ]
    curves = experiment._curves(spec, arms, NS, REPS, 4, DEFAULT_QUAD, workers)
    assert len(curves) == len(arms)
    for (strategy, kind), points in zip(arms, curves):
        assert points == experiment._curve(spec, strategy, NS, REPS, 4, DEFAULT_QUAD, kind, 1)


def test_crossing_scan_draws_each_dataset_once(monkeypatch):
    drawn = []
    sample_rows = experiment.sample_rows

    def counted(spec, n, seeds):
        drawn.extend((n, seed) for seed in seeds)
        return sample_rows(spec, n, seeds)

    monkeypatch.setattr(experiment, "sample_rows", counted)
    result = crossing_scan(PowerSimulated(), NS, k=4, reps=REPS, base_seed=2)
    assert len(drawn) == len(NS) * REPS
    assert len(set(drawn)) == len(drawn)
    monkeypatch.setattr(experiment, "sample_rows", sample_rows)
    revenue = experiment._KINDS["revenue"]
    for strategy, curve in ((uniform_strategy(), result.uniform_curve),
                            (kmarkets_strategy(k=4), result.kmarkets_curve)):
        assert list(curve) == experiment._curve(PowerSimulated(), strategy, NS, REPS, 2, DEFAULT_QUAD, revenue, 1)


def test_crossing_scan_opens_one_pool(monkeypatch):
    created = []

    class CountingPool(experiment.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingPool)
    serial = crossing_scan(PowerSimulated(), NS, k=4, reps=REPS, base_seed=8, workers=1)
    assert created == []
    pooled = crossing_scan(PowerSimulated(), NS, k=4, reps=REPS, base_seed=8, workers=2)
    assert len(created) == (1 if len(experiment._plan_chunks(REPS, 2)) > 1 else 0)
    assert pooled == serial
