"""One curve path: the CLI pointwise run, the benchmark scan and the pool per curve."""

import pytest

from kmarkets import (
    DEFAULT_QUAD,
    ParameterDomainError,
    PowerSimulated,
    deficiency_curve,
    experiment,
    pointwise_deficiency,
    uniform_strategy,
)
from kmarkets.cli import main, read_curve


def test_cli_pointwise_rows_follow_the_seed_contract(tmp_path):
    out = tmp_path / "pointwise.csv"
    ns = [32, 64, 128]
    argv = ["pointwise", "--family", "power", "--k", "4", "--at", "0.7", "--n", "32,64,128",
            "--reps", "12", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    want = [pointwise_deficiency(PowerSimulated(), n, 4, 0.7, 12, 5 + i * 2**32) for i, n in enumerate(ns)]
    assert read_curve(out) == want  # CSV numbers carry 17 digits, so this is exact


def test_cli_pointwise_scans_the_benchmark_once(monkeypatch, capsys):
    calls = []
    scan = experiment._scan_then_refine

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(experiment, "_scan_then_refine", counted)
    argv = ["pointwise", "--family", "power", "--k", "4", "--at", "0.5", "--n", "16,32,64",
            "--reps", "3", "--seed", "1"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert len(calls) == 1


def test_one_pool_per_curve(monkeypatch):
    created = []

    class CountingPool(experiment.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingPool)
    args = (PowerSimulated(), uniform_strategy(), [32, 64, 128], 6, 3)
    serial = deficiency_curve(*args, workers=1)
    assert created == []
    pooled = deficiency_curve(*args, workers=2)
    assert len(created) == (1 if len(experiment._plan_chunks(6, 2)) > 1 else 0)
    assert pooled == serial


def test_pointwise_parallel_matches_serial():
    args = (PowerSimulated(), 256, 4, 0.3, 10, 9)
    assert pointwise_deficiency(*args, workers=2) == pointwise_deficiency(*args, workers=1)


@pytest.mark.parametrize("reps, workers, message", [(0, 1, "replication"), (2, 0, "worker")])
def test_curve_validates_before_the_benchmark(reps, workers, message):
    def benchmark(spec, strategy, cfg):
        raise AssertionError("benchmark computed for an invalid run")

    with pytest.raises(ParameterDomainError, match=message):
        experiment._curve(PowerSimulated(), uniform_strategy(), [8], reps, 1, DEFAULT_QUAD,
                          (benchmark, experiment._revenue_gap), workers)
