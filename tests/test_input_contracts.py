"""Bad input is rejected with a named error (CLI exit code 2), never priced."""

import math
import os

import numpy as np
import pytest

from kmarkets import Dataset, IngestError, ParameterDomainError, UniformJoint, ingest
from kmarkets import TabulatedPolicy, revenue_deficiency, uniform_strategy
from kmarkets import Packing, QuadratureConfig, concavity_margin, gilbert_varshamov
from kmarkets import empirical_demand, uniform_erm
from kmarkets.cli import main
from kmarkets.experiment import _plan_chunks

HEADER = "auction_id,bid,bidder_id,bidder_rating\n"


def test_dataset_rejects_nan():
    with pytest.raises(ParameterDomainError):
        Dataset(y=[0.2, math.nan], x=[0.1, 0.5])
    with pytest.raises(ParameterDomainError):
        Dataset(y=[0.2, 0.3], x=[math.nan, 0.5])


@pytest.mark.parametrize("bid", ["nan", "inf"])
def test_cli_price_rejects_non_finite_bid(tmp_path, capsys, bid):
    path = tmp_path / "bids.csv"
    path.write_text(HEADER + "a1,10,u1,5\n" + f"a1,{bid},u2,7\n" + "a2,12,u3,9\n")
    assert main(["price", "--input", str(path), "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert "line 3: non-finite bid" in captured.err
    assert captured.out == ""


def test_ingest_ratings(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(HEADER + "a1,10,u1,5\na1,11,u2,-inf\n")
    with pytest.raises(IngestError, match="line 3: non-finite rating"):
        ingest(bad)
    good = tmp_path / "good.csv"
    good.write_text(HEADER + "a1,10,u1,-5\na1,11,u2,7\n")  # negative feedback scores are legitimate
    _, report = ingest(good)
    assert report.x_min == -5.0


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--strategy", "uniform"],
        ["welfare", "--strategy", "uniform"],
        ["pointwise", "--k", "2", "--at", "0.5"],
    ],
)
def test_cli_runs_reject_unordered_sizes(capsys, command):
    argv = command + ["--family", "uniform", "--n", "64,32,64", "--reps", "2", "--seed", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "strictly increasing" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_must_be_positive(capsys, workers):
    with pytest.raises(ParameterDomainError, match="worker"):
        revenue_deficiency(UniformJoint(), uniform_strategy(), 8, 2, 1, workers=workers)
    argv = ["simulate", "--family", "uniform", "--strategy", "uniform", "--n", "8,16",
            "--reps", "2", "--seed", "1", "--workers", str(workers)]
    assert main(argv) == 2
    assert "worker" in capsys.readouterr().err


def test_chunk_plan_is_capped_at_the_core_count():
    cores = os.cpu_count() or 1
    for reps in (1, 3, 1000):
        chunks = _plan_chunks(reps, 10**9)
        assert len(chunks) == min(reps, cores)
        assert all(c.size for c in chunks)
        assert np.array_equal(np.concatenate(chunks), np.arange(reps))
    assert len(_plan_chunks(1000, 1)) == 1


def test_tabulated_policy_rejects_nan():
    with pytest.raises(ParameterDomainError, match="prices"):
        TabulatedPolicy(x_grid=[0.0, 1.0], prices=[0.5, math.nan])
    with pytest.raises(ParameterDomainError, match="x_grid"):
        TabulatedPolicy(x_grid=[0.0, math.nan, 1.0], prices=[0.5, 0.5, 0.5])


@pytest.mark.parametrize(
    "values", [[0.5, math.nan], [math.nan], [0.2, math.inf], [-math.inf, 0.2], [1.5, 0.2], [0.4, -0.1]]
)
def test_erm_and_demand_reject_valuations_outside_the_unit_interval(values):
    with pytest.raises(ParameterDomainError, match="valuations"):
        uniform_erm(values)
    with pytest.raises(ParameterDomainError, match="valuations"):
        empirical_demand(values, 0.3)


@pytest.mark.parametrize("m", [8.0, 8.5])
def test_gilbert_varshamov_rejects_non_integer_length(m):
    with pytest.raises(ParameterDomainError, match="integer"):
        gilbert_varshamov(m)


@pytest.mark.parametrize("panels", [{"y_panels": 8.0}, {"x_panels": 1e3}])
def test_quadrature_config_rejects_non_integer_panels(panels):
    with pytest.raises(ParameterDomainError, match="panel counts"):
        QuadratureConfig(**panels)


@pytest.mark.parametrize("grid_size", [2, 3])
def test_concavity_margin_rejects_a_grid_with_no_usable_difference(grid_size):
    with pytest.raises(ParameterDomainError, match="grid_size"):
        concavity_margin(1.0, 0.05, grid_size=grid_size)


@pytest.mark.parametrize("m", [8.0, 8.5])
def test_packing_rejects_non_integer_bin_count(m):
    with pytest.raises(ParameterDomainError, match="integer"):
        Packing(m=m, a=1.0, alpha=(0,) * 8)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--family", "uniform", "--strategy", "uniform", "--n", "8,16", "--reps", "2",
         "--seed", "1", "--quad-x", "0"],
        ["adversarial", "hellinger", "--a", "1.0", "--delta", "0.1", "--quad-y", "0"],
    ],
    ids=["simulate-quad-x", "hellinger-quad-y"],
)
def test_cli_rejects_zero_panels(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "panel counts" in captured.err
    assert captured.out == ""
