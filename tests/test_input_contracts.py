"""Bad input is rejected with a named error (CLI exit code 2), never priced."""

import math
import os

import numpy as np
import pytest

from kmarkets import Dataset, IngestError, ParameterDomainError, UniformJoint, ingest
from kmarkets import TabulatedPolicy, revenue_deficiency, uniform_strategy
from kmarkets import PowerSimulated, crossing_scan, deficiency_curve, kmarkets_strategy
from kmarkets import k_markets_erm, optimal_3pd_policy, sample
from kmarkets import Packing, QuadratureConfig, concavity_margin, gilbert_varshamov
from kmarkets import KMarkets, empirical_demand, k_schedule, uniform_erm, validate_density
from kmarkets import marginal_y_cdf
from kmarkets.cli import main
from kmarkets.experiment import _curves, _plan_chunks
from kmarkets.families import DistributionSpec, sample_rows

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
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for reps in (1, 3, 1000):
        chunks = _plan_chunks(reps, 10**9)
        assert len(chunks) == min(reps, cores)
        assert all(c.size for c in chunks)
        assert np.array_equal(np.concatenate(chunks), np.arange(reps))
    assert len(_plan_chunks(1000, 1)) == 1


def test_chunk_plan_is_capped_at_the_usable_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert len(_plan_chunks(10, 2)) == 1


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


@pytest.mark.parametrize("m", [8.0, 8.5, True])
def test_gilbert_varshamov_rejects_non_integer_length(m):
    with pytest.raises(ParameterDomainError, match="integer"):
        gilbert_varshamov(m)


@pytest.mark.parametrize("panels", [{"y_panels": 8.0}, {"x_panels": 1e3}, {"x_panels": True}])
def test_quadrature_config_rejects_non_integer_panels(panels):
    with pytest.raises(ParameterDomainError, match="panel counts"):
        QuadratureConfig(**panels)


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
def test_quadrature_config_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    # An infinite tolerance would skip golden-section refinement and return a raw grid point.
    with pytest.raises(ParameterDomainError, match="refine_tol"):
        QuadratureConfig(refine_tol=tol)


@pytest.mark.parametrize("grid_size", [2, 3])
def test_concavity_margin_rejects_a_grid_with_no_usable_difference(grid_size):
    with pytest.raises(ParameterDomainError, match="grid_size"):
        concavity_margin(1.0, 0.05, grid_size=grid_size)


@pytest.mark.parametrize("m", [8.0, 8.5, True])
def test_packing_rejects_non_integer_bin_count(m):
    with pytest.raises(ParameterDomainError, match="integer"):
        Packing(m=m, a=1.0, alpha=(0,) * 8)


@pytest.mark.parametrize("bit", [0.9, 1.7, 2, -1, math.nan])
def test_packing_rejects_an_alpha_entry_that_is_not_a_bit(bit):
    with pytest.raises(ParameterDomainError, match="alpha must be a bit vector of length m"):
        Packing(m=8, a=1.0, alpha=(bit,) + (0,) * 7)


def test_packing_takes_bits_of_any_integer_bool_or_float_type():
    bits = (1, True, np.int64(1), np.uint8(0), np.bool_(True), 1.0, np.float64(0.0), 0)
    assert Packing(m=8, a=1.0, alpha=bits).alpha == (1, 1, 1, 0, 1, 1, 0, 0)
    assert Packing(m=8, a=1.0, alpha=np.array([1, 0] * 4, dtype=np.uint8)).alpha == (1, 0) * 4


@pytest.mark.parametrize("p", [-0.1, 1.5, math.nan, [0.2, -0.1], [0.2, 1.5], [0.2, math.nan]])
@pytest.mark.parametrize("spec", [UniformJoint(), PowerSimulated()])
def test_marginal_y_cdf_rejects_prices_outside_the_unit_interval(spec, p):
    with pytest.raises(ParameterDomainError, match="prices"):
        marginal_y_cdf(spec, np.asarray(p) if isinstance(p, list) else p)


@pytest.mark.parametrize("spec", [UniformJoint(), PowerSimulated()])
def test_marginal_y_cdf_of_no_prices_is_empty(spec):
    assert marginal_y_cdf(spec, np.empty(0)).shape == (0,)


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


@pytest.mark.parametrize(
    "n, reps, workers", [(8, 2.5, 1), (8, 2, 1.5), (8.5, 2, 1), (8, True, 1), (8, 2, True), (True, 2, 1)]
)
def test_monte_carlo_counts_must_be_integers(n, reps, workers):
    with pytest.raises(ParameterDomainError, match="integer"):
        revenue_deficiency(UniformJoint(), uniform_strategy(), n, reps, 1, workers=workers)


def test_sample_sizes_must_be_integers():
    with pytest.raises(ParameterDomainError, match="integers"):
        deficiency_curve(UniformJoint(), uniform_strategy(), [10.7, 20.2, 30.9], 2, 1)
    with pytest.raises(ParameterDomainError, match="integers"):
        crossing_scan(UniformJoint(), [8, 16.0], 2, 2, 1)
    assert deficiency_curve(UniformJoint(), uniform_strategy(), np.array([8, 16, 32]), 2, 1)[0].n == 8


@pytest.mark.parametrize("k", [2.5, 2.0, True])
def test_market_count_must_be_an_integer(k):
    with pytest.raises(ParameterDomainError, match="integer"):
        kmarkets_strategy(k=k)
    with pytest.raises(ParameterDomainError, match="integer"):
        k_markets_erm(sample(UniformJoint(), 16, 1), k)


@pytest.mark.parametrize("k", [2.0, 2.5, True])
def test_step_rule_market_count_must_be_an_integer(k):
    with pytest.raises(ParameterDomainError, match="integer"):
        KMarkets(k, (0.1, 0.2))


@pytest.mark.parametrize(
    "args",
    [(10.0, "theory"), (10.5, "sim"), ("10", "ebay"), (10, "fixed", 2.5), (10, "fixed", 2.0), (True, "theory"),
     (10, "fixed", True)],
)
def test_schedule_counts_must_be_integers(args):
    with pytest.raises(ParameterDomainError, match="integer"):
        k_schedule(*args)


@pytest.mark.parametrize("size", [2.5, 1025.0, True])
def test_policy_grid_size_must_be_an_integer(size):
    with pytest.raises(ParameterDomainError, match="x_grid_size"):
        optimal_3pd_policy(PowerSimulated(), x_grid_size=size)


@pytest.mark.parametrize("size", [2.5, 101.0, True])
def test_density_check_grid_size_must_be_an_integer(size):
    with pytest.raises(ParameterDomainError, match="x_grid_size"):
        validate_density(UniformJoint(), size)


@pytest.mark.parametrize("grid_size", [3.5, 10000.0, True])
def test_concavity_margin_grid_size_must_be_an_integer(grid_size):
    with pytest.raises(ParameterDomainError, match="grid_size"):
        concavity_margin(1.0, 0.05, grid_size)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.5, "3", None, True])
def test_sample_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ParameterDomainError, match="seed"):
        sample(UniformJoint(), 10, seed)


@pytest.mark.parametrize("n", [0, 2.5, True])
def test_sample_rejects_a_size_that_is_not_a_positive_integer(n):
    with pytest.raises(ParameterDomainError, match="sample size"):
        sample(UniformJoint(), n, 1)


@pytest.mark.parametrize("n", [0, 2.5, True])
def test_sample_rows_reject_a_size_that_is_not_a_positive_integer(n):
    with pytest.raises(ParameterDomainError, match="sample size"):
        sample_rows(UniformJoint(), n, [1, 2])


@pytest.mark.parametrize("seed", [-1, 2.5, True])
def test_sample_rows_reject_a_bad_seed_by_name(seed):
    with pytest.raises(ParameterDomainError, match=f"seed must be a non-negative integer, got {seed!r}"):
        sample_rows(UniformJoint(), 10, [3, seed, 4])


class _OffUnitPpf(DistributionSpec):
    def __init__(self, value):
        self.value = value

    def ppf(self, u, x):
        return np.full_like(u, self.value)


@pytest.mark.parametrize("value", [1.5, math.nan])
def test_sample_rows_reject_valuations_outside_the_unit_interval(value):
    with pytest.raises(ParameterDomainError, match="valuations"):
        sample_rows(_OffUnitPpf(value), 10, [3, 4])
    with pytest.raises(ParameterDomainError, match="valuations"):
        sample(_OffUnitPpf(value), 10, 3)


def test_sample_takes_a_numpy_integer_seed():
    a, b = sample(UniformJoint(), 10, np.int64(7)), sample(UniformJoint(), 10, 7)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_curves_reject_a_bad_seed_before_any_benchmark(seed):
    def benchmark(spec, strategy, cfg):
        raise AssertionError("benchmark computed before the seed was checked")

    with pytest.raises(ParameterDomainError, match="seed"):
        _curves(UniformJoint(), [(uniform_strategy(), (benchmark, None))], [8, 16], 2, seed, None, 1)
    with pytest.raises(ParameterDomainError, match="seed"):
        revenue_deficiency(UniformJoint(), uniform_strategy(), 8, 2, seed)
    with pytest.raises(ParameterDomainError, match="seed"):
        crossing_scan(PowerSimulated(), [8, 16], 2, 2, seed)


def test_cli_rejects_a_negative_seed(capsys):
    argv = ["simulate", "--family", "uniform", "--strategy", "uniform", "--n", "8,16",
            "--reps", "2", "--seed", "-1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "seed" in captured.err
    assert captured.out == ""


def test_blank_bidder_id_is_rejected(tmp_path, capsys):
    path = tmp_path / "bids.csv"
    path.write_text(HEADER + "a1,10,,5\n" + "a2,20,,7\n" + "a3,15,u1,3\n")
    with pytest.raises(IngestError, match="line 2: blank bidder_id"):
        ingest(path)
    assert main(["price", "--input", str(path), "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert "line 2: blank bidder_id" in captured.err
    assert captured.out == ""
