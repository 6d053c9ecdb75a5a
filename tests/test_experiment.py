"""Monte Carlo engine: seeding, benchmarks, rate fits, crossing scans."""

import math

import numpy as np
import pytest

from kmarkets import (
    Constant,
    DeficiencyPoint,
    ParameterDomainError,
    PowerSimulated,
    Strategy,
    UniformJoint,
    crossing_point,
    crossing_scan,
    deficiency_curve,
    expected_revenue,
    fit_rate,
    k_markets_erm,
    kmarkets_strategy,
    optimal_3pd_policy,
    optimal_uniform_price,
    pointwise_deficiency,
    revenue_deficiency,
    sample,
    uniform_erm,
    uniform_strategy,
    welfare_deficiency,
)


def _mk(n, mean):
    return DeficiencyPoint(
        n=n, strategy_tag="uniform", mean_deficiency=mean,
        std_error=0.0, reps=10, mean_revenue=0.25,
    )


def test_fit_rate_recovers_exact_power_laws():
    pts = [_mk(n, 1.0 / n) for n in (100, 400, 1600, 6400)]
    fit = fit_rate(pts)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    pts = [_mk(n, 5.0 * n ** (-2.0 / 3.0)) for n in (128, 512, 2048)]
    fit = fit_rate(pts)
    assert fit.slope == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-10)


def test_fit_rate_rejects_bad_input():
    with pytest.raises(ParameterDomainError):
        fit_rate([_mk(100, 0.1), _mk(200, 0.05)])
    with pytest.raises(ParameterDomainError):
        fit_rate([_mk(100, 0.1), _mk(100, 0.1), _mk(200, 0.05)])
    with pytest.raises(ParameterDomainError):
        fit_rate([_mk(100, 0.1), _mk(200, 0.0), _mk(400, 0.01)])
    # Checked before the logs: nan and inf would fit to nan, and n <= 0 to a
    # failed least-squares solve.
    for n, mean in [(200, math.nan), (200, math.inf), (0, 0.05), (-5, 0.05)]:
        with pytest.raises(ParameterDomainError, match="finite|>= 1"):
            fit_rate([_mk(100, 0.1), _mk(n, mean), _mk(400, 0.01)])


def test_strategy_validation():
    assert uniform_strategy().tag == "uniform"
    assert kmarkets_strategy(k=4).tag == "k=4"
    assert kmarkets_strategy(schedule="sim").tag == "k-sched:sim"
    with pytest.raises(ParameterDomainError):
        Strategy(kind="kmarkets")  # needs k or schedule
    with pytest.raises(ParameterDomainError):
        Strategy(kind="kmarkets", k=4, schedule="theory")
    with pytest.raises(ParameterDomainError):
        Strategy(kind="auction")
    with pytest.raises(ParameterDomainError):
        kmarkets_strategy(k=0)
    with pytest.raises(ParameterDomainError):
        kmarkets_strategy(schedule="cubic")
    with pytest.raises(ParameterDomainError):
        Strategy(kind="uniform", k=3)  # uniform is one market; a count would be dropped
    with pytest.raises(ParameterDomainError):
        Strategy(kind="uniform", schedule="theory")


def test_point_is_deterministic():
    a = revenue_deficiency(PowerSimulated(), uniform_strategy(), 256, 40, 11)
    b = revenue_deficiency(PowerSimulated(), uniform_strategy(), 256, 40, 11)
    assert a == b


def test_parallel_matches_serial():
    args = (PowerSimulated(), uniform_strategy(), [128, 256, 512], 24, 7)
    serial = deficiency_curve(*args, workers=1)
    parallel = deficiency_curve(*args, workers=2)
    assert serial == parallel  # bit-identical, not approx


def test_seed_changes_the_draw():
    a = revenue_deficiency(PowerSimulated(), kmarkets_strategy(schedule="sim"), 4096, 300, 1)
    b = revenue_deficiency(PowerSimulated(), kmarkets_strategy(schedule="sim"), 4096, 300, 999_000)
    assert a.mean_deficiency != b.mean_deficiency
    # different seeds still estimate the same quantity
    gap = abs(a.mean_deficiency - b.mean_deficiency)
    assert gap <= 3.0 * math.hypot(a.std_error, b.std_error)


def test_uniform_family_small_deficiency():
    pt = revenue_deficiency(UniformJoint(), uniform_strategy(), 10_000, 500, 5)
    assert pt.reps == 500
    assert pt.strategy_tag == "uniform"
    assert 0.0 < pt.mean_deficiency <= 0.01
    assert pt.mean_revenue == pytest.approx(0.25, abs=0.01)
    assert pt.std_error > 0.0


def test_per_rep_deficiency_floor():
    # every single repetition sits below its oracle benchmark
    spec = PowerSimulated()
    _, bench_u = optimal_uniform_price(spec)
    bench_k = expected_revenue(spec, optimal_3pd_policy(spec))
    for j in range(20):
        data = sample(spec, 200, 40_000 + j)
        price = uniform_erm(data.y)
        assert bench_u - expected_revenue(spec, Constant(price)) >= -1e-9
        pf, _ = k_markets_erm(data, 4)
        assert bench_k - expected_revenue(spec, pf) >= -1e-9


def test_pointwise_runs_at_the_edge():
    pt = pointwise_deficiency(PowerSimulated(), 512, 4, 1.0, reps=50, base_seed=3)
    assert pt.reps == 50
    assert pt.mean_deficiency >= -1e-9
    mid = pointwise_deficiency(PowerSimulated(), 512, 4, 0.5, reps=50, base_seed=3)
    assert mid.mean_deficiency >= -1e-9


def test_welfare_deficiency_nonnegative_and_shrinking():
    small = welfare_deficiency(PowerSimulated(), uniform_strategy(), 64, 200, 17)
    large = welfare_deficiency(PowerSimulated(), uniform_strategy(), 4096, 200, 17)
    assert small.mean_deficiency >= -1e-9
    assert large.mean_deficiency >= -1e-9
    assert large.mean_deficiency < small.mean_deficiency


def test_deficiency_curve_shape():
    curve = deficiency_curve(PowerSimulated(), uniform_strategy(), [64, 128, 256], 60, 23)
    assert [p.n for p in curve] == [64, 128, 256]
    assert all(p.mean_deficiency > 0.0 for p in curve)
    assert all(p.strategy_tag == "uniform" for p in curve)
    fit = fit_rate(curve)
    assert fit.slope < 0.0


def test_curve_input_validation():
    with pytest.raises(ParameterDomainError):
        deficiency_curve(UniformJoint(), uniform_strategy(), [64, 128], 10, 1)
    with pytest.raises(ParameterDomainError):
        deficiency_curve(UniformJoint(), uniform_strategy(), [64, 64, 128], 10, 1)
    with pytest.raises(ParameterDomainError):
        deficiency_curve(UniformJoint(), uniform_strategy(), [128, 64, 256], 10, 1)
    with pytest.raises(ParameterDomainError):
        deficiency_curve(UniformJoint(), uniform_strategy(), [], 10, 1)
    with pytest.raises(ParameterDomainError):
        deficiency_curve(
            UniformJoint(), uniform_strategy(), [64, 128, 256], 10, 1, kind="utility"
        )


def test_crossing_with_k1_ties_immediately():
    # k=1 fits the same constant price from the same draws, so the first
    # size already satisfies the weak-inequality crossing test
    n = crossing_point(PowerSimulated(), [16, 32], k=1, reps=30, base_seed=9)
    assert n == 16


def test_crossing_none_when_scan_stops_early():
    res = crossing_scan(PowerSimulated(), [16, 32], k=4, reps=60, base_seed=9)
    assert res.n_crossing is None
    assert len(res.uniform_curve) == 2
    assert len(res.kmarkets_curve) == 2
    # shared seeds: both curves sample identical datasets per repetition
    assert all(
        u.n == k.n and u.reps == k.reps
        for u, k in zip(res.uniform_curve, res.kmarkets_curve)
    )
    assert all(
        u.mean_revenue > k.mean_revenue
        for u, k in zip(res.uniform_curve, res.kmarkets_curve)
    )
