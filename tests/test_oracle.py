"""Oracle functionals against closed forms and brute-force scans."""

import math

import numpy as np
import pytest

from kmarkets import (
    Constant,
    KMarkets,
    Packing,
    ParameterDomainError,
    PerturbedUniform,
    PowerSimulated,
    QuadratureConfig,
    TabulatedPolicy,
    UniformJoint,
    expected_revenue,
    marginal_y_cdf,
    optimal_3pd_policy,
    optimal_uniform_price,
    partial_expectation,
    pointwise_revenue,
    price_at,
    welfare,
)

# Optimal single-price revenue of the power family, recomputed offline from
# the closed-form marginal F_Y(p) = p(p-1)/log(p) with a 2*10^7-point scan.
POWER_UNIFORM_REVENUE = 0.322342514923416
# Revenue of the pointwise optimal policy p*(x) = (x+2)^(-1/(x+1)), from a
# 2^20-panel Simpson rule on the closed form.
POWER_3PD_REVENUE = 0.322992013405188


def _power_marginal_cdf(p):
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    inner = (p > 0.0) & (p < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[inner] = p[inner] * (p[inner] - 1.0) / np.log(p[inner])
    out[p <= 0.0] = 0.0
    out[p >= 1.0] = 1.0
    return out


def _perturbed_marginal_cdf(spec, p):
    # independent re-derivation of the hat CDF: integrate 1 + c*phi piecewise
    d = spec.delta
    c = spec.a * spec.delta
    t = (np.asarray(p, dtype=float) - 0.5) / d
    anti = np.select(
        [t < -1.0, t <= 0.0, t <= 2.0, t <= 3.0],
        [0.0, (t + 1.0) ** 2 / 2.0, 0.5 + t - t * t / 2.0, (t - 3.0) ** 2 / 2.0],
        default=0.0,
    )
    return np.asarray(p, dtype=float) + c * d * anti


def test_pointwise_revenue_values():
    assert pointwise_revenue(UniformJoint(), 0.5, 0.77) == pytest.approx(0.25, abs=1e-15)
    assert pointwise_revenue(PowerSimulated(), 0.0, 0.5) == 0.0
    assert pointwise_revenue(PowerSimulated(), 0.5, 1.0) == pytest.approx(0.375, abs=1e-15)


def test_uniform_baseline_exact():
    p, r = optimal_uniform_price(UniformJoint())
    assert abs(p - 0.5) <= 1e-9
    assert abs(r - 0.25) <= 1e-9


def test_a_zero_pattern_packing_prices_exactly_like_the_uniform_joint():
    # No bit set: the law says x_independent, so F_Y is F(y|1/2) = y with no x-rule round-off.
    assert optimal_uniform_price(Packing(m=16, a=1.0, alpha=(0,) * 16)) == (0.5, 0.25)


def test_power_optimal_uniform_price():
    p, r = optimal_uniform_price(PowerSimulated())
    assert r == pytest.approx(POWER_UNIFORM_REVENUE, abs=1e-9)
    # brute force on the closed-form marginal, 10^6 + 1 points
    ps = np.linspace(0.0, 1.0, 1_000_001)
    rev = ps * (1.0 - _power_marginal_cdf(ps))
    assert abs(p - ps[np.argmax(rev)]) <= 1e-5


def test_perturbed_optimal_price_brute_force():
    for a in (0.5, -0.5, 1.0, -1.0, 1.5, -1.5):
        for d in (0.005, 0.02, 0.1):
            spec = PerturbedUniform(a=a, delta=d)
            p, _ = optimal_uniform_price(spec)
            ps = np.linspace(0.0, 1.0, 1_000_001)
            rev = ps * (1.0 - _perturbed_marginal_cdf(spec, ps))
            assert abs(p - ps[np.argmax(rev)]) <= 1e-5, (a, d)


def test_marginal_y_cdf_matches_closed_form():
    ps = np.linspace(0.0, 1.0, 257)
    got = np.asarray(marginal_y_cdf(PowerSimulated(), ps))
    np.testing.assert_allclose(got, _power_marginal_cdf(ps), atol=1e-12)


def test_power_policy_matches_first_order_condition():
    pol = optimal_3pd_policy(PowerSimulated())
    xs = np.linspace(0.0, 1.0, 101)
    want = (xs + 2.0) ** (-1.0 / (xs + 1.0))
    got = np.interp(xs, pol.x_grid, pol.prices)
    assert np.abs(got - want).max() <= 1e-6
    assert price_at(pol, 0.0) == pytest.approx(0.5, abs=1e-6)


def test_power_policy_against_brute_force_scan():
    spec = PowerSimulated()
    pol = optimal_3pd_policy(spec)
    ys = np.linspace(0.0, 1.0, 1_000_001)
    for x in (0.1, 0.5, 0.9):
        rev = ys * (1.0 - ys ** (x + 1.0))
        best = ys[np.argmax(rev)]
        assert abs(price_at(pol, x) - best) <= 1e-5


def test_uniform_policy_is_flat_half():
    pol = optimal_3pd_policy(UniformJoint())
    assert np.abs(pol.prices - 0.5).max() <= 1e-9


def test_expected_revenue_values():
    assert expected_revenue(UniformJoint(), Constant(0.5)) == pytest.approx(0.25, abs=1e-12)
    assert expected_revenue(PowerSimulated(), Constant(0.0)) == 0.0
    pol = optimal_3pd_policy(PowerSimulated())
    assert expected_revenue(PowerSimulated(), pol) == pytest.approx(POWER_3PD_REVENUE, abs=1e-9)
    # figure-level agreement
    assert expected_revenue(PowerSimulated(), pol) == pytest.approx(0.322992, abs=1e-3)
    _, r_uni = optimal_uniform_price(PowerSimulated())
    assert r_uni == pytest.approx(0.322343, abs=1e-3)


def test_3pd_dominates_uniform():
    for spec in (UniformJoint(), PowerSimulated(), PerturbedUniform(a=1.0, delta=0.1)):
        p_star, r_uni = optimal_uniform_price(spec)
        pol = optimal_3pd_policy(spec)
        assert expected_revenue(spec, pol) >= r_uni - 1e-9
        assert expected_revenue(spec, Constant(p_star)) == pytest.approx(r_uni, abs=1e-9)


def test_optimal_policy_dominates_random_steps():
    rng = np.random.default_rng(71)
    spec = PowerSimulated()
    pol = optimal_3pd_policy(spec)
    best = expected_revenue(spec, pol)
    for _ in range(100):
        k = int(rng.integers(1, 9))
        pf = KMarkets(k=k, prices=tuple(rng.random(k))) if k > 1 else Constant(float(rng.random()))
        assert best >= expected_revenue(spec, pf) - 1e-6


def test_welfare_values():
    assert welfare(UniformJoint(), Constant(0.5)) == pytest.approx(0.375, abs=1e-12)
    assert welfare(PowerSimulated(), Constant(1.0)) == 0.0
    assert welfare(PowerSimulated(), Constant(0.0)) == pytest.approx(1.0 - math.log(1.5), abs=1e-9)


def test_partial_expectation_closed_forms():
    assert partial_expectation(UniformJoint(), 0.5, 0.3) == pytest.approx(0.375, abs=1e-15)
    assert partial_expectation(PowerSimulated(), 0.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    # cross-check every family against direct quadrature of y * f(y|x)
    specs = (
        UniformJoint(),
        PowerSimulated(),
        PerturbedUniform(a=1.0, delta=0.1),
        PerturbedUniform(a=-1.5, delta=0.05),
    )
    for spec in specs:
        for p in (0.0, 0.3, 0.5, 0.62, 1.0):
            for x in (0.2, 0.8):
                ys = np.linspace(p, 1.0, 100_001)
                dens = np.asarray(spec.conditional_density(ys, np.full_like(ys, x)))
                want = float(np.trapezoid(ys * dens, ys))
                got = partial_expectation(spec, p, x)
                assert got == pytest.approx(want, abs=5e-6), (spec, p, x)


def test_welfare_dominates_revenue():
    rng = np.random.default_rng(29)
    for spec in (UniformJoint(), PowerSimulated(), PerturbedUniform(a=1.0, delta=0.1)):
        for _ in range(20):
            k = int(rng.integers(1, 7))
            pf = KMarkets(k=k, prices=tuple(rng.random(k))) if k > 1 else Constant(float(rng.random()))
            assert welfare(spec, pf) >= expected_revenue(spec, pf) - 1e-9


def test_quadratic_gap_exact_for_uniform():
    # R(p) = p(1-p), so the gap to the optimum is exactly (p - 1/2)^2
    for p in np.linspace(0.0, 1.0, 41):
        gap = 0.25 - expected_revenue(UniformJoint(), Constant(float(p)))
        assert gap == pytest.approx((p - 0.5) ** 2, abs=1e-12)


def test_step_policy_integration_is_exact_per_bin():
    # piecewise-constant prices under the uniform law have closed-form revenue
    pf = KMarkets(k=4, prices=(0.2, 0.4, 0.6, 0.8))
    want = sum(p * (1.0 - p) for p in pf.prices) / 4.0
    assert expected_revenue(UniformJoint(), pf) == pytest.approx(want, abs=1e-12)


def test_tabulated_policy_validation():
    with pytest.raises(ParameterDomainError):
        TabulatedPolicy(x_grid=np.array([0.0, 0.0, 1.0]), prices=np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ParameterDomainError):
        TabulatedPolicy(x_grid=np.array([0.0, 1.0]), prices=np.array([0.5, 1.5]))
    with pytest.raises(ParameterDomainError):
        TabulatedPolicy(x_grid=np.array([0.0, 1.0]), prices=np.array([0.5]))
    pol = TabulatedPolicy(x_grid=np.array([0.0, 1.0]), prices=np.array([0.5, 0.6]))
    assert price_at(pol, 0.5) == pytest.approx(0.55)


def test_quadrature_config_validation():
    with pytest.raises(ParameterDomainError):
        QuadratureConfig(y_panels=7)
    with pytest.raises(ParameterDomainError):
        QuadratureConfig(x_panels=10, y_panels=9)
    with pytest.raises(ParameterDomainError):
        QuadratureConfig(refine_tol=0.0)
    cfg = QuadratureConfig(y_panels=512, x_panels=128)
    p, r = optimal_uniform_price(PowerSimulated(), cfg)
    assert r == pytest.approx(POWER_UNIFORM_REVENUE, abs=1e-6)
