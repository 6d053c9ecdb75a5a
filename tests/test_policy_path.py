"""One policy-evaluation path: a Constant is the one-market step rule, and
every integral reads one cached Simpson rule."""

import math

import numpy as np
import pytest

from kmarkets import (
    DEFAULT_QUAD,
    Constant,
    KMarkets,
    Packing,
    ParameterDomainError,
    PerturbedConditional,
    PerturbedUniform,
    PowerSimulated,
    QuadratureConfig,
    TabulatedPolicy,
    UniformJoint,
    expected_revenue,
    marginal_y_cdf,
    optimal_3pd_policy,
    price_at,
    welfare,
)
from kmarkets.families import _simpson_rule
from kmarkets.oracle import partial_expectation, pointwise_revenue

SPECS = [
    UniformJoint(),
    PowerSimulated(),
    PerturbedUniform(a=1.0, delta=0.1),
    PerturbedConditional(a=1.5, delta=0.2, x0=0.4),
    Packing(m=16, a=1.2, alpha=tuple(int(i % 3 == 0) for i in range(16))),
]
CONFIGS = [DEFAULT_QUAD, QuadratureConfig(y_panels=64, x_panels=10)]
KINDS = [(expected_revenue, pointwise_revenue), (welfare, partial_expectation)]


def _reference(spec, prices_at, cfg, integrand):
    # The former evaluation of a non-step policy: prices at linspace nodes
    # and one 1-D Simpson dot product.
    panels = cfg.x_panels
    xs = np.linspace(0.0, 1.0, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w = w / (3.0 * panels)
    return float(integrand(spec, prices_at(xs), xs) @ w)


@pytest.mark.parametrize("kind", KINDS, ids=["revenue", "welfare"])
@pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "x10"])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
def test_constant_is_the_one_market_rule(spec, cfg, kind):
    evaluate, integrand = kind
    for p in (0.0, 0.25, 0.55, 1.0 / 3.0, 0.9, 1.0):
        want = _reference(spec, lambda xs: np.full_like(xs, p), cfg, integrand)
        assert evaluate(spec, Constant(p), cfg) == want
        assert evaluate(spec, KMarkets(k=1, prices=(p,)), cfg) == want


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
def test_tabulated_policy_is_one_market_priced_at_the_nodes(spec):
    pol = optimal_3pd_policy(spec)
    for evaluate, integrand in KINDS:
        want = _reference(spec, lambda xs: np.interp(xs, pol.x_grid, pol.prices), DEFAULT_QUAD, integrand)
        assert evaluate(spec, pol, DEFAULT_QUAD) == want


def test_constant_reads_as_a_step_rule():
    pf = Constant(0.4)
    assert (pf.k, pf.prices) == (1, (0.4,))
    assert pf == Constant(0.4) and repr(pf) == "Constant(p=0.4)"
    assert price_at(pf, np.array([0.0, 0.5, 1.0])).tolist() == [0.4, 0.4, 0.4]


def test_integrals_reject_what_is_not_a_pricing_rule():
    for evaluate, _ in KINDS:
        with pytest.raises(TypeError, match="not a pricing rule"):
            evaluate(UniformJoint(), object())


@pytest.mark.parametrize(
    "panels, k, m", [(10, 1, 10), (4096, 1, 4096), (10, 4, 8), (1024, 3, 342), (1024, 5, 206)]
)
def test_simpson_rule_layout(panels, k, m):
    nodes, w = _simpson_rule(panels, k)
    assert nodes.shape == (k, m + 1) and w.shape == (m + 1,)
    assert nodes[:, 0].tolist() == [i / k for i in range(k)]
    assert nodes[:, -1].tolist() == [(i + 1) / k for i in range(k)]
    assert math.isclose(w.sum(), 1.0, rel_tol=1e-13)
    # Simpson is exact for cubics: the integral of x^3 over [0, 1] is 1/4.
    assert math.isclose((nodes**3 @ w).sum() / k, 0.25, rel_tol=1e-13)


def test_simpson_rule_is_cached_and_read_only():
    nodes, w = _simpson_rule(1024, 4)
    again = _simpson_rule(1024, 4)
    assert again[0] is nodes and again[1] is w
    for arr in (nodes, w):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("spec", [UniformJoint(), PowerSimulated()], ids=lambda s: type(s).__name__)
def test_marginal_y_cdf_returns_a_fresh_array(spec):
    nodes, _ = _simpson_rule(DEFAULT_QUAD.x_panels)
    out = marginal_y_cdf(spec, nodes[0])
    assert out.flags.writeable
    assert not np.shares_memory(out, nodes)
    out[0] = 0.5  # the cache stays untouched
    assert nodes[0, 0] == 0.0


@pytest.mark.parametrize(
    "pf",
    [
        Constant(0.3),
        KMarkets(k=4, prices=(0.1, 0.2, 0.3, 0.4)),
        TabulatedPolicy(x_grid=[0.0, 1.0], prices=[0.2, 0.8]),
    ],
    ids=["constant", "kmarkets", "tabulated"],
)
def test_price_at_rejects_covariates_outside_the_unit_interval(pf):
    for x in (-0.3, -1.5, -2.5, 1.5, math.nan, np.array([0.5, math.nan]), np.array([0.0, 1.0 + 1e-12])):
        with pytest.raises(ParameterDomainError, match="covariates"):
            price_at(pf, x)
    assert price_at(pf, 0.0) == price_at(pf, np.array([0.0]))[0]
    assert price_at(pf, 1.0) == price_at(pf, np.array([1.0]))[0]
