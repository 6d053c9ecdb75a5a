"""One policy integrator: ``oracle.integrate_rows`` picks the Simpson rule and
blocks the rows itself, and a row's bits never depend on its block.

Also pins the package's public names, which the library keeps stable.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kmarkets
from kmarkets import (
    Packing,
    PerturbedConditional,
    PerturbedUniform,
    PowerSimulated,
    QuadratureConfig,
    UniformJoint,
    expected_revenue,
    experiment,
    oracle,
    optimal_3pd_policy,
    price_at,
    welfare,
)
from kmarkets.families import _simpson_rule
from kmarkets.oracle import integrate_rows, partial_expectation, pointwise_revenue

FAMILIES = [
    UniformJoint(),
    PowerSimulated(),
    PerturbedUniform(a=1.0, delta=0.1),
    PerturbedConditional(a=1.0, delta=0.2, x0=0.4),
    Packing(m=16, a=1.0, alpha=(0, 1, 1, 0) * 4),
]
INTEGRANDS = (partial_expectation, pointwise_revenue)


@settings(deadline=None, max_examples=60)
@given(
    spec=st.sampled_from(FAMILIES),
    k=st.integers(1, 13),
    rows=st.integers(1, 40),
    batch=st.sampled_from([1, 7, 64, 1000, oracle.BATCH]),
    panels=st.sampled_from([8, 16, 1024]),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_rule_rows_integrate_alike_in_any_block(spec, k, rows, batch, panels, seed):
    cfg = QuadratureConfig(x_panels=panels)
    prices = np.random.default_rng(seed).random((rows, k, 1))
    alone = [integrate_rows(spec, prices[i : i + 1], cfg, INTEGRANDS) for i in range(rows)]
    with mock.patch.object(oracle, "BATCH", batch):
        got = integrate_rows(spec, prices, cfg, INTEGRANDS)
    assert got.shape == (len(INTEGRANDS), rows)
    for i, want in enumerate(alone):
        assert got[:, i : i + 1].tobytes() == want.tobytes()


def test_tabulated_policy_integrates_alike_in_any_block():
    spec = PowerSimulated()
    cfg = QuadratureConfig(x_panels=64)
    pol = optimal_3pd_policy(spec, 65, cfg)
    prices = price_at(pol, _simpson_rule(cfg.x_panels)[0])[None]
    want = np.array([[welfare(spec, pol, cfg)], [expected_revenue(spec, pol, cfg)]])
    for batch in (1, 7, oracle.BATCH):
        with mock.patch.object(oracle, "BATCH", batch):
            assert integrate_rows(spec, prices, cfg, INTEGRANDS).tobytes() == want.tobytes()


def test_oracle_batch_sets_the_evaluation_block(monkeypatch):
    # x_panels = 8 and k = 1 give 9 nodes per row, so 100 elements hold 11 rows.
    shapes = []

    def recording(spec, prices, xs):
        shapes.append(prices.shape)
        return pointwise_revenue(spec, prices, xs)

    monkeypatch.setattr(oracle, "BATCH", 100)
    integrate_rows(UniformJoint(), np.full((25, 1, 1), 0.5), QuadratureConfig(x_panels=8), (recording,))
    assert shapes == [(11, 1, 1), (11, 1, 1), (3, 1, 1)]


def test_the_engine_has_no_rule_or_evaluation_block_of_its_own():
    assert not hasattr(experiment, "_integrals")
    assert not hasattr(experiment, "_simpson_rule")
    assert experiment.BATCH == oracle.BATCH  # the sample blocks read the same constant


PUBLIC_NAMES = {
    "BidRecord", "Codebook", "Constant", "CrossingResult", "DEFAULT_QUAD", "Dataset",
    "DeficiencyPoint", "DensityReport", "DivergenceReport", "EmptyDataError", "IngestError",
    "IngestReport", "KMarkets", "LemmaC3Result", "MarketPartition", "Packing",
    "ParameterDomainError", "PerturbedConditional", "PerturbedUniform", "PowerSimulated",
    "QuadratureConfig", "RateFit", "Strategy", "SupportViolationError", "TabulatedPolicy",
    "UniformJoint", "UnitPoint", "concavity_margin", "conditional_cdf", "conditional_density",
    "crossing_point", "crossing_scan", "deficiency_curve", "empirical_demand", "expected_revenue",
    "fit_rate", "gilbert_varshamov", "hellinger_sq", "ingest", "k_markets_erm", "k_schedule",
    "kl_divergence", "kmarkets_strategy", "lemma_c3_check", "marginal_perturbation_report",
    "marginal_x_density", "marginal_y_cdf", "optimal_3pd_policy", "optimal_uniform_price",
    "packing_price_separation", "partial_expectation", "phi_x", "phi_y", "pointwise_deficiency",
    "pointwise_revenue", "price_at", "revenue_deficiency", "sample", "uniform_erm",
    "uniform_strategy", "validate_density", "welfare", "welfare_deficiency",
}


def test_public_names_stay():
    assert len(kmarkets.__all__) == len(set(kmarkets.__all__))
    assert set(kmarkets.__all__) == PUBLIC_NAMES
    assert all(hasattr(kmarkets, name) for name in kmarkets.__all__)
