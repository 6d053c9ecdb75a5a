"""Divergence bounds, codebooks, and the price-localization lemmas."""

import math
import tracemalloc

import numpy as np
import pytest

from kmarkets import (
    Codebook,
    Packing,
    ParameterDomainError,
    PerturbedConditional,
    PerturbedUniform,
    QuadratureConfig,
    SupportViolationError,
    UniformJoint,
    concavity_margin,
    gilbert_varshamov,
    hellinger_sq,
    kl_divergence,
    lemma_c3_check,
    marginal_perturbation_report,
    packing_price_separation,
    phi_x,
    phi_y,
)
from kmarkets.adversarial import HELLINGER_BOUND_COEF
from kmarkets.families import DistributionSpec, _simpson_rule
from kmarkets.oracle import BLOCK

FAST_QUAD = QuadratureConfig(y_panels=2048, x_panels=16)


def test_phi_y_shape():
    assert phi_y(-1.0) == 0.0
    assert phi_y(0.0) == 1.0
    assert phi_y(1.0) == 0.0
    assert phi_y(2.0) == -1.0
    assert phi_y(3.0) == 0.0
    assert phi_y(-5.0) == 0.0 and phi_y(8.0) == 0.0
    ts = np.linspace(-2.0, 4.0, 6001)
    vals = phi_y(ts)
    assert np.abs(vals).max() <= 1.0
    # piecewise linear, so the trapezoid rule on a kink-aligned grid is exact
    assert abs(np.trapezoid(vals, ts)) <= 1e-12


def test_phi_x_shape():
    assert phi_x(0.0) == 0.0
    assert phi_x(0.5) == 0.0
    assert phi_x(1.0) == 0.0
    assert phi_x(0.25) == 1.0
    assert phi_x(0.75) == -1.0
    assert phi_x(-0.3) == 0.0 and phi_x(1.3) == 0.0
    ts = np.linspace(0.0, 1.0, 20001)
    vals = phi_x(ts)
    assert np.abs(vals).max() <= 1.0
    # exact zero by the antisymmetry of the two lobes
    assert abs(np.trapezoid(vals, ts)) <= 1e-8
    np.testing.assert_allclose(vals, -phi_x(1.0 - ts), atol=1e-12)


def test_hellinger_symmetry_and_zero():
    a = PerturbedUniform(a=1.0, delta=0.1)
    b = PerturbedUniform(a=-0.5, delta=0.08)
    h_ab = hellinger_sq(a, b, FAST_QUAD)
    h_ba = hellinger_sq(b, a, FAST_QUAD)
    assert abs(h_ab - h_ba) <= 1e-12
    assert h_ab > 0.0
    assert hellinger_sq(a, a, FAST_QUAD) <= 1e-15


def test_hellinger_leading_order():
    # H^2 = int (sqrt f - sqrt g)^2 ~ (a delta)^2/4 * int phi^2 = a^2 d^3 / 3
    h = hellinger_sq(PerturbedUniform(a=1.0, delta=0.01), UniformJoint(), FAST_QUAD)
    assert h == pytest.approx(0.01 ** 3 / 3.0, rel=0.03)


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        a1, a2 = rng.uniform(0.5, 1.9, size=2) * rng.choice([-1.0, 1.0], size=2)
        d1, d2 = rng.uniform(0.05, 1.0 / 6.0, size=2)
        s1 = PerturbedUniform(a=float(a1), delta=float(d1))
        s2 = PerturbedUniform(a=float(a2), delta=float(d2))
        assert kl_divergence(s1, s2, FAST_QUAD) >= -1e-9


def test_kl_zero_and_asymmetric():
    s = PerturbedUniform(a=1.0, delta=0.1)
    assert abs(kl_divergence(s, s, FAST_QUAD)) <= 1e-12
    t = PerturbedUniform(a=1.9, delta=0.15)
    u = UniformJoint()
    fwd = kl_divergence(t, u, FAST_QUAD)
    bwd = kl_divergence(u, t, FAST_QUAD)
    assert abs(fwd - bwd) > 1e-6


def test_kl_rejects_vanishing_reference():
    class Degenerate(DistributionSpec):
        def conditional_density(self, y, x):
            return np.zeros(np.broadcast(y, x).shape)

    with pytest.raises(SupportViolationError):
        kl_divergence(UniformJoint(), Degenerate(), FAST_QUAD)


def _full_rule(func, cfg):
    """Iterated Simpson over every x column of cfg.x_panels, BLOCK columns at a time."""
    ys, wy = _simpson_rule(cfg.y_panels)
    xs, wx = _simpson_rule(cfg.x_panels)
    total = 0.0
    for start in range(0, wx.size, BLOCK):
        vals = func(ys.T, xs[:, start : start + BLOCK])
        total += float((wy @ vals) @ wx[start : start + BLOCK])
    return total


def _full_hellinger_sq(spec1, spec2, cfg):
    def integrand(y, x):
        return (np.sqrt(spec1.conditional_density(y, x)) - np.sqrt(spec2.conditional_density(y, x))) ** 2

    return max(_full_rule(integrand, cfg), 0.0)


def _full_kl(spec1, spec2, cfg):
    def integrand(y, x):
        f1, f2 = spec1.conditional_density(y, x), spec2.conditional_density(y, x)
        return np.where(f1 > 0.0, f1 * np.log(f1 / f2), 0.0)

    return _full_rule(integrand, cfg)


X_INDEPENDENT_PAIRS = [
    (UniformJoint(), PerturbedUniform(a=1.0, delta=0.05)),
    (UniformJoint(), PerturbedUniform(a=-0.7, delta=0.1)),
    (PerturbedUniform(a=1.9, delta=0.15), UniformJoint()),
    (PerturbedUniform(a=0.4, delta=0.02), UniformJoint()),
    (PerturbedUniform(a=1.0, delta=0.1), PerturbedUniform(a=-0.5, delta=0.08)),
]


@pytest.mark.parametrize("spec1, spec2", X_INDEPENDENT_PAIRS)
def test_x_independent_divergences_use_one_column(spec1, spec2):
    # Two x-independent laws: the x rule is one node, so x_panels changes no
    # bit, and the value matches the full iterated rule to round-off.
    for divergence, reference in ((hellinger_sq, _full_hellinger_sq), (kl_divergence, _full_kl)):
        values = {
            divergence(spec1, spec2, QuadratureConfig(y_panels=2048, x_panels=px)) for px in (8, 16, 1024)
        }
        assert len(values) == 1
        (value,) = values
        want = reference(spec1, spec2, QuadratureConfig(y_panels=2048, x_panels=1024))
        assert value > 0.0
        assert abs(value - want) <= 1e-13 * want


@pytest.mark.parametrize(
    "spec1, spec2",
    [
        (PerturbedConditional(a=1.0, delta=0.1, x0=0.5), UniformJoint()),
        (UniformJoint(), PerturbedConditional(a=1.0, delta=0.05, x0=0.5)),
        (Packing(m=8, a=1.2, alpha=(1, 0, 0, 0, 0, 0, 0, 1)), Packing(m=8, a=1.2, alpha=(0, 1, 1, 0, 0, 0, 0, 0))),
    ],
)
def test_x_dependent_divergences_still_run_the_x_rule(spec1, spec2):
    # 32 and 64 panels, not 8 and 16: those put every x node where the packing bumps vanish.
    for divergence, reference in ((hellinger_sq, _full_hellinger_sq), (kl_divergence, _full_kl)):
        coarse, fine = (QuadratureConfig(y_panels=2048, x_panels=px) for px in (32, 64))
        assert 0.0 < divergence(spec1, spec2, coarse) != divergence(spec1, spec2, fine)
        assert divergence(spec1, spec2, fine) == reference(spec1, spec2, fine)


def test_marginal_perturbation_report():
    assert HELLINGER_BOUND_COEF == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-15)
    for a, d in ((0.5, 0.05), (1.5, 0.1)):
        rep = marginal_perturbation_report(a, d, FAST_QUAD)
        assert rep.analytic_bound == pytest.approx(HELLINGER_BOUND_COEF * a * a * d ** 3, abs=1e-15)
        assert rep.bound_satisfied
        assert 0.0 < rep.hellinger_sq <= rep.analytic_bound
        assert rep.kl >= rep.hellinger_sq  # KL dominates squared Hellinger
        direct = hellinger_sq(PerturbedUniform(a=a, delta=d), UniformJoint(), FAST_QUAD)
        assert rep.hellinger_sq == pytest.approx(direct, abs=1e-12)


def test_gilbert_varshamov_invariants():
    for m, expect in ((8, 256), (12, 2048), (16, 32768)):
        cb = gilbert_varshamov(m)
        d = -(-m // 8)
        assert cb.m == m
        assert cb.words.shape == (expect, m)
        assert cb.words.dtype == np.uint8
        assert not cb.words.flags.writeable
        assert set(np.unique(cb.words)) <= {0, 1}
        assert not cb.words[0].any()  # all-zeros word seeds the greedy pass
        assert cb.words.shape[0] >= 2 ** math.ceil(m / 8)
        if cb.words.shape[0] <= 4096:
            dist = (cb.words[:, None, :] ^ cb.words[None, :, :]).sum(axis=2)
            np.fill_diagonal(dist, m + 1)
            assert dist.min() >= d
        else:
            rng = np.random.default_rng(m)
            probes = rng.choice(cb.words.shape[0], size=64, replace=False)
            for i in probes:
                dist = (cb.words ^ cb.words[i]).sum(axis=1)
                dist[i] = m + 1
                assert dist.min() >= d


def test_gilbert_varshamov_domain():
    for m in (7, 25, 0):
        with pytest.raises(ParameterDomainError):
            gilbert_varshamov(m)


@pytest.mark.parametrize(
    "source", [[[0, 1, 1], [1, 0, 1]], np.array([[0, 1, 1], [1, 0, 1]], dtype=np.uint8)], ids=["list", "uint8"]
)
def test_codebook_words_are_a_fresh_frozen_copy(source):
    words = Codebook(m=3, words=source).words
    assert words.dtype == np.uint8 and np.array_equal(words, source)
    assert not words.flags.writeable
    assert not np.shares_memory(words, np.asarray(source))


def test_gilbert_varshamov_hands_its_words_over_without_a_copy():
    tracemalloc.start()
    try:
        words = gilbert_varshamov(24).words
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert words.shape == (1 << 19, 24) and words.dtype == np.uint8
    assert not words.flags.writeable
    assert peak < 24 * 2**20  # the 12.6 MB matrix and its packed source, but no second copy of it


def test_separation_zero_for_equal_patterns():
    z = tuple([0] * 8)
    assert packing_price_separation(8, 1.0, z, z) == 0.0
    one = tuple(1 if i == 2 else 0 for i in range(8))
    assert packing_price_separation(8, 1.0, one, one) == 0.0


def test_single_bit_price_localization():
    # flipping one codeword bit moves prices only inside that covariate bin
    m, j = 8, 3
    alpha = tuple(1 if i == j else 0 for i in range(m))
    spec = Packing(m=m, a=1.0, alpha=alpha)
    ys = np.linspace(0.0, 1.0, 200_001)

    def scan_price(x):
        F = spec.conditional_cdf(ys, np.full_like(ys, x))
        return ys[np.argmax(ys * (1.0 - F))]

    for frac, sign in ((0.25, -1.0), (0.75, 1.0)):
        p = scan_price((j + frac) / m)
        assert sign * (p - 0.5) > 0.01
    for x in (0.1, (j - 1 + 0.25) / m, (j + 1 + 0.25) / m, 0.95):
        assert scan_price(x) == 0.5


def test_separation_scales_inversely_with_m():
    norms = {}
    for m in (8, 16, 32):
        alpha = tuple(1 if i % 8 == 0 else 0 for i in range(m))
        norms[m] = packing_price_separation(m, 1.0, alpha, tuple([0] * m)) * m
    vals = list(norms.values())
    assert min(vals) > 0.0
    assert max(vals) / min(vals) < 1.2


def test_separation_rejects_pattern_mismatch():
    with pytest.raises(ParameterDomainError):
        packing_price_separation(8, 1.0, tuple([0] * 7), tuple([0] * 8))


def test_lemma_c3_examples():
    flat = lemma_c3_check(0.0, 0.01)
    assert flat.inside
    assert flat.p_star == pytest.approx(0.5, abs=1e-6)

    up = lemma_c3_check(1.0, 0.01)
    assert up.inside
    assert up.interval == pytest.approx((0.49, 0.49875), abs=1e-15)
    assert up.interval[0] < up.p_star < up.interval[1]

    down = lemma_c3_check(-1.0, 0.01)
    assert down.inside
    assert 0.5 + 0.01 / 8.0 < down.p_star < 0.52
    assert down.interval == pytest.approx((0.50125, 0.52), abs=1e-15)

    for b in (-1.5, -0.5, 0.5, 1.5):
        assert lemma_c3_check(b, 0.02).inside, b


def test_lemma_c3_domain():
    for b in (2.0, -2.0):
        with pytest.raises(ParameterDomainError):
            lemma_c3_check(b, 0.01)
    with pytest.raises(ParameterDomainError):
        lemma_c3_check(1.0, 0.25)


def test_concavity_margin():
    # unperturbed revenue is p(1-p): second derivative exactly -2
    assert concavity_margin(0.0, 0.01) == pytest.approx(-2.0, abs=1e-6)
    for b in (-1.0, 1.0):
        for d in (0.005, 0.02):
            assert concavity_margin(b, d) <= -1.0 + 1e-3


@pytest.mark.parametrize("m, panels", [(8, 8), (8, 16), (32, 16), (32, 32), (32, 64)])
def test_packing_rejects_an_x_rule_that_divides_2m(m, panels):
    # Every x node sits on a bin edge or midpoint, where the bumps vanish: the divergence read exactly 0.
    bump = Packing(m=m, a=1.0, alpha=(1,) + (0,) * (m - 1))
    cfg = QuadratureConfig(y_panels=256, x_panels=panels)
    for divergence in (hellinger_sq, kl_divergence):
        with pytest.raises(ParameterDomainError, match=f"x_panels={panels} .* m={m} bins"):
            divergence(bump, UniformJoint(), cfg)
    with pytest.raises(ParameterDomainError):
        kl_divergence(UniformJoint(), bump, cfg)


@pytest.mark.parametrize("m, panels", [(8, 24), (8, 32), (32, 40), (32, 96), (32, 128)])
def test_packing_runs_an_x_rule_that_does_not_divide_2m(m, panels):
    bump = Packing(m=m, a=1.0, alpha=(1,) + (0,) * (m - 1))
    cfg = QuadratureConfig(y_panels=256, x_panels=panels)
    assert hellinger_sq(bump, UniformJoint(), cfg) > 0.0
    assert kl_divergence(bump, Packing(m=m, a=1.0, alpha=(0,) * m), cfg) > 0.0


def test_a_density_only_spec_runs_any_x_rule():
    class Bumped(DistributionSpec):  # no x facts and no bin count: the full x rule at 8 panels
        def conditional_density(self, y, x):
            return 1.0 + 0.5 * phi_y(4.0 * (np.asarray(y) - 0.5)) * phi_x(np.asarray(x))

    assert hellinger_sq(Bumped(), UniformJoint(), QuadratureConfig(y_panels=256, x_panels=8)) > 0.0


def test_cli_kl_exits_2_on_an_aliasing_x_rule(capsys):
    from kmarkets.cli import main

    assert main(["adversarial", "kl", "--m", "32", "--a", "1.0", "--quad-x", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "x_panels=64" in captured.err and "m=32" in captured.err
