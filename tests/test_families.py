"""Distribution families: closed forms, sampling, guards."""

import warnings

import numpy as np
import pytest

from kmarkets import (
    Dataset,
    EmptyDataError,
    Packing,
    ParameterDomainError,
    PerturbedConditional,
    PerturbedUniform,
    PowerSimulated,
    UniformJoint,
    UnitPoint,
    conditional_cdf,
    conditional_density,
    marginal_x_density,
    phi_x,
    sample,
    validate_density,
)

ALL_SPECS = [
    UniformJoint(),
    PowerSimulated(),
    PerturbedUniform(a=1.0, delta=0.1),
    PerturbedUniform(a=-1.5, delta=0.05),
    PerturbedConditional(a=1.0, delta=0.1, x0=0.5),
    Packing(m=8, a=1.0, alpha=(1, 0, 1, 0, 1, 0, 1, 0)),
]


def _hat_breakpoints(scale):
    return [0.0, 0.5 - scale, 0.5, min(0.5 + 2 * scale, 1.0), min(0.5 + 3 * scale, 1.0), 1.0]


def _density_breakpoints(spec):
    if isinstance(spec, (PerturbedUniform, PerturbedConditional)):
        return _hat_breakpoints(spec.delta)
    if isinstance(spec, Packing):
        return _hat_breakpoints(1.0 / spec.m)
    return [0.0, 1.0]


def _simpson(fn, lo, hi, panels):
    xs = np.linspace(lo, hi, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (hi - lo) * float(w @ fn(xs)) / (3.0 * panels)


def _cdf_by_quadrature(spec, y, x, panels=2**14):
    """Integrate the conditional density up to y, independent of the CDF code.

    Splits at the density's breakpoints so no Simpson panel straddles a
    kink; the power family is integrated under y = v^2 to tame the y^x
    endpoint.
    """
    if isinstance(spec, PowerSimulated):
        return _simpson(
            lambda v: 2.0 * v * np.asarray(conditional_density(spec, v * v, x)),
            0.0,
            np.sqrt(y),
            panels,
        )
    total = 0.0
    prev = 0.0
    for edge in _density_breakpoints(spec):
        hi = min(edge, y)
        if hi > prev:
            total += _simpson(lambda v: np.asarray(conditional_density(spec, v, x)), prev, hi, panels)
        prev = edge
        if prev >= y:
            break
    return total


def test_point_values():
    assert conditional_cdf(PowerSimulated(), 0.5, 1.0) == pytest.approx(0.25, abs=1e-15)
    assert conditional_cdf(UniformJoint(), 0.3, 0.7) == pytest.approx(0.3, abs=1e-15)
    assert conditional_cdf(PerturbedUniform(a=1.0, delta=0.1), 1.0, 0.0) == 1.0
    # 1 + a * (1/16) * phi_y(0) with phi_y(0) = 1, checked near the a->2 edge
    spec = PerturbedUniform(a=1.999, delta=1.0 / 16)
    assert conditional_density(spec, 0.5, 0.3) == pytest.approx(1.0 + 1.999 / 16, abs=1e-12)
    spec = PerturbedUniform(a=1.0, delta=1.0 / 16)
    assert conditional_density(spec, 0.5, 0.3) == pytest.approx(1.0625, abs=1e-15)
    assert conditional_density(UniformJoint(), 0.9, 0.1) == 1.0
    assert conditional_density(Packing(m=8, a=1.0, alpha=(0,) * 8), 0.5, 0.5) == 1.0


def test_marginal_x_is_uniform():
    for spec in ALL_SPECS:
        assert marginal_x_density(spec, 0.3) == 1.0
        assert marginal_x_density(spec, 0.0) == 1.0
        np.testing.assert_array_equal(marginal_x_density(spec, np.array([0.1, 0.99])), 1.0)


def test_cdf_endpoints_and_monotonicity():
    ys = np.linspace(0.0, 1.0, 1001)
    for spec in ALL_SPECS:
        for x in np.linspace(0.0, 1.0, 101):
            f = np.asarray(conditional_cdf(spec, ys, x))
            assert f[0] == pytest.approx(0.0, abs=1e-12)
            assert f[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(f) >= -1e-12)


def test_cdf_matches_density_integral():
    for spec in ALL_SPECS:
        for y in (0.2, 0.45, 0.5, 0.55, 0.8, 1.0):
            for x in (0.0, 0.31, 0.5, 0.77, 1.0):
                want = _cdf_by_quadrature(spec, y, x)
                got = float(np.asarray(conditional_cdf(spec, y, x)))
                assert got == pytest.approx(want, abs=1e-9), (spec, y, x)


def test_density_nonnegative_on_grid():
    ys = np.linspace(0.0, 1.0, 513)
    xs = np.linspace(0.0, 1.0, 101)
    for spec in ALL_SPECS:
        dens = np.asarray(conditional_density(spec, ys[:, None], xs[None, :]))
        assert dens.min() >= 0.0


def test_sampling_determinism():
    for spec in ALL_SPECS:
        a = sample(spec, 500, seed=99)
        b = sample(spec, 500, seed=99)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.x, b.x)
        c = sample(spec, 500, seed=100)
        assert not np.array_equal(a.y, c.y)


def test_sampling_uniform_ks():
    data = sample(UniformJoint(), 100_000, seed=7)
    order = np.sort(data.y)
    grid = (np.arange(order.size) + 1.0) / order.size
    ks = max(np.abs(order - grid).max(), np.abs(order - grid + 1.0 / order.size).max())
    assert ks < 0.01


def test_sampling_range_contract():
    data = sample(PowerSimulated(), 1, seed=123)
    assert len(data) == 1
    assert 0.0 <= data.y[0] <= 1.0
    assert 0.0 <= data.x[0] <= 1.0


def test_sampling_mean_matches_quadrature():
    spec = PerturbedUniform(a=1.0, delta=0.05)
    data = sample(spec, 100_000, seed=3)
    ys = np.linspace(0.0, 1.0, 200_001)
    mean = np.trapezoid(ys * np.asarray(conditional_density(spec, ys, 0.5)), ys)
    se = data.y.std(ddof=1) / np.sqrt(len(data))
    assert abs(data.y.mean() - mean) < 3.0 * se


def test_sampling_power_cdf_agreement():
    # inverse-CDF draws pushed back through the CDF must look uniform
    data = sample(PowerSimulated(), 50_000, seed=11)
    u = np.asarray(conditional_cdf(PowerSimulated(), data.y, data.x))
    order = np.sort(u)
    grid = (np.arange(order.size) + 1.0) / order.size
    ks = max(np.abs(order - grid).max(), np.abs(order - grid + 1.0 / order.size).max())
    assert ks < 0.01


def test_validate_density_reports():
    rep = validate_density(PerturbedConditional(a=1.0, delta=0.05, x0=0.5), 101)
    assert rep.max_norm_error < 1e-12
    assert rep.min_density > 0.0

    rep = validate_density(UniformJoint(), 11)
    assert rep.max_norm_error == 0.0
    assert rep.min_density == 1.0

    alternating = tuple(i % 2 for i in range(16))
    rep = validate_density(Packing(m=16, a=1.5, alpha=alternating), 201)
    assert rep.max_norm_error < 1e-12
    assert rep.min_density > 0.0

    rep = validate_density(PowerSimulated(), 31)
    assert rep.max_norm_error < 1e-9
    assert rep.min_density == 0.0  # density vanishes at y=0 for x>0


def test_parameter_guards():
    with pytest.raises(ParameterDomainError):
        PerturbedUniform(a=2.0, delta=0.1)
    with pytest.raises(ParameterDomainError):
        PerturbedUniform(a=-2.0, delta=0.1)
    with pytest.raises(ParameterDomainError):
        PerturbedUniform(a=1.0, delta=0.25)
    with pytest.raises(ParameterDomainError):
        # support [1/2 - d, 1/2 + 3d] must stay inside [0, 1]
        PerturbedUniform(a=1.0, delta=0.2)
    with pytest.raises(ParameterDomainError):
        PerturbedConditional(a=-1.0, delta=0.1, x0=0.5)
    with pytest.raises(ParameterDomainError):
        PerturbedConditional(a=1.0, delta=0.3, x0=0.5)
    with pytest.raises(ParameterDomainError):
        # covariate window exits the unit interval
        PerturbedConditional(a=1.0, delta=0.2, x0=0.01)
    with pytest.raises(ParameterDomainError):
        Packing(m=7, a=1.0, alpha=(0,) * 7)
    with pytest.raises(ParameterDomainError):
        Packing(m=8, a=1.0, alpha=(0,) * 9)
    with pytest.raises(ParameterDomainError):
        Packing(m=8, a=2.5, alpha=(0,) * 8)
    with pytest.raises(ParameterDomainError):
        sample(UniformJoint(), 0, seed=1)
    # delta up to 1/4 is allowed for the conditional family when the
    # window fits; slices then clip at y=1
    PerturbedConditional(a=1.0, delta=0.2, x0=0.5)


def test_packing_all_zero_is_uniform():
    spec = Packing(m=8, a=1.0, alpha=(0,) * 8)
    ys = np.linspace(0.0, 1.0, 101)
    xs = np.linspace(0.0, 1.0, 57)
    got = np.asarray(conditional_cdf(spec, ys[:, None], xs[None, :]))
    want = np.asarray(conditional_cdf(UniformJoint(), ys[:, None], xs[None, :]))
    assert np.abs(got - want).max() <= 1e-15


def test_packing_bin_assignment():
    spec = Packing(m=8, a=1.0, alpha=(1,) + (0,) * 7)
    # only bin 1 (x < 1/8) is perturbed; elsewhere the density is uniform
    assert conditional_density(spec, 0.5, 0.2) == 1.0
    assert conditional_density(spec, 0.5, 1.0) == 1.0  # x=1 belongs to bin 8
    mid_bin1 = 1.0 / 32  # phi_x peak of bin 1 sits at x = 1/(4m)
    assert conditional_density(spec, 0.5, mid_bin1) != 1.0


def test_dataset_validation():
    with pytest.raises(ParameterDomainError):
        Dataset(y=np.array([0.5, 1.2]), x=np.array([0.1, 0.2]))
    with pytest.raises(ParameterDomainError):
        Dataset(y=np.array([0.5]), x=np.array([0.1, 0.2]))
    with pytest.raises(EmptyDataError):
        Dataset(y=np.array([]), x=np.array([]))
    with pytest.raises(EmptyDataError):
        Dataset.from_points([])
    ds = Dataset.from_points([(0.4, 0.1), (0.9, 0.8)])
    assert len(ds) == 2
    assert ds.points() == [UnitPoint(0.4, 0.1), UnitPoint(0.9, 0.8)]
    with pytest.raises(ValueError):
        ds.y[0] = 0.0  # read-only


def test_dataset_immutable_against_source():
    src = np.array([0.1, 0.2])
    ds = Dataset(y=src.copy(), x=src.copy())
    src[0] = 0.9
    assert ds.y[0] == 0.1


def test_phi_x_at_a_lobe_edge_is_zero_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert phi_x(1e-18) == 0.0
