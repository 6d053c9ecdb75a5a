"""The divergences skip x blocks where both laws are uniform, and keep every bit.

``adversarial._simpson_2d`` skips a BLOCK-wide block of x nodes when both
laws' ``uniform_given`` is True at all of them.  The references are
``tests/test_adversarial.py``'s full-rule divergences, which evaluate every
block; the skip must match them byte for byte.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kmarkets import (
    DEFAULT_QUAD,
    Packing,
    ParameterDomainError,
    PerturbedConditional,
    PerturbedUniform,
    PowerSimulated,
    QuadratureConfig,
    UniformJoint,
    hellinger_sq,
    kl_divergence,
)
from kmarkets.families import _simpson_rule
from kmarkets.oracle import BLOCK
from test_adversarial import _full_hellinger_sq, _full_kl
from test_family_protocol import TiltedUniform

DIVERGENCES = ((hellinger_sq, _full_hellinger_sq), (kl_divergence, _full_kl))
SMALL_QUADS = [QuadratureConfig(y_panels=512, x_panels=px) for px in (96, 128)]
AMPLITUDE = st.floats(0.05, 1.95)
EVERY_8TH = tuple(int(i % 8 == 0) for i in range(64))


@st.composite
def conditional(draw):
    # Windows narrower than the 96-panel node spacing may miss every node.
    delta = draw(st.floats(0.002, 0.249))
    x0 = draw(st.floats(delta / 4.0, 1.0 - 0.75 * delta))
    return PerturbedConditional(a=draw(AMPLITUDE), delta=delta, x0=x0)


@st.composite
def packing(draw):
    m = draw(st.integers(8, 64))
    return Packing(m=m, a=draw(AMPLITUDE), alpha=tuple(draw(st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m))))


@st.composite
def x_free(draw):
    a = draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(AMPLITUDE)
    return draw(st.sampled_from([UniformJoint(), PerturbedUniform(a=a, delta=draw(st.floats(0.005, 1.0 / 6.0)))]))


def _misses_every_node(spec, cfg):
    nodes, _ = _simpson_rule(cfg.x_panels)
    return isinstance(spec, PerturbedConditional) and bool(spec.uniform_given(nodes).all())


@settings(deadline=None, max_examples=40)
@given(
    dependent=st.one_of(conditional(), packing()),
    other=st.one_of(x_free(), conditional(), packing()),
    flip=st.booleans(),
    cfg=st.sampled_from(SMALL_QUADS),
)
# x0 = 1/2 puts the window across node 64 at 128 panels, the first block edge.
@example(PerturbedConditional(a=1.0, delta=0.05, x0=0.5), UniformJoint(), False, SMALL_QUADS[1])
@example(PerturbedConditional(a=1.0, delta=0.05, x0=0.5), UniformJoint(), True, SMALL_QUADS[1])
def test_skipping_divergences_equal_the_full_rule(dependent, other, flip, cfg):
    specs = (other, dependent) if flip else (dependent, other)
    assume(not any(isinstance(s, Packing) and (2 * s.m) % cfg.x_panels == 0 for s in specs))
    for divergence, reference in DIVERGENCES:
        if any(_misses_every_node(s, cfg) for s in specs):
            with pytest.raises(ParameterDomainError, match=f"x_panels={cfg.x_panels}"):
                divergence(*specs, cfg)
        else:
            assert divergence(*specs, cfg).hex() == reference(*specs, cfg).hex()


@pytest.mark.parametrize(
    "spec1, spec2",
    [
        (PerturbedConditional(a=1.0, delta=0.05, x0=0.5), UniformJoint()),
        (UniformJoint(), PerturbedConditional(a=1.0, delta=0.05, x0=0.5)),
        (Packing(m=64, a=1.0, alpha=EVERY_8TH), Packing(m=64, a=1.0, alpha=(0,) * 64)),
        (Packing(m=64, a=1.0, alpha=(0,) * 64), Packing(m=64, a=1.0, alpha=EVERY_8TH)),
    ],
)
def test_skipping_divergences_equal_the_full_rule_at_the_default_grid(spec1, spec2):
    # The conditional window straddles node 512, a block edge; the packing bumps sit in 8 of the 17 blocks.
    for divergence, reference in DIVERGENCES:
        assert divergence(spec1, spec2).hex() == reference(spec1, spec2, DEFAULT_QUAD).hex()


def test_a_narrow_window_evaluates_at_most_two_blocks(monkeypatch):
    calls = []
    density = PerturbedConditional.conditional_density

    def counted(self, y, x):
        calls.append(x)
        return density(self, y, x)

    monkeypatch.setattr(PerturbedConditional, "conditional_density", counted)
    assert -(-(DEFAULT_QUAD.x_panels + 1) // BLOCK) == 17
    assert hellinger_sq(PerturbedConditional(a=1.0, delta=0.05, x0=0.5), UniformJoint()) > 0.0
    assert len(calls) <= 2


def test_a_window_that_misses_every_x_node_is_refused():
    # The window (0.545, 0.565) holds no node of the 8-panel rule, so the divergence read exactly 0.
    spec = PerturbedConditional(a=1.0, delta=0.02, x0=0.55)
    coarse, fine = (QuadratureConfig(y_panels=1024, x_panels=px) for px in (8, 16))
    for divergence, _ in DIVERGENCES:
        for pair in ((spec, UniformJoint()), (UniformJoint(), spec)):
            with pytest.raises(ParameterDomainError, match=r"x_panels=8 .* x0=0\.55, delta=0\.02"):
                divergence(*pair, coarse)
            assert divergence(*pair, fine) > 0.0


def _edges(spec):
    """Covariates where the fact changes: window edges and midpoint, or bin edges and midpoints."""
    if isinstance(spec, PerturbedConditional):
        points = spec.x0 + spec.delta * np.array([-0.25, 0.25, 0.75])
    elif isinstance(spec, Packing):
        points = np.arange(2 * spec.m + 1) / (2 * spec.m)
    else:
        return np.array([0.0, 0.5, 1.0])
    near = np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)])
    return np.clip(near, 0.0, 1.0)


@settings(deadline=None, max_examples=60)
@given(spec=st.one_of(st.just(PowerSimulated()), x_free(), conditional(), packing()), xs=st.lists(st.floats(0.0, 1.0), max_size=20))
def test_uniform_given_is_sound(spec, xs):
    xs = np.concatenate([np.asarray(xs, dtype=float), _edges(spec)])
    ys = np.union1d(np.linspace(0.0, 1.0, 257), spec.y_knots)
    uniform = spec.uniform_given(xs)
    assert uniform.shape == xs.shape and uniform.dtype == bool
    assert (spec.conditional_density(ys[:, None], xs[None, uniform]) == 1.0).all()
    if isinstance(spec, UniformJoint):
        assert uniform.all()
    if isinstance(spec, PowerSimulated):
        assert not uniform.any()


def test_a_family_without_the_fact_is_never_uniform():
    xs = np.linspace(0.0, 1.0, 11)
    assert not TiltedUniform().uniform_given(xs).any()
    assert TiltedUniform().uniform_given(0.0).shape == ()
