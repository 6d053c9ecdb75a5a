"""The ``law_key`` fact: covariates of equal keys share a law, and solving each law once keeps every bit.

``oracle.optimal_3pd_policy`` solves one covariate per distinct key, and
``adversarial._simpson_2d`` evaluates one x column per distinct pair of
keys in each block.  Both are sound only if equal keys mean equal density
and CDF bits at every y, which the first property checks for every library
family.  The references for the divergences are
``tests/test_adversarial.py``'s full-rule divergences; the 3PD policy's
one-shot reference is checked in ``tests/test_pruned_scan.py``.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kmarkets import (
    DEFAULT_QUAD,
    Packing,
    PerturbedConditional,
    PerturbedUniform,
    PowerSimulated,
    UniformJoint,
    kl_divergence,
    marginal_y_cdf,
    optimal_3pd_policy,
    oracle,
)
from kmarkets.families import _phi_y_int, _simpson_rule
from kmarkets.oracle import BLOCK
from test_family_protocol import TiltedUniform
from test_uniform_skip import (
    AMPLITUDE,
    DIVERGENCES,
    EVERY_8TH,
    SMALL_QUADS,
    _edges,
    _misses_every_node,
    conditional,
    packing,
    x_free,
)

LIBRARY = st.one_of(st.just(UniformJoint()), st.just(PowerSimulated()), x_free(), conditional(), packing())


@settings(deadline=None, max_examples=60)
@given(spec=LIBRARY, xs=st.lists(st.floats(0.0, 1.0), max_size=20))
def test_equal_keys_mean_equal_density_and_cdf_bits(spec, xs):
    xs = np.concatenate([np.asarray(xs, dtype=float), _edges(spec), np.linspace(0.0, 1.0, 129)])
    ys = np.union1d(np.linspace(0.0, 1.0, 257), spec.y_knots)[:, None]
    keys = spec.law_key(xs)
    assert keys.shape == xs.shape and keys.dtype == float
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rep = xs[first[inverse.reshape(-1)]]  # each covariate's representative: the first of its key
    for fact in (spec.conditional_density, spec.conditional_cdf):
        assert fact(ys, rep).tobytes() == fact(ys, xs).tobytes()


def test_a_family_without_the_fact_keys_every_covariate_by_itself():
    xs = np.linspace(0.0, 1.0, 11)
    for spec in (PowerSimulated(), TiltedUniform()):
        assert spec.law_key(xs).tobytes() == xs.tobytes()
        assert spec.law_key(0.25).shape == ()
    assert not UniformJoint().law_key(xs).any()


def test_the_3pd_policy_of_a_packing_solves_each_distinct_law_once(monkeypatch):
    sizes = []
    scan = oracle._scan_then_refine

    def counted(f, xs, tol):
        sizes.append(xs.size)
        return scan(f, xs, tol)

    monkeypatch.setattr(oracle, "_scan_then_refine", counted)
    policy = optimal_3pd_policy(Packing(m=16, a=1.0, alpha=(0, 1) * 8))
    assert policy.prices.size == 1025
    assert len(sizes) == 1 and sizes[0] <= 65


def test_packing_kl_evaluates_fewer_columns_than_the_uniform_skip_leaves(monkeypatch):
    bumped, flat = Packing(m=64, a=1.0, alpha=EVERY_8TH), Packing(m=64, a=1.0, alpha=(0,) * 64)
    nodes, _ = _simpson_rule(DEFAULT_QUAD.x_panels)
    uniform = bumped.uniform_given(nodes[0]) & flat.uniform_given(nodes[0])
    starts = range(0, uniform.size, BLOCK)
    left = sum(uniform[s : s + BLOCK].size for s in starts if not uniform[s : s + BLOCK].all())
    columns = []
    density = Packing.conditional_density

    def counted(self, y, x):
        if self is bumped:
            columns.append(np.shape(x)[-1])
        return density(self, y, x)

    monkeypatch.setattr(Packing, "conditional_density", counted)
    assert kl_divergence(bumped, flat) > 0.0
    assert 0 < sum(columns) < left


@st.composite
def repeating_pair(draw):
    """Two laws whose keys repeat across x: packings, a window against the uniform, or a marginal hat.

    The marginal hat is x-independent, so its key is one value; it is drawn
    against an x-dependent law, since two x-independent laws integrate one
    x column and have nothing to dedupe.
    """
    kind = draw(st.sampled_from(["flat packing", "two packings", "window", "marginal"]))
    if kind == "marginal":
        hat = PerturbedUniform(a=draw(AMPLITUDE), delta=draw(st.floats(0.005, 1.0 / 6.0)))
        pair = (hat, draw(st.one_of(conditional(), packing())))
    elif kind == "window":
        pair = (draw(conditional()), UniformJoint())
    else:
        spec = draw(packing())
        bits = (0,) * spec.m if kind == "flat packing" else draw(st.lists(st.sampled_from([0, 1]), min_size=spec.m, max_size=spec.m))
        pair = (spec, Packing(m=spec.m, a=draw(AMPLITUDE), alpha=tuple(bits)))
    return pair[::-1] if draw(st.booleans()) else pair


@settings(deadline=None, max_examples=40)
@given(pair=repeating_pair(), cfg=st.sampled_from(SMALL_QUADS))
@example((Packing(m=16, a=1.0, alpha=(0, 1) * 8), Packing(m=16, a=1.0, alpha=(0,) * 16)), SMALL_QUADS[1])
@example((PerturbedConditional(a=1.0, delta=0.2, x0=0.5), UniformJoint()), SMALL_QUADS[0])
def test_deduped_divergences_equal_the_full_rule(pair, cfg):
    assume(not any(isinstance(s, Packing) and (2 * s.m) % cfg.x_panels == 0 for s in pair))
    assume(not any(_misses_every_node(s, cfg) for s in pair))
    for divergence, reference in DIVERGENCES:
        assert divergence(*pair, cfg).hex() == reference(*pair, cfg).hex()


def _select_phi_y_int(t):
    """The np.select form of families._phi_y_int, kept as the bit-for-bit reference."""
    t = np.asarray(t, dtype=float)
    out = np.select(
        [t < -1.0, t <= 0.0, t <= 2.0, t <= 3.0],
        [0.0, 0.5 * (t + 1.0) ** 2, 0.5 + t - 0.5 * t * t, 0.5 * (t - 3.0) ** 2],
        default=0.0,
    )
    return out if out.ndim else float(out)


def _same_bits(got, want):
    return type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(deadline=None, max_examples=100)
@given(ts=st.lists(st.floats(-2.0, 4.0), min_size=1, max_size=50))
def test_phi_y_int_equals_the_select_form(ts):
    ts = np.asarray(ts)
    assert _same_bits(_phi_y_int(ts), _select_phi_y_int(ts))
    assert _same_bits(_phi_y_int(float(ts[0])), _select_phi_y_int(float(ts[0])))


def test_phi_y_int_equals_the_select_form_at_the_edges():
    knots = np.array([-1.0, 0.0, 2.0, 3.0])
    edges = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf), [-0.0, np.nan]])
    assert _same_bits(_phi_y_int(edges), _select_phi_y_int(edges))
    for t in edges:
        assert _same_bits(_phi_y_int(t), _select_phi_y_int(t))
        assert _same_bits(_phi_y_int(np.array(t)), _select_phi_y_int(np.array(t)))
    with np.errstate(invalid="ignore"):  # both forms compute inf - inf in the unused middle branch
        infs = np.array([-np.inf, np.inf])
        assert _same_bits(_phi_y_int(infs), _select_phi_y_int(infs))
        for t in infs:
            assert _same_bits(_phi_y_int(t), _select_phi_y_int(t))


def test_marginal_cdf_of_one_price_is_a_float_for_every_family():
    specs = [
        UniformJoint(),
        PowerSimulated(),
        PerturbedUniform(a=1.0, delta=0.05),
        PerturbedConditional(a=1.0, delta=0.1, x0=0.5),
        Packing(m=8, a=1.0, alpha=(1, 0) * 4),
    ]
    for spec in specs:
        row = marginal_y_cdf(spec, np.array([0.45]))
        assert type(row) is np.ndarray and row.shape == (1,)
        for p in (0.45, np.array(0.45)):
            got = marginal_y_cdf(spec, p)
            assert type(got) is float
            assert got == row[0]
