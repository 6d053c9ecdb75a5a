"""Property tests: inverse CDFs and the lowest-price ERM maximizer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kmarkets import (
    Packing,
    PerturbedConditional,
    PerturbedUniform,
    PowerSimulated,
    UniformJoint,
    uniform_erm,
)

unit = st.floats(0.0, 1.0)
amplitude = st.floats(0.01, 1.99)

families = st.one_of(
    st.just(UniformJoint()),
    st.just(PowerSimulated()),
    st.builds(PerturbedUniform, a=st.floats(-1.99, 1.99), delta=st.floats(0.001, 1.0 / 6.0)),
    st.builds(
        PerturbedConditional, a=amplitude, delta=st.floats(0.001, 0.249), x0=st.floats(0.25, 0.75)
    ),
    st.integers(8, 16).flatmap(
        lambda m: st.builds(
            Packing,
            m=st.just(m),
            a=amplitude,
            alpha=st.lists(st.sampled_from((0, 1)), min_size=m, max_size=m).map(tuple),
        )
    ),
)


@settings(deadline=None, max_examples=300)
@given(spec=families, y=unit, x=unit)
def test_ppf_inverts_cdf(spec, y, x):
    u = spec.conditional_cdf(y, x)
    assert abs(float(spec.ppf(u, x)) - y) <= 1e-12


def _brute_force_erm(values):
    # every sample value is a candidate; ties go to the lowest price
    v = np.asarray(values)
    best_price, best_revenue = None, -1.0
    for c in sorted(set(values)):
        revenue = c * int(np.count_nonzero(v >= c)) / v.size
        if revenue > best_revenue:
            best_price, best_revenue = c, revenue
    return best_price


@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(unit, st.sampled_from((0.0, 0.25, 0.5, 1.0))), min_size=1, max_size=60))
def test_uniform_erm_is_the_lowest_brute_force_maximizer(values):
    assert uniform_erm(np.array(values)) == _brute_force_erm(values)
