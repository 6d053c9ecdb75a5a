"""Property tests: inverse CDFs, the lowest-price ERM maximizer, row-order invariance."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kmarkets import (
    Dataset,
    Packing,
    PerturbedConditional,
    PerturbedUniform,
    PowerSimulated,
    UniformJoint,
    k_markets_erm,
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


def _unique_erm(values):
    # reference: revenue at each distinct value's first index, found by np.unique
    v = np.sort(np.asarray(values, dtype=float))
    uniq, first = np.unique(v, return_index=True)
    revenue = uniq * (v.size - first) / v.size
    return float(uniq[np.argmax(revenue)])


tie_heavy = st.lists(st.sampled_from((0.0, 0.125, 0.25, 0.3, 0.5, 0.75, 1.0)), min_size=1, max_size=300)


@settings(deadline=None, max_examples=300)
@given(tie_heavy.flatmap(lambda v: st.tuples(st.just(v), st.permutations(v))))
def test_uniform_erm_equals_the_unique_formula_and_ignores_order(values_and_shuffled):
    values, shuffled = values_and_shuffled
    price = uniform_erm(np.array(values))
    assert price == _unique_erm(values)
    assert uniform_erm(np.array(shuffled)) == price


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.tuples(unit, unit), min_size=1, max_size=40).flatmap(
        lambda rows: st.tuples(st.just(rows), st.permutations(rows))
    ),
    st.integers(1, 8),
)
def test_k_markets_erm_ignores_row_order(rows_and_shuffled, k):
    rows, shuffled = rows_and_shuffled
    pf, part = k_markets_erm(Dataset.from_points(rows), k)
    pf2, part2 = k_markets_erm(Dataset.from_points(shuffled), k)
    assert pf == pf2  # Constant or KMarkets, compared price by price
    assert part.k_effective == part2.k_effective
