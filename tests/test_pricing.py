"""ERM pricing: worked examples, invariance, schedules."""

import numpy as np
import pytest

from kmarkets import (
    Constant,
    Dataset,
    EmptyDataError,
    KMarkets,
    ParameterDomainError,
    empirical_demand,
    k_markets_erm,
    k_schedule,
    price_at,
    sample,
    uniform_erm,
    PowerSimulated,
)


def test_empirical_demand():
    v = [0.2, 0.5, 0.9]
    assert empirical_demand(v, 0.5) == pytest.approx(2.0 / 3.0)
    assert empirical_demand(v, 0.0) == 1.0
    assert empirical_demand(v, 0.95) == 0.0
    # nonincreasing in p
    ps = np.linspace(0.0, 1.0, 101)
    d = [empirical_demand(v, p) for p in ps]
    assert all(b <= a for a, b in zip(d, d[1:]))
    with pytest.raises(EmptyDataError):
        empirical_demand([], 0.5)
    with pytest.raises(ParameterDomainError):
        empirical_demand(v, 1.5)


def test_empirical_demand_right_continuous():
    v = [0.2, 0.5, 0.9]
    # constant on [0.5, 0.9): stepping just past a sample point changes nothing
    assert empirical_demand(v, 0.5 + 1e-12) == empirical_demand(v, 0.6)


def test_uniform_erm_worked_examples():
    # revenues at candidates: 0.2*1, 0.5*(2/3), 0.9*(1/3)
    assert uniform_erm([0.2, 0.5, 0.9]) == 0.5
    assert uniform_erm([0.6]) == 0.6
    assert uniform_erm([0.5, 0.5, 0.5]) == 0.5
    with pytest.raises(EmptyDataError):
        uniform_erm([])


def test_uniform_erm_lowest_tie():
    # 0.25 and 0.5 both earn 0.25 per head; the lower price wins
    assert uniform_erm([0.25, 0.5]) == 0.25


def test_uniform_erm_output_is_sample_value():
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.random(rng.integers(1, 40))
        assert uniform_erm(v) in v


def test_uniform_erm_beats_dense_grid():
    rng = np.random.default_rng(17)
    grid = np.linspace(0.0, 1.0, 10_001)
    for _ in range(20):
        v = rng.random(30)
        p = uniform_erm(v)
        best_sample = p * empirical_demand(v, p)
        best_grid = max(q * empirical_demand(v, q) for q in grid)
        assert best_grid <= best_sample + 1e-12


def test_k_markets_worked_example():
    data = Dataset.from_points([(0.4, 0.1), (0.8, 0.3), (0.3, 0.6), (0.9, 0.9)])
    pf, part = k_markets_erm(data, 2)
    assert isinstance(pf, KMarkets)
    # market 1: 0.4 and 0.8 both earn 0.4, tie -> 0.4; market 2: 0.9 earns 0.45
    assert pf.prices == (0.4, 0.9)
    assert part.k_requested == 2 and part.k_effective == 2
    assert [m.tolist() for m in part.markets] == [[0, 1], [2, 3]]


def test_k_markets_k1_is_uniform():
    data = sample(PowerSimulated(), 200, seed=21)
    pf, part = k_markets_erm(data, 1)
    assert isinstance(pf, Constant)
    assert pf.p == uniform_erm(data.y)
    assert part.k_effective == 1


def test_k_markets_reduction():
    # both covariates in [0, 1/3): K=3 and K=2 leave empty bins, so K~ = 1
    data = Dataset.from_points([(0.5, 0.1), (0.7, 0.2)])
    pf, part = k_markets_erm(data, 3)
    assert isinstance(pf, Constant)
    assert part.k_effective == 1
    assert pf.p == 0.5  # 0.5 * 1 > 0.7 * 0.5


def test_k_effective_is_maximal():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 60))
        data = Dataset(y=rng.random(n), x=rng.random(n))
        k = int(rng.integers(1, 12))
        _, part = k_markets_erm(data, k)
        ke = part.k_effective
        assert all(m.size > 0 for m in part.markets)
        # no larger K' <= K deals every bin at least one point
        for k2 in range(ke + 1, min(k, n) + 1):
            bins = np.minimum((data.x * k2).astype(int), k2 - 1)
            assert np.bincount(bins, minlength=k2).min() == 0


def test_partition_covers_sample():
    data = sample(PowerSimulated(), 333, seed=8)
    _, part = k_markets_erm(data, 5)
    merged = np.sort(np.concatenate(part.markets))
    np.testing.assert_array_equal(merged, np.arange(len(data)))


def test_permutation_invariance():
    rng = np.random.default_rng(13)
    data = sample(PowerSimulated(), 100, seed=2)
    perm = rng.permutation(len(data))
    shuffled = Dataset(y=data.y[perm], x=data.x[perm])
    assert uniform_erm(data.y) == uniform_erm(shuffled.y)
    pf1, _ = k_markets_erm(data, 4)
    pf2, _ = k_markets_erm(shuffled, 4)
    assert pf1 == pf2


def test_appending_high_value_never_hurts():
    # demand at each price rises when a sure buyer joins, so the optimum does too
    rng = np.random.default_rng(43)
    for _ in range(30):
        v = rng.random(int(rng.integers(1, 30)))
        p = uniform_erm(v)
        before = p * empirical_demand(v, p)
        v2 = np.append(v, 1.0)
        p2 = uniform_erm(v2)
        after = p2 * empirical_demand(v2, p2)
        assert after >= before - 1e-12


def test_price_at():
    pf = KMarkets(k=2, prices=(0.4, 0.9))
    assert price_at(pf, 0.49) == 0.4
    assert price_at(pf, 1.0) == 0.9
    assert price_at(Constant(0.5), 0.123) == 0.5
    np.testing.assert_array_equal(price_at(pf, np.array([0.0, 0.5, 0.99])), [0.4, 0.9, 0.9])
    with pytest.raises(TypeError):
        price_at(object(), 0.5)


def test_pricing_function_guards():
    with pytest.raises(ParameterDomainError):
        Constant(1.5)
    with pytest.raises(ParameterDomainError):
        KMarkets(k=2, prices=(0.4,))
    with pytest.raises(ParameterDomainError):
        KMarkets(k=1, prices=(1.4,))


def test_k_schedule():
    assert k_schedule(256, "theory") == 4
    assert k_schedule(256, "ebay") == 1  # floor(2*4 - 7)
    assert k_schedule(10_000, "sim") == 2  # floor(10)/5
    assert k_schedule(1, "theory") == 1
    assert k_schedule(1, "ebay") == 1  # floored at 1
    assert k_schedule(4096, "sim") == 1
    assert k_schedule(50_000, "fixed", fixed=7) == 7
    with pytest.raises(ParameterDomainError):
        k_schedule(100, "nope")
    with pytest.raises(ParameterDomainError):
        k_schedule(0, "theory")


def test_k_schedule_quarter_powers_exact():
    # floor(n^(1/4)) must not wobble at perfect fourth powers
    for r in (2, 3, 5, 10, 17, 100):
        n = r**4
        assert k_schedule(n, "theory") == r
        assert k_schedule(n - 1, "theory") == r - 1
        assert k_schedule(n, "ebay") == max(1, 2 * r - 7)


def _ebay_reference(n):
    # floor(2 n^(1/4)) is the largest s with s^4 <= 16 n; for n near r^4 it is 2r - 1, 2r or 2r + 1.
    r = round(n**0.25)
    s = max(s for s in (2 * r - 1, 2 * r, 2 * r + 1) if s**4 <= 16 * n)
    return max(1, s - 7)


def test_k_schedule_ebay_is_exact_around_fourth_powers():
    for r in range(1, 100_001):
        for n in (r**4 - 1, r**4, r**4 + 1):
            if n >= 1:
                assert k_schedule(n, "ebay") == _ebay_reference(n), n
    # where a float n**0.25 rounds up to the next integer
    assert k_schedule(10**16 - 1, "ebay") == 19992
    assert k_schedule(30_000**4 - 1, "ebay") == 2 * 30_000 - 1 - 7


def test_k_markets_keeps_the_prices_it_checked():
    want = KMarkets(2, (0.1, 0.2))
    for given in ([0.1, 0.2], np.array([0.1, 0.2])):
        pf = KMarkets(2, given)
        assert type(pf.prices) is tuple
        assert pf == want and hash(pf) == hash(want)
    source = [0.1, 0.2]
    pf = KMarkets(2, source)
    source[0] = 7.0
    assert pf.prices == (0.1, 0.2) and price_at(pf, 0.1) == 0.1
