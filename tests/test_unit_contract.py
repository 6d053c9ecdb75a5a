"""Every valuation, covariate and posted price lies in [0, 1], checked alike at every site.

Each entry point that takes such a value rejects NaN, both infinities and
the nearest floats outside the unit interval with a ParameterDomainError
naming its subject, and accepts both zeros and one.  A site that takes one
number refuses an array of any size.
"""

import math

import numpy as np
import pytest

from kmarkets import Constant, Dataset, KMarkets, PowerSimulated, TabulatedPolicy, UniformJoint
from kmarkets import empirical_demand, marginal_y_cdf, price_at, uniform_erm
from kmarkets.cli import main
from kmarkets.experiment import _pointwise_kind
from kmarkets.families import DistributionSpec, ParameterDomainError, sample_rows


class _Fixed(DistributionSpec):
    """A family whose every valuation is the given value."""

    def __init__(self, value):
        self.value = value

    def ppf(self, u, x):
        return np.full_like(u, self.value)


# site -> (call with the probed value, the subject its message names)
SITES = {
    "Dataset-valuations": (lambda v: Dataset(y=[0.5, v], x=[0.5, 0.5]), "valuations and covariates"),
    "Dataset-covariates": (lambda v: Dataset(y=[0.5, 0.5], x=[0.5, v]), "valuations and covariates"),
    "sample_rows": (lambda v: sample_rows(_Fixed(v), 3, [1, 2]), "valuations and covariates"),
    "Constant": (lambda v: Constant(v), "price"),
    "KMarkets": (lambda v: KMarkets(2, (0.5, v)), "prices"),
    "empirical_demand-valuations": (lambda v: empirical_demand([0.5, v], 0.5), "valuations"),
    "empirical_demand-price": (lambda v: empirical_demand([0.5], v), "price"),
    "uniform_erm": (lambda v: uniform_erm([0.5, v, 0.2]), "valuations"),
    "price_at": (lambda v: price_at(Constant(0.5), [0.5, v]), "covariates"),
    "TabulatedPolicy": (lambda v: TabulatedPolicy([0.0, 1.0], [0.5, v]), "prices"),
    "marginal_y_cdf": (lambda v: marginal_y_cdf(PowerSimulated(), [0.5, v]), "prices"),
    "pointwise-x0": (lambda v: _pointwise_kind(v), "x0"),
}
OUTSIDE = [math.nan, math.inf, -math.inf, -5e-324, float(np.nextafter(1.0, 2.0))]
INSIDE = [-0.0, 0.0, 1.0]


@pytest.mark.parametrize("value", OUTSIDE, ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_every_site_rejects_a_value_outside_the_unit_interval(site, value):
    call, subject = SITES[site]
    with pytest.raises(ParameterDomainError) as exc:
        call(value)
    assert str(exc.value) == f"{subject} must lie in [0, 1]"


@pytest.mark.parametrize("value", INSIDE, ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_every_site_accepts_both_zeros_and_one(site, value):
    call, _ = SITES[site]
    call(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Constant("0.5"),
        lambda: KMarkets(2, ("0.1", "0.2")),
        lambda: empirical_demand([0.5], "0.3"),
        lambda: _pointwise_kind(None),
    ],
    ids=["Constant", "KMarkets", "empirical_demand-price", "pointwise-x0"],
)
def test_a_value_that_is_not_a_number_is_not_converted(call):
    with pytest.raises(TypeError):
        call()


# The sites of SITES that take one number, not an array.
ONE_NUMBER = ["Constant", "KMarkets", "empirical_demand-price", "pointwise-x0"]


@pytest.mark.parametrize("value", [np.array([0.3]), np.array([0.3, 0.7])], ids=["size-1", "size-2"])
@pytest.mark.parametrize("site", ONE_NUMBER)
def test_a_site_that_takes_one_number_refuses_an_array(site, value):
    call, subject = SITES[site]
    with pytest.raises(ParameterDomainError) as exc:
        call(value)
    assert str(exc.value) == f"{subject} must be one number"


@pytest.mark.parametrize("value", [np.array(0.3), np.float64(0.3), np.float32(0.3)], ids=repr)
@pytest.mark.parametrize("site", ONE_NUMBER)
def test_a_site_that_takes_one_number_accepts_a_numpy_scalar(site, value):
    call, _ = SITES[site]
    call(value)


def test_no_seeds_sample_an_empty_block():
    x, y = sample_rows(UniformJoint(), 5, [])
    assert x.shape == y.shape == (0, 5)


def test_cli_pointwise_rejects_a_nan_covariate(capsys):
    argv = ["pointwise", "--family", "power", "--k", "2", "--at", "nan",
            "--n", "16,32,64", "--reps", "2", "--seed", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "x0 must lie in [0, 1]" in err
