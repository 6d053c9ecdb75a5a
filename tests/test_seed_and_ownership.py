"""The seed rule, the ownership rule and the codebook contract, each stated once.

A seed is a non-negative integer of any integer type and size, never a bool;
the per-row seeds of ``sample_rows`` and the base seed of a Monte Carlo run
are judged by the same rule with the same message.  A value object keeps a
fresh read-only copy of every array it is given, so mutating the source
afterwards cannot change it.  A ``Codebook`` holds a nonempty 0/1 matrix of
exactly m columns.
"""

import re

import numpy as np
import pytest

from kmarkets import Codebook, Dataset, ParameterDomainError, TabulatedPolicy, UniformJoint
from kmarkets import revenue_deficiency, sample, uniform_strategy
from kmarkets.families import sample_rows

BAD_SEEDS = [-1, 2.5, True, "3", None]
GOOD_SEEDS = [np.uint64(3), 2**100]


def _draw_sample(seed):
    return sample(UniformJoint(), 4, seed)


def _draw_rows(seed):
    return sample_rows(UniformJoint(), 4, [3, seed, 4])


def _run_point(seed):
    return revenue_deficiency(UniformJoint(), uniform_strategy(), 4, 2, seed)


SEEDED = pytest.mark.parametrize("draw", [_draw_sample, _draw_rows, _run_point], ids=["sample", "rows", "point"])


@SEEDED
@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_every_seed_is_refused_by_one_rule(draw, seed):
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(ParameterDomainError, match=f"^{re.escape(message)}$"):
        draw(seed)


@SEEDED
@pytest.mark.parametrize("seed", GOOD_SEEDS, ids=["uint64", "2**100"])
def test_any_non_negative_integer_is_a_seed(draw, seed):
    draw(seed)


@pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(2**63 - 1)], ids=["uint64", "int64"])
def test_a_numpy_base_seed_at_its_maximum_counts_on_like_an_int(seed):
    assert _run_point(seed) == _run_point(int(seed))


@pytest.mark.parametrize(
    "build, values, field, dtype",
    [
        (lambda a: Dataset(y=a, x=[0.1, 0.9]), [0.2, 0.7], "y", np.float64),
        (lambda a: Dataset(y=[0.2, 0.7], x=a), [0.1, 0.9], "x", np.float64),
        (lambda a: TabulatedPolicy(x_grid=a, prices=[0.5, 0.5]), [0.0, 1.0], "x_grid", np.float64),
        (lambda a: TabulatedPolicy(x_grid=[0.0, 1.0], prices=a), [0.4, 0.6], "prices", np.float64),
        (lambda a: Codebook(m=2, words=a), [[0, 1], [1, 0]], "words", np.uint8),
    ],
    ids=["dataset-y", "dataset-x", "policy-x_grid", "policy-prices", "codebook-words"],
)
def test_value_objects_keep_a_frozen_copy(build, values, field, dtype):
    source = np.array(values, dtype=dtype)
    held = getattr(build(source), field)
    source[0] = source[-1]  # a mutation that changes the values, still inside every contract
    assert np.array_equal(held, values) and not np.array_equal(held, source)
    assert held.dtype == dtype
    assert not held.flags.writeable
    assert not np.shares_memory(held, source)


@pytest.mark.parametrize(
    "words",
    [[[0.5, 1]], [[2, 0]], [[0, 1, 1]], [0, 1], [[300, 0]], [[-1, 0]], [[0, 1], [1]], [], np.zeros((0, 2)), None],
    ids=["half", "two", "three-columns", "1-d", "300", "minus-one", "ragged", "empty-list", "no-rows", "none"],
)
def test_codebook_refuses_what_is_not_a_code(words):
    with pytest.raises(ParameterDomainError, match="words"):
        Codebook(m=2, words=words)


@pytest.mark.parametrize("m", [0, True, 2.5])
def test_codebook_length_is_a_positive_integer(m):
    with pytest.raises(ParameterDomainError, match="m must be an integer"):
        Codebook(m=m, words=[[0, 1]])


@pytest.mark.parametrize("words", [[[True, False]], [[1.0, 0.0]]], ids=["bool", "float"])
def test_codebook_takes_bits_of_bool_or_float_type(words):
    assert Codebook(m=2, words=words).words.tolist() == [[1, 0]]
