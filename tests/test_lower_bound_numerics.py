"""Lower-bound numerics: the separable hat families and the linear lexicode
give the same numbers as the direct constructions they replace."""

from itertools import combinations

import numpy as np
import pytest

from kmarkets import (
    Packing,
    PerturbedConditional,
    PerturbedUniform,
    QuadratureConfig,
    SupportViolationError,
    UniformJoint,
    gilbert_varshamov,
    kl_divergence,
)
from kmarkets.families import DistributionSpec, _phi_y_int, phi_y

FAST_QUAD = QuadratureConfig(y_panels=2048, x_panels=16)


def greedy_bitmap_code(m: int) -> np.ndarray:
    """The greedy lexicographic code by exhaustive scan: accept each word of
    {0,1}^m, in order, that no Hamming ball of radius ceil(m/8) - 1 around an
    accepted word covers.  Returns the accepted words as integers."""
    d = -(-m // 8)
    size = 1 << m
    masks = np.array(
        [sum(1 << b for b in combo) for r in range(d) for combo in combinations(range(m), r)],
        dtype=np.int64,
    )
    covered = np.zeros(size, dtype=bool)
    accepted = []
    chunk = 1024
    ptr = 0
    while ptr < size:
        window = covered[ptr : ptr + chunk]
        rel = int(np.argmax(~window))
        if window[rel]:
            ptr += window.size  # window fully covered
            continue
        word = ptr + rel
        accepted.append(word)
        covered[np.bitwise_xor(word, masks)] = True
        ptr = word + 1
    return np.asarray(accepted, dtype=np.int64)


@pytest.mark.parametrize("m", range(8, 25))
def test_lexicode_equals_the_greedy_scan(m):
    words = gilbert_varshamov(m).words
    ints = words.astype(np.int64) @ (1 << np.arange(m - 1, -1, -1, dtype=np.int64))
    np.testing.assert_array_equal(ints, greedy_bitmap_code(m))


def broadcast_first_density(spec, y, x):
    y, x = np.broadcast_arrays(np.asarray(y, float), np.asarray(x, float))
    return 1.0 + spec.coef(x) * phi_y((y - 0.5) / spec.scale)


def broadcast_first_cdf(spec, y, x):
    y, x = np.broadcast_arrays(np.asarray(y, float), np.asarray(x, float))
    s = spec.scale
    return y + spec.coef(x) * s * _phi_y_int((y - 0.5) / s)


HAT_SPECS = [
    PerturbedUniform(a=1.3, delta=0.11),
    PerturbedUniform(a=-0.7, delta=0.03),
    PerturbedConditional(a=1.0, delta=0.2, x0=0.5),
    PerturbedConditional(a=1.7, delta=0.07, x0=0.3),
    Packing(m=8, a=1.0, alpha=(1, 0, 1, 1, 0, 0, 1, 0)),
    Packing(m=16, a=1.5, alpha=(0, 1) * 8),
]
_YS = np.linspace(0.0, 1.0, 257)
_XS = np.linspace(0.0, 1.0, 65)
SHAPES = {
    "column y, row x": (_YS[:, None], _XS[None, :]),
    "scalar y, vector x": (0.47, _XS),
    "vector y, scalar x": (_YS, 0.61),
    "scalar, scalar": (0.52, 0.33),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("spec", HAT_SPECS, ids=repr)
@pytest.mark.parametrize(
    "method, reference",
    [("conditional_density", broadcast_first_density), ("conditional_cdf", broadcast_first_cdf)],
)
def test_separable_hat_evaluation_is_bit_identical(method, reference, spec, shape):
    y, x = SHAPES[shape]
    got = getattr(spec, method)(y, x)
    want = reference(spec, y, x)
    expected_shape = np.broadcast_shapes(np.shape(y), np.shape(x))
    if expected_shape:
        assert isinstance(got, np.ndarray)
        assert got.shape == expected_shape
        assert got.flags.writeable and got.flags.owndata
    else:
        assert isinstance(got, float)
    assert np.array(got).tobytes() == np.array(want).tobytes()


class _VanishingAtZero(DistributionSpec):
    """f(y|x) = 2y: a valid density that is zero on the grid row y = 0."""

    def conditional_density(self, y, x):
        y, x = np.broadcast_arrays(np.asarray(y, float), np.asarray(x, float))
        return 2.0 * y


class _NegativeDip(DistributionSpec):
    """f(y|x) = 1 - 3*phi_y(8(y - 1/2)): dips below zero near y = 1/2."""

    def conditional_density(self, y, x):
        y, x = np.broadcast_arrays(np.asarray(y, float), np.asarray(x, float))
        return 1.0 - 3.0 * phi_y(8.0 * (y - 0.5))


@pytest.mark.parametrize("ref, low", [(_VanishingAtZero(), "0.0"), (_NegativeDip(), "-2.0")])
def test_kl_rejects_a_reference_that_vanishes_on_part_of_the_grid(ref, low):
    with pytest.raises(SupportViolationError, match=f"reference density reaches {low} on the"):
        kl_divergence(UniformJoint(), ref, FAST_QUAD)
