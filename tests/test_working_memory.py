"""Working memory of the codebook and of the density check.

``gilbert_varshamov`` fills its word matrix in place, so its traced peak is
the matrix it returns; ``test_lower_bound_numerics`` checks the words against
a greedy scan.  ``validate_density`` runs over the covariates in blocks, so
its peak does not grow with the grid, and its report equals a one-shot
evaluation over the whole grid bit for bit.  numpy reports its buffers to
tracemalloc, so the peaks are deterministic.
"""

import tracemalloc

import numpy as np
import pytest

from kmarkets import (
    Packing,
    PerturbedConditional,
    PerturbedUniform,
    PowerSimulated,
    UniformJoint,
    gilbert_varshamov,
    validate_density,
)

FAMILIES = [
    UniformJoint(),
    PowerSimulated(),
    PerturbedUniform(a=-1.5, delta=0.1),
    PerturbedConditional(a=1.9, delta=0.24, x0=0.3),
    Packing(m=9, a=1.9, alpha=(1, 0, 1, 1, 0, 0, 1, 0, 1)),
]


def _peak(call):
    tracemalloc.start()
    try:
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_gilbert_varshamov_peak_is_its_word_matrix():
    words, peak = _peak(lambda: gilbert_varshamov(24).words)
    assert words.shape == (1 << 19, 24) and words.dtype == np.uint8
    assert words.flags.c_contiguous and not words.flags.writeable and words.base is None
    assert peak <= words.nbytes + 2**20


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
def test_validate_density_memory_is_bounded(spec):
    validate_density(spec, 11)  # warm the cached Simpson rule
    _, peak = _peak(lambda: validate_density(spec, 4097))
    assert peak < 8 * 2**20  # one 4097 x 4097 matrix alone would be 128 MiB


def _one_shot(spec, x_grid_size):
    """validate_density over the whole grid at once, as it was before the covariate blocks."""
    xs = np.linspace(0.0, 1.0, x_grid_size)
    ys = np.union1d(np.linspace(0.0, 1.0, 2049), spec.y_knots)
    dens = spec.conditional_density(ys[:, None], xs[None, :])
    return float(np.abs(spec.normalization(xs) - 1.0).max()), float(dens.min())


@pytest.mark.parametrize("size", [2, 63, 64, 65, 127, 128, 129, 1025])
@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: type(s).__name__)
def test_validate_density_equals_the_one_shot_evaluation(spec, size):
    report = validate_density(spec, size)
    assert (report.max_norm_error, report.min_density) == _one_shot(spec, size)
