"""Joint valuation/covariate distributions on the unit square.

Every family has covariate X ~ U[0,1] and a conditional valuation density
f(y|x) on [0,1].  Besides the uniform and the power-law simulated family,
there are three perturbations of the uniform built from a hat-shaped bump
in y and a smooth two-lobed bump in x; these are the worst-case families
used by the lower-bound checks.  All perturbed densities share the form

    f(y|x) = 1 + c(x) * phi_y((y - 1/2) / s)

for a family-specific coefficient c(x) and scale s, which is what makes
CDFs, inverse CDFs and normalization checks exact (piecewise quadratic).
Each family is one subclass of ``DistributionSpec`` carrying all of its
own facts; the oracles and checks only call its methods.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Curvature floor of the perturbed revenue curves: strong concavity means
# R'' <= -C_STAR.  Amplitudes are kept below 4 - 2*C_STAR = 2 in absolute
# value, which alone does not give the floor: the hat width delta must be small
# too.  The floor holds for |a| <= 1.5 with delta <= 0.02, the range acceptance
# test 11 checks.  At larger delta it weakens or fails:
# concavity_margin(1.5, 0.1) reads -0.65, and concavity_margin(1.9, 0.16)
# reads +0.165, which is not concave.
C_STAR = 1.0
_A_MAX = 4.0 - 2.0 * C_STAR


class ParameterDomainError(ValueError):
    """Raised when a family is constructed with out-of-domain parameters."""


class EmptyDataError(ValueError):
    """Raised when an operation receives an empty sample."""


def _is_int(v) -> bool:
    """True for an integer that is not a bool (numbers.Integral admits True)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_unit(what: str, *values) -> None:
    """Raise ParameterDomainError unless every value lies in [0, 1]: NaN fails, an empty array passes.

    An array is judged by its extremes, which NaN propagates; the initial
    values 0 and 1 only decide an empty one.  Anything else is compared as
    given, so a string or None raises TypeError instead of being converted.
    """
    for v in values:
        lo, hi = (v.min(initial=0.0), v.max(initial=1.0)) if isinstance(v, np.ndarray) else (v, v)
        if not (0.0 <= lo and hi <= 1.0):
            raise ParameterDomainError(f"{what} must lie in [0, 1]")


def _check_unit_number(what: str, *values) -> None:
    """``_check_unit`` for values that are each one number: an array of any size is refused."""
    if any(np.ndim(v) for v in values):
        raise ParameterDomainError(f"{what} must be one number")
    _check_unit(what, *values)


def _check_count(what: str, v, lo: int = 1) -> None:
    """Raise ParameterDomainError unless v is an integer (not a bool) of at least lo."""
    if not (_is_int(v) and v >= lo):
        raise ParameterDomainError(f"{what} must be an integer >= {lo}")


def _check_seed(seed) -> None:
    """Raise ParameterDomainError unless seed is a non-negative integer (not a bool)."""
    if not (_is_int(seed) and seed >= 0):
        raise ParameterDomainError(f"seed must be a non-negative integer, got {seed!r}")


def _frozen_copy(a, dtype=float) -> np.ndarray:
    """A fresh read-only array of a: what a value object keeps, so no caller can alias or mutate it."""
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


# phi_y's knot table: piecewise linear through (t, phi), zero outside.  Every hat fact reads it.
_HAT_T = np.array([-1.0, 0.0, 2.0, 3.0])
_HAT_PHI = np.array([0.0, 1.0, -1.0, 0.0])


def phi_y(t):
    """Hat-shaped perturbation in the valuation direction: the knot table, interpolated.

    t+1 on [-1,0], 1-t on [0,2], t-3 on [2,3], zero elsewhere and NaN at NaN.
    Integrates to zero over its support and |phi_y| <= 1.
    """
    out = np.interp(t, _HAT_T, _HAT_PHI, left=0.0, right=0.0)
    return out if out.ndim else float(out)


def _phi_y_int(t):
    # Antiderivative of phi_y from the left end of its support, piecewise
    # quadratic, and zero again for t >= 3 (the hat has zero total mass).
    # Nested np.where tests np.select's conditions in the same order, with the
    # same choices and the same 0.0 fallback (NaN included), so it gives the
    # same bits without np.select's fixed overhead of about 20 us per call.
    t = np.asarray(t, dtype=float)
    out = np.where(
        t < -1.0,
        0.0,
        np.where(
            t <= 0.0,
            0.5 * (t + 1.0) ** 2,
            np.where(t <= 2.0, 0.5 + t - 0.5 * t * t, np.where(t <= 3.0, 0.5 * (t - 3.0) ** 2, 0.0)),
        ),
    )
    return out if out.ndim else float(out)


def phi_x(t):
    """Smooth two-lobed perturbation in the covariate direction.

    A positive bump on (0, 1/2), its mirrored negative on (1/2, 1), zero
    elsewhere and at t in {0, 1/2, 1}.  phi_x(1/4) = 1, phi_x(3/4) = -1,
    and the two lobes cancel exactly in the integral.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # only |z| >= 1 warns; where drops it
        z = 4.0 * t - np.where(t < 0.5, 1.0, 3.0)  # each lobe's t mapped onto z in (-1, 1)
        out = np.where(np.abs(z) < 1.0, np.sign(0.5 - t) * np.exp(-z * z / (1.0 - z * z)), 0.0)
    return out if out.ndim else float(out)


def _market_of(x, k, dtype):
    """Market of each covariate in [0, 1] among k equal-width bins: min(floor(x k), k - 1).

    That is floor(min(x k, k - 1)): the minimum runs in place, and the cast to
    the caller's index dtype truncates, which floors x k >= 0.
    """
    scaled = np.asarray(x * k)
    return np.minimum(scaled, k - 1, out=scaled).astype(dtype)


class UnitPoint(NamedTuple):
    y: float
    x: float


@dataclass(frozen=True)
class Dataset:
    """Ordered sample of (valuation, covariate) pairs on the unit square."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.atleast_1d(_frozen_copy(self.y))
        x = np.atleast_1d(_frozen_copy(self.x))
        if y.shape != x.shape or y.ndim != 1:
            raise ParameterDomainError("y and x must be 1-d arrays of equal length")
        if y.size == 0:
            raise EmptyDataError("dataset must contain at least one point")
        _check_unit("valuations and covariates", y, x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @classmethod
    def from_points(cls, points) -> "Dataset":
        pts = [UnitPoint(float(y), float(x)) for y, x in points]
        if not pts:
            raise EmptyDataError("dataset must contain at least one point")
        return cls(y=np.array([p.y for p in pts]), x=np.array([p.x for p in pts]))

    def points(self) -> list[UnitPoint]:
        return [UnitPoint(float(a), float(b)) for a, b in zip(self.y, self.x)]

    def __len__(self) -> int:
        return int(self.y.size)


class DistributionSpec:
    """Base of every family: a joint law with X ~ U[0,1] and f(y|x) on [0,1].

    A family is one subclass.  It implements, broadcasting over arrays:

    - ``conditional_density(y, x)``: f(y|x)
    - ``conditional_cdf(y, x)``: F(y|x)
    - ``ppf(u, x)``: the inverse of F(.|x)
    - ``partial_expectation(p, x)``: E[Y 1{Y >= p} | X = x]
    - ``normalization(xs)``: the integral of f(.|x) over [0, 1] at each x
      of a 1-d grid, computed from the density rather than the CDF

    and may override four facts: ``x_independent`` (f(y|x) does not depend on
    x, so x-averages are free: the marginal CDF and the divergences between
    two such laws skip the x rule), ``y_knots`` (kinks of f in y, added to
    density-check grids), ``uniform_given(x)`` (a bool array of x's shape,
    True only where f(y|x) is exactly 1.0 for every y, so the divergences
    skip x blocks where both laws are uniform; False is always safe and is
    the default) and ``law_key(x)`` (a float array of x's shape; covariates
    with equal keys must have conditional densities and CDFs of the same
    bits at every y, so the 3PD oracle and the divergences solve each
    distinct law once; the default, x itself, makes every covariate its
    own law).
    """

    x_independent = False
    y_knots = ()

    def uniform_given(self, x):
        return np.zeros(np.shape(x), dtype=bool)

    def law_key(self, x):
        return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class UniformJoint(DistributionSpec):
    """Uniform valuations, uniform covariates, independent."""

    x_independent = True

    def uniform_given(self, x):
        return np.ones(np.shape(x), dtype=bool)

    def law_key(self, x):
        return np.zeros(np.shape(x))

    def conditional_density(self, y, x):
        y, x = np.broadcast_arrays(np.asarray(y, float), np.asarray(x, float))
        return np.ones_like(y)

    def conditional_cdf(self, y, x):
        y, x = np.broadcast_arrays(np.asarray(y, float), np.asarray(x, float))
        return y.copy() if y.ndim else float(y)

    def ppf(self, u, x):
        u, x = np.broadcast_arrays(np.asarray(u, float), np.asarray(x, float))
        return u.copy()

    def partial_expectation(self, p, x):
        p, x = np.broadcast_arrays(np.asarray(p, float), np.asarray(x, float))
        out = 0.5 * (1.0 - p * p)
        return out if out.ndim else float(out)

    def normalization(self, xs):
        return np.ones_like(xs)


@dataclass(frozen=True)
class PowerSimulated(DistributionSpec):
    """Simulated benchmark family with F(y|x) = y^(x+1).

    Conditional valuations stochastically increase in the covariate, so
    segmentation has something to exploit.
    """

    # x + 1.0 and x + 2.0 are computed on x's own shape and broadcast only
    # in the power: the same numbers with smaller temporaries.

    def conditional_density(self, y, x):
        y, x = np.asarray(y, float), np.asarray(x, float)
        return (x + 1.0) * y**x

    def conditional_cdf(self, y, x):
        y, x = np.asarray(y, float), np.asarray(x, float)
        return y ** (x + 1.0)

    def ppf(self, u, x):
        u, x = np.asarray(u, float), np.asarray(x, float)
        return u ** (1.0 / (x + 1.0))

    def partial_expectation(self, p, x):
        p, x = np.asarray(p, float), np.asarray(x, float)
        out = (x + 1.0) / (x + 2.0) * (1.0 - p ** (x + 2.0))
        return out if out.ndim else float(out)

    def normalization(self, xs):
        # Simpson under the substitution y = v^2, which tames the y^x endpoint:
        # int_0^1 (x+1) y^x dy = int_0^1 2 (x+1) v^(2x+1) dv
        vs, w = _simpson_rule(4096)
        vals = 2.0 * (xs[None, :] + 1.0) * vs.T ** (2.0 * xs[None, :] + 1.0)
        return w @ vals


_HAT_T_SLOPES = np.pad(np.diff(_HAT_PHI) / np.diff(_HAT_T), 1)  # phi_y slope per segment


class _HatFamily(DistributionSpec):
    """f(y|x) = 1 + coef(x) * phi_y((y - 1/2) / scale), exact piecewise.

    Subclasses supply ``scale`` and ``coef(x)``, which has x's shape (a
    float for a scalar x).  The density is linear on each segment between
    ``y_knots``, which makes CDFs, inverse CDFs, partial expectations and
    normalization checks exact.  Density and CDF are separable: the y factor
    is evaluated on y's own shape and coef on x's, and only the sum broadcasts.
    """

    @property
    def y_knots(self) -> np.ndarray:
        # The hat's knots clipped to [0, 1].  The upper clip only bites for
        # PerturbedConditional at large delta, whose hat may pass y = 1.
        return np.concatenate(([0.0], np.minimum(0.5 + self.scale * _HAT_T, 1.0), [1.0]))

    def uniform_given(self, x):
        # A zero coefficient, of either sign, leaves 1 + (+-0) * phi_y exactly 1.
        return np.asarray(self.coef(x)) == 0.0

    def law_key(self, x):
        # Density, CDF and ppf see x only through coef(x).  np.unique merges
        # +0.0 and -0.0, which is safe: 1 + (+-0) * phi and y + (+-0) * s * Phi
        # are the same bits.
        return np.broadcast_to(self.coef(x), np.shape(x))

    def conditional_density(self, y, x):
        y, x = np.asarray(y, float), np.asarray(x, float)
        return 1.0 + self.coef(x) * phi_y((y - 0.5) / self.scale)

    def conditional_cdf(self, y, x):
        y, x = np.asarray(y, float), np.asarray(x, float)
        s = self.scale
        return y + self.coef(x) * s * _phi_y_int((y - 0.5) / s)

    def ppf(self, u, x):
        u, x = np.broadcast_arrays(np.asarray(u, float), np.asarray(x, float))
        s = self.scale
        shape = u.shape
        coef = np.asarray(self.coef(x), dtype=float).ravel()
        u = u.ravel()
        edges = self.y_knots
        # CDF at the segment edges, one column per point.
        f_edges = edges[:, None] + coef[None, :] * s * _phi_y_int((edges[:, None] - 0.5) / s)
        seg = np.clip((f_edges <= u[None, :]).sum(axis=0) - 1, 0, edges.size - 2)
        left = edges[seg]
        a0 = 1.0 + coef * phi_y((left - 0.5) / s)  # density at the segment's left edge
        slope = coef * _HAT_T_SLOPES[seg] / s
        q = np.maximum(u - np.take_along_axis(f_edges, seg[None, :], axis=0)[0], 0.0)
        # Stable root of slope/2 * w^2 + a0 * w = q; reduces to q/a0 when flat.
        disc = np.sqrt(np.maximum(a0 * a0 + 2.0 * slope * q, 0.0))
        w = 2.0 * q / (a0 + disc)
        return np.clip(left + w, 0.0, 1.0).reshape(shape)

    def partial_expectation(self, p, x):
        p, x = np.broadcast_arrays(np.asarray(p, float), np.asarray(x, float))
        s = self.scale
        edges = self.y_knots
        tail = np.zeros_like(p)  # int_p^1 y * phi_y((y - 1/2)/s) dy, segment by segment
        for l, r in zip(edges[:-1], edges[1:]):
            if r <= l:
                continue
            phi_l = phi_y((l - 0.5) / s)
            slope = (phi_y((r - 0.5) / s) - phi_l) / (r - l)
            a = np.clip(p, l, r)
            # int_a^r y * (phi_l + slope*(y - l)) dy, elementwise in a
            sq = 0.5 * (r * r - a * a)
            cu = (r**3 - a**3) / 3.0
            tail += phi_l * sq + slope * (cu - l * sq)
        out = 0.5 * (1.0 - p * p) + self.coef(x) * tail
        return out if out.ndim else float(out)

    def normalization(self, xs):
        # Trapezoid on the knots is exact for a piecewise-linear density.
        edges = self.y_knots
        f_edges = 1.0 + self.coef(xs)[None, :] * phi_y((edges[:, None] - 0.5) / self.scale)
        widths = np.diff(edges)
        return 0.5 * ((f_edges[:-1] + f_edges[1:]) * widths[:, None]).sum(axis=0)


def _check_amplitude(a: float, signed: bool) -> None:
    if signed:
        if not abs(a) < _A_MAX:
            raise ParameterDomainError(f"perturbation amplitude must satisfy |a| < {_A_MAX}")
    elif not 0.0 < a < _A_MAX:
        raise ParameterDomainError(f"perturbation amplitude must lie in (0, {_A_MAX})")


def _check_delta(delta: float, full_support: bool) -> None:
    if not 0.0 < delta < 0.25:
        raise ParameterDomainError("delta must lie in (0, 1/4)")
    if full_support and 0.5 + _HAT_T[-1] * delta > 1.0 + 1e-15:
        raise ParameterDomainError(
            "delta too large: perturbation support [1/2-delta, 1/2+3*delta] exits [0, 1]"
        )


@dataclass(frozen=True)
class PerturbedUniform(_HatFamily):
    """Uniform with a hat bump of width ~delta added to the y-marginal.

    The density is 1 + a*delta*phi_y((y-1/2)/delta) independent of x.  The
    amplitude may be signed (both orientations of the bump are meaningful);
    |a| < 2 and delta <= 1/6 keep the density positive and normalized.
    """

    a: float
    delta: float

    x_independent = True

    def __post_init__(self):
        _check_amplitude(self.a, signed=True)
        _check_delta(self.delta, full_support=True)

    @property
    def scale(self) -> float:
        return self.delta

    def coef(self, x):
        out = np.full(np.shape(x), self.a * self.delta)  # the law does not depend on x
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class PerturbedConditional(_HatFamily):
    """Uniform with a localized conditional perturbation.

    f(y|x) = 1 + a*delta*phi_y((y-1/2)/delta)*phi_x((x-x0)/delta + 1/4),
    so only covariates in the window (x0 - delta/4, x0 + 3*delta/4) see a
    perturbed valuation distribution.  The window must sit inside [0, 1].
    For delta > 1/6 the hat clips at y = 1: per-x slices then carry an
    O(delta^2) normalization defect while the joint still integrates to
    one (the two lobes of phi_x cancel).
    """

    a: float
    delta: float
    x0: float

    def __post_init__(self):
        _check_amplitude(self.a, signed=False)
        _check_delta(self.delta, full_support=False)
        if not 0.0 <= self.x0 - 0.25 * self.delta or not self.x0 + 0.75 * self.delta <= 1.0:
            raise ParameterDomainError(
                "covariate window (x0 - delta/4, x0 + 3*delta/4) exits [0, 1]"
            )

    @property
    def scale(self) -> float:
        return self.delta

    def coef(self, x):
        return self.a * self.delta * phi_x((np.asarray(x, float) - self.x0) / self.delta + 0.25)


@dataclass(frozen=True)
class Packing(_HatFamily):
    """m covariate bins, each independently perturbed or not per a bit vector.

    Bin j (1-based) of x is market j - 1 of m equal markets.  Within bin j,

        f(y|x) = 1 + (a/m) * alpha_j * phi_y(m*(y-1/2)) * phi_x(m*x - (j-1)),

    i.e. the hat scale is 1/m and the covariate bump is recentered in each
    bin.  With all bits zero this is exactly the uniform joint.
    """

    m: int
    a: float
    alpha: tuple[int, ...]

    def __post_init__(self):
        _check_count("m", self.m, 8)
        object.__setattr__(self, "m", int(self.m))
        _check_amplitude(self.a, signed=False)
        alpha = tuple(self.alpha)  # checked as given: int() would truncate 0.9 to a 0 bit
        if len(alpha) != self.m or any(b not in (0, 1) for b in alpha):
            raise ParameterDomainError("alpha must be a bit vector of length m")
        object.__setattr__(self, "alpha", tuple(int(b) for b in alpha))

    @property
    def scale(self) -> float:
        return 1.0 / self.m

    def coef(self, x):
        x = np.asarray(x, dtype=float)
        j0 = _market_of(x, self.m, np.intp)
        bits = np.asarray(self.alpha, dtype=float)
        return (self.a / self.m) * bits[j0] * phi_x(self.m * x - j0)


def conditional_cdf(spec: DistributionSpec, y, x):
    """F(y|x) for the given family; broadcasts over array arguments."""
    return spec.conditional_cdf(y, x)


def conditional_density(spec: DistributionSpec, y, x):
    """f(y|x) for the given family; broadcasts over array arguments."""
    return spec.conditional_density(y, x)


def marginal_x_density(spec: DistributionSpec, x):
    """Covariate density, identically 1 on [0,1] for every family."""
    out = np.ones_like(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def sample_rows(spec: DistributionSpec, n: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Draw one row of n i.i.d. pairs per seed by inverse-CDF sampling: (x, y), each (len(seeds), n).

    Row i has its own generator seeded with seeds[i], which draws the
    covariates first, then the uniforms that the family's ``ppf`` turns into
    valuations, so a fixed seed pins its row bit for bit in any block.
    """
    _check_count("sample size", n)
    x = np.empty((len(seeds), n))
    u = np.empty_like(x)
    for seed, x_row, u_row in zip(seeds, x, u):
        _check_seed(seed)
        rng = np.random.default_rng(seed)
        rng.random(out=x_row)
        rng.random(out=u_row)
    y = spec.ppf(u, x)
    _check_unit("valuations and covariates", y)
    return x, y


def sample(spec: DistributionSpec, n: int, seed: int) -> Dataset:
    """Draw n i.i.d. (valuation, covariate) pairs: the one-row case of ``sample_rows``."""
    x, y = sample_rows(spec, n, [seed])
    return Dataset(y=y[0], x=x[0])


@dataclass(frozen=True)
class DensityReport:
    max_norm_error: float
    min_density: float


def validate_density(spec: DistributionSpec, x_grid_size: int = 101) -> DensityReport:
    """Check that f(.|x) integrates to one across a covariate grid.

    The integrals come from the family's own ``normalization``.  Also
    reports the smallest density value seen on a y/x evaluation grid that
    includes the family's ``y_knots``.  Both run over the covariates in
    ``_row_blocks``, so memory stays bounded at any grid size.  A block's
    normalization keeps its bits because the remainder joins the last block
    (a lone trailing column may round differently in a matrix product), and
    the extremes of the block extremes are exact, NaN included.
    """
    _check_count("x_grid_size", x_grid_size, 2)
    xs = np.linspace(0.0, 1.0, x_grid_size)
    ys = np.union1d(np.linspace(0.0, 1.0, 2049), spec.y_knots)[:, None]
    starts, stops = _row_blocks(x_grid_size)
    norm_error, min_density = np.empty(len(starts)), np.empty(len(starts))
    for i, (start, stop) in enumerate(zip(starts, stops)):
        block = xs[start:stop]
        norm_error[i] = np.abs(spec.normalization(block) - 1.0).max()
        min_density[i] = spec.conditional_density(ys, block[None, :]).min()
    return DensityReport(max_norm_error=float(norm_error.max()), min_density=float(min_density.min()))


BLOCK = 64  # covariate columns (or price rows) evaluated at once by a grid scan or a density check


def _row_blocks(size: int) -> tuple[list[int], list[int]]:
    """Starts and stops of rows [0, size) cut into blocks of BLOCK, the remainder joining the last."""
    starts = list(range(0, max(size - BLOCK, 0) + 1, BLOCK))
    return starts, [*starts[1:], size]


@functools.lru_cache(maxsize=64)
def _simpson_rule(panels: int, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Shared read-only composite Simpson (nodes, weights) on [0, 1] cut into k equal markets.

    Row i of the (k, m + 1) nodes spans [i/k, (i+1)/k] with m = max(8, ceil(panels / k))
    panels rounded up to even; the integral of g is (g(nodes) @ weights).sum() / k.
    """
    m = 2 * max(4, -(-panels // (2 * k)))  # ceil(ceil(panels/k) / 2) == ceil(panels / 2k)
    nodes = (np.arange(k)[:, None] + np.linspace(0.0, 1.0, m + 1)) / k
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w /= 3.0 * m
    nodes.flags.writeable = w.flags.writeable = False
    return nodes, w
