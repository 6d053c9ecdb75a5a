"""Worst-case constructions: divergences, codebooks, optimal-price drift.

These are the numeric checks behind the lower-bound arguments: perturbing
the uniform density moves the optimal price by a controlled amount while
staying statistically close (small Hellinger/KL distance), and a packing of
many such perturbations indexed by a large-minimum-distance codebook forces
any strategy to pay for distinguishing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .families import (
    _check_count,
    _frozen_copy,
    _is_int,
    _simpson_rule,
    DistributionSpec,
    Packing,
    ParameterDomainError,
    PerturbedUniform,
    UniformJoint,
)
from .oracle import (
    BLOCK,
    DEFAULT_QUAD,
    QuadratureConfig,
    marginal_y_cdf,
    optimal_3pd_policy,
    optimal_uniform_price,
)

# Analytic Hellinger bound constant for the marginal hat perturbation:
# H^2 <= (2*sqrt(2)/3) * a^2 * delta^3.
HELLINGER_BOUND_COEF = 2.0 * math.sqrt(2.0) / 3.0


class SupportViolationError(ValueError):
    """Raised when a KL reference density vanishes on the integration grid."""


def _simpson_2d(func, cfg: QuadratureConfig, spec1, spec2) -> float:
    """Iterated Simpson over the unit square, BLOCK x-nodes at a time to bound memory.

    func(f1, f2) maps the two laws' densities on a block of nodes to the
    integrand, pointwise.  When both laws are x-independent the x rule is
    the one node x = 1/2 with weight 1, and cfg.x_panels is unused.  The
    block width fixes how the float sum is grouped, so changing BLOCK
    moves divergence values in the last digits.

    Both specs are DistributionSpec instances, and their facts are called
    directly; the base class holds the only defaults.  A law that is not
    x-independent but is uniform (``uniform_given``) at every node of the x
    rule is refused: the rule cannot see how it depends on x.  A block where
    both laws are uniform at every node is skipped.  Its integrand would be
    func(1, 1) = +0.0 everywhere, its term +0.0, and total + 0.0 == total,
    so the sum keeps its bits.  Only whole blocks are skipped: dropping
    single columns would regroup the matrix products.

    In each evaluated block, columns whose pair of ``law_key`` values repeats
    share both laws, hence their integrand column.  The densities
    and func run on the first column of each distinct pair only, and
    np.take copies the columns back into a C-contiguous matrix equal to the
    full evaluation's, so the products keep their bits.  A fancy-indexed
    gather (vals[:, idx]) is not C-contiguous, and BLAS groups its sums
    differently over it.
    """
    ys, wy = _simpson_rule(cfg.y_panels)
    if spec1.x_independent and spec2.x_independent:
        xs, wx = np.full((1, 1), 0.5), np.ones(1)
    else:
        xs, wx = _simpson_rule(cfg.x_panels)
    uniform = np.ones(wx.size, dtype=bool)
    for spec in (spec1, spec2):
        given = spec.uniform_given(xs[0])
        if given.all() and not spec.x_independent:
            raise ParameterDomainError(f"x_panels={cfg.x_panels} puts every x node where {spec!r} is uniform")
        uniform &= given
    keys = np.stack([spec1.law_key(xs[0]), spec2.law_key(xs[0])])
    total = 0.0
    for start in range(0, wx.size, BLOCK):
        block = slice(start, start + BLOCK)
        if uniform[block].all():
            continue
        x = xs[:, block]
        _, first, inverse = np.unique(keys[:, block], axis=1, return_index=True, return_inverse=True)
        repeats = first.size < x.size
        if repeats:
            x = x[:, first]
        vals = func(spec1.conditional_density(ys.T, x), spec2.conditional_density(ys.T, x))
        if repeats:
            vals = np.take(vals, inverse.reshape(-1), axis=1)
        total += float((wy @ vals) @ wx[block])
    return total


def hellinger_sq(
    spec1: DistributionSpec,
    spec2: DistributionSpec,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """Squared Hellinger distance between two joint laws on the unit square.

    cfg.x_panels is unused when both laws are x-independent.
    """

    def integrand(f1, f2):
        return (np.sqrt(f1) - np.sqrt(f2)) ** 2

    return max(_simpson_2d(integrand, cfg, spec1, spec2), 0.0)


def kl_divergence(
    spec1: DistributionSpec,
    spec2: DistributionSpec,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """KL divergence of spec1 from spec2 over the unit square.

    Raises SupportViolationError, rather than returning an unreliable number,
    if the reference density (spec2's) is zero or negative at a node the
    pass evaluates.
    cfg.x_panels is unused when both laws are x-independent.
    """
    ref_min = math.inf  # smallest spec2 density seen by the integration pass

    def integrand(f1, f2):
        nonlocal ref_min
        ref_min = min(ref_min, float(f2.min()))
        with np.errstate(divide="ignore", invalid="ignore"):
            term = f1 * np.log(f1 / f2)
        return np.where(f1 > 0.0, term, 0.0)

    value = _simpson_2d(integrand, cfg, spec1, spec2)
    if ref_min <= 0.0:
        raise SupportViolationError(
            f"reference density reaches {ref_min} on the integration grid"
        )
    return value


@dataclass(frozen=True)
class DivergenceReport:
    hellinger_sq: float
    kl: float
    analytic_bound: float
    bound_satisfied: bool


def marginal_perturbation_report(
    a: float, delta: float, cfg: QuadratureConfig = DEFAULT_QUAD
) -> DivergenceReport:
    """Divergences of the marginal hat perturbation from the uniform law.

    bound_satisfied allows the quadrature a 1e-3 relative slack against the
    analytic (2*sqrt(2)/3) * a^2 * delta^3 Hellinger bound.
    """
    base = UniformJoint()
    bumped = PerturbedUniform(a=a, delta=delta)
    hsq = hellinger_sq(base, bumped, cfg)
    kl = kl_divergence(bumped, base, cfg)
    bound = HELLINGER_BOUND_COEF * a * a * delta**3
    return DivergenceReport(
        hellinger_sq=hsq,
        kl=kl,
        analytic_bound=bound,
        bound_satisfied=bool(hsq <= bound * (1.0 + 1e-3)),
    )


@dataclass(frozen=True)
class Codebook:
    """Binary code of length m; rows of words are the codewords (MSB first).

    words must be a nonempty matrix of m columns whose every entry equals 0
    or 1 (bools and 0.0/1.0 included); it is kept as a read-only uint8 copy.
    """

    m: int
    words: np.ndarray

    def __post_init__(self):
        _check_count("m", self.m)
        try:
            w = np.asarray(self.words)
        except ValueError:  # a ragged nested list
            w = None
        # Checked as given: the uint8 cast would truncate 0.5 and wrap 300.
        if w is None or w.ndim != 2 or w.shape[0] < 1 or w.shape[1] != self.m or not np.isin(w, (0, 1)).all():
            raise ParameterDomainError(f"words must be a nonempty 0/1 matrix of m={self.m} columns")
        object.__setattr__(self, "words", _frozen_copy(w, np.uint8))

    @classmethod
    def _own(cls, m: int, words: np.ndarray) -> "Codebook":
        """A codebook holding a uint8 matrix no one else references, frozen in place: no copy."""
        words.flags.writeable = False
        book = object.__new__(cls)
        object.__setattr__(book, "m", m)
        object.__setattr__(book, "words", words)
        return book


def gilbert_varshamov(m: int) -> Codebook:
    """Greedy lexicographic binary code (lexicode) with minimum distance ceil(m/8).

    The greedy code that scans {0,1}^m in lexicographic order and accepts
    every word at distance >= d = ceil(m/8) from all accepted words is
    linear (Conway & Sloane, "Lexicographic codes: error-correcting codes
    from game theory", IEEE Trans. Inf. Theory 1986), so only its basis is
    searched and kept: for each bit i, the smallest word w in [2^i, 2^(i+1))
    at distance >= d from the code so far, if any.  Basis words are clear at
    each other's top bits, so clearing v's top bits by XOR gives least(v),
    the smallest word of v's coset (0 on codewords).  w is too close exactly
    when least(w) = least(e) for a mask e of weight < d with top bit i, and
    least(w) <= w is bit i plus non-top bits, so candidates run over those.
    The span, doubled in top-bit order, comes out ascending.  The volume
    bound guarantees at least 2^ceil(m/8) codewords; all-zeros is the first.
    """
    if not (_is_int(m) and 8 <= m <= 24):
        raise ParameterDomainError("m must be an integer in [8, 24]")
    d = -(-m // 8)
    basis = []  # (word, top bit), each word clear at the top bits of the others

    def least(v):  # the smallest word of v's coset: 0 exactly on codewords
        for b, top in basis:
            v ^= b if v >> top & 1 else 0
        return v

    for i in range(m):
        near = {least(1 << i | sum(1 << b for b in c)) for r in range(d - 1) for c in combinations(range(i), r)}
        off = [b for b in range(i) if all(b != top for _, top in basis)]
        for t in range(min(len(near) + 1, 1 << len(off))):
            w = 1 << i | sum(1 << b for j, b in enumerate(off) if t >> j & 1)
            if w not in near:
                basis.append((w, i))
                break
    # The span is doubled in place in the output matrix: rows [s, 2s) are
    # rows [0, s) XOR the next basis word's bits, MSB first.
    words = np.empty((1 << len(basis), m), dtype=np.uint8)
    words[0] = 0
    msb_first = np.arange(m - 1, -1, -1)
    for j, (b, _) in enumerate(basis):
        s = 1 << j
        np.bitwise_xor(words[:s], (b >> msb_first & 1).astype(np.uint8), out=words[s : 2 * s])
    return Codebook._own(m, words)


def packing_price_separation(
    m: int,
    a: float,
    alpha,
    alpha_prime,
    x_grid_size: int = 1025,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """L2 distance between the optimal policies of two packing laws."""
    spec1 = Packing(m=m, a=a, alpha=tuple(alpha))
    spec2 = Packing(m=m, a=a, alpha=tuple(alpha_prime))
    pol1 = optimal_3pd_policy(spec1, x_grid_size, cfg)
    pol2 = optimal_3pd_policy(spec2, x_grid_size, cfg)
    diff_sq = (pol1.prices - pol2.prices) ** 2
    return float(math.sqrt(np.trapezoid(diff_sq, pol1.x_grid)))


@dataclass(frozen=True)
class LemmaC3Result:
    p_star: float
    interval: tuple[float, float]
    inside: bool


def lemma_c3_check(
    b: float, delta: float, cfg: QuadratureConfig = DEFAULT_QUAD
) -> LemmaC3Result:
    """Locate the optimal uniform price of the hat-perturbed marginal.

    A positive bump (b > 0) pulls the optimal price into
    (1/2 - delta, 1/2 - b*delta/8); a negative bump pushes it into
    (1/2 - b*delta/8, 1/2 + 2*delta); b = 0 leaves it exactly at 1/2,
    checked to search precision.
    """
    spec = PerturbedUniform(a=b, delta=delta)
    p_star, _ = optimal_uniform_price(spec, cfg)
    if b > 0.0:
        interval = (0.5 - delta, 0.5 - b * delta / 8.0)
        inside = interval[0] < p_star < interval[1]
    elif b < 0.0:
        interval = (0.5 - b * delta / 8.0, 0.5 + 2.0 * delta)
        inside = interval[0] < p_star < interval[1]
    else:
        # The revenue curve is exactly p(1-p) here; the search localizes
        # its flat maximum only to about sqrt(machine eps).
        interval = (0.5, 0.5)
        inside = abs(p_star - 0.5) <= 1e-6
    return LemmaC3Result(p_star=p_star, interval=interval, inside=bool(inside))


def concavity_margin(b: float, delta: float, grid_size: int = 10000) -> float:
    """Largest finite-difference second derivative of the revenue curve.

    Central second differences of R(y) = y*(1 - F_Y(y)) for the perturbed
    marginal on a uniform grid, skipping +-2 cells around the family's
    interior ``y_knots`` (the density kinks) where the difference quotient
    straddles a jump in R''.  Strong concavity means the returned value
    stays below -C*.
    """
    spec = PerturbedUniform(a=b, delta=delta)
    _check_count("grid_size", grid_size, 3)
    ys = np.linspace(0.0, 1.0, grid_size)
    h = ys[1] - ys[0]
    rev = ys * (1.0 - marginal_y_cdf(spec, ys))
    second = (rev[:-2] - 2.0 * rev[1:-1] + rev[2:]) / (h * h)
    centers = ys[1:-1]
    keep = np.ones_like(centers, dtype=bool)
    for kink in spec.y_knots[1:-1]:
        keep &= np.abs(centers - kink) > 2.0 * h
    if not keep.any():
        raise ParameterDomainError(
            f"grid_size={grid_size} leaves no second difference clear of the density kinks"
        )
    return float(second[keep].max())
