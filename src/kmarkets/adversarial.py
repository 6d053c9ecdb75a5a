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
    _is_int,
    _simpson_rule,
    DistributionSpec,
    Packing,
    ParameterDomainError,
    PerturbedUniform,
    UniformJoint,
    phi_x,
    phi_y,
)
from .oracle import (
    BLOCK,
    DEFAULT_QUAD,
    QuadratureConfig,
    marginal_y_cdf,
    optimal_3pd_policy,
    optimal_uniform_price,
)

__all__ = [
    "phi_y",
    "phi_x",
    "hellinger_sq",
    "kl_divergence",
    "DivergenceReport",
    "marginal_perturbation_report",
    "Codebook",
    "gilbert_varshamov",
    "packing_price_separation",
    "LemmaC3Result",
    "lemma_c3_check",
    "concavity_margin",
    "SupportViolationError",
]

# Analytic Hellinger bound constant for the marginal hat perturbation:
# H^2 <= (2*sqrt(2)/3) * a^2 * delta^3.
HELLINGER_BOUND_COEF = 2.0 * math.sqrt(2.0) / 3.0


class SupportViolationError(ValueError):
    """Raised when a KL reference density vanishes on the integration grid."""


def _simpson_2d(func, cfg: QuadratureConfig, *specs) -> float:
    """Iterated Simpson over the unit square, BLOCK x-nodes at a time to bound memory.

    func(y, x) must broadcast.  When every spec is x-independent the x rule
    is the one node x = 1/2 with weight 1, and cfg.x_panels is unused.  A
    Packing law of m bins rejects an x rule whose panel count divides 2m:
    then every node sits on a bin edge or midpoint, where the bumps vanish,
    and the divergence would read exactly 0.  The block width fixes how the float sum is
    grouped, so changing BLOCK moves divergence values in the last digits.
    """
    ys, wy = _simpson_rule(cfg.y_panels)
    if all(getattr(spec, "x_independent", False) for spec in specs):
        xs, wx = np.full((1, 1), 0.5), np.ones(1)
    else:
        for spec in specs:
            if isinstance(spec, Packing) and (2 * spec.m) % cfg.x_panels == 0:
                raise ParameterDomainError(
                    f"x_panels={cfg.x_panels} divides 2m={2 * spec.m} for a packing of m={spec.m} bins:"
                    " every x node lands where the bumps vanish"
                )
        xs, wx = _simpson_rule(cfg.x_panels)
    total = 0.0
    for start in range(0, wx.size, BLOCK):
        vals = func(ys.T, xs[:, start : start + BLOCK])
        total += float((wy @ vals) @ wx[start : start + BLOCK])
    return total


def hellinger_sq(
    spec1: DistributionSpec,
    spec2: DistributionSpec,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """Squared Hellinger distance between two joint laws on the unit square.

    cfg.x_panels is unused when both laws are x-independent.
    """

    def integrand(y, x):
        root1 = np.sqrt(spec1.conditional_density(y, x))
        root2 = np.sqrt(spec2.conditional_density(y, x))
        return (root1 - root2) ** 2

    return max(_simpson_2d(integrand, cfg, spec1, spec2), 0.0)


def kl_divergence(
    spec1: DistributionSpec,
    spec2: DistributionSpec,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> float:
    """KL divergence of spec1 from spec2 over the unit square.

    Errors out if spec2's density is not strictly positive somewhere on the
    integration grid, rather than returning an unreliable number.
    cfg.x_panels is unused when both laws are x-independent.
    """
    ref_min = math.inf  # smallest spec2 density seen by the integration pass

    def integrand(y, x):
        nonlocal ref_min
        f1 = spec1.conditional_density(y, x)
        f2 = spec2.conditional_density(y, x)
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
    """Binary code of length m; rows of words are the codewords (MSB first)."""

    m: int
    words: np.ndarray

    def __post_init__(self):
        w = np.array(self.words, dtype=np.uint8)  # a fresh copy for any input
        w.flags.writeable = False
        object.__setattr__(self, "words", w)

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
    code = np.zeros(1, dtype=np.int64)
    for b, _ in basis:
        code = np.concatenate([code, code ^ b])
    # Each word shifted to the top of 4 big-endian bytes, so its m bits unpack first, MSB first.
    packed = (code << (32 - m)).astype(">u4").view(np.uint8).reshape(-1, 4)
    return Codebook._own(m, np.unpackbits(packed, axis=1, count=m))


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
