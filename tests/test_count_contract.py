"""Every count is checked alike, and every hat family's coefficient has x's shape.

A count (sample size, market count, replications, workers, grid sizes, the
packing's m bins) must be an integer, not a bool, of at least the site's
lower bound; each site names its subject in one message form.  The hat laws
are 1 + c(x) phi_y((y - 1/2) / s) with c(x) of x's shape, and the uniform
perturbation, whose c is constant, must give the same bytes as the
broadcast-after form it replaced, kept here as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kmarkets import Dataset, KMarkets, Packing, PerturbedConditional, PerturbedUniform, UniformJoint
from kmarkets import concavity_margin, k_markets_erm, k_schedule, optimal_3pd_policy, revenue_deficiency
from kmarkets import uniform_strategy, validate_density
from kmarkets.experiment import Strategy
from kmarkets.families import _HAT_T_SLOPES, ParameterDomainError, _phi_y_int, phi_y, sample_rows

# site -> (call with the probed count, the subject its message names, its lower bound)
SITES = {
    "Packing": (lambda v: Packing(m=v, a=1.0, alpha=(0,) * 8), "m", 8),
    "sample_rows": (lambda v: sample_rows(UniformJoint(), v, [1]), "sample size", 1),
    "validate_density": (lambda v: validate_density(UniformJoint(), v), "x_grid_size", 2),
    "KMarkets": (lambda v: KMarkets(k=v, prices=(0.5,)), "market count", 1),
    "k_markets_erm": (lambda v: k_markets_erm(Dataset(y=[0.5], x=[0.5]), v), "k", 1),
    "k_schedule": (lambda v: k_schedule(v), "sample size", 1),
    "k_schedule-fixed": (lambda v: k_schedule(16, "fixed", v), "fixed market count", 1),
    "optimal_3pd_policy": (lambda v: optimal_3pd_policy(UniformJoint(), v), "x_grid_size", 2),
    "Strategy": (lambda v: Strategy(kind="kmarkets", k=v), "market count", 1),
    "replications": (lambda v: revenue_deficiency(UniformJoint(), uniform_strategy(), 8, v, 0), "replications", 1),
    "workers": (lambda v: revenue_deficiency(UniformJoint(), uniform_strategy(), 8, 1, 0, workers=v), "workers", 1),
    "concavity_margin": (lambda v: concavity_margin(1.0, 0.1, v), "grid_size", 3),
}


def _probes(lo):
    return {"0": 0, "lo-1": lo - 1, "2.5": 2.5, "float(lo)": float(lo), "True": True, "'3'": "3", "None": None}


# Strategy's k is optional: None there asks for a schedule instead of a count.
CASES = [(site, probe) for site in SITES for probe in _probes(1) if (site, probe) != ("Strategy", "None")]


@pytest.mark.parametrize("site, probe", CASES)
def test_every_count_site_rejects_a_value_that_is_not_a_count(site, probe):
    call, what, lo = SITES[site]
    with pytest.raises(ParameterDomainError) as exc:
        call(_probes(lo)[probe])
    assert str(exc.value) == f"{what} must be an integer >= {lo}"


@pytest.mark.parametrize("site", SITES)
def test_every_count_site_accepts_a_numpy_integer_at_its_bound(site):
    call, _, lo = SITES[site]
    try:
        call(np.int64(lo))
    except ParameterDomainError as exc:  # three grid points leave every second difference at a kink
        assert site == "concavity_margin" and "clear of the density kinks" in str(exc)


HATS = [
    PerturbedUniform(a=1.0, delta=0.1),
    PerturbedConditional(a=1.0, delta=0.1, x0=0.3),
    Packing(m=8, a=1.0, alpha=(1, 0, 1, 1, 0, 0, 1, 0)),
]


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)], ids=str)
@pytest.mark.parametrize("spec", HATS, ids=lambda s: type(s).__name__)
def test_hat_coefficient_has_the_covariates_shape(spec, shape):
    x = np.linspace(0.05, 0.95, int(np.prod(shape))).reshape(shape)
    coef = spec.coef(x)
    assert np.shape(coef) == shape
    if not shape:
        assert isinstance(coef, float) and isinstance(spec.coef(0.3), float)


class _BroadcastAfter:
    """The uniform perturbation as written with a scalar coefficient, broadcast after the fact."""

    def __init__(self, spec):
        self.c, self.s, self.edges = spec.a * spec.delta, spec.scale, spec.y_knots

    @staticmethod
    def _broadcast_to_args(vals, y, x):
        shape = np.broadcast_shapes(y.shape, x.shape)
        return vals if np.shape(vals) == shape else np.broadcast_to(vals, shape).copy()

    def conditional_density(self, y, x):
        y, x = np.asarray(y, float), np.asarray(x, float)
        return self._broadcast_to_args(1.0 + self.c * phi_y((y - 0.5) / self.s), y, x)

    def conditional_cdf(self, y, x):
        y, x = np.asarray(y, float), np.asarray(x, float)
        s = self.s
        return self._broadcast_to_args(y + self.c * s * _phi_y_int((y - 0.5) / s), y, x)

    def ppf(self, u, x):
        u, x = np.broadcast_arrays(np.asarray(u, float), np.asarray(x, float))
        s, edges, shape = self.s, self.edges, u.shape
        coef = np.broadcast_to(np.asarray(self.c, dtype=float), shape).ravel()
        u = u.ravel()
        f_edges = edges[:, None] + coef[None, :] * s * _phi_y_int((edges[:, None] - 0.5) / s)
        seg = np.clip((f_edges <= u[None, :]).sum(axis=0) - 1, 0, edges.size - 2)
        left = edges[seg]
        a0 = 1.0 + coef * phi_y((left - 0.5) / s)
        slope = coef * _HAT_T_SLOPES[seg] / s
        q = np.maximum(u - np.take_along_axis(f_edges, seg[None, :], axis=0)[0], 0.0)
        disc = np.sqrt(np.maximum(a0 * a0 + 2.0 * slope * q, 0.0))
        w = 2.0 * q / (a0 + disc)
        return np.clip(left + w, 0.0, 1.0).reshape(shape)

    def partial_expectation(self, p, x):
        p, x = np.broadcast_arrays(np.asarray(p, float), np.asarray(x, float))
        s, edges = self.s, self.edges
        tail = np.zeros_like(p)
        for l, r in zip(edges[:-1], edges[1:]):
            if r <= l:
                continue
            phi_l = phi_y((l - 0.5) / s)
            slope = (phi_y((r - 0.5) / s) - phi_l) / (r - l)
            a = np.clip(p, l, r)
            sq = 0.5 * (r * r - a * a)
            cu = (r**3 - a**3) / 3.0
            tail += phi_l * sq + slope * (cu - l * sq)
        out = 0.5 * (1.0 - p * p) + self.c * tail
        return out if out.ndim else float(out)


def _same_bytes(new, old):
    assert type(new) is type(old)
    assert np.shape(new) == np.shape(old)
    assert np.asarray(new).tobytes() == np.asarray(old).tobytes()


unit = st.floats(0.0, 1.0)


@settings(deadline=None, max_examples=150)
@given(
    a=st.floats(-1.99, 1.99).filter(lambda a: a != 0.0),
    delta=st.floats(1e-3, 1.0 / 6.0),
    y=arrays(float, st.integers(0, 6), elements=unit),
    x=arrays(float, st.integers(0, 4), elements=st.floats(allow_nan=True, allow_infinity=True)),
    y0=unit,
    x0=unit,
)
def test_uniform_perturbation_matches_the_broadcast_after_form(a, delta, y, x, y0, x0):
    spec = PerturbedUniform(a=a, delta=delta)
    old = _BroadcastAfter(spec)
    grids = [(y[:, None], x[None, :]), (y, x0), (y0, x), (y0, x0), (np.float64(y0), np.array(x0))]
    for method in ("conditional_density", "conditional_cdf", "ppf", "partial_expectation"):
        for yy, xx in grids:
            _same_bytes(getattr(spec, method)(yy, xx), getattr(old, method)(yy, xx))
