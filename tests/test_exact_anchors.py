"""Monte Carlo deficiencies against values derived by hand.

Under ``UniformJoint`` the valuation is U[0, 1] and independent of the
covariate, so posting p earns r(p) = p (1 - p) at every x.  The best single
price and the best per-covariate policy both post 1/2 and earn 1/4, and a
fitted rule's deficiency is 1/4 minus its expected revenue.  The Simpson
rule is exact here: r is quadratic in p, and the K-markets rule is aligned
with the markets, so the only error left is Monte Carlo error.

- Uniform ERM at n = 1 posts the one value Y ~ U[0, 1] and earns
  E[Y (1 - Y)] = 1/2 - 1/3 = 1/6: the deficiency is 1/4 - 1/6 = 1/12.
- Uniform ERM at n = 2 sees order statistics a < b with joint density 2.
  The empirical revenues are a (both buy) and b/2, so it posts a when
  a >= b/2 (ties go to the lower price) and b otherwise.  For fixed b,
  int_{b/2}^{b} a (1 - a) da = 3b^2/8 - 7b^3/24 and the posted-b part adds
  (b/2) b (1 - b) = b^2/2 - b^3/2, together 7b^2/8 - 19b^3/24.  Then
  2 int_0^1 (7b^2/8 - 19b^3/24) db = 2 (7/24 - 19/96) = 3/16, and the
  deficiency is 1/4 - 3/16 = 1/16.
- K-markets with k = 2 at n = 2: with probability 1/2 the two covariates
  fall in different halves, both markets fill, and each half posts its one
  value, earning 1/6 as at n = 1.  Otherwise one half is empty, the
  countdown drops to one market, and uniform ERM on two points earns 3/16.
  Expected revenue is 1/12 + 3/32 = 17/96, so the deficiency is 7/96.

Welfare posts p to every covariate and counts the value of each sale, so
W(p) = int_p^1 y dy = (1 - p^2)/2.  The uniform class optimum p = 1/2 gives
W* = 3/8, and a fitted rule's welfare deficiency is E|W* - W(p_hat)|.

- Uniform ERM at n = 1 posts Y ~ U[0, 1], so the deficiency is
  E|1/8 - Y^2/2| = int_0^{1/2} (1/8 - p^2/2) dp + int_{1/2}^1 (p^2/2 - 1/8) dp
  = 1/24 + 1/12 = 1/8.

Each check allows 4 standard errors at a seed fixed before the test was
first run.
"""

import pytest

from kmarkets import UniformJoint, kmarkets_strategy, revenue_deficiency, uniform_strategy, welfare_deficiency

REPS = 20_000


@pytest.mark.parametrize(
    "strategy, n, exact, seed",
    [
        (uniform_strategy(), 1, 1 / 12, 101),
        (uniform_strategy(), 2, 1 / 16, 102),
        (kmarkets_strategy(k=2), 2, 7 / 96, 103),
    ],
    ids=["uniform-n1", "uniform-n2", "k2-n2"],
)
def test_deficiency_matches_its_exact_value(strategy, n, exact, seed):
    point = revenue_deficiency(UniformJoint(), strategy, n, REPS, seed)
    assert point.reps == REPS
    assert abs(point.mean_deficiency - exact) <= 4.0 * point.std_error


def test_welfare_deficiency_matches_its_exact_value():
    point = welfare_deficiency(UniformJoint(), uniform_strategy(), 1, REPS, 104)
    assert point.reps == REPS
    assert abs(point.mean_deficiency - 1 / 8) <= 4.0 * point.std_error
