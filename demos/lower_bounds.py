"""Numeric checks behind the hardness constructions.

Three ingredients: hat perturbations whose Hellinger cost scales like the
analytic bound says, a greedy binary code giving exponentially many well
separated perturbation patterns, and the localization lemma pinning down
where each perturbation moves the optimal price.
"""

from kmarkets import (
    gilbert_varshamov,
    kl_divergence,
    lemma_c3_check,
    marginal_perturbation_report,
    packing_price_separation,
)
from kmarkets.families import Packing

print("== marginal hat bump: squared Hellinger vs (2 sqrt 2 / 3) a^2 d^3 ==")
print("  a     delta   hellinger^2    bound        ratio")
for a in (0.5, 1.0, 1.5):
    for d in (0.01, 0.05, 0.1):
        rep = marginal_perturbation_report(a, d)
        print(
            f"{a:4.1f}   {d:.2f}   {rep.hellinger_sq:.3e}   "
            f"{rep.analytic_bound:.3e}   {rep.hellinger_sq / rep.analytic_bound:.3f}"
        )
print()

print("== packing construction: KL and price separation vs bin count m ==")
print("   m    KL(bumped, flat)   price L2 gap")
for m in (8, 16, 32):
    base = Packing(m=m, a=1.0, alpha=tuple([0] * m))
    bump = Packing(m=m, a=1.0, alpha=tuple(1 if i % 8 == 0 else 0 for i in range(m)))
    kl = kl_divergence(bump, base)
    sep = packing_price_separation(m, 1.0, bump.alpha, base.alpha)
    print(f"{m:4d}    {kl:.3e}          {sep:.3e}")
print("KL falls like m^-3 while the separation only falls like m^-1,")
print("which is what makes the packing argument work.")
print()

print("== codebooks: words at pairwise Hamming distance >= ceil(m/8) ==")
for m in (8, 16, 24):
    cb = gilbert_varshamov(m)
    print(f"m={m:3d}: {cb.words.shape[0]} words")
print()

print("== localization lemma: optimal price trapped by the bump sign ==")
for b in (-1.0, 1.0):
    for d in (0.01, 0.02):
        res = lemma_c3_check(b, d)
        lo, hi = res.interval
        print(
            f"b={b:+.1f} delta={d:.3f}: p*={res.p_star:.6f} "
            f"in [{lo:.6f}, {hi:.6f}] -> {res.inside}"
        )
