"""Where fixed 4-market segmentation starts beating a single learned price.

Both strategies see identical datasets at every repetition, so the revenue
difference at each n is a paired comparison.  Segmentation pays a variance
cost at small n (four prices fitted from quarter-sized bins) and collects
the discrimination gain once the bins have enough data.

The gap is printed in unpaired standard-error units, hypot(se_u, se_k):
the curves carry each arm's own standard error, not that of the paired
difference.
"""

import math

from kmarkets import PowerSimulated, crossing_scan

SIZES = [2 ** e for e in range(6, 15)]

res = crossing_scan(PowerSimulated(), SIZES, k=4, reps=300, base_seed=1729)

print("     n   uniform rev   k=4 rev      gap (unpaired se units)")
for u, k in zip(res.uniform_curve, res.kmarkets_curve):
    gap = u.mean_revenue - k.mean_revenue
    se = math.hypot(u.std_error, k.std_error)
    print(f"{u.n:6d}   {u.mean_revenue:.6f}    {k.mean_revenue:.6f}   {gap / se:+6.1f}")

if res.n_crossing is None:
    print("no crossing inside the scanned range")
else:
    print(f"k=4 first matches the single price at n = {res.n_crossing}")
