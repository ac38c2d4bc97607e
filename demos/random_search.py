"""
Randomized discovery of new convergent formulas
===============================================

Draws random seed vectors, pushes each one downhill on the maximal root
magnitude of its characteristic polynomial, and keeps the distinct formulas
whose roots end up inside the closed unit disk.  Four outer runs at
(k, s) = (4, 4) take well under a second and net about a dozen distinct
order-6 formulas.
"""

import time
from collections import Counter

from fdforge import Dimensions, SearchConfig, analyze_formula, discover

config = SearchConfig(dims=Dimensions(4, 4), runs=4, restarts=10, rng_seed=5)
t0 = time.time()
result = discover(config)
dt = time.time() - t0

print(f"{result.attempts} minimizer starts, {len(result.candidates)} distinct "
      f"convergent formulas, {dt:.1f}s\n")

for cand in result.candidates[:8]:
    p = " ".join(f"{v:+.4f}" for v in cand.formula.p)
    print(f"run {cand.outer_index}.{cand.inner_index}  "
          f"second |root| {analyze_formula(cand.formula).second_magnitude:.4f}  p = {p}")
if len(result.candidates) > 8:
    print(f"... and {len(result.candidates) - 8} more")

# failed runs still report where the maximal root magnitude got stuck;
# the plateaus hover slightly above 1, never below
if result.failure_plateaus:
    hist = Counter(round(v, 3) for v in result.failure_plateaus)
    print("\nfailure plateaus:")
    for level in sorted(hist):
        print(f"   ~{level:.3f}  x{hist[level]}")
else:
    print("\nno failed runs this time")
