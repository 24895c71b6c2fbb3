"""
The critical window: Betti numbers count isolated faces
=======================================================

At density p(n, c) chosen so that the expected number of isolated
(d-1)-faces is e^{-c}/d!, the count converges to a Poisson law, and the
(d-1)-st Betti number agrees with the isolated count: every cohomology
class is carried by an isolated face, the rest of the complex contributes
nothing.  Here d=2, c=0, so the limit is Poisson(1/2).
"""
import math
from collections import Counter

from spectop.complexes import isolated_faces, sample_complex, window_density
from spectop.homology import betti_dminus1
from spectop.seeding import derive_seed

n, d, c = 40, 2, 0.0
p = window_density(n, d, c)
print(f"window density p({n}, d={d}, c={c}) = {p:.6f}")

trials = 300
counts = Counter()
agree = 0
for i in range(trials):
    seed = derive_seed(8, i)
    y = sample_complex(n, d, p, seed=seed)
    iso = isolated_faces(y).isolated_count
    b = betti_dminus1(y, seed=seed)
    counts[iso] += 1
    agree += b == iso

print(f"betti == isolated count in {agree}/{trials} samples")
print()
lam = math.exp(-c) / math.factorial(d)
print("k   observed   Poisson(1/2)")
for k in range(max(counts) + 1):
    pk = math.exp(-lam) * lam**k / math.factorial(k)
    print(f"{k}   {counts.get(k, 0) / trials:<10.4f} {pk:.4f}")
