"""
Hitting-time coincidence as n grows
===================================

In a 2-dimensional face process, M1 is the step at which the last isolated
edge gets covered and M2 the step at which H^1 vanishes.  An isolated edge
carries a nonzero cocycle, so M2 >= M1 always; the sharp threshold says
M1 == M2 with probability tending to one.

cohomology_hitting finds M1 by a block scan and then asks whether the
boundary's gram at the M1 prefix has full rank C(n-1, 2).  One shifted
float64 Cholesky of that gram proves it, and M2 == M1 then holds outright;
a batch mod-p rank decides only when the Cholesky fails, and only the
processes with M2 > M1 pay for a gallop-and-bisect search over later
prefixes.

For each n the table gives the M1 == M2 rate over 20 processes and the
median seconds per trial on the machine that runs it (numpy's BLAS at its
default thread count).  n = 100 is included because a trial there takes
seconds, not minutes; its gram is 4851 x 4851 float64, about 188 MB.
"""
import statistics
import time

from spectop.complexes import FaceProcess
from spectop.criteria import cohomology_hitting
from spectop.seeding import derive_seed

SEEDS = 20

print("n     M1 == M2   median s/trial   max s/trial")
for n in (25, 40, 60, 100):
    equal = 0
    seconds = []
    for i in range(SEEDS):
        seed = derive_seed(8, i)
        t0 = time.perf_counter()
        h = cohomology_hitting(FaceProcess(n, 2, seed=seed), seed=seed)
        seconds.append(time.perf_counter() - t0)
        equal += h.M1 == h.M2
    print(f"{n:<5} {equal:>2}/{SEEDS}      {statistics.median(seconds):>8.3f}"
          f"         {max(seconds):>8.3f}")
