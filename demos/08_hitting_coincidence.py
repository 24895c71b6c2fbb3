"""
Hitting-time coincidence as n grows
===================================

In a 2-dimensional face process, M1 is the step at which the last isolated
edge gets covered and M2 the step at which H^1 vanishes.  An isolated edge
carries a nonzero cocycle, so M2 >= M1 always; the sharp threshold says
M1 == M2 with probability tending to one.

cohomology_hitting finds M1 by a block scan and then asks whether the
boundary's gram at the M1 prefix has full rank C(n-1, 2).  One shifted
float64 Cholesky of that gram proves it, and M2 == M1 then holds outright.
When the Cholesky fails, one mod-p elimination of the same gram either
finds it nonsingular or yields a basis of the surviving cocycles, and one
pass over the later arrivals removes a cocycle each time a face kills one.
The face that kills the last is M2, proved by a rank certificate there and
by an integer cocycle, lifted from the last survivor, that the prefix one
face shorter still carries.

For each n the table gives the M1 == M2 rate over 100 processes, the median
and maximum seconds per trial on the machine that runs it (numpy's BLAS at
its default thread count), and the obstruction census: for each process
with M2 > M1, the number of edges in the support of that integer cocycle
(small supports are the small obstructions the sharp threshold predicts
just past M1).  At n = 100 the gram is 4851 x 4851 float64, about 188 MB.
"""
import statistics
import time

import numpy as np

from spectop.complexes import FaceProcess
from spectop.criteria import _streamed_m2, cohomology_hitting
from spectop.seeding import derive_seed

SEEDS = 100

print("n     M1 == M2   median s/trial   max s/trial   witness support (M2 > M1)")
for n in (25, 40, 60, 100):
    equal = 0
    seconds = []
    supports = []
    for i in range(SEEDS):
        seed = derive_seed(8, i)
        t0 = time.perf_counter()
        h = cohomology_hitting(FaceProcess(n, 2, seed=seed), seed=seed)
        seconds.append(time.perf_counter() - t0)
        equal += h.M1 == h.M2
        if h.M2 > h.M1:
            found = _streamed_m2(FaceProcess(n, 2, seed=seed), h.M1, seed)
            supports.append("-" if found is None else str(np.count_nonzero(found[1])))
    print(f"{n:<5} {equal:>3}/{SEEDS}    {statistics.median(seconds):>8.3f}"
          f"         {max(seconds):>8.3f}      {', '.join(supports) or '-'}")
