"""
Hitting times in random face processes
======================================

A face process adds the C(n, d+1) top faces of a complete (d-1)-skeleton one
at a time in uniform random order.  Two stopping times matter:

  M1 - the first step with no isolated (d-1)-face left, and
  M2 - the first step where the degree-(d-1) cohomology vanishes,
       tracked as the boundary matrix reaching rank C(n-1, d).

M2 >= M1 always (an isolated face is a cohomological obstruction); the
surprise is how often they are literally equal.  So M1 comes from one block
scan over the arrivals, and M2 from a search over prefixes that starts at
M1: one rank at M1 settles the common case M2 = M1.  The d=1 case is the
classical graph process: an isolated vertex disconnects the graph, so the
same search from M1 finds the connectivity time tau_c.
"""
from spectop.complexes import FaceProcess
from spectop.criteria import cohomology_hitting, graph_connectivity_hitting
from spectop.seeding import derive_seed

n, d = 20, 2
print(f"face process on n={n}, d={d}: {FaceProcess(n, d).total} faces total")
print("seed   M1    M2    equal")
equal = 0
for i in range(10):
    seed = derive_seed(5, i)
    h = cohomology_hitting(FaceProcess(n, d, seed=seed), seed=seed)
    equal += h.M1 == h.M2
    print(f"{i:<5} {h.M1:<5} {h.M2:<5} {h.M1 == h.M2}")
print(f"agreement: {equal}/10")
print()

# d=1: isolated-vertex death vs connectivity, plus the gap at tau_c
n = 400
print(f"graph process on n={n}: last isolated vertex vs connectivity time")
print("seed   M1    tau_c  gap(tau_c)  gap*sqrt(log n)")
import math  # noqa: E402

for i in range(5):
    h = graph_connectivity_hitting(FaceProcess(n, 1, seed=derive_seed(5, i)))
    scaled = h.gap.lambda_abs * math.sqrt(math.log(n))
    print(f"{i:<5} {h.M1:<5} {h.tau_c_index:<6} {h.gap.lambda_abs:.4f}      {scaled:.3f}")
