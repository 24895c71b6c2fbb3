"""
Certifying a spectral gap from degree and seminorm statistics
=============================================================

The audit checks three degree/discrepancy statistics (C1, C2, C3) plus
structural conditions on the low-degree "fuzz" (vertices of degree <= d/M).
When the fuzz conditions hold, a closed-form bound on the gap is certified.
The bound is deterministic: whenever it is issued it dominates the measured
gap, no matter the graph.
"""
import math
from dataclasses import asdict
from itertools import combinations

from spectop.audit import audit
from spectop.graphs import GraphParams, erdos_renyi, from_edges
from spectop.spectral import giant_gap

n, coeff = 600, 2.0
p = coeff * math.log(n) / n
d = (n - 1) * p
g = erdos_renyi(GraphParams(n, p, seed=3))

report = audit(g, d, M=10.0)
measured = giant_gap(g).lambda_abs

for field, value in asdict(report).items():
    print(f"{field:>16} {value}")
print(f"{'measured_gap':>16} {measured}")
print()
print(f"certified bound {report.certified_bound:.3f} vs measured gap {measured:.3f}")
print()

# a graph the audit refuses to certify: a clique with a pendant edge hung
# off to the side.  Both pendant endpoints have degree 1 <= d/M, so the fuzz
# is not an independent set and no bound is issued.
edges = list(combinations(range(30), 2)) + [(30, 31)]
bad = from_edges(32, edges)
rep = audit(bad, 2.0 * bad.edge_count / bad.n, M=10.0)
print(f"clique + pendant edge: fuzz_independent={rep.fuzz_independent}, "
      f"certified_bound={rep.certified_bound}")
