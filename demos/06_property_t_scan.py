"""
Link certificates and the structure of the fundamental group
============================================================

For a 2-complex with full 1-skeleton, two local-spectral certificates apply:

  garland_check - every codimension-2 link has lambda_2 > 1 - 1/d and the
                  stripped complex is pure; forces vanishing cohomology.
  zuk_check     - every vertex link is connected with lambda_2 > 1/2;
                  forces property (T) of the fundamental group of the
                  complex stripped of its isolated edges.

t_structure combines zuk_check with an isolated-edge count: when fewer than
n-1 edges are isolated, the stripped complex stays connected, and the
fundamental group splits as (T) group * free group, one generator per
isolated edge.
"""
from spectop.complexes import sample_complex
from spectop.criteria import t_hitting, t_structure, zuk_check
from spectop.complexes import FaceProcess

import numpy as np

# dense draws certify; the verdict names what was established
for n, p, seed in ((25, 0.60, 1), (25, 0.60, 2), (30, 0.55, 5)):
    y = sample_complex(n, 2, p, seed=seed)
    rep = t_structure(y)
    z = rep.zuk_on_stripped
    print(f"n={n} p={p} seed={seed}: isolated_edges={rep.isolated_edges} "
          f"min_link_lambda2={z.min_link_lambda2:.3f} verdict={rep.verdict} "
          f"free_rank={rep.free_rank}")
print()

# a built example with a genuinely free generator: take the full 2-skeleton
# on 8 vertices and delete every triangle containing the edge {6, 7}.  That
# edge becomes isolated while every vertex keeps a dense link.
from itertools import combinations  # noqa: E402

from spectop.complexes import complex_from_faces  # noqa: E402

faces = [f for f in combinations(range(8), 3) if not {6, 7} <= set(f)]
y = complex_from_faces(8, 2, faces)
rep = t_structure(y)
print(f"pendant-edge complex: isolated_edges={rep.isolated_edges} "
      f"verdict={rep.verdict} free_rank={rep.free_rank}")
print()

# along the face process, scan a coarse grid for the first certified prefix
n = 16
proc = FaceProcess(n, 2, seed=9)
grid = sorted(set(int(x) for x in np.linspace(0, proc.total, 12)))
h = t_hitting(proc, grid)
print(f"process on n={n}: {proc.total} faces, grid {grid}")
print(f"no isolated edge after M1={h.M1}; first certified prefix M2T={h.M2T}")
if h.M2T is not None:
    frac = h.M2T / proc.total
    print(f"certification at {frac:.0%} of the process")
y = proc.prefix(h.M2T if h.M2T is not None else proc.total)
print(f"zuk at that prefix: {zuk_check(y)}")
