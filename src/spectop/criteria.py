"""Link certificates and hitting-time scans over face processes.

The two certificates read spectral gaps off the links of a complex:
enough expansion in every codimension-2 link kills the top rational
cohomology, and enough expansion in every vertex link (dimension 2)
certifies property (T) of the fundamental group.  Certificates are
sufficient conditions, so verdicts are certified/inconclusive, never
refuted.  The hitting scans walk a face process once and record the
first index at which each property holds.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

# link and induced_subgraph are not called here any more; perfbench/tracing.py
# patches both names in this module, and exits when one is missing.
from .complexes import (  # noqa: F401
    Complex,
    FaceProcess,
    _positive_link,
    binom_table,
    facet_ranks,
    is_pure,
    isolated_faces,
    link,
    unrank_faces,
)
from .graphs import from_edges, induced_subgraph  # noqa: F401
from .homology import boundary_matrix, reaches_rank
from .spectral import ZERO_TOL, GapResult, full_spectrum, gap, normalized_laplacian

CERTIFIED = "certified_T_free_product"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GarlandReport:
    """Minimum link lambda_2 over codimension-2 faces, with the verdict."""

    min_link_lambda2: Optional[float]
    pure: bool
    certified: bool
    worst_face: Optional[tuple]


@dataclass(frozen=True)
class ZukReport:
    all_links_connected: bool
    min_link_lambda2: Optional[float]
    certified: bool


@dataclass(frozen=True)
class StructureVerdict:
    """Verdict on the free-product shape of the fundamental group.

    Under the certified verdict the group splits as a (T) factor times a
    free factor with one generator per isolated edge, so isolated_edges
    doubles as the free rank.
    """

    isolated_edges: int
    skeleton_connected: bool
    zuk_on_stripped: ZukReport
    verdict: str

    @property
    def free_rank(self) -> int:
        return self.isolated_edges


@dataclass(frozen=True)
class HittingReport:
    """First process indices at which each tracked property holds.

    M1: no isolated (d-1)-face remains.  M2: the top reduced Betti number
    reaches zero (dimension >= 2) or the graph connects (dimension 1,
    where it coincides with tau_c_index).  M2T: first structure-certified
    index found by the grid scan.  gap is filled by the dimension-1 scan.
    """

    M1: Optional[int] = None
    M2: Optional[int] = None
    M2T: Optional[int] = None
    tau_c_index: Optional[int] = None
    gap: Optional[GapResult] = None


def link_lambda2(y: Complex, f) -> Optional[Tuple[float, bool]]:
    """(lambda_2, connected) of lk(f) on its positive-degree vertices.

    None when the link has no edges at all.  Zero-degree link vertices
    are discarded before the eigensolve: each one is a kernel dimension
    that says nothing about the expansion of the rest.
    """
    lk = _positive_link(y, f)
    if lk.n == 0:
        return None
    vals = full_spectrum(normalized_laplacian(lk)).eigenvalues
    connected = int(np.count_nonzero(vals < ZERO_TOL)) == 1
    return float(vals[1]), connected


def garland_check(y: Complex) -> GarlandReport:
    """Certificate that the stripped complex's top rational cohomology dies.

    Purity of the stripped complex (every (d-2)-face under some d-face;
    stripping already guarantees it for the kept (d-1)-faces) plus
    lambda_2 > 1 - 1/d in every nonempty codimension-2 link.
    """
    if y.d < 2:
        raise ValueError("link certificates need dimension >= 2")
    pure = is_pure(y)
    worst: Optional[float] = None
    worst_face: Optional[tuple] = None
    for f in combinations(range(y.n), y.d - 1):
        got = link_lambda2(y, f)
        if got is None:
            continue
        lam2, _ = got
        if worst is None or lam2 < worst:
            worst, worst_face = lam2, f
    if worst is None:
        return GarlandReport(None, pure, False, None)
    certified = pure and worst > 1.0 - 1.0 / y.d
    return GarlandReport(worst, pure, certified, worst_face)


def _zuk_vertex(y: Complex, v: int) -> Tuple[Optional[Tuple[float, bool]], bool]:
    """(link_lambda2 of vertex v, whether the link passes Zuk's clause).

    The clause: the link has edges, is connected and has lambda_2 > 1/2.
    """
    got = link_lambda2(y, (v,))
    return got, got is not None and got[1] and got[0] > 0.5


def zuk_check(y: Complex) -> ZukReport:
    """Every vertex link connected with lambda_2 > 1/2, read on Y-tilde.

    A vertex link restricted to its positive-degree vertices is the same
    graph before and after stripping isolated edges, since a kept edge at
    v always arrives inside a triangle at v.  A vertex whose link has no
    edges fails the connectivity clause outright.
    """
    if y.d != 2:
        raise ValueError("vertex-link certificate is for dimension 2")
    all_connected = True
    all_pass = True
    worst: Optional[float] = None
    for v in range(y.n):
        got, ok = _zuk_vertex(y, v)
        all_pass = all_pass and ok
        if got is None:
            all_connected = False
            continue
        lam2, connected = got
        all_connected = all_connected and connected
        if worst is None or lam2 < worst:
            worst = lam2
    return ZukReport(all_connected, worst, all_pass)


def t_structure(y: Complex) -> StructureVerdict:
    """Free-product verdict for a dimension-2 complex.

    Fewer than n-1 isolated edges cannot disconnect the complete
    1-skeleton, so stripping them leaves a connected complex; with Zuk
    certified on it, each stripped edge contributes one free generator
    alongside a (T) factor.
    """
    if y.d != 2:
        raise ValueError("structure verdict is for dimension 2")
    isolated = isolated_faces(y).isolated_count
    skeleton_connected = isolated < y.n - 1
    zuk = zuk_check(y)
    verdict = CERTIFIED if skeleton_connected and zuk.certified else INCONCLUSIVE
    return StructureVerdict(isolated, skeleton_connected, zuk, verdict)


def _certified(y: Complex) -> bool:
    """t_structure(y).verdict == CERTIFIED, stopping at the first failing link.

    Links are visited sparsest first (ascending face load), since a sparse
    link is the likeliest to fail; every link a verdict reads is still the
    same residual-checked eigensolve.
    """
    if isolated_faces(y).isolated_count >= y.n - 1:
        return False
    load = np.bincount(y.faces.ravel(), minlength=y.n)
    return all(_zuk_vertex(y, int(v))[1] for v in np.argsort(load, kind="stable"))


def _arrival_blocks(proc: FaceProcess) -> Iterator[Tuple[int, np.ndarray]]:
    """(lo, faces): arrivals lo+1 .. lo+len(faces) as sorted rows.

    Arrivals are drawn and unranked 1024 at a time, so a scan that stops
    early has drawn at most one block past where it stopped.
    """
    table = binom_table(proc.n, proc.d + 1)
    lo = 0
    while lo < proc.total:
        hi = min(lo + 1024, proc.total)
        yield lo, unrank_faces(proc.first(hi)[lo:], proc.d + 1, table)
        lo = hi


def _arrivals(proc: FaceProcess) -> Iterator[Tuple[int, np.ndarray]]:
    """(m, face) for the m-th arrival, m = 1..total, in arrival order."""
    for lo, faces in _arrival_blocks(proc):
        yield from enumerate(faces, start=lo + 1)


def _first_without_isolated(proc: FaceProcess) -> Optional[int]:
    """M1: the arrival that covers the last uncovered (d-1)-face.

    Each block's facets are ranked at once; np.unique's first index says
    where in the block each facet is first covered.
    """
    table = binom_table(proc.n, proc.d + 1)
    covered = np.zeros(int(table[proc.n, proc.d]), dtype=bool)
    uncovered = covered.size
    for lo, faces in _arrival_blocks(proc):
        ranks, first = np.unique(facet_ranks(faces, table), return_index=True)
        new = ~covered[ranks]
        if np.count_nonzero(new) == uncovered:
            return lo + 1 + int(first[new].max()) // (proc.d + 1)
        covered[ranks] = True
        uncovered -= int(np.count_nonzero(new))
    return None


def cohomology_hitting(proc: FaceProcess, seed: int = 0) -> HittingReport:
    """When the last isolated (d-1)-face dies (M1) and when H^{d-1} dies (M2).

    M1 comes from the block scan of _first_without_isolated.  M2 is the
    first prefix whose boundary rank reaches C(n-1, d), decided by
    homology.reaches_rank on the gram of the prefix's boundary matrix.  An
    isolated (d-1)-face carries a nonzero cocycle, so M2 >= M1, and one
    rank at M1 that reaches the target proves M2 = M1 exactly.  Otherwise
    the rank, monotone in m, is searched by galloping from M1 and then
    bisecting; each "not yet" verdict has failed at two primes, the only
    direction in which a mod-p rank can be wrong.  Both times exist because
    the complete complex has neither obstruction.
    """
    if proc.d < 2:
        raise ValueError("cohomology scan needs dimension >= 2")
    target = math.comb(proc.n - 1, proc.d)

    def spans(m: int) -> bool:
        return reaches_rank(boundary_matrix(proc.prefix(m)), target, seed)

    m1 = _first_without_isolated(proc)
    lo, hi, step = m1 - 1, m1, 1
    while hi < proc.total and not spans(hi):
        lo, hi, step = hi, min(hi + step, proc.total), 2 * step
    # the rank reaches the target at hi (the complete complex, at worst) and not at lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if spans(mid) else (mid, hi)
    return HittingReport(M1=m1, M2=hi)


def t_hitting(proc: FaceProcess, grid: Sequence[int]) -> HittingReport:
    """Grid scan for the first structure-certified index of a process.

    Certification is not monotone in m (each new face reshapes link
    spectra), so a sorted grid is evaluated left to right and the bracket
    between the last inconclusive and the first certified grid point is
    refined one index at a time.  Each index is decided by _certified,
    which stops at the first failing vertex link.  M1 reports the
    isolated-edge version.
    """
    if proc.d != 2:
        raise ValueError("structure scan is for dimension 2")
    grid = [int(m) for m in grid]
    if not grid:
        raise ValueError("grid must not be empty")
    if grid != sorted(grid) or grid[0] < 0 or grid[-1] > proc.total:
        raise ValueError("grid must be sorted within [0, total]")

    m1 = _first_without_isolated(proc)
    m2t = None
    last_inconclusive = None
    for g in grid:
        if not _certified(proc.prefix(g)):
            last_inconclusive = g
            continue
        start = g if last_inconclusive is None else last_inconclusive + 1
        for m in range(start, g + 1):
            if _certified(proc.prefix(m)):
                m2t = m
                break
        break
    return HittingReport(M1=m1, M2T=m2t)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        return True


def graph_connectivity_hitting(proc: FaceProcess) -> HittingReport:
    """Edge-process scan: connection time tau_c and the gap right there.

    Union-find tracks the component count edge by edge; the first
    single-component prefix is tau_c, where the graph is connected by
    construction and its gap is measured.  M1 is the death time of the
    last isolated vertex, M2 coincides with tau_c (zero-th reduced Betti
    number hitting zero is exactly connectivity).
    """
    if proc.d != 1:
        raise ValueError("connectivity scan is for dimension 1")
    n = proc.n
    uf = _UnionFind(n)
    degree = np.zeros(n, dtype=np.int64)
    zero_deg = n
    m1 = tau = None
    for m, (u, v) in _arrivals(proc):
        for w in (int(u), int(v)):
            if degree[w] == 0:
                zero_deg -= 1
            degree[w] += 1
        if m1 is None and zero_deg == 0:
            m1 = m
        uf.union(int(u), int(v))
        if tau is None and uf.components == 1:
            tau = m
        if m1 is not None and tau is not None:
            break
    gr = gap(from_edges(n, proc.prefix(tau).faces))
    return HittingReport(M1=m1, M2=tau, tau_c_index=tau, gap=gr)
