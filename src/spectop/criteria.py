"""Link certificates and hitting-time scans over face processes.

The two certificates read spectral gaps off the links of a complex:
enough expansion in every codimension-2 link kills the top rational
cohomology, and enough expansion in every vertex link (dimension 2)
certifies property (T) of the fundamental group.  Certificates are
sufficient conditions, so verdicts are certified/inconclusive, never
refuted.  Both read every link off one incidence pass
(complexes.link_edges) and assemble each link's normalized Laplacian
straight from its edge array.  The hitting scans find the first index at
which each property holds: M1 by a block scan over the arrivals; M2
(vanishing cohomology) by one pass over the arrivals after M1 that tracks a
basis of the surviving cocycles mod p, its answer proved from above by a
rank certificate and from below by an integer cocycle, with a search over
prefixes from M1 as the fallback when a proof fails, each probe one
homology.rank_mod_p call; connectivity by that search; and the structure
verdict by a grid scan.  That scan only needs a yes/no answer per vertex
link (lambda_2 > 1/2), so it asks it of one integer matrix that is
positive definite exactly then, by the shifted Cholesky certificate of
homology._proves_positive_definite; the eigensolve decides only the links
the certificate does not prove.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .complexes import (
    Complex,
    FaceProcess,
    binom_table,
    facet_ranks,
    isolated_faces,
    link_edges,
    unrank_faces,
)
from .graphs import components, from_edges
from .homology import (
    _cocycle_basis,
    _lift,
    _proves_positive_definite,
    boundary_matrix,
    rank_mod_p,
)
from .spectral import ZERO_TOL, GapResult, full_spectrum, gap, laplacian_from_edges

# not called here; perfbench/tracing.py patches these names in this module
# and exits when one is missing
from .complexes import link  # noqa: F401
from .graphs import induced_subgraph  # noqa: F401
from .spectral import normalized_laplacian  # noqa: F401

CERTIFIED = "certified_T_free_product"
INCONCLUSIVE = "inconclusive"

# Zuk's criterion: every vertex link connected with lambda_2 above this
_ZUK_TAU = Fraction(1, 2)


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


def _link_laplacian(edges: np.ndarray) -> np.ndarray:
    """Normalized Laplacian of one nonempty link, from its edge array, on its
    positive-degree vertices relabeled in increasing order."""
    verts = np.unique(edges)
    u, v = np.searchsorted(verts, edges).T
    return laplacian_from_edges(verts.size, u, v)


def link_lambda2(edges: np.ndarray) -> Tuple[float, bool]:
    """(lambda_2, connected) of one nonempty link, given its edge array.

    edges is one group of complexes.link_edges.  The link is built on its
    positive-degree vertices only (_link_laplacian): each zero-degree
    vertex would be a kernel dimension that says nothing about the
    expansion of the rest.
    """
    return _lambda2(_link_laplacian(edges))


def _lambda2(lap: np.ndarray) -> Tuple[float, bool]:
    """(lambda_2, connected) from the residual-checked spectrum of lap."""
    vals = full_spectrum(lap).eigenvalues
    return float(vals[1]), int(np.count_nonzero(vals < ZERO_TOL)) == 1


def _link_gram(lap: np.ndarray, tau: Fraction) -> np.ndarray:
    """The integer matrix G, as float64, whose positive definiteness says
    that the link with normalized Laplacian lap has lambda_2 > tau.

    With tau = a/b, A the adjacency (the negative entries of lap), d the
    degrees, D = diag(d), vol = sum(d) and u = D^{1/2} 1 / sqrt(vol),
    G = vol ((b - a) D - b A) + 2b d d^T = b vol D^{1/2} (L + 2uu^T - tau I) D^{1/2}.
    u spans L's kernel on a connected link, so L + 2uu^T has the spectrum
    of L with that 0 moved to 2, and for 0 < tau < 2 G is positive definite
    iff lambda_2 > tau; a disconnected link keeps a second 0, so a
    positive definite G also proves the link connected.
    """
    a, b = tau.numerator, tau.denominator
    adj = lap < 0
    d = adj.sum(axis=1)
    vol, top = int(d.sum()), int(d.max())
    # bounds every entry and every partial sum below
    assert 2 * b * top * top + vol * (b + abs(b - a) * top) < 2**53, "G must be exact in float64"
    d = d.astype(np.float64)
    g = np.multiply.outer(2 * b * d, d)
    g -= vol * b * adj
    g.ravel()[:: len(d) + 1] += vol * (b - a) * d
    return g


def _exceeds(edges: np.ndarray, tau: Fraction) -> bool:
    """Whether one nonempty link is connected with lambda_2 > tau.

    One Cholesky certificate of _link_gram (homology._proves_positive_definite)
    decides most links; when it fails, the residual-checked eigensolve of
    the same Laplacian decides, as link_lambda2 reads it.  The certificate
    never says True at lambda_2 = tau, where the eigensolve's verdict is
    decided by rounding.
    """
    lap = _link_laplacian(edges)
    if _proves_positive_definite(_link_gram(lap, tau)):
        return True
    lam2, connected = _lambda2(lap)
    return connected and lam2 > tau


def garland_check(y: Complex) -> GarlandReport:
    """Certificate that the stripped complex's top rational cohomology dies.

    Purity of the stripped complex (every (d-2)-face under some d-face;
    stripping already guarantees it for the kept (d-1)-faces) plus
    lambda_2 > 1 - 1/d in every nonempty codimension-2 link.  The worst
    face is the lexicographically first among those of minimal lambda_2.
    """
    if y.d < 2:
        raise ValueError("link certificates need dimension >= 2")
    faces, edges = link_edges(y)
    # a (d-2)-face lies in some d-face exactly when its link is nonempty
    pure = len(faces) == math.comb(y.n, y.d - 1)
    if not edges:
        return GarlandReport(None, pure, False, None)
    # link_edges runs in colex order; tuples break lambda_2 ties in lex order
    worst, worst_face = min(
        (link_lambda2(e)[0], tuple(f)) for f, e in zip(faces.tolist(), edges)
    )
    certified = pure and worst > 1.0 - 1.0 / y.d
    return GarlandReport(worst, pure, certified, worst_face)


def zuk_check(y: Complex) -> ZukReport:
    """Every vertex link connected with lambda_2 > 1/2, read on Y-tilde.

    A vertex link restricted to its positive-degree vertices is the same
    graph before and after stripping isolated edges, since a kept edge at
    v always arrives inside a triangle at v.  A vertex whose link has no
    edges fails the connectivity clause outright.
    """
    if y.d != 2:
        raise ValueError("vertex-link certificate is for dimension 2")
    _, edges = link_edges(y)
    got = [link_lambda2(e) for e in edges]
    all_connected = len(edges) == y.n and all(connected for _, connected in got)
    worst = min((lam2 for lam2, _ in got), default=None)
    return ZukReport(all_connected, worst, all_connected and all(lam2 > 0.5 for lam2, _ in got))


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
    link is the likeliest to fail.  The sparsest is read off the faces
    through its vertex, and only when it passes does complexes.link_edges
    build the others.  Each link is decided by _exceeds at Zuk's 1/2: one
    Cholesky certificate, or when it fails the eigensolve of link_lambda2.
    """
    if isolated_faces(y).isolated_count >= y.n - 1:
        return False
    load = np.bincount(y.faces.ravel(), minlength=y.n)
    order = np.argsort(load, kind="stable")
    sparsest = order[0]
    if load[sparsest] == 0:
        return False
    # rows are increasing, so deleting the vertex leaves each link edge sorted
    through = y.faces[(y.faces == sparsest).any(axis=1)]
    if not _exceeds(through[through != sparsest].reshape(-1, 2), _ZUK_TAU):
        return False
    # every vertex has a link, so edges[v] is vertex v's
    _, edges = link_edges(y)
    return all(_exceeds(edges[v], _ZUK_TAU) for v in order[1:])


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


def _first_holding(proc: FaceProcess, m1: int, holds: Callable[[int], bool]) -> int:
    """First m >= m1 at which holds(m), for a property monotone in m.

    The caller knows that it fails at m1 - 1 and holds for the whole
    process.  Gallops from m1 with doubling steps, then bisects the last
    bracket, so a property that already holds at m1 costs one call.
    """
    lo, hi, step = m1 - 1, m1, 1
    while hi < proc.total and not holds(hi):
        lo, hi, step = hi, min(hi + step, proc.total), 2 * step
    # holds at hi (the whole process, at worst) and not at lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def _spans(proc: FaceProcess, m: int, seed: int) -> bool:
    """Whether the first m arrivals have boundary rank C(n-1, d): a proof
    when True, wrong with small probability when False (homology.rank_mod_p).

    The cut gram has at most C(n-1, d) rows, so the rank reaches that target
    only by equalling it.  Fewer than C(n-1, d) faces cannot reach it, and
    are refused with no rank call.
    """
    target = math.comb(proc.n - 1, proc.d)
    return m >= target and rank_mod_p(boundary_matrix(proc.prefix(m)), seed) == target


def _streamed_m2(proc: FaceProcess, m1: int, seed: int = 0):
    """(M2, witness) from one null-space pass at M1, or None when a proof fails.

    At M1 every (d-1)-face is covered, so homology._cocycle_basis keeps the
    C(n-1, d) rows avoiding vertex 0 and returns a basis Y over GF(p) of the
    cocycles on them: b^{d-1} of them over Q, never fewer mod p.  No rows:
    M2 = M1, and witness is None.  Otherwise each later arrival f gives w = Y d(f); a
    nonzero w removes one basis row (the others absorb it), and the arrival
    that removes the last is the candidate.  A mod-p rank never exceeds the
    rational one, so the candidate is never before M2.  Two proofs make it
    exact:
    - M2 <= candidate: _spans(candidate) holds;
    - M2 > candidate - 1: the last basis row, lifted to an integer cochain z
      by homology._lift, satisfies z B = 0 over the integers on the prefix
      one arrival shorter.  z is nonzero and vanishes off the cut rows,
      which keep the boundary's rank, so that rank is below C(n-1, d).
    witness is z.
    """
    at_m1 = boundary_matrix(proc.prefix(m1))
    found = _cocycle_basis(at_m1, seed)
    if found is None:
        return None
    p, basis = found
    if not len(basis):
        return m1, None
    table = binom_table(proc.n, proc.d + 1)
    for lo, faces in _arrival_blocks(proc):
        skip = max(m1 - lo, 0)
        if skip >= len(faces):
            continue
        w = basis[:, facet_ranks(faces[skip:], table)] @ at_m1.signs % p
        # row operations keep a zero column of w zero
        for j in np.flatnonzero(w.any(axis=0)).tolist():
            col = w[:, j]
            if not col.any():
                continue
            if len(basis) == 1:
                return _proved(proc, lo + skip + j + 1, basis[0], p, seed)
            i = int(np.flatnonzero(col)[0])
            f = col * pow(int(col[i]), -1, p) % p
            keep = np.arange(len(basis)) != i
            basis = (basis[keep] - f[keep, None] * basis[i]) % p
            w = (w[keep] - f[keep, None] * w[i]) % p
    return None


def _proved(proc: FaceProcess, candidate: int, last: np.ndarray, p: int, seed: int):
    """(candidate, z) when both of _streamed_m2's proofs hold, else None."""
    z = _lift(last, p)
    if z is None:
        return None
    before = boundary_matrix(proc.prefix(candidate - 1))
    if (z[before.col_rows] @ before.signs).any() or not _spans(proc, candidate, seed):
        return None
    return candidate, z


def cohomology_hitting(proc: FaceProcess, seed: int = 0) -> HittingReport:
    """When the last isolated (d-1)-face dies (M1) and when H^{d-1} dies (M2).

    M1 comes from the block scan of _first_without_isolated.  An isolated
    (d-1)-face carries a nonzero cocycle, so M2 >= M1.  M2 is the first
    prefix whose boundary rank reaches C(n-1, d), and comes from one
    null-space pass at M1 (_streamed_m2): M2 = M1 when the rank at M1 is
    proved full, else the first later arrival that kills the last cocycle
    mod p, proved from above by a rank certificate at it and from below by
    an integer cocycle one arrival earlier.  Either way M2 is exact.  When a
    proof fails, the rank, monotone in m, is searched from M1 by
    _first_holding, as _spans decides it with homology.rank_mod_p; each
    "not yet" verdict there has too few faces or has failed at two primes,
    the only direction in which a mod-p rank can be wrong.  Both times exist
    because the complete complex has neither obstruction.
    """
    if proc.d < 2:
        raise ValueError("cohomology scan needs dimension >= 2")
    m1 = _first_without_isolated(proc)
    found = _streamed_m2(proc, m1, seed)
    if found is None:
        m2 = _first_holding(proc, m1, lambda m: _spans(proc, m, seed))
    else:
        m2 = found[0]
    return HittingReport(M1=m1, M2=m2)


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


def graph_connectivity_hitting(proc: FaceProcess) -> HittingReport:
    """Edge-process scan: connection time tau_c and the gap right there.

    M1 is the death time of the last isolated vertex, from the block scan of
    _first_without_isolated.  An isolated vertex disconnects the graph and
    connectivity is monotone in m, so tau_c >= M1 is found by the same
    search from M1 as cohomology_hitting's M2; the graph at tau_c is
    connected by construction and its gap is measured.  M2 coincides with
    tau_c (zero-th reduced Betti number hitting zero is exactly
    connectivity).
    """
    if proc.d != 1:
        raise ValueError("connectivity scan is for dimension 1")

    def graph(m: int):
        return from_edges(proc.n, proc.prefix(m).faces)

    m1 = _first_without_isolated(proc)
    tau = _first_holding(proc, m1, lambda m: components(graph(m)).sizes.size == 1)
    return HittingReport(M1=m1, M2=tau, tau_c_index=tau, gap=gap(graph(tau)))
