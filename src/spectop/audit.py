"""Deterministic gap-condition audits.

Measures the four structural constants of the certificate lemma (bounded
degree, adjacency seminorm, fuzz behaviour, parallel eigenspaces), assembles
the explicit gap bound when the fuzz conditions hold, searches for
discrepancy counterexamples, and finds the below-threshold path witness.

Everywhere `d` is the model's expected degree (n-1)p supplied by the caller,
never re-inferred from the realized graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .graphs import Graph, cross_edges
from .seeding import trial_rng
from .spectral import adjacency_seminorm

__all__ = [
    "FuzzSet",
    "ConditionReport",
    "DiscrepancyPair",
    "PathWitness",
    "fuzz_set",
    "parallel_norm",
    "audit",
    "certified_bound",
    "discrepancy_refute",
    "find_path_witness",
]


@dataclass(frozen=True)
class FuzzSet:
    """Vertices of degree at most d/M."""

    M: float
    d: float
    members: np.ndarray


@dataclass(frozen=True)
class ConditionReport:
    n: int
    d: float
    M: float
    C1: float
    C2: float
    C3: float
    fuzz_size: int
    fuzz_independent: bool
    fuzz_small: bool
    fuzz_neighbor_ok: bool
    certified_bound: Optional[float]


@dataclass(frozen=True)
class DiscrepancyPair:
    A: tuple
    B: tuple
    e: int
    mu: float
    violation_score: float


@dataclass(frozen=True)
class PathWitness:
    u: int
    v: int
    w: int
    x: int
    m: int


def fuzz_set(g: Graph, d: float, M: float) -> FuzzSet:
    if M < 1:
        raise ValueError("M must be at least 1")
    if d <= 0:
        raise ValueError("d must be positive")
    members = np.flatnonzero(g.degrees <= d / M)
    return FuzzSet(M=M, d=d, members=members)


def parallel_norm(g: Graph, fz: FuzzSet) -> float:
    """sup |x^t q| over unit x with x^t T^{1/2} 1_W = 0.

    q = T^{-1/2} 1 on the fuzz complement (and 0 on degree-0 coordinates),
    W = positive-degree vertices.  The supremum is the norm of q minus its
    projection on the normalized T^{1/2} 1_W.
    """
    if g.edge_count == 0:
        raise ValueError("parallel_norm needs at least one edge")
    deg = g.degrees.astype(np.float64)
    tsqrt = np.sqrt(deg)
    q = np.zeros(g.n)
    comp = np.ones(g.n, dtype=bool)
    comp[fz.members] = False
    live = comp & (deg > 0)
    q[live] = 1.0 / tsqrt[live]
    u = tsqrt / np.linalg.norm(tsqrt)
    resid = q - (q @ u) * u
    return float(np.linalg.norm(resid))


def audit(g: Graph, d: float, M: float) -> ConditionReport:
    if d <= 0:
        raise ValueError("d must be positive")
    n = g.n
    deg = g.degrees
    fz = fuzz_set(g, d, M)
    members = fz.members
    in_fuzz = np.zeros(n, dtype=bool)
    in_fuzz[members] = True

    c1 = float(deg.max()) / d if n else 0.0
    c2 = adjacency_seminorm(g) / math.sqrt(d)
    if g.edge_count == 0:
        c3 = 0.0
    else:
        c3 = parallel_norm(g, fz) * d / math.sqrt(n)

    # fuzz neighbours of every vertex, in one pass over the CSR rows
    fuzz_nbrs = g.sparse_adjacency() @ in_fuzz
    independent = not np.any(fuzz_nbrs[in_fuzz])
    small = members.size <= n / 2
    neighbor_ok = not np.any(fuzz_nbrs[~in_fuzz] > 1)

    report = ConditionReport(
        n=n, d=d, M=M, C1=c1, C2=c2, C3=c3,
        fuzz_size=int(members.size),
        fuzz_independent=independent,
        fuzz_small=small,
        fuzz_neighbor_ok=neighbor_ok,
        certified_bound=None,
    )
    if independent and small and neighbor_ok:
        report = replace(report, certified_bound=certified_bound(report))
    return report


def certified_bound(r: ConditionReport) -> float:
    """(2 C2 M + 2 sqrt(M)) / sqrt(d) + 2 C1 C3^2 / d, with d = r.d.

    Valid only when the three fuzz conditions hold; the caller may then
    assert max over non-kernel i of |1 - lambda_i| is at most this value.
    """
    if not (r.fuzz_independent and r.fuzz_small and r.fuzz_neighbor_ok):
        raise ValueError("no certificate: fuzz conditions not all satisfied")
    return (2.0 * r.C2 * r.M + 2.0 * math.sqrt(r.M)) / math.sqrt(r.d) + 2.0 * r.C1 * r.C3**2 / r.d


def _clause_values(n: int, d: float, C: float, e: int, size_a: int, size_b: int):
    """Returns (ra, rb, c_violated) shortfall ratios for the three clauses.

    ra > 1 iff clause (a) fails (e > C mu); rb > 1 iff clause (b) fails
    (e log(e/mu) > C s log(n/s), natural log); c_violated iff s > d^(1/4)/100.
    """
    s = max(size_a, size_b)
    if s == 0:
        return 0.0, 0.0, False
    mu = size_a * size_b * d / n
    ra = e / (C * mu) if mu > 0 else (math.inf if e > 0 else 0.0)
    lhs = e * math.log(e / mu) if e > 0 and mu > 0 else (math.inf if e > 0 else 0.0)
    rhs = C * s * math.log(n / s)
    if rhs > 0:
        rb = lhs / rhs
    else:
        rb = math.inf if lhs > 0 else 0.0
    c_violated = s > d**0.25 / 100.0
    return ra, rb, c_violated


def _score(ra: float, rb: float, c_violated: bool) -> float:
    if not c_violated:
        return 0.0
    return max(ra, 0.0) * max(rb, 0.0)


def _is_refutation(ra: float, rb: float, c_violated: bool) -> bool:
    return c_violated and ra > 1.0 and rb > 1.0


def _pair(g: Graph, d: float, C: float, a_mask: np.ndarray, b_mask: np.ndarray):
    e = int(cross_edges(g, np.flatnonzero(a_mask), np.flatnonzero(b_mask)))
    ra, rb, cv = _clause_values(g.n, d, C, e, int(a_mask.sum()), int(b_mask.sum()))
    return e, ra, rb, cv


def _exhaustive_refute(g: Graph, d: float, C: float) -> Optional[DiscrepancyPair]:
    n = g.n
    adj = g.adjacency()
    masks = np.array([[(m >> v) & 1 for v in range(n)] for m in range(1, 2**n)], dtype=np.float64)
    crossings = masks @ adj @ masks.T
    sizes = masks.sum(axis=1).astype(int)
    best = None
    best_score = -math.inf
    for i in range(masks.shape[0]):
        for j in range(masks.shape[0]):
            e = int(round(crossings[i, j]))
            ra, rb, cv = _clause_values(n, d, C, e, sizes[i], sizes[j])
            if _is_refutation(ra, rb, cv):
                score = _score(ra, rb, cv)
                if score > best_score:
                    best_score = score
                    best = (i, j, e, sizes[i], sizes[j])
    if best is None:
        return None
    i, j, e, sa, sb = best
    a = tuple(int(v) for v in np.flatnonzero(masks[i]))
    b = tuple(int(v) for v in np.flatnonzero(masks[j]))
    mu = sa * sb * d / n
    return DiscrepancyPair(A=a, B=b, e=e, mu=mu, violation_score=best_score)


def discrepancy_refute(
    g: Graph, d: float, C: float, budget: int = 2000, seed: int = 0
) -> Optional[DiscrepancyPair]:
    """Search for a pair (A, B) violating all three discrepancy clauses.

    Returns the worst violator found, or None for "not refuted" (which is
    NOT a verification of the condition; the search is budgeted).  For
    n <= 8 the search is exhaustive and agrees with brute-force enumeration.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    if d <= 0:
        raise ValueError("d must be positive")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    n = g.n
    if n == 0 or g.edge_count == 0:
        return None
    if n <= 8:
        return _exhaustive_refute(g, d, C)

    rng = trial_rng(seed)
    best: Optional[DiscrepancyPair] = None
    best_score = -math.inf
    evals = 0
    while evals < budget:
        a_mask = rng.random(n) < rng.uniform(0.05, 0.6)
        b_mask = rng.random(n) < rng.uniform(0.05, 0.6)
        e, ra, rb, cv = _pair(g, d, C, a_mask, b_mask)
        score = _score(ra, rb, cv)
        evals += 1
        improved = True
        while improved and evals < budget:
            improved = False
            order = rng.permutation(2 * n)
            for idx in order:
                mask = a_mask if idx < n else b_mask
                v = idx % n
                mask[v] = not mask[v]
                e2, ra2, rb2, cv2 = _pair(g, d, C, a_mask, b_mask)
                s2 = _score(ra2, rb2, cv2)
                evals += 1
                if s2 > score:
                    score, e, ra, rb, cv = s2, e2, ra2, rb2, cv2
                    improved = True
                else:
                    mask[v] = not mask[v]
                if evals >= budget:
                    break
        if _is_refutation(ra, rb, cv) and score > best_score:
            sa, sb = int(a_mask.sum()), int(b_mask.sum())
            best_score = score
            best = DiscrepancyPair(
                A=tuple(int(v) for v in np.flatnonzero(a_mask)),
                B=tuple(int(v) for v in np.flatnonzero(b_mask)),
                e=e,
                mu=sa * sb * d / n,
                violation_score=score,
            )
    return best


def find_path_witness(g: Graph, m: int) -> Optional[PathWitness]:
    """First (in vertex order) induced path u-v-w-x with deg v = deg w = 2
    and ambient endpoint degrees at least m."""
    if m < 1:
        raise ValueError("m must be at least 1")
    deg = g.degrees
    for v in range(g.n):
        if deg[v] != 2:
            continue
        nv = g.neighbors(v)
        for w in nv:
            w = int(w)
            if deg[w] != 2:
                continue
            nw = g.neighbors(w)
            u = int(nv[0]) if int(nv[1]) == w else int(nv[1])
            x = int(nw[0]) if int(nw[1]) == v else int(nw[1])
            if u == x or u == w or x == v:
                continue
            if deg[u] < m or deg[x] < m:
                continue
            if g.has_edge(u, w) or g.has_edge(v, x) or g.has_edge(u, x):
                continue
            return PathWitness(u=u, v=v, w=w, x=x, m=m)
    return None
