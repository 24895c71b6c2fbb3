"""Random d-complexes over a complete (d-1)-skeleton.

A complex here is its set of d-faces; every lower face up to dimension d-1
is implicitly present.  Faces are stored as sorted integer rows and indexed
by colexicographic rank, which gives flat-array degree tables and
deterministic replay.

The face-addition process is represented by its jump chain (a uniform
permutation of all C(n, d+1) faces, drawn lazily by sparse Fisher-Yates);
its exponential clocks are never materialized because every tested
statement depends only on the prefix set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _skip_stream, from_edges
from .seeding import trial_rng

__all__ = [
    "Complex",
    "FaceProcess",
    "ComplexStats",
    "binom_table",
    "rank_faces",
    "facet_ranks",
    "unrank_faces",
    "complex_from_faces",
    "sample_complex",
    "link",
    "link_edges",
    "isolated_faces",
    "window_density",
]


def binom_table(n: int, kmax: int) -> np.ndarray:
    """t[v, k] = C(v, k) for 0 <= v <= n, 0 <= k <= kmax (int64, exact)."""
    t = np.zeros((n + 1, kmax + 1), dtype=np.int64)
    t[:, 0] = 1
    for k in range(1, kmax + 1):
        t[1:, k] = np.cumsum(t[:-1, k - 1])
    return t


def rank_faces(faces: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Colex rank of each sorted row: sum_j C(row[j], j+1)."""
    faces = np.atleast_2d(faces)
    k = faces.shape[1]
    r = np.zeros(faces.shape[0], dtype=np.int64)
    for j in range(k):
        r += table[faces[:, j], j + 1]
    return r


def facet_ranks(faces: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(m, k) colex ranks of the facets of m sorted k-rows.

    Column i ranks the row with its i-th vertex deleted, the order in which
    a boundary column's signs (-1)^i are read.  Vertices before i keep their
    position j and weigh C(v, j+1); vertices after i drop to j-1 and weigh
    C(v, j).
    """
    faces = np.atleast_2d(faces)
    cols = np.arange(faces.shape[1])
    kept = table[faces, cols + 1]
    shifted = table[faces, cols]
    before = np.cumsum(kept, axis=1) - kept
    after = np.cumsum(shifted[:, ::-1], axis=1)[:, ::-1] - shifted
    return before + after


def unrank_faces(ranks: np.ndarray, k: int, table: np.ndarray) -> np.ndarray:
    """Inverse of rank_faces: decode each rank to its sorted k-row."""
    ranks = np.asarray(ranks, dtype=np.int64).copy()
    out = np.empty((ranks.size, k), dtype=np.int64)
    for j in range(k, 0, -1):
        col = table[:, j]
        v = np.searchsorted(col, ranks, side="right") - 1
        out[:, j - 1] = v
        ranks -= col[v]
    return out


@dataclass(frozen=True, eq=False)
class Complex:
    """n vertices, dimension d, explicit d-faces over a full (d-1)-skeleton.

    faces: (m, d+1) array, rows strictly increasing, sorted by colex rank.
    """

    n: int
    d: int
    faces: np.ndarray

    @property
    def face_count(self) -> int:
        return self.faces.shape[0]


def complex_from_faces(n: int, d: int, faces) -> Complex:
    if not 1 <= d <= n - 1:
        raise ValueError("need 1 <= d <= n-1")
    arr = np.asarray(list(faces), dtype=np.int64)
    if arr.size == 0:
        return Complex(n=n, d=d, faces=np.empty((0, d + 1), dtype=np.int64))
    if arr.ndim != 2 or arr.shape[1] != d + 1:
        raise ValueError(f"faces must have {d + 1} vertices each")
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError("face vertex out of range")
    if np.any(np.diff(arr, axis=1) <= 0):
        raise ValueError("faces must be strictly increasing tuples")
    table = binom_table(n, d + 1)
    ranks = np.unique(rank_faces(arr, table))
    return Complex(n=n, d=d, faces=unrank_faces(ranks, d + 1, table))


def sample_complex(n: int, d: int, p: float, seed: int = 0) -> Complex:
    """Y ~ each of the C(n, d+1) possible d-faces i.i.d. with probability p."""
    if not 1 <= d <= n - 1:
        raise ValueError("need 1 <= d <= n-1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    table = binom_table(n, d + 1)
    ranks = _skip_stream(int(table[n, d + 1]), p, trial_rng(seed))
    return Complex(n=n, d=d, faces=unrank_faces(ranks, d + 1, table))


class FaceProcess:
    """Uniform arrival order over all C(n, d+1) d-faces, drawn lazily.

    first(m) extends a sparse Fisher-Yates shuffle, so only O(m) state
    exists after m arrivals; identical (n, d, seed) replays identically.
    """

    def __init__(self, n: int, d: int, seed: int = 0):
        if not 1 <= d <= n - 1:
            raise ValueError("need 1 <= d <= n-1")
        self.n = n
        self.d = d
        self.seed = seed
        self._table = binom_table(n, d + 1)
        self.total = int(self._table[n, d + 1])
        self._rng = trial_rng(seed)
        self._swaps: dict = {}
        self._drawn: list = []

    def first(self, m: int) -> np.ndarray:
        """Colex ranks of the first m arrivals, in arrival order."""
        if not 0 <= m <= self.total:
            raise ValueError("prefix length out of range")
        i0 = len(self._drawn)
        # one call draws the same values, and leaves the same generator
        # state, as one integers(i, total) call per arrival (none if m <= i0)
        draws = self._rng.integers(np.arange(i0, m), self.total).tolist()
        for i, j in enumerate(draws, start=i0):
            vi = self._swaps.get(i, i)
            vj = self._swaps.get(j, j)
            self._swaps[i] = vj
            self._swaps[j] = vi
            self._drawn.append(vj)
        return np.asarray(self._drawn[:m], dtype=np.int64)

    def prefix(self, m: int) -> Complex:
        ranks = np.sort(self.first(m))
        return Complex(n=self.n, d=self.d, faces=unrank_faces(ranks, self.d + 1, self._table))


def link(y: Complex, f) -> Graph:
    """Graph on the vertices outside f with u~v iff f ∪ {u,v} is a face.

    f is a (d-2)-dimensional face, i.e. d-1 vertices; the link vertices are
    relabeled to 0..n-d in increasing original order.  link_edges builds
    every link at once.
    """
    if y.d < 2:
        raise ValueError("links need dimension >= 2")
    f = np.asarray(f, dtype=np.int64)
    if f.shape != (y.d - 1,):
        raise ValueError(f"link face must have {y.d - 1} vertices")
    if f.size and (np.any(np.diff(f) <= 0) or f.min() < 0 or f.max() >= y.n):
        raise ValueError("link face must be strictly increasing and in range")
    rows = y.faces[np.isin(y.faces, f).sum(axis=1) == f.size]
    edges = rows[~np.isin(rows, f)].reshape(-1, 2)
    outside = np.setdiff1d(np.arange(y.n), f)
    return from_edges(outside.size, np.searchsorted(outside, edges))


def link_edges(y: Complex):
    """(faces, edges): every nonempty codimension-2 link from one pass.

    Deleting positions i < j of a d-face leaves its (d-2)-face owner and the
    link edge {face[i], face[j]}; one stable argsort of the owners' colex
    ranks groups all such pairs.  faces is the (k, d-1) array of owners with
    a nonempty link, in colex order, and edges[i] is the (e, 2) array of
    lk(faces[i])'s edges in original labels, u < v.  A (d-2)-face missing
    from faces has an empty link.
    """
    if y.d < 2:
        raise ValueError("links need dimension >= 2")
    if y.face_count == 0:
        # np.split of an empty array would still return one (empty) group
        return np.empty((0, y.d - 1), dtype=np.int64), []
    table = binom_table(y.n, y.d + 1)
    i, j = np.triu_indices(y.d + 1, k=1)
    rest = [[k for k in range(y.d + 1) if k not in pair] for pair in zip(i, j)]
    owners = rank_faces(y.faces[:, rest].reshape(-1, y.d - 1), table)
    order = np.argsort(owners, kind="stable")
    owners = owners[order]
    edges = np.stack([y.faces[:, i], y.faces[:, j]], axis=-1).reshape(-1, 2)[order]
    starts = np.flatnonzero(owners[1:] != owners[:-1]) + 1
    faces = unrank_faces(owners[np.r_[0, starts]], y.d - 1, table)
    return faces, np.split(edges, starts)


class ComplexStats:
    """d-degree table over all C(n, d) (d-1)-faces, with isolated count.

    add_face keeps the table and isolated_count current as d-faces arrive.
    """

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        self._table = binom_table(n, d + 1)
        self.degrees = np.zeros(int(self._table[n, d]), dtype=np.int64)
        self.isolated_count = int(self._table[n, d])

    def add_face(self, face) -> None:
        # the d+1 facets of one face are distinct, so one fancy update is exact
        r = facet_ranks(np.asarray(face, dtype=np.int64), self._table)[0]
        self.isolated_count -= int(np.count_nonzero(self.degrees[r] == 0))
        self.degrees[r] += 1


def isolated_faces(y: Complex) -> ComplexStats:
    stats = ComplexStats(y.n, y.d)
    if y.face_count:
        ranks = facet_ranks(y.faces, stats._table).ravel()
        counts = np.bincount(ranks, minlength=stats.degrees.size)
        stats.degrees = counts.astype(np.int64)
        stats.isolated_count = int(np.count_nonzero(counts == 0))
    return stats


def window_density(n: int, d: int, c: float) -> float:
    """Density inside the Poisson window, parametrized by the constant c.

    Solves C(n,d)(1-p)^(n-d) = e^{-c}/d! exactly, so the finite-n expected
    isolated count equals the limiting Poisson mean; the literal
    (d log n + c)/n differs from it by o(1) but has a visibly biased mean
    at small n.
    """
    target = math.exp(-c) / math.factorial(d)
    return 1.0 - (target / math.comb(n, d)) ** (1.0 / (n - d))
