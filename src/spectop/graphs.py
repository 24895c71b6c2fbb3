"""Simple undirected graphs on vertices 0..n-1.

Covers sampling (Erdos-Renyi via a geometric-skip stream over edge slots),
connected components with a deterministic giant-component tie-break, induced
subgraphs, and ordered cross-edge counts.  Graphs are immutable CSR arrays
(int64, each row sorted), safe to share read-only across trials.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _cc

from .seeding import trial_rng

__all__ = [
    "Graph",
    "GraphParams",
    "ComponentDecomposition",
    "from_edges",
    "erdos_renyi",
    "components",
    "induced_subgraph",
    "cross_edges",
    "read_edge_list",
    "write_edge_list",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """n vertices in CSR form: u's neighbors are indices[indptr[u]:indptr[u+1]],
    sorted, and every edge appears once in each endpoint's row (int64)."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def _rows(self) -> np.ndarray:
        """The row (source vertex) of each entry of indices."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)

    def edges(self) -> np.ndarray:
        """(m, 2) array of edges with u < v, sorted lexicographically."""
        rows = self._rows()
        upper = rows < self.indices
        return np.column_stack([rows[upper], self.indices[upper]])

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return i < nbrs.size and nbrs[i] == v

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (float64)."""
        return self.sparse_adjacency().toarray()

    def sparse_adjacency(self) -> csr_matrix:
        """0/1 adjacency matrix (float64) in CSR form, with its own data array."""
        return csr_matrix((np.ones(self.indices.size), self.indices, self.indptr), shape=(self.n, self.n))


@dataclass(frozen=True)
class GraphParams:
    n: int
    p: float
    seed: int = 0

    @property
    def d(self) -> float:
        """Expected degree (n-1)p, recomputed, never stored."""
        return (self.n - 1) * self.p


@dataclass(frozen=True)
class ComponentDecomposition:
    component_id: np.ndarray
    sizes: np.ndarray
    giant: int


def from_edges(n: int, edges) -> Graph:
    """Build a Graph from an (m, 2) edge array; dedupes, rejects loops."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            raise ValueError("edge endpoint out of range")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self-loop")
    # both orientations as int64 keys src*n + dst: one sort dedupes them
    # and leaves them in (src, dst) order, so row u starts at the first key >= u*n
    u, v = edges[:, 0], edges[:, 1]
    keys = np.unique(np.concatenate([u * n + v, v * n + u]))
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return Graph(n=n, indptr=indptr, indices=keys % n)


def _slots_to_edges(slots: np.ndarray) -> np.ndarray:
    # colex rank k = C(v,2) + u with 0 <= u < v
    v = ((1.0 + np.sqrt(1.0 + 8.0 * slots.astype(np.float64))) / 2.0).astype(np.int64)
    v -= v * (v - 1) // 2 > slots
    v += (v + 1) * v // 2 <= slots
    u = slots - v * (v - 1) // 2
    return np.column_stack([u, v])


def _skip_stream(n_slots: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of the selected slots among 0..n_slots-1, each kept w.p. p.

    Geometric jumps between kept slots: expected O(n_slots * p) work instead
    of n_slots Bernoulli draws.
    """
    if n_slots == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n_slots, dtype=np.int64)
    kept = []
    pos = -1
    chunk = max(64, int(1.2 * n_slots * p) + 16)
    while pos < n_slots:
        skips = rng.geometric(p, size=chunk)
        hits = pos + np.cumsum(skips)
        kept.append(hits[hits < n_slots])
        pos = int(hits[-1])
        chunk = 256
    return np.concatenate(kept)


def erdos_renyi(params: GraphParams) -> Graph:
    """G(n, p): every one of the C(n,2) edges present independently w.p. p."""
    n, p = params.n, params.p
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    rng = trial_rng(params.seed)
    slots = _skip_stream(n * (n - 1) // 2, p, rng)
    return from_edges(n, _slots_to_edges(slots))


def components(g: Graph) -> ComponentDecomposition:
    """Connected components; giant = largest, ties to smallest contained vertex."""
    if g.n == 0:
        return ComponentDecomposition(np.empty(0, np.int64), np.empty(0, np.int64), -1)
    _, labels = _cc(g.sparse_adjacency(), directed=False)
    # renormalize labels to first-occurrence order so argmax ties resolve to
    # the component containing the smallest vertex
    _, first = np.unique(labels, return_index=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    labels = rank[labels]
    sizes = np.bincount(labels)
    return ComponentDecomposition(labels, sizes, int(np.argmax(sizes)))


def induced_subgraph(g: Graph, vs) -> Graph:
    """Subgraph on vertex set vs, relabeled 0..|vs|-1 in original order."""
    vs = np.unique(np.asarray(vs, dtype=np.int64))
    if vs.size and (vs.min() < 0 or vs.max() >= g.n):
        raise ValueError("vertex out of range")
    keep = np.zeros(g.n, dtype=bool)
    keep[vs] = True
    rows = g._rows()
    kept = keep[rows] & keep[g.indices]
    # the relabeling is increasing, so rows stay in order and each stays sorted
    label = np.cumsum(keep) - 1
    indptr = np.searchsorted(label[rows[kept]], np.arange(vs.size + 1))
    return Graph(n=int(vs.size), indptr=indptr, indices=label[g.indices[kept]])


def cross_edges(g: Graph, A, B) -> int:
    """Ordered adjacent pairs (u, v), u in A, v in B; A cap B edges count twice."""
    return int(np.count_nonzero(np.isin(g._rows(), list(A)) & np.isin(g.indices, list(B))))


def write_edge_list(g: Graph, path) -> None:
    """Text format: first line "n m", then m lines "u v" with u < v."""
    edges = g.edges()
    with open(path, "w") as fh:
        fh.write(f"{g.n} {edges.shape[0]}\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")


def read_edge_list(path) -> Graph:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("bad header, expected 'n m'")
        n, m = int(header[0]), int(header[1])
        edges = np.loadtxt(fh, dtype=np.int64, ndmin=2) if m else np.empty((0, 2), np.int64)
    if edges.shape[0] != m:
        raise ValueError(f"expected {m} edges, found {edges.shape[0]}")
    if m and np.any(edges[:, 0] >= edges[:, 1]):
        raise ValueError("edge lines must satisfy u < v")
    return from_edges(n, edges)
