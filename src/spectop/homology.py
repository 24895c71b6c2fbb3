"""Rational Betti numbers of the complexes via boundary-matrix rank.

With the (d-1)-skeleton complete, b_{d-1}(Y) = C(n-1, d) - rank(boundary_d);
that shortcut is invalid once isolated (d-1)-faces are stripped, so the
stripped complex gets an honest chain-level computation (kept faces minus
the two boundary ranks).

Rank engines: prime-field elimination with a random 62-bit prime (fast,
error is one-sided: a bad prime can only lower the reported rank, with
probability at most dim/2^62 per run), fraction-free integer elimination
(exact, size-capped), and for the full-skeleton Betti a spectral kernel
count of boundary * boundary^T.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix

from .complexes import Complex, binom_table, facet_ranks, isolated_faces, unrank_faces
from .seeding import trial_rng

__all__ = [
    "BoundaryMatrix",
    "RankTracker",
    "is_prime_u64",
    "random_prime",
    "boundary_matrix",
    "rank_mod_p",
    "rank_exact",
    "betti_dminus1",
    "betti_stripped_identity",
]

_EXACT_CAP = 2000

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2^64."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int = 62, seed: int = 0) -> int:
    rng = trial_rng(seed)
    lo, hi = 1 << (bits - 1), 1 << bits
    while True:
        cand = int(rng.integers(lo, hi, dtype=np.uint64)) | 1
        if is_prime_u64(cand):
            return cand


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Sparse boundary map: one column per face, rows over all facets.

    col_rows[j, i] is the colex rank of the facet obtained by deleting the
    i-th vertex of face j; its sign is (-1)^i, identical for every column.
    """

    n: int
    dim: int
    n_rows: int
    col_rows: np.ndarray

    @property
    def n_cols(self) -> int:
        return self.col_rows.shape[0]

    @property
    def signs(self) -> np.ndarray:
        return np.array([1 if i % 2 == 0 else -1 for i in range(self.dim + 1)], dtype=np.int64)

    def column(self, j: int):
        return self.col_rows[j], self.signs

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.int64)
        out[self.col_rows, np.arange(self.n_cols)[:, None]] = self.signs
        return out


def _boundary_of(n: int, faces: np.ndarray, table: np.ndarray) -> BoundaryMatrix:
    k = faces.shape[1] if faces.size else 0
    dim = k - 1
    if faces.size == 0:
        raise ValueError("cannot infer dimension from an empty face array")
    n_rows = int(table[n, dim])
    return BoundaryMatrix(n=n, dim=dim, n_rows=n_rows, col_rows=facet_ranks(faces, table))


def boundary_matrix(y: Complex) -> BoundaryMatrix:
    table = binom_table(y.n, y.d + 1)
    if y.face_count == 0:
        return BoundaryMatrix(
            n=y.n, dim=y.d, n_rows=int(table[y.n, y.d]),
            col_rows=np.empty((0, y.d + 1), dtype=np.int64),
        )
    return _boundary_of(y.n, y.faces, table)


class _PythonCore:
    """Streaming elimination over GF(p) on Python integers.

    Each arriving column is reduced against the pivot rows found so far, in
    insertion order.  That is sound because every stored pivot row was
    itself fully reduced before being kept, so it has zeros at all earlier
    pivot positions.
    """

    def __init__(self, n_rows: int, p: int):
        self.n = n_rows
        self.p = p
        self._rows: list = []
        self._pos: list = []
        self.rank = 0

    def add_column(self, idx, vals) -> bool:
        p = self.p
        col = [0] * self.n
        for i, v in zip(idx, vals):
            col[int(i)] = int(v) % p
        for j, row in zip(self._pos, self._rows):
            c = col[j]
            if c:
                for i in range(j, self.n):
                    if row[i]:
                        col[i] = (col[i] - c * row[i]) % p
        piv = next((i for i in range(self.n) if col[i]), -1)
        if piv < 0:
            return False
        inv = pow(col[piv], -1, p)
        for i in range(piv, self.n):
            col[i] = col[i] * inv % p
        self._rows.append(col)
        self._pos.append(piv)
        self.rank += 1
        return True


class RankTracker:
    """Incremental rank over GF(p) for a random 62-bit prime."""

    def __init__(self, n_rows: int, prime: Optional[int] = None, seed: int = 0):
        if prime is None:
            prime = random_prime(seed=seed)
        if prime <= 2**40:
            raise ValueError("prime must exceed 2^40")
        self.prime = prime
        self.n_rows = n_rows
        self._core = _PythonCore(n_rows, prime)

    @property
    def rank(self) -> int:
        return self._core.rank

    def add_column(self, rows, vals) -> bool:
        """Feed one sparse column; returns whether the rank grew."""
        return self._core.add_column(rows, vals)

    def add_face_column(self, m: BoundaryMatrix, j: int) -> bool:
        rows, signs = m.column(j)
        return self.add_column(rows, signs)


def rank_mod_p(m: BoundaryMatrix, tracker: Optional[RankTracker] = None,
               seed: int = 0) -> int:
    if tracker is None:
        tracker = RankTracker(m.n_rows, seed=seed)
    sg = m.signs
    for j in range(m.n_cols):
        tracker.add_column(m.col_rows[j], sg)
    return tracker.rank


def rank_exact(m) -> int:
    """Rank over the rationals, by fraction-free (Bareiss) elimination."""
    a = m.dense() if isinstance(m, BoundaryMatrix) else np.asarray(m)
    nr, nc = a.shape
    if nr > _EXACT_CAP or nc > _EXACT_CAP:
        raise ValueError(f"exact rank capped at {_EXACT_CAP}x{_EXACT_CAP}")
    rows = [[int(x) for x in r] for r in a]
    rank = 0
    prev = 1
    for c in range(nc):
        piv = next((r for r in range(rank, nr) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        pv = pivot_row[c]
        for r in range(rank + 1, nr):
            cur = rows[r]
            f = cur[c]
            for j in range(c, nc):
                cur[j] = (pv * cur[j] - f * pivot_row[j]) // prev
        prev = pv
        rank += 1
        if rank == nr:
            break
    return rank


def _hodge_gram(m: BoundaryMatrix) -> np.ndarray:
    """Dense float64 boundary * boundary^T, built as a sparse product.

    Its entries are small integers, so float64 sums them exactly in any
    order and the result does not depend on how the product is formed.
    """
    indptr = np.arange(0, m.col_rows.size + 1, m.dim + 1)
    signs = np.tile(m.signs.astype(np.float64), m.n_cols)
    b_t = csr_matrix((signs, m.col_rows.ravel(), indptr), shape=(m.n_cols, m.n_rows))
    return (b_t.T @ b_t).toarray()


def _rank_hodge(m: BoundaryMatrix) -> int:
    """Rank via the nonzero eigenvalue count of boundary * boundary^T."""
    if m.n_cols == 0:
        return 0
    vals = np.linalg.eigvalsh(_hodge_gram(m))
    thresh = 1e-6 * max(vals[-1], 1.0)
    return int(np.count_nonzero(vals > thresh))


def _rank(m: BoundaryMatrix, method: str, seed: int) -> int:
    if method == "modp":
        return rank_mod_p(m, seed=seed)
    if method == "exact":
        return rank_exact(m)
    if method == "hodge":
        return _rank_hodge(m)
    raise ValueError(f"unknown method {method!r}")


def betti_dminus1(y: Complex, method: str = "modp", seed: int = 0) -> int:
    """dim H_{d-1}(Y, Q) = C(n-1, d) - rank(boundary_d).

    The closed form for the chain/cycle dimensions needs the complete
    (d-1)-skeleton, which Complex guarantees.
    """
    full_cycles = math.comb(y.n - 1, y.d)
    return full_cycles - _rank(boundary_matrix(y), method, seed)


def betti_stripped_identity(y: Complex, method: str = "modp", seed: int = 0):
    """(b(Y), b(stripped Y), isolated count).

    The stripped Betti is computed on the stripped chain complex: kept
    (d-1)-faces minus rank of their boundary into (d-2)-chains minus rank
    of boundary_d.  No C(n-1, d) shortcut applies after stripping.
    """
    if y.d < 2:
        raise ValueError("stripping needs dimension >= 2")
    stats = isolated_faces(y)
    isolated = stats.isolated_count
    table = binom_table(y.n, y.d + 1)

    rank_d = _rank(boundary_matrix(y), method, seed)
    b_full = math.comb(y.n - 1, y.d) - rank_d

    kept = np.flatnonzero(stats.degrees > 0)
    if kept.size == 0:
        rank_dm1 = 0
    else:
        kept_faces = unrank_faces(kept, y.d, table)
        rank_dm1 = _rank(_boundary_of(y.n, kept_faces, table), method, seed)
    b_stripped = int(kept.size) - rank_dm1 - rank_d
    return b_full, b_stripped, isolated
