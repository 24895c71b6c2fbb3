"""Rational Betti numbers of the complexes via boundary-matrix rank.

With the (d-1)-skeleton complete, b_{d-1}(Y) = C(n-1, d) - rank(boundary_d);
that shortcut is invalid once isolated (d-1)-faces are stripped, so the
stripped complex gets an honest chain-level computation (kept faces minus
the two boundary ranks).

Rank engines:

- full-rank certificate (_proves_full_rank), tried first by rank_mod_p and
  reaches_rank on the k x k cut gram G described below.  G is an integer
  positive-semidefinite matrix, so full rank is positive definiteness,
  which _proves_positive_definite decides for any symmetric integer
  matrix whose entries float64 holds exactly (criteria's vertex-link
  verdicts call it too).  A positive definite matrix has a positive
  diagonal, so a diagonal entry <= 0 is a refusal; otherwise one float64
  Cholesky of G - cI proves it.  With u = 2^-53 and
  gamma = (k+1)u / (1 - (k+1)u), a computed factor satisfies
  R^T R = G - cI + E with |E| <= gamma |R^T| |R| in any evaluation order
  (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3), so
  ||E||_2 <= gamma || |R^T| |R| ||_2 <= gamma ||R||_F^2.  That bound needs
  only the diagonal: ||R||_F^2 = tr(R^T R) = tr(G) - kc + tr(E) and
  |E_ii| <= gamma (|R^T| |R|)_ii sum to |tr(E)| <= gamma ||R||_F^2, so
  ||R||_F^2 <= tr(G) / (1 - gamma) whether or not G is semidefinite.  The
  shift c is the smallest power of two >= 2 gamma / (1 - gamma) * tr(G),
  the factor 2 absorbing the underflow term of Rump ("Verification of
  positive definiteness", BIT 46, 2006).  A factorization that succeeds
  therefore gives lambda_min(G) >= c - ||E||_2 > 0 exactly.  One that
  fails proves nothing, and the mod-p engine decides.
- batch mod-p (rank_mod_p, reaches_rank), for every gram the certificate
  does not prove nonsingular:
  blocked elimination over GF(p), p a random prime in [2^22, 2^23), of a
  gram G of the boundary matrix B cut to fewer rows.
  - The row cut.  B's image lies in the cycle space of the full simplex,
    and for any vertex v the faces avoiding v index coordinates that are
    injective on that space: a cycle supported on faces through v is a
    cone v*w whose boundary w - v*(dw) vanishes only if w = 0.  So the
    rows of B avoiding v keep its rational rank.  G is the gram of the
    smaller side (B' B'^T or B'^T B', so rank_Q(G) = rank_Q(B)) of B', the
    nonzero rows avoiding a vertex that lies in the fewest zero rows
    (ties go to the smallest vertex), which makes B' as short as any such
    cut.
  - Residues are stored exactly as float32 and each trailing update is one
    float64 BLAS matmul (see _eliminate).
  - Its error is one-sided.  A mod-p rank never exceeds the rational rank,
    so "rank reaches the target" is a proof, and a G nonsingular mod p
    gives the rank exactly (mod-p rank <= rational rank <= dim G), so
    rank_mod_p stops after the first prime then.  A rank below the
    rational rank r needs p to divide a fixed nonzero r x r minor of G,
    whose size is at most its Hadamard bound H; that minor has at most
    log2(H)/22 prime factors in [2^22, 2^23), which holds 268216 primes,
    so one random prime errs with probability at most
    (log2(H)/22) / 268216, and two distinct random primes, whose maximum
    is reported, at most the square of that.
- cocycle stream (_cocycle_basis, _null_space, _lift), which
  criteria.cohomology_hitting runs from M1 on.  Once every (d-1)-face is
  covered, the cut keeps the C(n-1, d) rows avoiding vertex 0, and the
  cocycles on them (y with y B' = 0) number b^{d-1}.  _eliminate leaves the
  echelon form of the cut gram in place, and _null_space back-substitutes a
  basis of the gram's null space mod p; checked against B' on its sparse
  columns, that is a basis Y of the cocycles mod p.  Each later face f adds
  one column; when some row has y d(f) != 0, it is eliminated against the
  others, and Y still spans the cocycles.
  - One-sided, as above: mod p there are never fewer cocycles than over Q,
    so Y empties no earlier than H^{d-1} dies, and a rank certificate at
    that arrival proves it dies there.
  - The integer witness closes the other side.  The last row of Y, lifted
    to Z by rational reconstruction, is checked as z B = 0 exactly on the
    prefix one arrival shorter.  A nonzero integer cocycle on the cut rows
    proves the rank below C(n-1, d) there, with no probability left.
- streaming mod-p (RankTracker): one column at a time over a random 62-bit
  prime on Python integers; a bad prime can only lower the rank, with
  probability at most dim/2^62 per run.
- fraction-free integer elimination (rank_exact): exact, size-capped; the
  tests' oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import lapack

from .complexes import Complex, binom_table, facet_ranks, isolated_faces, unrank_faces
from .seeding import trial_rng

__all__ = [
    "BoundaryMatrix",
    "RankTracker",
    "is_prime_u64",
    "random_prime",
    "boundary_matrix",
    "rank_mod_p",
    "reaches_rank",
    "rank_exact",
    "betti_dminus1",
    "betti_stripped_identity",
]

_EXACT_CAP = 2000

# Batch engine sizes.  A prime below 2^23 keeps every residue exact in
# float32 (integers up to 2^24 are), and a trailing update sums at most
# _PANEL products below p^2, exact in float64 while _PANEL * (p-1)^2 + p
# stays below 2^53.  Trailing rows are upcast _CHUNK at a time, so the
# float64 copies stay small next to the float32 matrix.
_PRIME_BITS = 23
_PANEL = 64
_CHUNK = 128

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


def _random_primes(bits: int, seed: int, count: int) -> list:
    rng = trial_rng(seed)
    lo, hi = 1 << (bits - 1), 1 << bits
    primes: list = []
    while len(primes) < count:
        cand = int(rng.integers(lo, hi, dtype=np.uint64)) | 1
        if is_prime_u64(cand) and cand not in primes:
            primes.append(cand)
    return primes


def random_prime(bits: int = 62, seed: int = 0) -> int:
    return _random_primes(bits, seed, 1)[0]


def _field_primes(seed: int) -> list:
    """The batch engine's two distinct primes in [2^22, 2^23)."""
    return _random_primes(_PRIME_BITS, seed, 2)


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


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x minus its nearest multiple of p, in place: a residue in (-p, p).

    Exact for integer-valued float64 |x| < 2^53: the quotient may be off by
    one near a half, but q * p is then still an integer within p of x.
    """
    q = x * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    x -= q
    return x


def _eliminate(a: np.ndarray, p: int) -> Tuple[int, np.ndarray]:
    """(rank, pivots) over GF(p) of the float32 integer matrix a.

    Entries must lie in (-p, p) and stay residues in (-p, p) throughout.
    Right-looking blocked elimination with pivot rows swapped to the top.
    Each panel of _PANEL columns is factored on a float64 copy, left-looking:
    a column gets all earlier pivots of the panel as one matrix-vector
    product.  The rows under the panel then get their trailing update
    L21 @ U12 as one matmul per _CHUNK rows, U12 being the pivot rows'
    trailing part solved against the panel's unit lower triangle.  Every
    such sum has at most _PANEL products of residues.

    a is overwritten: its first rank rows end as the echelon form U, row t
    zero before its pivot column pivots[t] (ascending) and nonzero there,
    so U y = 0 (mod p) has the solutions of a y = 0.  The other rows are
    scratch.
    """
    assert p < 1 << 24 and _PANEL * (p - 1) ** 2 + p < 1 << 53, "sums must stay exact"
    assert -p < a.min(initial=0) and a.max(initial=0) < p, "entries must be residues"
    nr, nc = a.shape
    r = 0
    pivots: list = []
    for c0 in range(0, nc, _PANEL):
        if r == nr:
            break
        c1 = min(c0 + _PANEL, nc)
        panel = a[r:, c0:c1].astype(np.float64)
        lower = np.zeros((nr - r, c1 - c0))  # column t: multipliers of pivot t
        upper = np.zeros((c1 - c0, c1 - c0))  # row t: pivot row t, eliminated
        k = 0
        for j in range(c1 - c0):
            col = _reduce(panel[k:, j] - lower[k:, :k] @ upper[:k, j], p)
            nz = np.flatnonzero(col)
            if nz.size == 0:
                continue
            i = int(nz[0])
            if i:
                panel[[k, k + i]] = panel[[k + i, k]]
                lower[[k, k + i]] = lower[[k + i, k]]
                a[[r + k, r + k + i], c1:] = a[[r + k + i, r + k], c1:]
                col[[0, i]] = col[[i, 0]]
            upper[k, j] = col[0]
            upper[k, j + 1:] = _reduce(panel[k, j + 1:] - lower[k, :k] @ upper[:k, j + 1:], p)
            lower[k + 1:, k] = _reduce(col[1:] * pow(int(col[0]) % p, -1, p), p)
            pivots.append(c0 + j)
            k += 1
        if k and c1 < nc:
            u12 = a[r:r + k, c1:].astype(np.float64)
            for t in range(1, k):
                u12[t] -= lower[t, :t] @ u12[:t]
                _reduce(u12[t], p)
            for s in range(r + k, nr, _CHUNK):
                e = min(s + _CHUNK, nr)
                block = a[s:e, c1:].astype(np.float64)
                block -= lower[s - r:e - r, :k] @ u12
                a[s:e, c1:] = _reduce(block, p)
            a[r:r + k, c1:] = u12
        a[r:r + k, :c0] = 0
        a[r:r + k, c0:c1] = upper[:k]
        r += k
    return r, np.array(pivots, dtype=np.int64)


def _null_space(a: np.ndarray, p: int) -> np.ndarray:
    """Basis over GF(p) of {y : a y = 0 (mod p)}, one row per dimension.

    a is a float32 residue matrix as _eliminate takes it, and is
    overwritten.  Each free column of the echelon form gets one basis row,
    1 there and 0 at the other free columns; back-substitution fills the
    pivot columns, last pivot row first.  Entries are int64 in [0, p); each
    row sum has at most a.shape[1] products below p^2, exact in int64.
    """
    rank, pivots = _eliminate(a, p)
    nc = a.shape[1]
    free = np.setdiff1d(np.arange(nc), pivots)
    basis = np.zeros((free.size, nc), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    for t in range(rank - 1, -1, -1):
        c = int(pivots[t])
        s = basis[:, c + 1:] @ a[t, c + 1:].astype(np.int64)
        basis[:, c] = -s % p * pow(int(a[t, c]) % p, -1, p) % p
    return basis


def _row_cut(m: BoundaryMatrix) -> np.ndarray:
    """m's nonzero rows avoiding a vertex that lies in the fewest zero rows,
    ties going to the smallest vertex.  They keep m's rational rank (see the
    module docstring)."""
    faces = unrank_faces(np.arange(m.n_rows), m.dim, binom_table(m.n, m.dim))
    used = np.zeros(m.n_rows, dtype=bool)
    used[m.col_rows] = True
    v = np.argmin(np.bincount(faces[~used].ravel(), minlength=m.n))
    return np.flatnonzero(used & (faces != v).all(axis=1))


def _cut_gram(m: BoundaryMatrix, dtype) -> np.ndarray:
    """C-contiguous gram, of the given dtype, of the smaller side of m cut
    to _row_cut(m).

    Its rational rank is m's, and its dimension bounds that rank.  Its
    entries are small integers, so float32 and float64 both sum them
    exactly in any order.
    """
    rows = _row_cut(m)
    k = rows.size
    if m.n_cols < k:
        b = m.dense()[rows].astype(dtype)
        return b.T @ b
    # B' B'^T sums, over the columns, the sign products of each pair of the
    # column's entries in kept rows; kept rows become 0..k-1, the others k
    at = np.full(m.n_rows, k)
    at[rows] = np.arange(k)
    idx = at[m.col_rows]
    kept = idx < k
    pairs = kept[:, :, None] & kept[:, None, :]
    signs = np.broadcast_to(np.outer(m.signs, m.signs).astype(dtype), pairs.shape)
    gram = np.zeros((k, k), dtype=dtype)
    np.add.at(gram.reshape(-1), (idx[:, :, None] * k + idx[:, None, :])[pairs], signs[pairs])
    return gram


def _proves_positive_definite(g: np.ndarray) -> bool:
    """Whether one shifted Cholesky proves the symmetric integer matrix g
    positive definite.

    g is a C-contiguous float64 k x k array of integers below 2^53 in
    magnitude, which this overwrites.  True is a proof (see the module
    docstring); False proves nothing.
    """
    k = len(g)
    diag = g.diagonal().copy()
    if k == 0 or (diag <= 0).any():
        return k == 0
    # exact: each entry is an integer, summed as a Python int
    trace = sum(map(int, diag.tolist()))
    # c = 2^e, the least power of two >= 2 gamma / (1 - gamma) * trace =
    # num / den; with e = bits(num) - bits(den), 2^(e-1) den < num < 2^(e+1) den
    num, den = 2 * (k + 1) * trace, 2**53 - 2 * (k + 1)
    e = num.bit_length() - den.bit_length()
    s = max(-e, 0)
    if den << (e + s) < num << s:
        e += 1
    c = math.ldexp(1.0, e)
    shifted = diag - c
    # TwoSum: the rounding error of diag - c, zero iff the shift is exact
    back = shifted - diag
    err = (diag - (shifted - back)) + (-c - back)
    assert not err.any(), "the shift must be exact"
    np.fill_diagonal(g, shifted)
    # the F-contiguous transpose is the same symmetric matrix, factored in place
    _, info = lapack.dpotrf(g.T, lower=1, overwrite_a=1, clean=0)
    return info == 0


def _proves_full_rank(gram: np.ndarray) -> bool:
    """Whether one shifted Cholesky proves the integer PSD gram nonsingular.

    A PSD matrix has full rank iff it is positive definite, so this is
    _proves_positive_definite(gram): gram is overwritten, True is a proof
    that rank_Q(gram) = k, and False proves nothing.
    """
    return _proves_positive_definite(gram)


def _cocycle_basis(m: BoundaryMatrix, seed: int = 0):
    """(p, Y): a basis over GF(p) of m's cocycles that vanish off _row_cut(m).

    Y is an int64 array with one row per basis cocycle and one column per
    row of m, entries in [0, p), zero on the rows the cut drops, and
    Y B = 0 (mod p), p being the first of _field_primes(seed).  Y has no
    rows when the cut gram B'B'^T is nonsingular: proved by
    _proves_full_rank, when p is None (no prime was drawn), or mod p.
    Otherwise Y is the gram's null space mod p, which holds the
    cocycles, and is exactly them when Y B = 0 (mod p) checks on m's sparse
    columns.  None when it does not (a vector y with y B'B'^T = 0 but
    y B' != 0 mod p), and when m has fewer columns than the C(n-1, dim)
    rows a cut can keep, as its gram may then be B'^T B'.
    """
    if m.n_cols < math.comb(m.n - 1, m.dim):
        return None
    if _proves_full_rank(_cut_gram(m, np.float64)):
        return None, np.zeros((0, m.n_rows), dtype=np.int64)
    p = _field_primes(seed)[0]
    null = _null_space(_cut_gram(m, np.float32), p)
    basis = np.zeros((len(null), m.n_rows), dtype=np.int64)
    basis[:, _row_cut(m)] = null
    if (basis[:, m.col_rows] @ m.signs % p).any():
        return None
    return p, basis


def _lift(y: np.ndarray, p: int) -> Optional[np.ndarray]:
    """An integer vector proportional to the nonzero vector y mod p, or None.

    y is scaled so that its first nonzero entry is 1.  Each entry u then
    becomes the fraction a/b with a = b u (mod p), |a| <= N and 0 < b <= N,
    N = isqrt((p-1)/2), found by the extended Euclidean algorithm on (p, u);
    it is unique when it exists (rational reconstruction; Wang, Guy &
    Davenport, SIGSAM Bull. 16(2), 1982).  The result is those fractions
    times the lcm of their denominators.  None when some entry has no such
    fraction, or when the lcm would take an entry past 2^53.
    """
    nz = np.flatnonzero(y)
    scale = pow(int(y[nz[0]]), -1, p)
    bound = math.isqrt((p - 1) // 2)
    fracs = []
    for u in y[nz].tolist():
        r0, r1, t0, t1 = p, u * scale % p, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if abs(t1) > bound or math.gcd(r1, t1) != 1:
            return None
        fracs.append(Fraction(r1, t1))
    lcm = math.lcm(*(f.denominator for f in fracs))
    if lcm * bound >= 2**53:
        return None
    z = np.zeros(y.shape, dtype=np.int64)
    z[nz] = [int(f * lcm) for f in fracs]
    return z


def rank_mod_p(m: BoundaryMatrix, seed: int = 0) -> int:
    """Rank of m, exact when the cut gram passes _proves_full_rank.

    Otherwise the rank of the cut gram over two random primes: exact after
    the first prime when the gram is nonsingular mod p, else the larger of
    the two ranks.  Never above the rational rank; below it with the
    probability bounded in the module docstring.
    """
    gram = _cut_gram(m, np.float64)
    k = len(gram)
    if _proves_full_rank(gram):
        return k
    del gram
    rank = 0
    for p in _field_primes(seed):
        rank = max(rank, _eliminate(_cut_gram(m, np.float32), p)[0])
        if rank == k:
            break
    return rank


def reaches_rank(m: BoundaryMatrix, target: int, seed: int = 0) -> bool:
    """Whether rank_Q(m) >= target.

    True is exact: the cut gram has at least target rows and passes
    _proves_full_rank, or some prime already gives that rank.  False means
    the gram is too small, or the certificate failed and both primes fell
    short, which is wrong only with the probability bounded in the module
    docstring.  The second prime runs only after the first falls short.
    """
    gram = _cut_gram(m, np.float64)
    if len(gram) < target:
        return False
    if _proves_full_rank(gram):
        return True
    del gram
    return any(_eliminate(_cut_gram(m, np.float32), p)[0] >= target for p in _field_primes(seed))


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


def betti_dminus1(y: Complex, seed: int = 0) -> int:
    """dim H_{d-1}(Y, Q) = C(n-1, d) - rank(boundary_d).

    The closed form for the chain/cycle dimensions needs the complete
    (d-1)-skeleton, which Complex guarantees.
    """
    full_cycles = math.comb(y.n - 1, y.d)
    return full_cycles - rank_mod_p(boundary_matrix(y), seed=seed)


def betti_stripped_identity(y: Complex, seed: int = 0):
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

    rank_d = rank_mod_p(boundary_matrix(y), seed=seed)
    b_full = math.comb(y.n - 1, y.d) - rank_d

    kept = np.flatnonzero(stats.degrees > 0)
    if kept.size == 0:
        rank_dm1 = 0
    else:
        kept_faces = unrank_faces(kept, y.d, table)
        rank_dm1 = rank_mod_p(_boundary_of(y.n, kept_faces, table), seed=seed)
    b_stripped = int(kept.size) - rank_dm1 - rank_d
    return b_full, b_stripped, isolated
