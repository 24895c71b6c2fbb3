import math
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from spectop.complexes import (
    FaceProcess,
    binom_table,
    complex_from_faces,
    isolated_faces,
    rank_faces,
    sample_complex,
    unrank_faces,
)
from spectop.criteria import _first_without_isolated
from spectop.graphs import components, from_edges
import spectop.homology as homology
from spectop.homology import (
    BoundaryMatrix,
    RankTracker,
    _boundary_of,
    _cocycle_basis,
    _cut_gram,
    _eliminate,
    _field_primes,
    _lift,
    _null_space,
    _proves_full_rank,
    _proves_positive_definite,
    _reduce,
    _row_cut,
    betti_dminus1,
    betti_stripped_identity,
    boundary_matrix,
    is_prime_u64,
    rank_exact,
    rank_mod_p,
    random_prime,
    reaches_rank,
)


def full_complex(n, d):
    return complex_from_faces(n, d, list(combinations(range(n), d + 1)))


def dense_by_columns(m):
    """Reference dense boundary matrix, filled one column at a time."""
    out = np.zeros((m.n_rows, m.n_cols), dtype=np.int64)
    for j in range(m.n_cols):
        out[m.col_rows[j], j] = m.signs
    return out


def rank_at(a, p):
    """Batch-engine rank of the integer matrix a over GF(p)."""
    return _eliminate(np.mod(np.asarray(a, dtype=np.int64), p).astype(np.float32), p)[0]


def tracker_rank(m, seed):
    """Rank of a boundary matrix streamed column by column through RankTracker."""
    tracker = RankTracker(m.n_rows, seed=seed)
    for j in range(m.n_cols):
        tracker.add_face_column(m, j)
    return tracker.rank


def small_primes(count):
    """The first `count` primes from 2^22 up: the batch engine's range."""
    out = []
    cand = (1 << 22) + 1
    while len(out) < count:
        if is_prime_u64(cand):
            out.append(cand)
        cand += 2
    return out


def edge_rank(n, u, v):
    return int(rank_faces(np.array([[u, v]]), binom_table(n, 3))[0])


def row_cut_by_loop(m):
    """Reference row cut: nonzero rows avoiding the smallest vertex among
    those lying in the fewest zero rows, found one row at a time."""
    used = set(int(r) for r in m.col_rows.ravel())
    table = binom_table(m.n, m.dim)
    faces = [tuple(int(v) for v in unrank_faces(np.array([r]), m.dim, table)[0])
             for r in range(m.n_rows)]
    load = [sum(1 for r, f in enumerate(faces) if r not in used and v in f) for v in range(m.n)]
    v = min(range(m.n), key=lambda u: (load[u], u))
    return np.array([r for r, f in enumerate(faces) if r in used and v not in f], dtype=np.int64)


def stripped_boundary(y):
    """The (d-1)-boundary of y's faces of positive degree, as
    betti_stripped_identity builds it."""
    table = binom_table(y.n, y.d + 1)
    kept = np.flatnonzero(isolated_faces(y).degrees > 0)
    return _boundary_of(y.n, unrank_faces(kept, y.d, table), table)


def complex_draw(seed, d_choices, p_range):
    """A sample complex on 5..9 vertices, its shape drawn from seed."""
    rng = np.random.default_rng(seed)
    d = int(rng.choice(d_choices))
    n = int(rng.integers(max(5, d + 2), 10))
    return sample_complex(n, d, float(rng.uniform(*p_range)), seed=seed)


class TestPrimes:
    def test_known_values(self):
        assert is_prime_u64(2) and is_prime_u64(3) and is_prime_u64((1 << 61) - 1)
        assert not is_prime_u64(1) and not is_prime_u64(561) and not is_prime_u64(2**62)

    def test_random_prime_is_62_bits(self):
        p = random_prime(seed=5)
        assert 2**61 <= p < 2**62
        assert is_prime_u64(p)

    def test_reproducible(self):
        assert random_prime(seed=9) == random_prime(seed=9)

    def test_small_prime_rejected_by_tracker(self):
        with pytest.raises(ValueError):
            RankTracker(10, prime=1_000_003)


class TestBoundaryMatrix:
    def test_single_triangle_column(self):
        y = complex_from_faces(4, 2, [(0, 1, 2)])
        m = boundary_matrix(y)
        dense = m.dense()
        assert dense[edge_rank(4, 1, 2), 0] == 1
        assert dense[edge_rank(4, 0, 2), 0] == -1
        assert dense[edge_rank(4, 0, 1), 0] == 1
        assert np.count_nonzero(dense) == 3

    def test_empty_complex_no_columns(self):
        m = boundary_matrix(complex_from_faces(6, 2, []))
        assert m.n_cols == 0 and m.n_rows == 15

    def test_shared_edge_row(self):
        y = complex_from_faces(4, 2, [(0, 1, 2), (0, 1, 3)])
        dense = boundary_matrix(y).dense()
        shared = edge_rank(4, 0, 1)
        assert np.count_nonzero(dense[shared]) == 2

    def test_columns_have_d_plus_one_entries(self):
        y = sample_complex(9, 3, 0.3, seed=2)
        m = boundary_matrix(y)
        dense = m.dense()
        assert np.all(np.count_nonzero(dense, axis=0) == 4)


    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_dense_matches_column_loop(self, d, seed):
        m = boundary_matrix(sample_complex(10, d, 0.3, seed=seed))
        assert np.array_equal(m.dense(), dense_by_columns(m))

    @pytest.mark.parametrize("seed", range(5))
    def test_hodge_gram_matches_column_loop(self, seed):
        y = sample_complex(16, 2, 0.35, seed=seed)
        # the (d-1)-boundary of the kept faces, as betti_stripped_identity builds it
        kept = np.flatnonzero(isolated_faces(y).degrees > 0)
        low = boundary_matrix(complex_from_faces(16, 1, unrank_faces(kept, 2, binom_table(16, 3))))
        # a sparse draw has fewer faces than kept rows: the B'^T B' side
        few = boundary_matrix(sample_complex(16, 2, 0.01, seed=seed))
        for m in (boundary_matrix(y), low, few):
            b = m.dense()[_row_cut(m)]
            want = b.T @ b if m.n_cols < b.shape[0] else b @ b.T
            for dtype in (np.float32, np.float64):
                gram = _cut_gram(m, dtype)
                assert gram.dtype == dtype and gram.flags.c_contiguous
                assert np.array_equal(gram, want)
        assert few.n_cols < _row_cut(few).size


class TestRank:
    def test_empty_is_zero(self):
        m = boundary_matrix(complex_from_faces(5, 2, []))
        assert rank_mod_p(m) == 0
        assert rank_exact(m.dense()) == 0

    def test_single_column_is_one(self):
        m = boundary_matrix(complex_from_faces(4, 2, [(0, 1, 2)]))
        assert rank_mod_p(m) == 1
        assert rank_exact(m) == 1

    def test_full_two_skeleton_n4(self):
        m = boundary_matrix(full_complex(4, 2))
        assert rank_mod_p(m) == 3
        assert rank_exact(m) == 3

    @pytest.mark.parametrize("seed", range(100))
    def test_modp_equals_exact_on_random_complexes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 9))
        d = int(rng.integers(1, min(4, n - 1) + 1))
        y = sample_complex(n, d, float(rng.uniform(0.1, 0.9)), seed=seed)
        m = boundary_matrix(y)
        assert rank_mod_p(m, seed=seed) == rank_exact(m)

    def test_streaming_order_does_not_matter(self):
        y = sample_complex(10, 2, 0.3, seed=7)
        m = boundary_matrix(y)
        batch = rank_mod_p(m, seed=1)
        rng = np.random.default_rng(0)
        tracker = RankTracker(m.n_rows, seed=1)
        grew = 0
        for j in rng.permutation(m.n_cols):
            grew += tracker.add_face_column(m, int(j))
        assert tracker.rank == batch == grew
        assert tracker.rank <= min(m.n_rows, m.n_cols)

    def test_rank_never_decreases(self):
        y = sample_complex(9, 2, 0.4, seed=3)
        m = boundary_matrix(y)
        tracker = RankTracker(m.n_rows, seed=0)
        last = 0
        for j in range(m.n_cols):
            tracker.add_face_column(m, j)
            assert tracker.rank >= last
            last = tracker.rank

    def test_exact_against_float_svd(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = rng.integers(-2, 3, size=(rng.integers(1, 12), rng.integers(1, 12)))
            assert rank_exact(a) == np.linalg.matrix_rank(a.astype(float))

    def test_exact_size_cap(self):
        with pytest.raises(ValueError):
            rank_exact(np.zeros((2001, 5)))

    @pytest.mark.parametrize("seed", range(12))
    def test_tracker_matches_exact_on_general_columns(self, seed):
        # entries in [-3, 3] and at most 16 rows keep every minor below
        # 12^16 < 2^61 < p in absolute value (Hadamard), so no prime can
        # lower the rank and the two ranks must agree exactly
        rng = np.random.default_rng(500 + seed)
        nr, nc = int(rng.integers(1, 17)), int(rng.integers(3, 17))
        k = int(rng.integers(1, min(nr, nc) + 1))
        # each column is a signed sum of at most 3 columns of a {-1, 0, 1}
        # basis: entries stay in [-3, 3] and the rank is usually below
        # min(nr, nc), so dependent columns must reduce to zero
        basis = rng.integers(-1, 2, size=(nr, k))
        mix = np.zeros((k, nc), dtype=np.int64)
        for j in range(nc):
            picks = rng.choice(k, size=min(3, k), replace=False)
            mix[picks, j] = rng.choice([-1, 1], size=picks.size)
        a = basis @ mix
        zero, src, dst = rng.choice(nc, size=3, replace=False)
        a[:, zero] = 0
        a[:, dst] = a[:, src]
        tracker = RankTracker(nr, seed=seed)
        grew = 0
        for j in range(nc):
            rows = np.flatnonzero(a[:, j])
            grew += tracker.add_column(rows, a[rows, j])
        assert tracker.rank == grew == rank_exact(a)


class TestBatchEngine:
    @pytest.fixture
    def narrow_panels(self, monkeypatch):
        # panels of 3 columns and chunks of 2 rows: several panels, several
        # trailing chunks and a short last panel run on every matrix here
        monkeypatch.setattr(homology, "_PANEL", 3)
        monkeypatch.setattr(homology, "_CHUNK", 2)

    def test_field_primes(self):
        p, q = _field_primes(3)
        assert p != q and _field_primes(3) == [p, q]
        for x in (p, q):
            assert 2**22 <= x < 2**23 and is_prime_u64(x)
        # [4, 8) holds only 5 and 7, so a repeated draw is likely there
        for seed in range(10):
            assert sorted(homology._random_primes(3, seed, 2)) == [5, 7]

    def test_reduce_is_exact(self):
        rng = np.random.default_rng(2)
        p = _field_primes(0)[0]
        near = np.arange(-50, 50) * p + rng.integers(-3, 4, size=100)
        halves = np.arange(-50, 50) * p + p // 2 + rng.integers(0, 2, size=100)
        wide = rng.integers(-2**52, 2**52, size=2000)
        x = np.concatenate([near, halves, wide])
        got = _reduce(x.astype(np.float64), p)
        assert np.all(np.abs(got) < p)
        assert np.array_equal(np.mod(got.astype(np.int64), p), np.mod(x, p))

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_bareiss(self, seed, narrow_panels):
        rng = np.random.default_rng(700 + seed)
        # alternate tall and wide shapes, up to 40 x 40
        a_side, b_side = sorted(int(x) for x in rng.integers(1, 41, size=2))
        nr, nc = (b_side, a_side) if seed % 2 else (a_side, b_side)
        nc = max(nc, 3)
        k = int(rng.integers(0, min(nr, nc) + 1))
        # each column a signed sum of at most 3 columns of a {-1, 0, 1}
        # basis: entries stay in [-3, 3] and the rank is at most k
        basis = rng.integers(-1, 2, size=(nr, k))
        mix = np.zeros((k, nc), dtype=np.int64)
        for j in range(nc):
            picks = rng.choice(k, size=min(3, k), replace=False)
            mix[picks, j] = rng.choice([-1, 1], size=picks.size)
        a = basis @ mix
        zero, src, dst = rng.choice(nc, size=3, replace=False)
        a[:, zero] = 0
        a[:, dst] = a[:, src]
        assert np.abs(a).max() <= 3
        assert rank_at(a, _field_primes(seed)[0]) == rank_exact(a)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_streaming_tracker_on_boundaries(self, seed, narrow_panels):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(6, 12))
        d = int(rng.integers(1, 4))
        # sparse draws give fewer faces than facets, so rank_mod_p also
        # takes its B^T B side
        y = sample_complex(n, d, float(rng.uniform(0.05, 0.9)), seed=seed)
        m = boundary_matrix(y)
        assert rank_mod_p(m, seed=seed) == tracker_rank(m, seed)

    def test_both_gram_sides(self):
        few = boundary_matrix(sample_complex(10, 2, 0.05, seed=1))
        many = boundary_matrix(sample_complex(10, 2, 0.8, seed=1))
        assert few.n_cols < few.n_rows < many.n_cols
        for m in (few, many):
            assert rank_mod_p(m) == tracker_rank(m, 0) == rank_exact(m)

    def test_one_sided_error_and_two_prime_maximum(self):
        # diag(p1, p2) has rational rank 2 but loses one pivot to each of
        # its own primes; a mod-p rank can only undershoot, and the larger
        # rank over two primes recovers the true one unless both divide
        p1, p2, p3 = small_primes(3)
        a = np.diag([p1, p2])
        assert rank_exact(a) == 2
        assert rank_at(a, p1) == 1 and rank_at(a, p2) == 1
        assert rank_at(a, p3) == 2
        assert max(rank_at(a, p) for p in (p1, p3)) == 2
        assert max(rank_at(a, p) for p in (p1, p2)) == 1

    def test_reaches_rank_is_a_certificate(self):
        m = boundary_matrix(full_complex(7, 2))
        target = math.comb(6, 2)
        assert reaches_rank(m, target, seed=4)
        assert not reaches_rank(m, target + 1, seed=4)
        assert rank_mod_p(m, seed=4) == target


class TestRowCut:
    """rank_mod_p eliminates the gram of the rows _row_cut keeps, stopping
    after one prime when that gram is nonsingular."""

    @pytest.mark.parametrize("seed", range(1100, 1140))
    def test_matches_loop_and_keeps_rank(self, seed):
        m = boundary_matrix(complex_draw(seed, [1, 2, 3], (0.02, 0.9)))
        rows = _row_cut(m)
        assert np.array_equal(rows, row_cut_by_loop(m))
        assert rank_exact(m.dense()[rows]) == rank_exact(m)

    def test_every_vertex_in_an_isolated_face(self):
        cases = [complex_from_faces(6, 2, []), complex_from_faces(6, 3, []),
                 complex_from_faces(6, 2, [(0, 1, 2)]),
                 complex_from_faces(7, 3, [(0, 1, 2, 3), (1, 2, 4, 5)])]
        cases += [complex_draw(seed, [2, 3], (0.02, 0.25)) for seed in range(1200, 1260)]
        checked = 0
        for y in cases:
            zero = isolated_faces(y).degrees == 0
            faces = unrank_faces(np.flatnonzero(zero), y.d, binom_table(y.n, y.d + 1))
            if np.unique(faces).size < y.n:
                continue
            m = boundary_matrix(y)
            assert np.array_equal(_row_cut(m), row_cut_by_loop(m))
            for seed in range(3):
                assert rank_mod_p(m, seed=seed) == rank_exact(m)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("seed", range(1300, 1330))
    def test_three_dimensional_boundaries(self, seed):
        m = boundary_matrix(complex_draw(seed, [3], (0.05, 0.95)))
        assert rank_mod_p(m, seed=seed) == rank_exact(m)

    @pytest.mark.parametrize("seed", range(1400, 1430))
    def test_stripped_boundary(self, seed):
        y = complex_draw(seed, [2, 3], (0.15, 0.6))
        assert y.face_count
        m = stripped_boundary(y)
        assert np.array_equal(_row_cut(m), row_cut_by_loop(m))
        assert rank_mod_p(m, seed=seed) == rank_exact(m)

    def test_one_elimination_iff_cut_gram_nonsingular(self, monkeypatch):
        calls, certified = [], []

        def spy(a, p):
            calls.append(p)
            return _eliminate(a, p)

        def cert_spy(gram):
            certified.append(_proves_full_rank(gram))
            return certified[-1]

        monkeypatch.setattr(homology, "_eliminate", spy)
        monkeypatch.setattr(homology, "_proves_full_rank", cert_spy)
        seen = set()
        for seed in range(1500, 1560):
            y = complex_draw(seed, [1, 2, 3], (0.05, 0.9))
            ms = [boundary_matrix(y)]
            if y.d >= 2 and y.face_count:
                ms.append(stripped_boundary(y))
            for m in ms:
                calls.clear()
                certified.clear()
                rank = rank_mod_p(m, seed=seed)
                assert rank == rank_exact(m)
                nonsingular = rank == min(_row_cut(m).size, m.n_cols)
                # no elimination after a certificate; else one prime when
                # the gram is nonsingular mod the first, two otherwise
                if certified == [True]:
                    assert nonsingular and calls == []
                else:
                    assert certified == [False]
                    assert calls == _field_primes(seed)[:1 if nonsingular else 2]
                seen.add(certified[0])
        assert seen == {True, False}


class TestFullRankCertificate:
    """_proves_full_rank: one Cholesky of the cut gram shifted by c."""

    def test_never_true_on_a_singular_gram(self):
        singular = fooled = 0
        for seed in range(300):
            rng = np.random.default_rng(2000 + seed)
            n = int(rng.integers(7, 13))
            y = sample_complex(n, 2, float(rng.uniform(0.05, 0.9)), seed=seed)
            gram = _cut_gram(boundary_matrix(y), np.float64)
            full = rank_exact(gram.astype(np.int64)) == len(gram)
            singular += not full
            if not full:
                # an unshifted Cholesky succeeds on some singular grams;
                # the shift is what makes success a proof
                fooled += lapack.dpotrf(gram.copy(), lower=1)[1] == 0
            assert _proves_full_rank(gram) == full
        assert singular >= 20 and fooled >= 3

    @pytest.mark.parametrize("n", [25, 40])
    def test_true_on_the_m1_grams(self, n):
        proved = 0
        for seed in range(40):
            proc = FaceProcess(n, 2, seed=seed)
            m = boundary_matrix(proc.prefix(_first_without_isolated(proc)))
            gram = _cut_gram(m, np.float32)
            # nonsingular mod p proves nonsingular over Q
            full = _eliminate(gram.copy(), _field_primes(seed)[0])[0] == len(gram)
            assert _proves_full_rank(gram.astype(np.float64)) == full
            proved += full
        assert proved >= 30

    def test_failure_falls_back_to_elimination(self):
        # pascal(20) has determinant 1, but its condition number (~1e21)
        # defeats any float64 Cholesky
        a = scipy.linalg.pascal(20)
        assert not _proves_full_rank(a.astype(np.float64))
        assert all(rank_at(a, p) == 20 for p in _field_primes(0))

    def test_empty_and_zero_grams(self):
        assert _proves_full_rank(np.zeros((0, 0)))
        assert not _proves_full_rank(np.zeros((3, 3)))
        assert _proves_full_rank(np.eye(3))


class TestPositiveDefiniteCertificate:
    """_proves_positive_definite on symmetric integer matrices that are not
    grams: the shift rule reads only the diagonal."""

    def test_small_cases(self):
        assert _proves_positive_definite(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert not _proves_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))
        # a nonpositive diagonal entry refuses before any shift
        assert not _proves_positive_definite(np.array([[2.0**40, 0.0], [0.0, 1.0 - 2.0**40]]))
        assert not _proves_positive_definite(np.array([[3.0, 1.0], [1.0, 0.0]]))

    def test_path_laplacian_plus_identity(self):
        # tridiagonal (2, -1) of order 50: lambda_min = 2 - 2cos(pi/51) ~ 0.0038
        t = 2 * np.eye(50) - np.eye(50, k=1) - np.eye(50, k=-1)
        assert _proves_positive_definite(t.copy())
        assert not _proves_positive_definite(t - np.eye(50))

    def test_agrees_with_eigvalsh_off_the_boundary(self):
        rng = np.random.default_rng(7)
        decided = set()
        for _ in range(200):
            k = int(rng.integers(2, 30))
            x = rng.integers(-3, 4, size=(k, int(rng.integers(1, 2 * k))))
            g = (x @ x.T - int(rng.integers(0, 8)) * np.eye(k, dtype=np.int64)).astype(np.float64)
            low = np.linalg.eigvalsh(g)[0]
            if abs(low) < 1e-6:
                continue
            assert _proves_positive_definite(g.copy()) == (low > 0)
            decided.add(bool(low > 0))
        assert decided == {True, False}


class TestNullSpace:
    """_null_space back-substitutes _eliminate's echelon form; _cocycle_basis
    and _lift build on it."""

    @staticmethod
    def check_basis(g, p):
        """G Y = 0 (mod p) on the basis of the integer matrix g, with
        beta = k - rank and independent rows."""
        a = np.mod(np.asarray(g, dtype=np.int64), p).astype(np.float32)
        basis = _null_space(a, p)
        k = len(g)
        assert basis.shape == (k - rank_at(g, p), k)
        assert np.all((0 <= basis) & (basis < p))
        assert not np.any(np.asarray(g, dtype=object).dot(basis.T.astype(object)) % p)
        assert rank_at(basis, p) == len(basis)
        return basis

    @pytest.mark.parametrize("seed", range(40))
    def test_random_singular_grams(self, seed, monkeypatch):
        if seed % 2:
            # several panels, several chunks and a short last panel
            monkeypatch.setattr(homology, "_PANEL", 3)
            monkeypatch.setattr(homology, "_CHUNK", 2)
        rng = np.random.default_rng(3000 + seed)
        k = int(rng.integers(1, 41))
        r = int(rng.integers(0, k + 1))
        x = rng.integers(-2, 3, size=(k, r))
        g = x @ x.T
        basis = self.check_basis(g, _field_primes(seed)[0])
        assert len(basis) == k - rank_exact(g)

    def test_pascal(self):
        # pascal(20) has determinant 1, and repeating its row and column 0
        # as the last leaves pascal(19), of determinant 1, beside one kernel
        # vector; both defeat a float64 Cholesky
        a = scipy.linalg.pascal(20).astype(object)
        singular = a.copy()
        singular[19, :] = singular[0, :]
        singular[:, 19] = singular[:, 0]
        for p in _field_primes(0):
            assert self.check_basis(a, p).shape == (0, 20)
            basis = self.check_basis(singular, p)
            assert basis.shape == (1, 20)
            assert np.array_equal(_lift(basis[0], p), np.r_[1, np.zeros(18, dtype=int), -1])

    @pytest.mark.parametrize("n", [8, 9, 12])
    def test_cocycles_at_m1(self, n):
        gave_up, betas = 0, set()
        avoid_0 = unrank_faces(np.arange(math.comb(n, 2)), 2, binom_table(n, 3)).min(axis=1) > 0
        for seed in range(40):
            proc = FaceProcess(n, 2, seed=seed)
            m = boundary_matrix(proc.prefix(_first_without_isolated(proc)))
            found = _cocycle_basis(m, seed)
            # every row is covered, so the cut keeps the C(n-1, 2) rows
            # avoiding vertex 0; fewer faces than those give up
            if found is None:
                assert m.n_cols < math.comb(n - 1, 2)
                gave_up += 1
                continue
            p, basis = found
            # the cocycles on the cut rows count b_1
            assert len(basis) == math.comb(n - 1, 2) - rank_exact(m)
            betas.add(len(basis))
            if p is None:
                # the Cholesky proved full rank before any prime was drawn
                assert len(basis) == 0
                continue
            assert not np.any(basis[:, m.col_rows] @ m.signs % p)
            assert not np.any(basis[:, ~avoid_0])
            assert rank_at(basis, p) == len(basis)
        assert gave_up and {0, 1} <= betas

    def test_isotropic_null_vectors_are_rejected(self, monkeypatch):
        # over GF(19) the gram's null space can hold a y with y B'B'^T = 0
        # but y B' != 0; the cocycle check must then give up
        monkeypatch.setattr(homology, "_field_primes", lambda seed: [19, 23])
        rejected = 0
        for seed in range(60):
            proc = FaceProcess(12, 2, seed=seed)
            m = boundary_matrix(proc.prefix(_first_without_isolated(proc)))
            if m.n_cols < math.comb(11, 2):
                continue
            found = _cocycle_basis(m, seed)
            if found is None:
                cut = _null_space(_cut_gram(m, np.float32), 19)
                null = np.zeros((len(cut), m.n_rows), dtype=np.int64)
                null[:, _row_cut(m)] = cut
                assert np.any(null[:, m.col_rows] @ m.signs % 19)
                rejected += 1
            else:
                assert not np.any(found[1][:, m.col_rows] @ m.signs % 19)
        assert rejected >= 1

    def test_lift_recovers_small_vectors(self):
        rng = np.random.default_rng(7)
        p = _field_primes(1)[0]
        for _ in range(50):
            z = rng.integers(-30, 31, size=25) * (rng.random(25) < 0.4)
            z[int(rng.integers(25))] = int(rng.integers(1, 31))
            y = np.mod(z * int(rng.integers(1, p)), p)
            got = _lift(y, p)
            first = np.flatnonzero(z)[0]
            # proportional to z, with the first nonzero entry positive
            assert np.array_equal(got * z[first], z * got[first]) and got[first] > 0
        assert _lift(rng.integers(0, p, size=25), p) is None


class TestBetti:
    def test_no_triangles(self):
        assert betti_dminus1(complex_from_faces(4, 2, [])) == 3

    def test_tetrahedron_boundary(self):
        assert betti_dminus1(full_complex(4, 2)) == 0

    def test_one_triangle(self):
        assert betti_dminus1(complex_from_faces(4, 2, [(0, 1, 2)])) == 2

    def test_matches_exact_rank(self):
        y = sample_complex(10, 2, 0.2, seed=5)
        assert betti_dminus1(y) == math.comb(9, 2) - rank_exact(boundary_matrix(y))

    def test_dimension_one_counts_components(self):
        rng = np.random.default_rng(14)
        for seed in range(5):
            n = int(rng.integers(4, 12))
            y = sample_complex(n, 1, 0.25, seed=seed)
            g = from_edges(n, [tuple(f) for f in y.faces])
            assert betti_dminus1(y) == len(components(g).sizes) - 1

    def test_monotone_along_process(self):
        proc = FaceProcess(7, 2, seed=6)
        prev = math.inf
        for m in range(proc.total + 1):
            b = betti_dminus1(proc.prefix(m))
            assert b <= prev
            prev = b


class TestStrippedIdentity:
    def test_full_complex(self):
        assert betti_stripped_identity(full_complex(5, 2)) == (0, 0, 0)

    def test_empty_complex(self):
        assert betti_stripped_identity(complex_from_faces(4, 2, [])) == (3, 0, 6)

    def test_canonical_trap(self):
        b, bs, iso = betti_stripped_identity(complex_from_faces(5, 2, [(0, 1, 2)]))
        assert (b, bs, iso) == (5, 0, 7)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            betti_stripped_identity(sample_complex(6, 1, 0.5))

    @pytest.mark.parametrize("seed", range(20))
    def test_corrected_identity_always_exact(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(6, 11))
        d = 2 if rng.random() < 0.7 else 3
        if d >= n - 1:
            d = 2
        y = sample_complex(n, d, float(rng.uniform(0.05, 0.8)), seed=seed)
        b, bs, iso = betti_stripped_identity(y, seed=seed)
        rank_kept = rank_mod_p(stripped_boundary(y), seed=seed) if y.face_count else 0
        assert b - bs - iso == rank_kept - math.comb(n - 1, d - 1)
        if rank_kept == math.comb(n - 1, d - 1):
            assert b == bs + iso

    @pytest.mark.parametrize("seed", range(8))
    def test_plain_identity_in_regime(self, seed):
        # dense enough that stripping cannot disconnect the kept skeleton
        y = sample_complex(9, 2, 0.55, seed=100 + seed)
        stats = isolated_faces(y)
        kept = np.flatnonzero(stats.degrees > 0)
        g = from_edges(9, [tuple(f) for f in unrank_faces(kept, 2, binom_table(9, 3))])
        if len(components(g).sizes) != 1:
            pytest.skip("draw left the kept skeleton disconnected")
        b, bs, iso = betti_stripped_identity(y)
        assert b == bs + iso
