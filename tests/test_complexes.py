import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from spectop.audit import fuzz_set
from spectop.complexes import (
    ComplexStats,
    FaceProcess,
    binom_table,
    complex_from_faces,
    expected_isolated,
    facet_ranks,
    is_pure,
    isolated_faces,
    link,
    rank_faces,
    sample_complex,
    unrank_faces,
    window_density,
)
from spectop.seeding import trial_rng


def full_complex(n, d):
    return complex_from_faces(n, d, list(combinations(range(n), d + 1)))


def is_pure_by_loop(y):
    """Reference purity check: rank the (d-2)-faces kept by each choice of
    d-1 of a face's d+1 vertex positions."""
    table = binom_table(y.n, y.d + 1)
    covered = np.zeros(int(table[y.n, y.d - 1]), dtype=bool)
    for keep in combinations(range(y.d + 1), y.d - 1):
        if y.face_count:
            covered[rank_faces(y.faces[:, list(keep)], table)] = True
    return bool(covered.all())


@st.composite
def face_lists(draw, d_range=(1, 4)):
    """(n, d, faces): an arbitrary list of sorted d-faces, repeats allowed."""
    d = draw(st.integers(*d_range))
    n = draw(st.integers(d + 1, d + 6))
    face = st.sets(st.integers(0, n - 1), min_size=d + 1, max_size=d + 1).map(sorted).map(tuple)
    return n, d, draw(st.lists(face, max_size=40))


class TestRanking:
    @pytest.mark.parametrize("n,k", [(6, 2), (8, 3), (10, 4), (12, 1)])
    def test_colex_rank_is_bijection(self, n, k):
        faces = np.asarray(sorted(combinations(range(n), k), key=lambda s: s[::-1]))
        table = binom_table(n, k + 1)
        ranks = rank_faces(faces, table)
        assert np.array_equal(ranks, np.arange(math.comb(n, k)))
        back = unrank_faces(ranks, k, table)
        assert np.array_equal(back, faces)

    def test_table_values(self):
        t = binom_table(10, 4)
        assert t[10, 3] == 120 and t[5, 2] == 10 and t[0, 0] == 1


class TestComplexConstruction:
    def test_dedupe(self):
        y = complex_from_faces(5, 2, [(0, 1, 2), (0, 1, 2), (1, 2, 4)])
        assert y.face_count == 2

    def test_rejects_unsorted_face(self):
        with pytest.raises(ValueError):
            complex_from_faces(5, 2, [(2, 1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            complex_from_faces(5, 2, [(0, 1, 5)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            complex_from_faces(5, 2, [(0, 1)])

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            complex_from_faces(3, 3, [])

    @settings(max_examples=150, deadline=None)
    @given(face_lists())
    def test_invariants_on_arbitrary_face_lists(self, drawn):
        n, d, faces = drawn
        distinct = set(faces)
        y = complex_from_faces(n, d, faces)
        assert y.faces.shape == (len(distinct), d + 1) and y.faces.dtype == np.int64
        assert np.all(np.diff(y.faces, axis=1) > 0)
        assert np.all(np.diff(rank_faces(y.faces, binom_table(n, d + 1))) > 0)
        rows = {tuple(int(v) for v in row) for row in y.faces}
        assert rows == distinct
        assert all(f in rows for f in faces)
        absent = next((f for f in combinations(range(n), d + 1) if f not in distinct), None)
        if absent is not None:
            assert absent not in rows


class TestSampleComplex:
    def test_p_one_full(self):
        y = sample_complex(5, 2, 1.0)
        assert y.face_count == 10

    def test_p_zero_empty(self):
        y = sample_complex(5, 2, 0.0)
        assert y.face_count == 0
        assert isolated_faces(y).isolated_count == 10

    def test_face_count_within_four_sigma(self):
        y = sample_complex(20, 2, 0.1, seed=5)
        slots = math.comb(20, 3)
        sigma = math.sqrt(slots * 0.1 * 0.9)
        assert abs(y.face_count - slots * 0.1) <= 4 * sigma

    def test_reproducible(self):
        a = sample_complex(12, 2, 0.3, seed=9)
        b = sample_complex(12, 2, 0.3, seed=9)
        assert np.array_equal(a.faces, b.faces)

    def test_rows_sorted_unique(self):
        y = sample_complex(12, 3, 0.4, seed=2)
        assert np.all(np.diff(y.faces, axis=1) > 0)
        ranks = rank_faces(y.faces, binom_table(12, 4))
        assert np.all(np.diff(ranks) > 0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sample_complex(5, 0, 0.5)
        with pytest.raises(ValueError):
            sample_complex(5, 2, 1.5)


class TestFaceProcess:
    def test_prefix_zero_empty(self):
        assert FaceProcess(6, 2, seed=1).prefix(0).face_count == 0

    def test_full_prefix_is_complete_skeleton(self):
        proc = FaceProcess(5, 2, seed=1)
        assert proc.prefix(10).face_count == 10

    def test_order_is_permutation(self):
        proc = FaceProcess(5, 2, seed=3)
        order = proc.first(proc.total)
        assert np.array_equal(np.sort(order), np.arange(proc.total))

    def test_prefixes_nested(self):
        proc = FaceProcess(7, 2, seed=4)
        a = proc.first(5)
        b = proc.first(12)
        assert np.array_equal(a, b[:5])

    def test_replayable(self):
        a = FaceProcess(7, 2, seed=11).first(15)
        b = FaceProcess(7, 2, seed=11).first(15)
        assert np.array_equal(a, b)

    def test_degenerate_dimension_one(self):
        proc = FaceProcess(10, 1, seed=2)
        y = proc.prefix(6)
        assert y.faces.shape == (6, 2)

    def test_first_arrival_uniform_chi_square(self):
        total = math.comb(6, 3)
        counts = np.zeros(total, dtype=int)
        trials = 10_000
        for seed in range(trials):
            counts[int(FaceProcess(6, 2, seed=seed).first(1)[0])] += 1
        expected = trials / total
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat <= chi2.ppf(0.99, total - 1)

    @pytest.mark.parametrize("total", [3, 780, 9880, 2**31 + 5, 2**32 + 1, 2**40 + 3, 2**62])
    def test_block_draw_matches_scalar_draws(self, total):
        # first() draws a whole extension with one integers(arange, total)
        # call; it must match one integers(i, total) call per arrival, in
        # values and in the generator state it leaves for the next draw
        for seed in range(300):
            i0 = seed % 5
            m = min(total, i0 + 1 + seed % 23)
            scalar, block = trial_rng(seed), trial_rng(seed)
            want = [int(scalar.integers(i, total)) for i in range(i0, m)]
            assert block.integers(np.arange(i0, m), total).tolist() == want
            assert int(block.integers(0, total)) == int(scalar.integers(0, total))

    @pytest.mark.parametrize("n,d", [(3, 2), (40, 1), (40, 2), (3000, 2), (2000, 3)])
    def test_first_matches_scalar_fisher_yates(self, n, d):
        # C(3000, 3) and C(2000, 4) exceed 2^32
        for seed in range(5):
            proc = FaceProcess(n, d, seed=seed)
            rng, swaps, drawn = trial_rng(seed), {}, []
            for m in (1, 2, 2, 40, 17, 300):
                m = min(m, proc.total)
                while len(drawn) < m:
                    i = len(drawn)
                    j = int(rng.integers(i, proc.total))
                    vi, vj = swaps.get(i, i), swaps.get(j, j)
                    swaps[i], swaps[j] = vj, vi
                    drawn.append(vj)
                assert proc.first(m).tolist() == drawn[:m]
            assert int(proc._rng.integers(0, proc.total)) == int(rng.integers(0, proc.total))


class TestFacetRanks:
    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(1, 4), extra=st.integers(0, 6), data=st.data())
    def test_columns_rank_the_deleted_vertex_rows(self, d, extra, data):
        n = d + 1 + extra
        table = binom_table(n, d + 1)
        ranks = data.draw(st.lists(st.integers(0, math.comb(n, d + 1) - 1),
                                   max_size=20, unique=True))
        faces = unrank_faces(np.asarray(ranks, dtype=np.int64), d + 1, table)
        got = facet_ranks(faces, table)
        assert got.shape == (len(ranks), d + 1) and got.dtype == np.int64
        for i in range(d + 1):
            assert np.array_equal(got[:, i], rank_faces(np.delete(faces, i, axis=1), table))


class TestLink:
    def test_full_complex_link_is_complete(self):
        lk = link(full_complex(5, 2), (0,))
        assert lk.n == 4 and lk.edge_count == 6

    def test_single_triangle(self):
        y = complex_from_faces(5, 2, [(0, 1, 2)])
        lk = link(y, (0,))
        # outside vertices 1,2,3,4 relabel to 0,1,2,3
        assert lk.edge_count == 1 and lk.has_edge(0, 1)

    def test_three_dimensional_example(self):
        y = complex_from_faces(5, 3, [(0, 1, 2, 3), (0, 1, 2, 4)])
        lk = link(y, (0, 1))
        # outside vertices 2,3,4 relabel to 0,1,2; edges {2,3},{2,4}
        assert lk.edge_count == 2
        assert lk.has_edge(0, 1) and lk.has_edge(0, 2)

    def test_vertex_in_no_face(self):
        y = complex_from_faces(6, 2, [(1, 2, 3), (2, 4, 5)])
        lk = link(y, (0,))
        assert lk.n == 5 and lk.edge_count == 0

    def test_degree_sum_counts_incident_faces(self):
        y = sample_complex(10, 2, 0.25, seed=6)
        for v in range(4):
            lk = link(y, (v,))
            incident = int(np.count_nonzero((y.faces == v).any(axis=1)))
            assert int(lk.degrees.sum()) == 2 * incident

    def test_bad_face_rejected(self):
        y = full_complex(5, 2)
        with pytest.raises(ValueError):
            link(y, (0, 1))
        with pytest.raises(ValueError):
            link(y, (7,))
        with pytest.raises(ValueError):
            link(complex_from_faces(5, 1, [(0, 1)]), (0,))


class TestIsolatedFaces:
    def test_empty_complex(self):
        assert isolated_faces(sample_complex(6, 2, 0.0)).isolated_count == 15

    def test_full_complex(self):
        assert isolated_faces(full_complex(6, 2)).isolated_count == 0

    def test_single_triangle_hand_count(self):
        y = complex_from_faces(5, 2, [(0, 1, 2)])
        assert isolated_faces(y).isolated_count == 7

    @pytest.mark.parametrize("seed", range(3))
    def test_incremental_equals_batch(self, seed):
        proc = FaceProcess(9, 2, seed=seed)
        stats = ComplexStats(9, 2)
        table = binom_table(9, 3)
        checkpoints = {0, 5, 20, 50, proc.total}
        for m in range(proc.total + 1):
            if m in checkpoints:
                fresh = isolated_faces(proc.prefix(m))
                assert fresh.isolated_count == stats.isolated_count
                assert np.array_equal(fresh.degrees, stats.degrees)
            if m < proc.total:
                rank = proc.first(m + 1)[m]
                stats.add_face(unrank_faces(np.array([rank]), 3, table)[0])


class TestIsPure:
    def test_full_true(self):
        assert is_pure(full_complex(5, 2))

    def test_empty_false(self):
        assert not is_pure(sample_complex(5, 2, 0.0))

    def test_cone_over_zero(self):
        faces = [f for f in combinations(range(5), 3) if 0 in f]
        assert is_pure(complex_from_faces(5, 2, faces))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_links_having_edges(self, seed):
        y = sample_complex(7, 2, 0.2, seed=seed)
        by_links = all(link(y, (v,)).edge_count > 0 for v in range(7))
        assert is_pure(y) == by_links

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_empty_matches_loop(self, d):
        y = complex_from_faces(d + 3, d, [])
        assert is_pure(y) == is_pure_by_loop(y) is False

    @settings(max_examples=150, deadline=None)
    @given(face_lists(d_range=(2, 4)))
    def test_matches_loop(self, drawn):
        y = complex_from_faces(*drawn)
        assert is_pure(y) == is_pure_by_loop(y)


class TestLinkFuzzAlongProcess:
    def test_monotone_decreasing(self):
        proc = FaceProcess(12, 2, seed=8)
        threshold_d, M = 6.0, 2.0
        prev = {v: None for v in range(3)}
        for m in [10, 40, 90, 160, proc.total]:
            y = proc.prefix(m)
            for v in range(3):
                lk = link(y, (v,))
                cur = set(int(u) for u in fuzz_set(lk, threshold_d, M).members)
                if prev[v] is not None:
                    assert cur <= prev[v]
                prev[v] = cur


class TestDensityHelpers:
    def test_expected_isolated_formula(self):
        assert expected_isolated(5, 2, 0.0) == 10
        assert expected_isolated(5, 2, 1.0) == 0
        assert expected_isolated(6, 2, 0.5) == pytest.approx(15 * 0.5**4)

    def test_matched_density_hits_target_mean(self):
        for n, d, c in [(40, 2, 0.0), (30, 2, 1.0), (25, 3, 0.5)]:
            p = window_density(n, d, c)
            assert expected_isolated(n, d, p) == pytest.approx(
                math.exp(-c) / math.factorial(d), rel=1e-12
            )

    def test_matched_close_to_literal(self):
        got = window_density(40, 2, 0.0)
        assert got == pytest.approx(0.175918, abs=1e-5)
        lit = 2 * math.log(40) / 40
        assert abs(got - lit) < 0.02


class TestPoissonWindow:
    def test_isolated_count_close_to_poisson_law(self):
        n, d, c = 40, 2, 0.0
        p = window_density(n, d, c)
        trials = 2000
        counts = np.zeros(trials, dtype=int)
        for seed in range(trials):
            counts[seed] = isolated_faces(sample_complex(n, d, p, seed=seed)).isolated_count
        mean = math.exp(-c) / math.factorial(d)
        support = np.arange(13)
        emp = np.array([(counts == k).mean() for k in support])
        pois = np.array([math.exp(-mean) * mean**k / math.factorial(k) for k in support])
        # overflow mass beyond the window goes into one extra bucket
        tv = 0.5 * (np.abs(emp - pois).sum() + abs((1 - emp.sum()) - (1 - pois.sum())))
        assert tv <= 0.05

