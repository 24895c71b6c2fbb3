import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import lapack

from spectop.complexes import (
    ComplexStats,
    FaceProcess,
    binom_table,
    complex_from_faces,
    facet_ranks,
    isolated_faces,
    link,
    link_edges,
    rank_faces,
    sample_complex,
    unrank_faces,
)
import spectop.criteria as criteria
from spectop.criteria import (
    CERTIFIED,
    INCONCLUSIVE,
    _certified,
    _exceeds,
    _first_holding,
    _first_without_isolated,
    _link_gram,
    _link_laplacian,
    _spans,
    _streamed_m2,
    cohomology_hitting,
    garland_check,
    graph_connectivity_hitting,
    link_lambda2,
    t_hitting,
    t_structure,
    zuk_check,
)
from spectop.graphs import components, from_edges, induced_subgraph
import spectop.homology as homology
from spectop.homology import (
    RankTracker,
    betti_stripped_identity,
    _proves_positive_definite,
    boundary_matrix,
    rank_exact,
    rank_mod_p,
)
from spectop.seeding import derive_seed
from spectop.spectral import full_spectrum, gap, normalized_laplacian


def full_skeleton(n, d):
    return complex_from_faces(n, d, list(combinations(range(n), d + 1)))


def pendant_edge_gadget(n, avoided_pairs):
    """Full 2-skeleton minus every triangle containing an avoided pair.

    Each avoided pair becomes an isolated edge while every vertex keeps a
    dense link, so the structure verdict certifies with positive free rank.
    """
    bad = {tuple(sorted(p)) for p in avoided_pairs}
    tris = [
        t for t in combinations(range(n), 3)
        if not any(p[0] in t and p[1] in t for p in bad)
    ]
    return complex_from_faces(n, 2, tris)


def battery(seed=0):
    """A mixed bag of complexes for implication-style properties."""
    rng = np.random.default_rng(seed)
    out = [
        full_skeleton(5, 2),
        full_skeleton(6, 2),
        full_skeleton(6, 3),
        complex_from_faces(6, 2, []),
        complex_from_faces(5, 2, [(0, 1, 2)]),
        pendant_edge_gadget(8, [(6, 7)]),
        pendant_edge_gadget(9, [(0, 1), (2, 3)]),
    ]
    for _ in range(20):
        n = int(rng.integers(5, 13))
        d = 2 if rng.random() < 0.7 else 3
        if d >= n - 1:
            d = 2
        out.append(sample_complex(n, d, float(rng.uniform(0.15, 0.95)),
                                  seed=int(rng.integers(1 << 30))))
    return out


def reference_t_hitting(proc, grid):
    """Full-scan t_hitting: a per-arrival ComplexStats M1 and a t_structure
    verdict, every link solved, at each index the grid scan visits."""
    table = binom_table(proc.n, 3)
    stats = ComplexStats(proc.n, 2)
    m1 = None
    for m in range(1, proc.total + 1):
        stats.add_face(unrank_faces(proc.first(m)[m - 1:], 3, table)[0])
        if stats.isolated_count == 0:
            m1 = m
            break
    m2t = None
    last_inconclusive = None
    for g in grid:
        if t_structure(proc.prefix(g)).verdict != CERTIFIED:
            last_inconclusive = g
            continue
        start = g if last_inconclusive is None else last_inconclusive + 1
        m2t = next(m for m in range(start, g + 1)
                   if t_structure(proc.prefix(m)).verdict == CERTIFIED)
        break
    return m1, m2t


def streaming_cohomology_hitting(proc, seed):
    """Per-face reference scan: a ComplexStats degree table for M1 and a
    RankTracker fed every arriving boundary column for M2."""
    n, d = proc.n, proc.d
    table = binom_table(n, d + 1)
    stats = ComplexStats(n, d)
    tracker = RankTracker(int(table[n, d]), seed=seed)
    target = math.comb(n - 1, d)
    signs = np.array([1 if i % 2 == 0 else -1 for i in range(d + 1)], dtype=np.int64)
    faces = unrank_faces(proc.first(proc.total), d + 1, table)
    m1 = m2 = None
    for m, face in enumerate(faces, start=1):
        stats.add_face(face)
        tracker.add_column(facet_ranks(face, table)[0], signs)
        if m1 is None and stats.isolated_count == 0:
            m1 = m
        if m2 is None and tracker.rank == target:
            m2 = m
        if m1 is not None and m2 is not None:
            return m1, m2
    return m1, m2


def streaming_connectivity_hitting(proc):
    """Per-edge reference scan: a degree count for M1 and a union-find
    component count for tau_c."""
    n = proc.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    degree = [0] * n
    zero_deg, comps = n, n
    m1 = tau = None
    edges = unrank_faces(proc.first(proc.total), 2, binom_table(n, 2))
    for m, (u, v) in enumerate(edges.tolist(), start=1):
        for w in (u, v):
            zero_deg -= degree[w] == 0
            degree[w] += 1
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
        if m1 is None and zero_deg == 0:
            m1 = m
        if tau is None and comps == 1:
            tau = m
        if m1 is not None and tau is not None:
            return m1, tau
    return m1, tau


def oracle_lambda2(y, f):
    """lambda_2 of lk(f) on its positive-degree vertices, via link and
    induced_subgraph; None for an empty link."""
    lk = link(y, f)
    keep = np.flatnonzero(lk.degrees > 0)
    if keep.size == 0:
        return None
    return float(full_spectrum(normalized_laplacian(induced_subgraph(lk, keep))).eigenvalues[1])


def harness_grid(total, points):
    return sorted(set(int(round(x)) for x in np.linspace(0, total, points)))


class TestLinkEdges:
    @pytest.mark.parametrize("n,d", [(8, 2), (10, 2), (13, 2), (8, 3), (9, 3)])
    def test_laplacian_matches_two_step_build(self, n, d):
        # oracle: link on all outside vertices, then induced_subgraph on the
        # positive-degree ones, face by face
        for seed in range(3):
            proc = FaceProcess(n, d, seed=seed)
            for m in np.linspace(0, proc.total, 7).astype(int):
                y = proc.prefix(int(m))
                faces, edges = link_edges(y)
                assert faces.shape == (len(edges), d - 1)
                groups = {tuple(f): e for f, e in zip(faces.tolist(), edges)}
                assert len(groups) == len(edges)
                assert np.all(np.diff(rank_faces(faces, binom_table(n, d + 1))) > 0)
                for f in combinations(range(n), d - 1):
                    lk = link(y, f)
                    keep = np.flatnonzero(lk.degrees > 0)
                    if keep.size == 0:
                        assert f not in groups
                        continue
                    e = groups[f]
                    assert e.shape == (lk.edge_count, 2)
                    assert np.all(e[:, 0] < e[:, 1]) and not np.isin(e, f).any()
                    verts = np.unique(e)
                    old = normalized_laplacian(induced_subgraph(lk, keep))
                    new = normalized_laplacian(from_edges(verts.size, np.searchsorted(verts, e)))
                    assert np.array_equal(new, old)
                    # the direct build keeps from_edges' -0.0 fill, which eigh reads
                    direct = _link_laplacian(e)
                    assert np.array_equal(direct, new)
                    assert np.array_equal(np.signbit(direct), np.signbit(new))
                    assert link_lambda2(e)[0] == oracle_lambda2(y, f)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_empty_complex_gives_no_groups(self, d):
        faces, edges = link_edges(complex_from_faces(d + 3, d, []))
        assert faces.shape == (0, d - 1) and edges == []

    def test_single_face(self):
        faces, edges = link_edges(complex_from_faces(5, 2, [(1, 2, 4)]))
        assert faces.tolist() == [[1], [2], [4]]
        assert [e.tolist() for e in edges] == [[[2, 4]], [[1, 4]], [[1, 2]]]

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            link_edges(complex_from_faces(5, 1, [(0, 1)]))


class TestGarland:
    def test_full_two_skeleton(self):
        r = garland_check(full_skeleton(6, 2))
        assert r.pure and r.certified
        assert r.min_link_lambda2 == pytest.approx(1.25, abs=1e-9)

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_complete_link_closed_form(self, n):
        # vertex links of the full 2-skeleton are K_{n-1}
        r = garland_check(full_skeleton(n, 2))
        assert r.min_link_lambda2 == pytest.approx((n - 1) / (n - 2), abs=1e-9)

    def test_full_three_skeleton(self):
        r = garland_check(full_skeleton(6, 3))
        assert r.certified
        assert r.min_link_lambda2 == pytest.approx(4 / 3, abs=1e-9)

    def test_empty_complex(self):
        r = garland_check(complex_from_faces(6, 2, []))
        assert r == type(r)(None, False, False, None)

    def test_one_triangle_not_pure(self):
        r = garland_check(complex_from_faces(5, 2, [(0, 1, 2)]))
        assert not r.pure and not r.certified
        assert r.min_link_lambda2 == pytest.approx(2.0)

    @staticmethod
    def brute_force_worst(y):
        """First strict minimum of the link lambda_2 over faces in lex order."""
        worst = worst_face = None
        for f in combinations(range(y.n), y.d - 1):
            lam2 = oracle_lambda2(y, f)
            if lam2 is not None and (worst is None or lam2 < worst):
                worst, worst_face = lam2, f
        return worst, worst_face

    def test_worst_face_is_argmin(self):
        for n, d in [(9, 2), (12, 2), (8, 3), (9, 3), (8, 4)]:
            for seed in range(5):
                y = sample_complex(n, d, 0.5, seed=seed)
                r = garland_check(y)
                assert (r.min_link_lambda2, r.worst_face) == self.brute_force_worst(y)

    def test_tied_minimum_breaks_lexicographically(self):
        # invariant under (0 1)(2 3), which maps lk(0,3) onto lk(1,2) in
        # order, so both reach the minimum 1/2 bit for bit; (1,2) comes
        # first in colex order, (0,3) in lex order
        y = complex_from_faces(6, 3, [(0, 1, 2, 3), (0, 1, 2, 5), (0, 1, 3, 5),
                                      (0, 1, 4, 5), (0, 3, 4, 5), (1, 2, 4, 5)])
        lam = {f: oracle_lambda2(y, f) for f in combinations(range(6), 2)}
        low = min(v for v in lam.values() if v is not None)
        assert [f for f, v in lam.items() if v == low] == [(0, 3), (1, 2)]
        r = garland_check(y)
        assert r.worst_face == (0, 3) and r.min_link_lambda2 == low

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            garland_check(sample_complex(6, 1, 0.5))

    def test_certification_implies_vanishing(self):
        # a certificate with the betti number still positive would be a
        # show-stopping bug, so this must hold with zero exceptions
        for y in battery(seed=11):
            r = garland_check(y)
            if r.certified:
                b, b_stripped, _ = betti_stripped_identity(y)
                assert b_stripped == 0


class TestZuk:
    def test_full_two_skeleton(self):
        r = zuk_check(full_skeleton(6, 2))
        assert r.all_links_connected and r.certified
        assert r.min_link_lambda2 == pytest.approx(1.25, abs=1e-9)

    def test_disconnected_link(self):
        # link of vertex 0 is two disjoint edges
        y = complex_from_faces(5, 2, [(0, 1, 2), (0, 3, 4)])
        r = zuk_check(y)
        assert not r.all_links_connected and not r.certified

    def test_empty_link_fails(self):
        r = zuk_check(complex_from_faces(5, 2, [(0, 1, 2)]))
        assert not r.all_links_connected and not r.certified

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            zuk_check(full_skeleton(6, 3))

    def test_matches_garland_minimum_in_dimension_two(self):
        # codimension-2 faces are vertices when d=2, so both certificates
        # read the same links and the same threshold 1 - 1/d = 1/2
        for y in battery(seed=3):
            if y.d != 2:
                continue
            g = garland_check(y)
            z = zuk_check(y)
            if g.min_link_lambda2 is None:
                assert z.min_link_lambda2 is None
            else:
                assert z.min_link_lambda2 == pytest.approx(g.min_link_lambda2)
            if g.certified:
                assert z.certified


class TestStructureVerdict:
    def test_full_skeleton_certifies(self):
        r = t_structure(full_skeleton(6, 2))
        assert r.verdict == CERTIFIED
        assert r.free_rank == 0 and r.skeleton_connected

    def test_empty_complex_inconclusive(self):
        r = t_structure(complex_from_faces(5, 2, []))
        assert r.verdict == INCONCLUSIVE
        assert r.isolated_edges == 10 and not r.skeleton_connected

    def test_gadget_certifies_with_free_rank(self):
        r = t_structure(pendant_edge_gadget(8, [(6, 7)]))
        assert r.verdict == CERTIFIED and r.free_rank == 1
        r = t_structure(pendant_edge_gadget(9, [(0, 1), (2, 3)]))
        assert r.verdict == CERTIFIED and r.free_rank == 2

    def test_verdict_implies_both_clauses(self):
        for y in battery(seed=7):
            if y.d != 2:
                continue
            r = t_structure(y)
            if r.verdict == CERTIFIED:
                assert r.skeleton_connected and r.zuk_on_stripped.certified
            else:
                assert not (r.skeleton_connected and r.zuk_on_stripped.certified)

    def test_isolated_count_matches_stats(self):
        y = sample_complex(10, 2, 0.3, seed=9)
        assert t_structure(y).isolated_edges == isolated_faces(y).isolated_count

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            t_structure(full_skeleton(6, 3))

    def test_betti_identity_when_certified(self):
        # certified complexes are exactly where "betti = isolated count"
        # is forced: the stripped part vanishes and each stripped edge
        # adds one dimension
        cases = [pendant_edge_gadget(8, [(6, 7)]),
                 pendant_edge_gadget(9, [(0, 1), (2, 3)]),
                 full_skeleton(7, 2)]
        for seed in range(4):
            cases.append(sample_complex(14, 2, 0.9, seed=seed))
        checked = 0
        for y in cases:
            if t_structure(y).verdict != CERTIFIED:
                continue
            iso = isolated_faces(y).isolated_count
            assert math.comb(y.n - 1, y.d) - rank_exact(boundary_matrix(y)) == iso
            checked += 1
        assert checked >= 3


class TestEarlyExitCertified:
    """_certified must be exactly t_structure(y).verdict == CERTIFIED."""

    @staticmethod
    def assert_agrees(y):
        assert _certified(y) == (t_structure(y).verdict == CERTIFIED)

    def test_hand_built_cases(self):
        path_pairs = [(i, i + 1) for i in range(11)]
        cases = [
            full_skeleton(5, 2),
            full_skeleton(8, 2),
            complex_from_faces(6, 2, []),
            complex_from_faces(5, 2, [(0, 1, 2)]),
            complex_from_faces(5, 2, [(0, 1, 2), (0, 3, 4)]),
            pendant_edge_gadget(8, [(6, 7)]),
            pendant_edge_gadget(9, [(0, 1), (2, 3)]),
            # n-2 isolated edges: certified; n-1: the skeleton splits
            # while every vertex link still passes
            pendant_edge_gadget(12, path_pairs[:10]),
            pendant_edge_gadget(12, path_pairs),
            # vertex 0 in no face: its n-1 edges are all isolated
            complex_from_faces(7, 2, list(combinations(range(1, 7), 3))),
        ]
        verdicts = [t_structure(y).verdict for y in cases]
        assert verdicts.count(CERTIFIED) == 5
        assert t_structure(cases[8]).zuk_on_stripped.certified
        for y in cases:
            self.assert_agrees(y)

    def test_visits_links_sparsest_first_and_stops_at_a_failure(self, monkeypatch):
        import spectop.criteria as criteria

        y = pendant_edge_gadget(9, [(0, 1), (2, 3)])
        load = np.bincount(y.faces.ravel(), minlength=y.n)
        order = [int(v) for v in np.argsort(load, kind="stable")]
        assert len(set(load.tolist())) > 1
        # _exceeds sees only edge arrays.  The pass says whose each one is;
        # the sparsest link is read off the faces before any pass, so an
        # array the pass did not make must be that link.  The pass's arrays
        # are kept alive, so no later array can take over one of their ids.
        owner, kept = {}, []
        sparsest = {tuple(e) for e in link_edges(y)[1][order[0]].tolist()}

        def pass_spy(y):
            faces, edges = link_edges(y)
            kept.append(edges)
            owner.update((id(e), int(f[0])) for f, e in zip(faces, edges))
            return faces, edges

        def vertex(edges):
            if id(edges) in owner:
                return owner[id(edges)]
            assert {tuple(e) for e in edges.tolist()} == sparsest
            return order[0]

        visited = []
        decide = criteria._exceeds

        def spy(edges, tau):
            visited.append(vertex(edges))
            return decide(edges, tau)

        monkeypatch.setattr(criteria, "link_edges", pass_spy)
        monkeypatch.setattr(criteria, "_exceeds", spy)
        assert _certified(y)
        assert visited == order
        # the densest link, visited last, failing on its own still decides
        visited.clear()
        monkeypatch.setattr(
            criteria, "_exceeds",
            lambda e, tau: False if vertex(e) == order[-1] else spy(e, tau),
        )
        assert not _certified(y)
        visited.clear()
        monkeypatch.setattr(
            criteria, "_exceeds",
            lambda e, tau: False if vertex(e) == order[2] else spy(e, tau),
        )
        assert not _certified(y)
        assert visited == order[:2]

    def test_battery(self):
        for y in battery(seed=5):
            if y.d == 2:
                self.assert_agrees(y)

    @pytest.mark.parametrize("n", [8, 10, 12, 16, 20, 25])
    def test_process_prefixes_across_density(self, n):
        for seed in range(2):
            proc = FaceProcess(n, 2, seed=seed)
            for m in harness_grid(proc.total, 15):
                self.assert_agrees(proc.prefix(m))

    @pytest.mark.parametrize("seed", range(3))
    def test_prefixes_around_first_certified(self, seed):
        proc = FaceProcess(25, 2, seed=seed)
        m2t = t_hitting(proc, harness_grid(proc.total, 100)).M2T
        for m in range(max(m2t - 15, 0), min(m2t + 15, proc.total) + 1):
            self.assert_agrees(proc.prefix(m))


def relabeled(edges, rng, labels=40):
    """edges under a random injective relabeling into range(labels), each
    row sorted, rows shuffled: the same graph as a link would carry it."""
    names = rng.choice(labels, size=int(edges.max()) + 1, replace=False)
    e = np.sort(names[edges], axis=1)
    return e[rng.permutation(len(e))]


CYCLE6 = np.array([(i, (i + 1) % 6) for i in range(6)])
PETERSEN = np.array(
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, 5 + i) for i in range(5)]
)


class TestLinkCertificate:
    """_exceeds: one Cholesky of _link_gram, else the eigensolve."""

    @staticmethod
    def eigensolve_verdict(edges, tau):
        lam2, connected = link_lambda2(edges)
        return connected and lam2 > tau

    @pytest.mark.parametrize(
        "edges,lam2,fooled_min", [(CYCLE6, Fraction(1, 2), 1), (PETERSEN, Fraction(2, 3), 0)]
    )
    def test_certificate_never_true_at_an_exact_tie(self, edges, lam2, fooled_min):
        rng = np.random.default_rng(12)
        fooled = 0
        for _ in range(300):
            e = relabeled(edges, rng)
            gram = _link_gram(_link_laplacian(e), lam2)
            # an unshifted Cholesky succeeds on some of these singular G;
            # the shift is what makes success a proof
            fooled += lapack.dpotrf(gram.copy(), lower=1)[1] == 0
            assert not _proves_positive_definite(gram)
            # just below the tie the certificate alone decides
            assert _proves_positive_definite(_link_gram(_link_laplacian(e), lam2 - Fraction(1, 1000)))
        assert fooled >= fooled_min

    def test_gram_is_the_scaled_shifted_laplacian(self):
        rng = np.random.default_rng(3)
        for edges in (CYCLE6, PETERSEN):
            e = relabeled(edges, rng)
            lap = _link_laplacian(e)
            d = (lap < 0).sum(axis=1)
            u = np.sqrt(d) / np.sqrt(d.sum())
            for tau in (Fraction(1, 2), Fraction(2, 3), Fraction(5, 7)):
                want = tau.denominator * d.sum() * (
                    np.sqrt(np.outer(d, d)) * (lap + 2 * np.outer(u, u) - float(tau) * np.eye(len(d)))
                )
                assert np.allclose(_link_gram(lap, tau), want, rtol=0, atol=1e-9)

    def test_disconnected_link_fails(self):
        two_triangles = np.array([(0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (5, 7)])
        assert not _exceeds(two_triangles, Fraction(1, 2))
        assert _exceeds(two_triangles[:3], Fraction(1, 2))

    @pytest.mark.parametrize("n", [8, 10, 12, 16, 20, 25])
    def test_matches_eigensolve_on_process_vertex_links(self, n):
        proved = 0
        for seed in range(2):
            proc = FaceProcess(n, 2, seed=seed)
            for m in harness_grid(proc.total, 15):
                for e in link_edges(proc.prefix(m))[1]:
                    assert _exceeds(e, Fraction(1, 2)) == self.eigensolve_verdict(e, 0.5)
                    proved += _proves_positive_definite(_link_gram(_link_laplacian(e), Fraction(1, 2)))
        assert proved > 0

    def test_matches_eigensolve_on_battery(self):
        for y in battery(seed=5):
            if y.d == 2:
                for e in link_edges(y)[1]:
                    assert _exceeds(e, Fraction(1, 2)) == self.eigensolve_verdict(e, 0.5)


class TestCohomologyHitting:
    def test_degenerate_single_face(self):
        h = cohomology_hitting(FaceProcess(3, 2, seed=0))
        assert (h.M1, h.M2) == (1, 1)

    def test_bounds(self):
        proc = FaceProcess(6, 2, seed=5)
        h = cohomology_hitting(proc)
        assert 1 <= h.M1 <= proc.total
        assert 1 <= h.M2 <= proc.total

    @pytest.mark.parametrize("seed", range(6))
    def test_m1_is_minimal(self, seed):
        proc = FaceProcess(7, 2, seed=seed)
        h = cohomology_hitting(proc, seed=seed)
        assert isolated_faces(proc.prefix(h.M1)).isolated_count == 0
        assert isolated_faces(proc.prefix(h.M1 - 1)).isolated_count > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_m2_is_minimal(self, seed):
        proc = FaceProcess(7, 2, seed=seed)
        h = cohomology_hitting(proc, seed=seed)
        target = math.comb(6, 2)
        assert rank_exact(boundary_matrix(proc.prefix(h.M2))) == target
        assert rank_exact(boundary_matrix(proc.prefix(h.M2 - 1))) < target

    def test_hitting_times_usually_coincide(self):
        # desk-scale version of the asymptotic coincidence claim; the
        # acceptance suite runs the full-size variant
        agree = 0
        for s in range(30):
            h = cohomology_hitting(FaceProcess(25, 2, seed=s), seed=s)
            agree += h.M1 == h.M2
        assert agree >= 24

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            cohomology_hitting(FaceProcess(6, 1, seed=0))

    @pytest.mark.parametrize("n", [8, 9, 10, 11, 12, 25])
    def test_matches_streaming_reference(self, n):
        late = 0
        for seed in range(40):
            h = cohomology_hitting(FaceProcess(n, 2, seed=seed), seed=seed)
            ref = streaming_cohomology_hitting(FaceProcess(n, 2, seed=seed), seed)
            assert (h.M1, h.M2) == ref, f"seed {seed}"
            late += ref[1] > ref[0]
        # seeds with M2 > M1 run the null-space stream
        assert late >= 1

    def test_replayable(self):
        a = cohomology_hitting(FaceProcess(8, 2, seed=21), seed=21)
        b = cohomology_hitting(FaceProcess(8, 2, seed=21), seed=21)
        assert (a.M1, a.M2) == (b.M1, b.M2)


def searched_m2(proc, seed):
    """M2 by the gallop-and-bisect search from M1."""
    return _first_holding(proc, _first_without_isolated(proc), lambda m: _spans(proc, m, seed))


class TestStreamedM2:
    """_streamed_m2: one null-space pass from M1, proved from both sides."""

    def test_matches_search(self):
        late = 0
        for seed in range(120):
            proc = FaceProcess(25, 2, seed=seed)
            m1 = _first_without_isolated(proc)
            found = _streamed_m2(proc, m1, seed)
            # both proofs held on every one of these processes
            assert found is not None, f"seed {seed}"
            m2, witness = found
            assert m2 == searched_m2(proc, seed), f"seed {seed}"
            assert (witness is None) == (m2 == m1)
            late += m2 > m1
        assert late >= 3

    def test_matches_search_at_n40(self):
        # benchmark master seed 190: M2 - M1 = 6
        seed = derive_seed(190, 0)
        proc = FaceProcess(40, 2, seed=seed)
        m1 = _first_without_isolated(proc)
        m2, _ = _streamed_m2(proc, m1, seed)
        assert m1 < m2 == searched_m2(proc, seed)

    def test_witness_is_an_integer_cocycle_until_m2(self):
        proc = FaceProcess(25, 2, seed=22)
        m2, z = _streamed_m2(proc, _first_without_isolated(proc), 22)
        before, at = boundary_matrix(proc.prefix(m2 - 1)), boundary_matrix(proc.prefix(m2))
        assert not np.any(z[before.col_rows] @ before.signs)
        assert np.any(z[at.col_rows] @ at.signs)
        # a cocycle on the cut rows: none through vertex 0
        table = binom_table(25, 3)
        assert unrank_faces(np.flatnonzero(z), 2, table).min() > 0
        # one changed entry, in the support or outside it, breaks it
        for r in (int(np.flatnonzero(z)[0]), int(np.flatnonzero(z == 0)[-1])):
            bad = z.copy()
            bad[r] += 1
            assert np.any(bad[before.col_rows] @ before.signs)

    @pytest.fixture
    def search_spy(self, monkeypatch):
        calls = []

        def spy(proc, m1, holds):
            calls.append(m1)
            return _first_holding(proc, m1, holds)

        monkeypatch.setattr(criteria, "_first_holding", spy)
        return calls

    # M1 and M2 of the seeds at n=25 with M2 > M1, as the search finds them
    LATE_M1 = {22: 455, 69: 547, 111: 415, 115: 412}
    LATE = {22: 569, 69: 731, 111: 442, 115: 414}

    def test_streamed_path_skips_the_search(self, search_spy):
        for seed, m2 in self.LATE.items():
            assert cohomology_hitting(FaceProcess(25, 2, seed=seed), seed=seed).M2 == m2
        assert search_spy == []

    def test_failed_lower_bound_falls_back(self, search_spy, monkeypatch):
        lift = criteria._lift

        def mutated(y, p):
            z = lift(y, p)
            z[np.flatnonzero(z)[0]] += 1
            return z

        monkeypatch.setattr(criteria, "_lift", mutated)
        for seed, m2 in self.LATE.items():
            assert cohomology_hitting(FaceProcess(25, 2, seed=seed), seed=seed).M2 == m2
        assert search_spy == list(self.LATE_M1.values())

    def test_failed_upper_bound_falls_back(self, search_spy, monkeypatch):
        # the streamed path's only rank call is the upper-bound proof
        refused = []

        def refuse_first(m, seed=0):
            rank = rank_mod_p(m, seed)
            if not refused:
                refused.append(m.n_cols)
                # a mod-p rank can only fall short
                return rank - 1
            return rank

        monkeypatch.setattr(criteria, "rank_mod_p", refuse_first)
        for seed, m2 in self.LATE.items():
            refused.clear()
            assert cohomology_hitting(FaceProcess(25, 2, seed=seed), seed=seed).M2 == m2
            # the refused rank was the candidate's, a prefix of M2 faces
            assert refused == [m2]
        assert search_spy == list(self.LATE_M1.values())


class TestSpans:
    """_spans: rank_mod_p's rank against C(n-1, d), with no rank call below
    C(n-1, d) faces."""

    # below: probes from M1 with fewer than C(n-1, 2) faces
    @pytest.mark.parametrize("n,seed,below", [(10, 3, 3), (25, 115, 0)])
    def test_matches_exact_rank_from_m1_to_past_m2(self, n, seed, below, monkeypatch):
        proc = FaceProcess(n, 2, seed=seed)
        target = math.comb(n - 1, 2)
        h = cohomology_hitting(proc, seed=seed)
        probes = range(h.M1, h.M2 + 3)
        assert sum(m < target for m in probes) == below
        grams = []
        cut_gram = homology._cut_gram

        def spy(m, dtype):
            grams.append(m.n_cols)
            return cut_gram(m, dtype)

        monkeypatch.setattr(homology, "_cut_gram", spy)
        for m in probes:
            grams.clear()
            assert _spans(proc, m, seed) == (rank_exact(boundary_matrix(proc.prefix(m))) == target)
            assert (grams == []) == (m < target), m


class TestTHitting:
    def test_grid_validation(self):
        proc = FaceProcess(6, 2, seed=0)
        with pytest.raises(ValueError):
            t_hitting(proc, [])
        with pytest.raises(ValueError):
            t_hitting(proc, [5, 3])
        with pytest.raises(ValueError):
            t_hitting(proc, [proc.total + 1])
        with pytest.raises(ValueError):
            t_hitting(FaceProcess(6, 1, seed=0), [1])

    def test_full_complex_grid_point(self):
        proc = FaceProcess(7, 2, seed=2)
        h = t_hitting(proc, [proc.total])
        assert h.M2T == proc.total
        assert t_structure(proc.prefix(h.M2T)).verdict == CERTIFIED

    def test_dense_grid_finds_first_certified_index(self):
        proc = FaceProcess(8, 2, seed=6)
        h = t_hitting(proc, list(range(proc.total + 1)))
        first = next(
            m for m in range(proc.total + 1)
            if t_structure(proc.prefix(m)).verdict == CERTIFIED
        )
        assert h.M2T == first

    def test_coarse_grid_never_undershoots(self):
        proc = FaceProcess(8, 2, seed=13)
        fine = t_hitting(proc, list(range(proc.total + 1))).M2T
        coarse = t_hitting(proc, list(range(0, proc.total + 1, 7))).M2T
        assert coarse is not None and coarse >= fine
        assert t_structure(proc.prefix(coarse)).verdict == CERTIFIED

    def test_m1_matches_isolated_scan(self):
        proc = FaceProcess(8, 2, seed=3)
        h = t_hitting(proc, [proc.total])
        assert isolated_faces(proc.prefix(h.M1)).isolated_count == 0
        assert isolated_faces(proc.prefix(h.M1 - 1)).isolated_count > 0


    @pytest.mark.parametrize("seed", range(40))
    def test_matches_full_scan_reference(self, seed):
        proc = FaceProcess(25, 2, seed=seed)
        grid = harness_grid(proc.total, 100)
        h = t_hitting(proc, grid)
        assert (h.M1, h.M2T) == reference_t_hitting(proc, grid)

    @pytest.mark.parametrize("n", [8, 9, 10, 11, 12])
    def test_dense_grid_matches_full_scan_reference(self, n):
        for seed in range(2):
            proc = FaceProcess(n, 2, seed=100 + seed)
            grid = list(range(proc.total + 1))
            h = t_hitting(proc, grid)
            assert (h.M1, h.M2T) == reference_t_hitting(proc, grid)


class TestConnectivityHitting:
    def test_two_vertices(self):
        h = graph_connectivity_hitting(FaceProcess(2, 1, seed=0))
        assert h.M1 == h.M2 == h.tau_c_index == 1
        assert h.gap.lambda_abs == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_tau_is_minimal(self, seed):
        proc = FaceProcess(30, 1, seed=seed)
        h = graph_connectivity_hitting(proc)
        tau = h.tau_c_index
        before = from_edges(30, proc.prefix(tau - 1).faces)
        after = from_edges(30, proc.prefix(tau).faces)
        assert len(components(before).sizes) > 1
        assert len(components(after).sizes) == 1

    def test_isolated_vertices_die_before_connection(self):
        for seed in range(5):
            h = graph_connectivity_hitting(FaceProcess(40, 1, seed=seed))
            assert h.M1 <= h.tau_c_index
            assert h.M2 == h.tau_c_index

    def test_m1_is_minimal(self):
        proc = FaceProcess(25, 1, seed=8)
        h = graph_connectivity_hitting(proc)
        g_at = from_edges(25, proc.prefix(h.M1).faces)
        g_before = from_edges(25, proc.prefix(h.M1 - 1).faces)
        assert g_at.degrees.min() >= 1
        assert g_before.degrees.min() == 0

    def test_gap_matches_direct_computation(self):
        proc = FaceProcess(20, 1, seed=2)
        h = graph_connectivity_hitting(proc)
        direct = gap(from_edges(20, proc.prefix(h.tau_c_index).faces))
        assert h.gap.lambda_abs == direct.lambda_abs

    def test_gap_scaling_sanity(self):
        # the connection-time gap should already be of order 1/sqrt(log n);
        # the acceptance suite pins the full-size scaling claim
        vals = []
        for seed in range(3):
            h = graph_connectivity_hitting(FaceProcess(500, 1, seed=seed))
            vals.append(h.gap.lambda_abs * math.sqrt(math.log(500)))
        assert np.median(vals) <= 4.5

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            graph_connectivity_hitting(FaceProcess(6, 2, seed=0))

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 40, 200])
    def test_matches_streaming_reference(self, n):
        late = 0
        for seed in range(40):
            h = graph_connectivity_hitting(FaceProcess(n, 1, seed=seed))
            ref = streaming_connectivity_hitting(FaceProcess(n, 1, seed=seed))
            assert (h.M1, h.tau_c_index) == ref, f"seed {seed}"
            assert h.M2 == h.tau_c_index
            late += ref[1] > ref[0]
        # seeds with tau_c > M1 run the gallop and the bisection
        assert n < 10 or late >= 1


class TestStoppedProcessLinkGaps:
    def test_stripped_links_flatten_along_process(self):
        # after the density passes 1.5 log n / n, every surviving vertex
        # link should have all nontrivial eigenvalues within 6/sqrt(d(t))
        # of 1; the constant 6 is a desk calibration of an asymptotic
        # existence statement, and 27/30 seeds are required to pass
        n, seeds = 60, 30
        proc_total = math.comb(n, 3)
        m0 = math.ceil(1.5 * math.log(n) / n * proc_total)
        checkpoints = [m0,
                       int(0.4 * proc_total),
                       int(0.7 * proc_total),
                       proc_total]
        good = 0
        for seed in range(seeds):
            proc = FaceProcess(n, 2, seed=seed)
            ok = True
            for m in checkpoints:
                y = proc.prefix(m)
                d_t = (n - 1) * (m / proc_total)
                allowed = 6.0 / math.sqrt(d_t)
                # every nonempty vertex link, on its positive-degree vertices
                for e in link_edges(y)[1]:
                    keep = np.unique(e)
                    sub = from_edges(keep.size, np.searchsorted(keep, e))
                    vals = full_spectrum(normalized_laplacian(sub)).eigenvalues
                    if np.abs(1.0 - vals[1:]).max() > allowed:
                        ok = False
                        break
                if not ok:
                    break
            good += ok
        assert good >= 27
