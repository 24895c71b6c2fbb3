import math
from itertools import combinations

import numpy as np
import pytest

from spectop.audit import (
    ConditionReport,
    FuzzSet,
    audit,
    certified_bound,
    discrepancy_refute,
    find_path_witness,
    fuzz_set,
    parallel_norm,
)
from spectop.graphs import GraphParams, erdos_renyi, from_edges, induced_subgraph
from spectop.spectral import ZERO_TOL, full_spectrum, gap, normalized_laplacian
from helpers import (
    complete,
    cycle,
    edgeless,
    path,
    random_graph_from_rng,
    star,
    two_star_gadget,
)


class TestFuzzSet:
    def test_complete_graph_empty_fuzz(self):
        fz = fuzz_set(complete(8), d=7, M=2)
        assert fz.members.size == 0

    def test_edgeless_all_fuzz(self):
        fz = fuzz_set(edgeless(5), d=3, M=1.5)
        assert np.array_equal(fz.members, np.arange(5))

    def test_star_leaves_only(self):
        fz = fuzz_set(star(9), d=9, M=3)
        assert np.array_equal(fz.members, np.arange(1, 10))

    def test_definitional(self):
        g = erdos_renyi(GraphParams(n=40, p=0.2, seed=0))
        d, M = 39 * 0.2, 2.0
        fz = fuzz_set(g, d, M)
        expect = {v for v in range(40) if g.degrees[v] <= d / M}
        assert set(int(v) for v in fz.members) == expect

    def test_monotone_in_m(self):
        g = erdos_renyi(GraphParams(n=50, p=0.15, seed=1))
        d = 49 * 0.15
        prev = None
        for M in [1.0, 1.5, 2.0, 3.0, 5.0]:
            cur = set(int(v) for v in fuzz_set(g, d, M).members)
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            fuzz_set(complete(3), d=2, M=0.5)
        with pytest.raises(ValueError):
            fuzz_set(complete(3), d=0, M=2)


class TestParallelNorm:
    @pytest.mark.parametrize("g", [complete(6), cycle(8), complete(3)])
    def test_regular_graph_empty_fuzz_vanishes(self, g):
        fz = FuzzSet(M=2.0, d=float(g.degrees[0]) * 2, members=np.array([], dtype=int))
        assert parallel_norm(g, fz) <= 1e-10

    def test_k2_half_fuzz(self):
        fz = FuzzSet(M=2.0, d=1.0, members=np.array([0]))
        assert parallel_norm(complete(2), fz) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_full_fuzz_gives_zero(self):
        fz = FuzzSet(M=2.0, d=1.0, members=np.array([0, 1]))
        assert parallel_norm(complete(2), fz) == 0.0

    def test_edgeless_rejected(self):
        fz = FuzzSet(M=2.0, d=1.0, members=np.arange(4))
        with pytest.raises(ValueError):
            parallel_norm(edgeless(4), fz)

    @pytest.mark.parametrize("seed", range(4))
    def test_dominates_random_unit_vectors(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 51))
        g = random_graph_from_rng(n, 0.2, rng)
        if g.edge_count == 0:
            pytest.skip("edgeless draw")
        d = max(float(np.median(g.degrees)), 1.0)
        fz = fuzz_set(g, d, 2.0)
        exact = parallel_norm(g, fz)
        deg = g.degrees.astype(float)
        tsqrt = np.sqrt(deg)
        u = tsqrt / np.linalg.norm(tsqrt)
        q = np.zeros(n)
        comp = np.ones(n, dtype=bool)
        comp[fz.members] = False
        live = comp & (deg > 0)
        q[live] = 1.0 / tsqrt[live]
        xs = rng.standard_normal((10_000, n))
        xs -= np.outer(xs @ u, u)
        norms = np.linalg.norm(xs, axis=1)
        keep = norms > 1e-12
        sampled = np.abs((xs[keep] / norms[keep, None]) @ q).max() if keep.any() else 0.0
        assert exact >= sampled - 1e-6


class TestAudit:
    def test_complete_graph_passes(self):
        rep = audit(complete(8), d=7, M=2)
        assert rep.C1 == pytest.approx(1.0)
        assert rep.fuzz_independent and rep.fuzz_small and rep.fuzz_neighbor_ok
        assert rep.fuzz_size == 0
        assert rep.certified_bound is not None

    def test_hub_with_two_pendants_fails_neighbor_rule(self):
        edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        edges += [(0, 8), (0, 9)]
        g = from_edges(10, edges)
        rep = audit(g, d=10, M=4)
        assert not rep.fuzz_neighbor_ok
        assert rep.fuzz_independent
        assert rep.certified_bound is None

    def test_isolated_edge_fails_independence(self):
        edges = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        edges += [(8, 9)]
        g = from_edges(10, edges)
        rep = audit(g, d=10, M=4)
        assert not rep.fuzz_independent

    def test_fuzz_flags_match_their_definitions(self):
        # random graphs with isolated vertices appended; the flags are
        # checked against their definitions written over the edge list
        rng = np.random.default_rng(23)
        seen = {"independent": set(), "neighbor_ok": set()}
        for _ in range(60):
            n, extra = int(rng.integers(4, 25)), int(rng.integers(0, 4))
            core = random_graph_from_rng(n, float(rng.uniform(0.05, 0.5)), rng)
            g = from_edges(n + extra, core.edges())
            d, M = float(rng.uniform(1.0, 8.0)), float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            rep = audit(g, d, M)
            fuzz = {v for v in range(g.n) if g.degrees[v] <= d / M}
            edges = [(int(u), int(v)) for u, v in g.edges()]
            independent = not any(u in fuzz and v in fuzz for u, v in edges)
            fuzz_nbrs = {u: 0 for u in range(g.n)}
            for u, v in edges:
                fuzz_nbrs[u] += v in fuzz
                fuzz_nbrs[v] += u in fuzz
            neighbor_ok = all(fuzz_nbrs[u] <= 1 for u in range(g.n) if u not in fuzz)
            assert rep.fuzz_size == len(fuzz)
            assert rep.fuzz_independent == independent
            assert rep.fuzz_neighbor_ok == neighbor_ok
            seen["independent"].add(independent)
            seen["neighbor_ok"].add(neighbor_ok)
        assert seen == {"independent": {False, True}, "neighbor_ok": {False, True}}

    def test_edgeless_reports_without_error(self):
        rep = audit(edgeless(6), d=5, M=2)
        assert rep.C1 == 0.0 and rep.C2 == 0.0 and rep.C3 == 0.0
        assert not rep.fuzz_small
        assert rep.certified_bound is None

    def test_k101_certificate_covers_true_gap(self):
        g = complete(101)
        rep = audit(g, d=100, M=2)
        assert rep.C1 == pytest.approx(1.0)
        assert rep.C2 == pytest.approx(0.1, abs=1e-9)
        assert rep.C3 == pytest.approx(0.0, abs=1e-9)
        assert rep.certified_bound is not None
        assert gap(g).lambda_abs <= rep.certified_bound


class TestCertifiedBound:
    def test_reference_assembly(self):
        rep = ConditionReport(
            n=0, d=100.0, M=1.0, C1=1.0, C2=1.0, C3=1.0, fuzz_size=0,
            fuzz_independent=True, fuzz_small=True, fuzz_neighbor_ok=True,
            certified_bound=None,
        )
        assert certified_bound(rep) == pytest.approx(0.42, abs=1e-12)

    def test_requires_flags(self):
        rep = ConditionReport(
            n=0, d=100.0, M=1.0, C1=1.0, C2=1.0, C3=1.0, fuzz_size=0,
            fuzz_independent=True, fuzz_small=False, fuzz_neighbor_ok=True,
            certified_bound=None,
        )
        with pytest.raises(ValueError):
            certified_bound(rep)

    @pytest.mark.parametrize("seed", range(40))
    def test_soundness_on_random_graphs(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(100, 301))
        p = float(rng.uniform(1.5, 5.0)) * math.log(n) / n
        g = erdos_renyi(GraphParams(n=n, p=p, seed=seed))
        rep = audit(g, d=(n - 1) * p, M=2)
        if rep.certified_bound is None:
            pytest.skip("fuzz conditions not met on this draw")
        vals = full_spectrum(normalized_laplacian(g)).eigenvalues
        kernel = int(np.count_nonzero(vals < ZERO_TOL))
        measured = float(np.abs(1.0 - vals[kernel:]).max())
        assert measured <= rep.certified_bound + 1e-7


def brute_force_refutation_exists(g, d, C):
    """Independent exhaustive check over all nonempty subset pairs."""
    n = g.n
    verts = list(range(n))
    subsets = []
    for r in range(1, n + 1):
        subsets.extend(combinations(verts, r))
    adjacency = {v: set(int(w) for w in g.neighbors(v)) for v in verts}
    for A in subsets:
        for B in subsets:
            e = sum(1 for u in A for v in B if v in adjacency[u])
            s = max(len(A), len(B))
            mu = len(A) * len(B) * d / n
            viol_a = e > C * mu
            lhs = e * math.log(e / mu) if e > 0 else 0.0
            rhs = C * s * math.log(n / s)
            viol_b = lhs > rhs
            viol_c = s > d**0.25 / 100.0
            if viol_a and viol_b and viol_c:
                return True
    return False


class TestDiscrepancyRefute:
    def test_edgeless_not_refuted(self):
        assert discrepancy_refute(edgeless(6), d=2, C=1.0) is None

    def test_complete_graph_generous_constant(self):
        assert discrepancy_refute(complete(8), d=7, C=10.0) is None

    def test_k6_tiny_constant_is_refuted(self):
        pair = discrepancy_refute(complete(6), d=1.0, C=0.05)
        assert pair is not None
        e = sum(1 for u in pair.A for v in pair.B if complete(6).has_edge(u, v) and u != v)
        assert e == pair.e
        assert pair.e > 0.05 * pair.mu
        assert pair.violation_score > 0

    @pytest.mark.parametrize("seed,C", [(0, 0.05), (1, 0.3), (2, 1.0), (3, 3.0)])
    def test_matches_exhaustive_oracle_small_n(self, seed, C):
        rng = np.random.default_rng(seed)
        g = random_graph_from_rng(6, 0.4, rng)
        d = 1.5
        found = discrepancy_refute(g, d=d, C=C)
        exists = brute_force_refutation_exists(g, d, C)
        assert (found is not None) == exists

    def test_greedy_finds_planted_violation(self):
        rng = np.random.default_rng(7)
        edges = [(u, v) for u in range(10) for v in range(u + 1, 10)]
        for u in range(10, 30):
            edges.append((int(rng.integers(0, u)), u))
        g = from_edges(30, edges)
        pair = discrepancy_refute(g, d=1.0, C=0.1, budget=4000, seed=3)
        assert pair is not None
        s = max(len(pair.A), len(pair.B))
        assert pair.e > 0.1 * pair.mu
        lhs = pair.e * math.log(pair.e / pair.mu)
        assert lhs > 0.1 * s * math.log(30 / s)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            discrepancy_refute(complete(4), d=3, C=0.0)
        with pytest.raises(ValueError):
            discrepancy_refute(complete(4), d=3, C=1.0, budget=0)


class TestPathWitness:
    def test_gadget_found(self):
        g = two_star_gadget(5)
        wit = find_path_witness(g, m=5)
        assert wit is not None
        assert (wit.u, wit.v, wit.w, wit.x) == (0, 2, 3, 1)

    def test_complete_graph_none(self):
        assert find_path_witness(complete(5), m=1) is None

    def test_bare_path_endpoint_degrees(self):
        assert find_path_witness(path(4), m=2) is None
        wit = find_path_witness(path(4), m=1)
        assert wit is not None

    def test_cycle_never_induced(self):
        assert find_path_witness(cycle(4), m=1) is None

    def test_witness_is_induced_path(self):
        g = two_star_gadget(4)
        wit = find_path_witness(g, m=4)
        sub = induced_subgraph(g, sorted([wit.u, wit.v, wit.w, wit.x]))
        degs = sorted(int(x) for x in sub.degrees)
        assert sub.edge_count == 3 and degs == [1, 1, 2, 2]

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_witness_soundness(self, m):
        g = two_star_gadget(m)
        wit = find_path_witness(g, m=m)
        assert wit is not None
        res = gap(g)
        assert res.lambda_max >= 1.5 - 1e-7
        assert res.lambda2 <= 0.5 + 2.0 / math.sqrt(m) + 2.0 / m

    @pytest.mark.parametrize("seed", range(10))
    def test_existence_matches_brute_force(self, seed):
        rng = np.random.default_rng(200 + seed)
        g = random_graph_from_rng(10, 0.25, rng)
        m = 2
        found = find_path_witness(g, m)
        deg = g.degrees
        exists = False
        for v in range(10):
            for w in range(10):
                if v == w or not g.has_edge(v, w):
                    continue
                if deg[v] != 2 or deg[w] != 2:
                    continue
                us = [int(t) for t in g.neighbors(v) if t != w]
                xs = [int(t) for t in g.neighbors(w) if t != v]
                for u in us:
                    for x in xs:
                        if len({u, v, w, x}) < 4:
                            continue
                        if deg[u] < m or deg[x] < m:
                            continue
                        if g.has_edge(u, w) or g.has_edge(v, x) or g.has_edge(u, x):
                            continue
                        exists = True
        assert (found is not None) == exists
        if found is not None:
            assert deg[found.v] == 2 and deg[found.w] == 2
            assert deg[found.u] >= m and deg[found.x] >= m
