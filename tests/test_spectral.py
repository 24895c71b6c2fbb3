import math

import numpy as np
import pytest

from spectop.graphs import GraphParams, components, erdos_renyi, from_edges, induced_subgraph
from spectop.spectral import (
    _DENSE_MAX_N,
    RITZ_TOL,
    ZERO_TOL,
    adjacency_seminorm,
    full_spectrum,
    gap,
    gap_at_most,
    giant_gap,
    normalized_laplacian,
)
from helpers import (
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    edgeless,
    path,
    random_graph_from_rng,
    random_tree,
    star,
)


def circulant_cycle_eigenvalues(n):
    """Independent oracle for L(C_n): 1 - cos(2 pi k / n), k = 0..n-1."""
    k = np.arange(n)
    return np.sort(1.0 - np.cos(2.0 * np.pi * k / n))


class TestNormalizedLaplacian:
    def test_k2(self):
        lap = normalized_laplacian(complete(2))
        assert np.allclose(lap, [[1, -1], [-1, 1]])

    def test_k3_entries(self):
        lap = normalized_laplacian(complete(3))
        assert np.allclose(np.diag(lap), 1.0)
        off = lap[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -0.5)

    def test_isolated_vertex_row_is_zero(self):
        g = from_edges(3, [(0, 1)])
        lap = normalized_laplacian(g)
        assert np.all(lap[2] == 0.0) and np.all(lap[:, 2] == 0.0)
        assert lap[2, 2] == 0.0

    def test_symmetric(self):
        g = erdos_renyi(GraphParams(n=40, p=0.2, seed=1))
        lap = normalized_laplacian(g)
        assert np.array_equal(lap, lap.T)


class TestFullSpectrum:
    def test_zero_matrix(self):
        spec = full_spectrum(np.zeros((3, 3)))
        assert np.allclose(spec.eigenvalues, 0.0)
        assert spec.residual_tol == 0.0

    def test_k2_laplacian(self):
        spec = full_spectrum(normalized_laplacian(complete(2)))
        assert np.allclose(spec.eigenvalues, [0.0, 2.0])

    @pytest.mark.parametrize("n", [4, 5, 6, 8, 11])
    def test_cycle_matches_circulant_formula(self, n):
        spec = full_spectrum(normalized_laplacian(cycle(n)))
        assert np.allclose(spec.eigenvalues, circulant_cycle_eigenvalues(n), atol=1e-10)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            full_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            full_spectrum(np.zeros((2, 3)))

    def test_sorted_and_residual_reported(self):
        g = erdos_renyi(GraphParams(n=60, p=0.3, seed=2))
        spec = full_spectrum(normalized_laplacian(g))
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        assert 0.0 <= spec.residual_tol <= 1e-9


class TestGap:
    @pytest.mark.parametrize("n", range(2, 51))
    def test_complete_graph_closed_form(self, n):
        res = gap(complete(n))
        assert res.lambda_abs == pytest.approx(1.0 / (n - 1), abs=1e-10)

    def test_k2(self):
        res = gap(complete(2))
        assert res.lambda_abs == pytest.approx(1.0)
        assert res.lambda2 == pytest.approx(2.0)
        assert res.lambda_max == pytest.approx(2.0)

    def test_c4(self):
        res = gap(cycle(4))
        assert res.lambda_abs == pytest.approx(1.0, abs=1e-10)
        assert res.lambda_max == pytest.approx(2.0, abs=1e-10)

    def test_abs_gap_is_max_of_ends(self):
        g = erdos_renyi(GraphParams(n=50, p=0.3, seed=5))
        assert len(components(g).sizes) == 1
        res = gap(g)
        assert res.lambda_abs == pytest.approx(
            max(abs(1 - res.lambda2), abs(1 - res.lambda_max))
        )

    def test_disconnected_error_names_kernel_dim(self):
        g = disjoint_union(complete(3), complete(3))
        with pytest.raises(ValueError, match="kernel_dim=2"):
            gap(g)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            gap(edgeless(1))

    def test_disconnected_above_dense_cutoff_names_kernel_dim(self):
        g = disjoint_union(cycle(_DENSE_MAX_N), cycle(_DENSE_MAX_N))
        with pytest.raises(ValueError, match="kernel_dim=2"):
            gap(g)


class TestGiantGap:
    def test_two_triangles(self):
        g = disjoint_union(complete(3), complete(3))
        res = giant_gap(g)
        assert res.lambda2 == pytest.approx(1.5, abs=1e-10)
        assert res.lambda_max == pytest.approx(1.5, abs=1e-10)
        assert res.lambda_abs == pytest.approx(0.5, abs=1e-10)

    def test_k5_with_isolates(self):
        g = disjoint_union(complete(5), edgeless(3))
        assert giant_gap(g).lambda_abs == pytest.approx(0.25, abs=1e-10)

    def test_edge_plus_isolate(self):
        g = from_edges(3, [(0, 1)])
        assert giant_gap(g).lambda_abs == pytest.approx(1.0)

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            giant_gap(edgeless(4))


class TestSpectrumInvariants:
    @pytest.mark.parametrize("seed,p", [(0, 0.02), (1, 0.1), (2, 0.5), (3, 0.9)])
    def test_kernel_dim_equals_component_count(self, seed, p):
        g = erdos_renyi(GraphParams(n=40, p=p, seed=seed))
        vals = full_spectrum(normalized_laplacian(g)).eigenvalues
        kernel = int(np.count_nonzero(vals < ZERO_TOL))
        assert kernel == len(components(g).sizes)

    @pytest.mark.parametrize("seed", range(4))
    def test_range_and_trace(self, seed):
        g = erdos_renyi(GraphParams(n=35, p=0.15, seed=seed))
        spec = full_spectrum(normalized_laplacian(g))
        tol = max(spec.residual_tol, 1e-12)
        assert spec.eigenvalues[0] >= -tol
        assert spec.eigenvalues[-1] <= 2.0 + tol
        positive_degree = int(np.count_nonzero(g.degrees > 0))
        assert spec.eigenvalues.sum() == pytest.approx(positive_degree, abs=35 * 1e-9)

    @pytest.mark.parametrize(
        "g",
        [
            complete_bipartite(3, 4),
            complete_bipartite(1, 7),
            cycle(6),
            cycle(10),
        ],
    )
    def test_connected_bipartite_top_eigenvalue_is_two(self, g):
        spec = full_spectrum(normalized_laplacian(g))
        assert spec.eigenvalues[-1] == pytest.approx(2.0, abs=1e-9)

    def test_random_trees_are_bipartite(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            g = random_tree(int(rng.integers(2, 30)), rng)
            spec = full_spectrum(normalized_laplacian(g))
            assert spec.eigenvalues[-1] == pytest.approx(2.0, abs=1e-9)


class TestAdjacencySeminorm:
    def test_edgeless(self):
        assert adjacency_seminorm(edgeless(5)) == 0.0

    @pytest.mark.parametrize("n", range(2, 31))
    def test_complete_graph_is_one(self, n):
        # A = J - I, so PA = -P has all singular values in {0, 1}
        assert adjacency_seminorm(complete(n)) == pytest.approx(1.0, abs=1e-9)

    def test_single_edge(self):
        assert adjacency_seminorm(complete(2)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_singular_decomposition(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 31))
        g = random_graph_from_rng(n, float(rng.uniform(0.1, 0.9)), rng)
        a = g.adjacency()
        proj = np.eye(n) - np.ones((n, n)) / n
        oracle = np.linalg.svd(proj @ a, compute_uv=False)[0]
        assert adjacency_seminorm(g) == pytest.approx(oracle, abs=1e-8)


def _giant(g):
    comp = components(g)
    return induced_subgraph(g, np.flatnonzero(comp.component_id == comp.giant))


def _random_giants():
    """G(n, p) giants just above the dense cut-off, above and below the
    connectivity threshold (coeff 1.5 and 0.4)."""
    out = []
    for n in (200, 400):
        for coeff in (1.5, 0.4):
            for seed in range(2):
                g = _giant(erdos_renyi(GraphParams(n, coeff * math.log(n) / n, seed)))
                out.append(pytest.param(g, id=f"n{n}-c{coeff}-s{seed}"))
    return out


DEGENERATE = [
    pytest.param(complete(200), id="complete200"),
    pytest.param(star(300), id="star300"),
    pytest.param(complete_bipartite(100, 150), id="k100_150"),
    pytest.param(cycle(200), id="cycle200"),
    pytest.param(cycle(1001), id="cycle1001"),
    pytest.param(path(500), id="path500"),
]


class TestLanczosOracle:
    """The sparse path pinned to dense eigvalsh / SVD just above the cut-off."""

    @pytest.mark.parametrize("g", _random_giants() + DEGENERATE)
    def test_gap_matches_dense(self, g):
        assert g.n > _DENSE_MAX_N
        vals = np.linalg.eigvalsh(normalized_laplacian(g))
        res = gap(g)
        assert res.kernel_dim == 1
        assert res.lambda2 == pytest.approx(vals[1], abs=1e-10)
        assert res.lambda_max == pytest.approx(vals[-1], abs=1e-10)
        assert res.lambda_abs == pytest.approx(np.abs(1.0 - vals[1:]).max(), abs=1e-10)
        assert 0.0 < res.residual <= RITZ_TOL

    @pytest.mark.parametrize("g", _random_giants() + DEGENERATE)
    def test_seminorm_matches_svd(self, g):
        n = g.n
        proj = np.eye(n) - np.ones((n, n)) / n
        oracle = np.linalg.svd(proj @ g.adjacency(), compute_uv=False)[0]
        assert adjacency_seminorm(g) == pytest.approx(oracle, rel=1e-12, abs=1e-10)

    @pytest.mark.parametrize("seed", range(2))
    def test_benchmark_size_matches_dense(self, seed):
        # the graph_certify config: G(2000, 1.5 ln n / n)
        n = 2000
        g = erdos_renyi(GraphParams(n, 1.5 * math.log(n) / n, seed))
        vals = np.linalg.eigvalsh(normalized_laplacian(_giant(g)))
        res = giant_gap(g)
        assert res.lambda2 == pytest.approx(vals[1], abs=1e-12)
        assert res.lambda_max == pytest.approx(vals[-1], abs=1e-12)
        assert 0.0 < res.residual <= RITZ_TOL
        a = g.adjacency()
        pa = a - a.mean(axis=0)  # P A with P = I - J/n
        top = np.linalg.eigvalsh(pa @ pa.T)[-1]  # of P A^2 P
        assert adjacency_seminorm(g) ** 2 == pytest.approx(top, rel=1e-12)

    def test_dense_path_reports_zero_residual(self):
        assert gap(complete(_DENSE_MAX_N)).residual == 0.0

    def test_reruns_are_bit_identical(self):
        g = _giant(erdos_renyi(GraphParams(300, 0.03, 5)))
        assert gap(g) == gap(g)
        assert adjacency_seminorm(g) == adjacency_seminorm(g)


class TestGapAtMost:
    @pytest.mark.parametrize("g", _random_giants()[::3] + [complete(40), cycle(30), star(20)])
    def test_decides_both_sides_of_the_true_gap(self, g):
        vals = full_spectrum(normalized_laplacian(g)).eigenvalues
        true = float(np.abs(1.0 - vals[1:]).max())
        if true < 1.0 - 1e-6:
            assert gap_at_most(g, true + 1e-6)
        assert not gap_at_most(g, true - 1e-6)

    def test_bound_at_least_one_always_holds(self):
        # C_30 is bipartite: lambda_max = 2, so the gap is exactly 1
        assert gap_at_most(cycle(30), 1.0)

    def test_disconnected_fails(self):
        assert not gap_at_most(disjoint_union(complete(5), complete(5)), 0.9)
