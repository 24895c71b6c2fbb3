"""Normalized Laplacian assembly, spectra, and gap quantities.

The Laplacian convention follows the degree-normalized form: L = P+ - M with
M[u, v] = 1/sqrt(deg u * deg v) on edges, where coordinates of degree 0 carry
zeros (P+ is the diagonal indicator of positive degree).  Eigenvalues of L
live in [0, 2] and the kernel dimension equals the number of components.

The gap quantity reported everywhere is the absolute one:
max over nontrivial eigenvalues of |1 - lambda_i|.

Two solvers.  `full_spectrum` is dense LAPACK `eigh` with a residual check;
it serves small matrices and is the oracle the tests pin everything else to.
`gap` and `adjacency_seminorm` need only extreme eigenvalues: above
_DENSE_MAX_N vertices they run Lanczos (ARPACK `eigsh`, one eigenvalue per
solve) on the sparse operator from a fixed start vector, so reruns are
byte-identical, and check each Ritz residual ||Op v - theta v||.  A Ritz
value lies inside the spectrum of its operator, so these values can only
undershoot; `gap_at_most` decides a gap bound exactly, by inertia.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from .graphs import Graph, components, induced_subgraph

__all__ = [
    "Spectrum",
    "GapResult",
    "ZERO_TOL",
    "RITZ_TOL",
    "normalized_laplacian",
    "full_spectrum",
    "gap",
    "giant_gap",
    "gap_at_most",
    "adjacency_seminorm",
]

# eigenvalues below this count as kernel; dense solver residuals are ~1e-12
# at these sizes, so this keeps five orders of margin
ZERO_TOL = 1e-7

# largest accepted Ritz residual ||Op v - theta v||, relative to
# max(1, |theta|), which is at least ||Op|| for every operator solved here
RITZ_TOL = 1e-9

# dense solves above this size are refused: the cap guards accidental huge
# allocations while leaving room for the n=5000 giant-component runs.
# gap and adjacency_seminorm stay dense up to _DENSE_MAX_N vertices, where
# LAPACK takes a few milliseconds at most (and ARPACK needs n > k + 1).
_DENSE_CAP = 6144
_DENSE_MAX_N = 128

# seeds the Lanczos start vector and any ARPACK restart, for replay
_LANCZOS_SEED = 0


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues plus the achieved residual bound of the solve."""

    eigenvalues: np.ndarray
    residual_tol: float


@dataclass(frozen=True)
class GapResult:
    """lambda_abs = max(1 - lambda2, lambda_max - 1) over the nontrivial spectrum.

    residual is the larger Ritz residual of the two Lanczos solves, and 0.0
    when the dense solver ran.
    """

    lambda_abs: float
    lambda2: float
    lambda_max: float
    kernel_dim: int
    residual: float = 0.0


def normalized_laplacian(g: Graph) -> np.ndarray:
    deg = g.degrees.astype(np.float64)
    with np.errstate(divide="ignore"):
        dinv = 1.0 / np.sqrt(deg)
    dinv[~np.isfinite(dinv)] = 0.0
    lap = -(g.adjacency() * dinv[:, None]) * dinv[None, :]
    np.fill_diagonal(lap, (deg > 0).astype(np.float64))
    return lap


def _check_square_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.shape[0] > _DENSE_CAP:
        raise ValueError(f"dense eigensolve capped at n={_DENSE_CAP}")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not symmetric")
    return m


def full_spectrum(m: np.ndarray, tol: float = 1e-9) -> Spectrum:
    """All eigenvalues of a symmetric matrix, residual-checked.

    Every (eigenvalue, eigenvector) pair of the solve satisfies
    ||m v - lambda v|| <= achieved * ||m||_op with achieved <= tol.
    """
    m = _check_square_symmetric(m)
    vals, vecs = np.linalg.eigh(m)
    if vals.size == 0:
        return Spectrum(vals, 0.0)
    resid = np.linalg.norm(m @ vecs - vecs * vals, axis=0).max()
    opnorm = np.abs(vals).max()
    achieved = float(resid / max(opnorm, np.finfo(np.float64).tiny))
    if achieved > tol:
        raise ArithmeticError(f"eigensolve residual {achieved:.3e} exceeds tol {tol:.1e}")
    return Spectrum(vals, achieved)


def _start_vector(w: np.ndarray) -> np.ndarray:
    """Fixed generic Lanczos start vector, orthogonal to the unit vector w."""
    v = np.random.default_rng(_LANCZOS_SEED).standard_normal(w.size)
    return v - (w @ v) * w


def _extreme_ritz(matvec, n: int, which: str, v0: np.ndarray) -> tuple[float, float]:
    """(theta, ||Op v - theta v||) for the largest ("LA") or smallest ("SA")
    eigenvalue of the symmetric operator x -> matvec(x), by Lanczos to
    machine precision.  A residual above RITZ_TOL is an ArithmeticError."""
    op = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    vals, vecs = eigsh(op, k=1, which=which, v0=v0, tol=0, rng=_LANCZOS_SEED)
    theta, v = float(vals[0]), vecs[:, 0]
    resid = float(np.linalg.norm(matvec(v) - theta * v))
    if resid > RITZ_TOL * max(1.0, abs(theta)):
        raise ArithmeticError(f"Ritz residual {resid:.3e} exceeds tol {RITZ_TOL:.1e}")
    return theta, resid


def gap(g: Graph) -> GapResult:
    """Absolute gap of a connected graph.

    Disconnected input is an error naming the kernel dimension found (the
    number of components).  Exactly one smallest eigenvalue is dropped (the
    kernel of a connected graph), so a tiny positive lambda_2 is reported
    rather than thresholded away.

    Up to _DENSE_MAX_N vertices every eigenvalue of L comes from LAPACK.
    Above it, two Lanczos solves on the sparse M = T^{-1/2} A T^{-1/2}, whose
    top eigenvector is u = T^{1/2} 1 / ||T^{1/2} 1|| with eigenvalue 1:
    lambda2 = 1 - lambda_max(M - 2 u u^t), the shift sending u to -1 instead
    of projecting it out (a projected-out u can come back as a spurious Ritz
    value), and lambda_max = 1 - lambda_min(M).  Ritz values lie inside the
    spectrum, so lambda2 can only come out too high and lambda_max too low:
    lambda_abs never exceeds the true gap (up to rounding).  It can refute a
    bound below 1 but not confirm one; `gap_at_most` decides that.
    """
    if g.n <= _DENSE_MAX_N:
        return _dense_gap(g)
    kernel_dim = len(components(g).sizes)
    if kernel_dim != 1:
        raise ValueError(f"graph is not connected: kernel_dim={kernel_dim}")
    m = g.sparse_adjacency()
    tsqrt = np.sqrt(g.degrees.astype(np.float64))
    m.data /= np.repeat(tsqrt, np.diff(m.indptr)) * tsqrt[m.indices]
    u = tsqrt / np.linalg.norm(tsqrt)
    v0 = _start_vector(u)
    top, r2 = _extreme_ritz(lambda x: m @ x - (2.0 * (u @ x)) * u, g.n, "LA", v0)
    bottom, rmax = _extreme_ritz(lambda x: m @ x, g.n, "SA", v0)
    lambda2, lambda_max = 1.0 - top, 1.0 - bottom
    return GapResult(
        lambda_abs=max(1.0 - lambda2, lambda_max - 1.0),
        lambda2=lambda2,
        lambda_max=lambda_max,
        kernel_dim=1,
        residual=max(r2, rmax),
    )


def _dense_gap(g: Graph) -> GapResult:
    vals = np.linalg.eigvalsh(normalized_laplacian(g))
    kernel_dim = int(np.count_nonzero(vals < ZERO_TOL))
    if kernel_dim != 1:
        raise ValueError(f"graph is not connected: kernel_dim={kernel_dim}")
    if vals.size < 2:
        raise ValueError("gap needs at least 2 vertices")
    rest = vals[1:]
    return GapResult(
        lambda_abs=float(np.abs(1.0 - rest).max()),
        lambda2=float(rest[0]),
        lambda_max=float(rest[-1]),
        kernel_dim=kernel_dim,
    )


def giant_gap(g: Graph) -> GapResult:
    """Gap of the induced subgraph on the giant component."""
    if g.edge_count == 0:
        raise ValueError("giant_gap needs at least one edge")
    comp = components(g)
    if comp.sizes.size == 1:
        return gap(g)
    keep = np.flatnonzero(comp.component_id == comp.giant)
    return gap(induced_subgraph(g, keep))


def _positive_definite(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def gap_at_most(g: Graph, bound: float) -> bool:
    """Whether every nontrivial eigenvalue of L lies strictly within `bound` of 1.

    Decided by inertia (Sylvester's law) rather than by eigenvalues, so the
    answer does not inherit the one-sided error of a Lanczos gap.  Since
    spec(L) lies in [0, 2], any bound >= 1 holds.  Otherwise both
    (1 + bound) I - L and (bound - 1) I + L + 2 u u^t must be positive
    definite (u as in `gap`: it carries eigenvalue bound + 1 in both), which
    one dense Cholesky each decides, up to rounding of order 1e-15.  A
    disconnected graph has a nontrivial eigenvalue 0 and yields False.
    """
    if g.edge_count == 0:
        raise ValueError("gap_at_most needs at least one edge")
    if bound >= 1.0:
        return True
    lap = _check_square_symmetric(normalized_laplacian(g))
    tsqrt = np.sqrt(g.degrees.astype(np.float64))
    u = tsqrt / np.linalg.norm(tsqrt)
    eye = np.eye(g.n)
    return (_positive_definite((1.0 + bound) * eye - lap)
            and _positive_definite((bound - 1.0) * eye + lap + 2.0 * np.outer(u, u)))


def adjacency_seminorm(g: Graph) -> float:
    """sup |x^t A y| over unit x orthogonal to the ones vector, unit y.

    Equals the largest singular value of P A with P = I - J/n: the square
    root of the top eigenvalue of the positive semidefinite P A A P.  Up to
    _DENSE_MAX_N vertices that is one dense matmul and eigensolve; above it,
    one Lanczos solve with sparse A.  The ones direction maps to 0 there, so
    it cannot leak into the top Ritz value, which can only undershoot.
    """
    n = g.n
    if n == 0 or g.edge_count == 0:
        return 0.0
    if n <= _DENSE_MAX_N:
        a = g.adjacency()
        s = a @ a
        rs = s.sum(axis=1)
        tot = float(rs.sum())
        psp = s - (rs[:, None] + rs[None, :]) / n + tot / n**2
        top = np.linalg.eigvalsh(psp)[-1]
    else:
        a = g.sparse_adjacency()

        def papa(x):
            y = a @ (a @ (x - x.mean()))
            return y - y.mean()

        top, _ = _extreme_ritz(papa, n, "LA", _start_vector(np.full(n, n**-0.5)))
    return float(np.sqrt(max(top, 0.0)))

