"""Exact transport-type distance between density operators on n sites.

The distance of rho and sigma is the optimal value of the convex program

    minimize   sum_i (1/2) tr |X_i|
    subject to sum_i X_i = rho - sigma,   tr_i X_i = 0,   X_i Hermitian,

where tr_i traces out site i alone. It reduces to the trace distance on a
single site, never falls below the trace distance, and never exceeds n
times it. The trace-norm convention is (1/2) tr |.| throughout, matching
`trace_distance_slater`.

The solver is an over-relaxed ADMM (Douglas-Rachford splitting): the
objective's proximal map is eigenvalue soft-thresholding per block, and
the affine constraint set is handled by an exact orthogonal projection.
Lower bounds come from classical witnesses: a Hamming-Lipschitz function
measured through a product basis cannot exceed the distance.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .ground import OrthonormalFamily
from .slater import (DensityOperator, _partial_trace_matrix, full_state_vector,
                     reduced_density_matrix)
# ot_cost is not called here, but perfbench/tracing.py looks it up by this name
from .transport import CostMatrix, hamming_cost, metric_transport_values, ot_cost

DIM_CAP = 64


def partial_trace(op, dims, which) -> np.ndarray:
    """Trace the tensor factors listed in `which` (0-based) out of `op`."""
    mat = op.matrix if isinstance(op, DensityOperator) else np.asarray(op)
    return _partial_trace_matrix(mat, list(dims), which)


def _embed_identity(block: np.ndarray, dims, site: int) -> np.ndarray:
    """Inflate an operator on the other sites with the identity at `site`."""
    pre = math.prod(dims[:site])
    d = dims[site]
    post = math.prod(dims[site + 1:])
    four = block.reshape(pre, post, pre, post)
    six = np.einsum("abcd,pq->apbcqd", four, np.eye(d))
    return six.reshape(pre * d * post, pre * d * post)


class _ConstraintProjector:
    """Orthogonal projection onto {(Z_i): tr_i Z_i = 0, sum_i Z_i = delta}.

    The maps Q_i replacing site i by its normalized identity commute, so
    sum_i (I - Q_i) diagonalizes over the 2^n joint eigenspaces indexed by
    the set S of sites carrying an identity factor, with eigenvalue
    n - |S|. Inverting it on the traceless part solves the multiplier
    equation exactly, giving a projection in closed form.
    """

    def __init__(self, dims, delta: np.ndarray):
        self.dims = list(dims)
        self.n = len(self.dims)
        self.delta = delta

    def _strip(self, mat: np.ndarray, site: int) -> np.ndarray:
        """P_i: remove the component with identity at `site`."""
        reduced = _partial_trace_matrix(mat, self.dims, [site])
        return mat - _embed_identity(reduced, self.dims, site) / self.dims[site]

    def _solve_multiplier(self, rhs: np.ndarray) -> np.ndarray:
        """Solve sum_i P_i(lam) = rhs for traceless rhs."""
        n = self.n
        table = {(): rhs}
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                prev = table[subset[:-1]]
                i = subset[-1]
                red = _partial_trace_matrix(prev, self.dims, [i])
                table[subset] = _embed_identity(red, self.dims, i) / self.dims[i]
        lam = np.zeros_like(rhs)
        for s_count in range(n):  # the full set has eigenvalue zero and no mass
            for subset in itertools.combinations(range(n), s_count):
                component = np.zeros_like(rhs)
                rest = [i for i in range(n) if i not in subset]
                for extra_count in range(len(rest) + 1):
                    for extra in itertools.combinations(rest, extra_count):
                        merged = tuple(sorted(subset + extra))
                        component = component + ((-1) ** extra_count) * table[merged]
                lam = lam + component / (n - s_count)
        return lam

    def project(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        stripped = [self._strip(b, i) for i, b in enumerate(blocks)]
        rhs = self.delta - sum(stripped)
        lam = self._solve_multiplier(rhs)
        out = [s + self._strip(lam, i) for i, s in enumerate(stripped)]
        return [0.5 * (z + z.conj().T) for z in out]


def _shrink_eigenvalues(mat: np.ndarray, amount: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    shrunk = np.sign(vals) * np.maximum(np.abs(vals) - amount, 0.0)
    return (vecs * shrunk) @ vecs.conj().T


def _half_trace_norm(mat: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)))))


@dataclass(frozen=True, eq=False)
class W1Certificate:
    """Solver output: optimal value with feasibility and duality evidence."""

    value: float
    part_weights: tuple
    primal_parts: tuple
    dual_witness_value: float
    gap: float
    iterations: int
    primal_residual: float
    dual_residual: float
    feasibility_error: float

    def to_json(self) -> str:
        return json.dumps({
            "value": self.value,
            "part_weights": list(self.part_weights),
            "dual_witness_value": self.dual_witness_value,
            "gap": self.gap,
            "iterations": self.iterations,
            "primal_residual": self.primal_residual,
            "dual_residual": self.dual_residual,
            "feasibility_error": self.feasibility_error,
        }, sort_keys=True)


def diagonal_distribution(op: DensityOperator) -> dict:
    """Distribution of outcomes when every site is measured in its own basis."""
    probs = np.maximum(np.real(np.diag(op.matrix)), 0.0)
    grid = itertools.product(*(range(d) for d in op.dims))
    return {outcome: float(p) for outcome, p in zip(grid, probs)}


def classical_hamming_w1(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Exact Hamming transport distance of the two diagonal outcome laws.

    A valid lower bound on the operator distance: measurement in a product
    basis contracts it, and the classical dual optimizer is a
    Hamming-Lipschitz witness.
    """
    p, q = diagonal_distribution(rho), diagonal_distribution(sigma)
    grid = sorted(p)
    cost = CostMatrix.from_function(grid, grid, hamming_cost)
    masses = np.array([[dist[x] for x in grid] for dist in (p, q)])
    return float(metric_transport_values(masses[:1], masses[1:], cost)[0])


def w1_exact(rho: DensityOperator, sigma: DensityOperator,
             tol: float = 1e-8, rel_tol: float = 1e-6,
             max_iter: int = 50_000, rho_penalty: float = 1.0,
             over_relax: float = 1.7, dim_cap: int = DIM_CAP) -> W1Certificate:
    """Solve the transport program for a pair of density operators.

    Feasible iterates come from the exact constraint projection, so the
    reported value is an upper bound that converges to the optimum; the
    classical witness in the certificate is a lower bound.
    """
    if rho.dims != sigma.dims:
        raise ValueError("operators live on different site structures")
    dims = list(rho.dims)
    total = math.prod(dims)
    if total > dim_cap:
        raise ValueError(f"total dimension {total} exceeds cap {dim_cap}")
    delta = rho.matrix - sigma.matrix
    if abs(np.trace(delta)) > 1e-9:
        raise ValueError("difference must be traceless")
    n = len(dims)

    projector = _ConstraintProjector(dims, delta)
    z = projector.project([np.zeros_like(delta) for _ in range(n)])
    u = [np.zeros_like(delta) for _ in range(n)]
    shrink = 0.5 / rho_penalty
    scale = math.sqrt(n) * total
    iterations = 0
    r_norm = s_norm = float("inf")
    for iterations in range(1, max_iter + 1):
        x = [_shrink_eigenvalues(zi - ui, shrink) for zi, ui in zip(z, u)]
        x_hat = [over_relax * xi + (1.0 - over_relax) * zi for xi, zi in zip(x, z)]
        z_new = projector.project([xh + ui for xh, ui in zip(x_hat, u)])
        u = [ui + xh - zn for ui, xh, zn in zip(u, x_hat, z_new)]

        r_norm = math.sqrt(sum(float(np.linalg.norm(xi - zn) ** 2)
                               for xi, zn in zip(x, z_new)))
        s_norm = rho_penalty * math.sqrt(sum(float(np.linalg.norm(zn - zo) ** 2)
                                             for zn, zo in zip(z_new, z)))
        z = z_new
        x_scale = max(math.sqrt(sum(float(np.linalg.norm(xi) ** 2) for xi in x)),
                      math.sqrt(sum(float(np.linalg.norm(zi) ** 2) for zi in z)))
        u_scale = rho_penalty * math.sqrt(sum(float(np.linalg.norm(ui) ** 2) for ui in u))
        if (r_norm <= scale * tol + rel_tol * x_scale
                and s_norm <= scale * tol + rel_tol * u_scale):
            break
    else:
        raise ConvergenceError(
            f"no convergence in {max_iter} iterations "
            f"(primal {r_norm:.3e}, dual {s_norm:.3e})",
            iterations=max_iter, primal_residual=r_norm, dual_residual=s_norm)

    weights = tuple(_half_trace_norm(zi) for zi in z)
    feas_sum = float(np.max(np.abs(sum(z) - delta)))
    feas_tr = max(float(np.max(np.abs(_partial_trace_matrix(zi, dims, [i]))))
                  for i, zi in enumerate(z)) if n else 0.0
    witness = classical_hamming_w1(rho, sigma)
    value = float(sum(weights))
    return W1Certificate(
        value=value,
        part_weights=weights,
        primal_parts=tuple(z),
        dual_witness_value=witness,
        gap=value - witness,
        iterations=iterations,
        primal_residual=r_norm,
        dual_residual=s_norm,
        feasibility_error=max(feas_sum, feas_tr),
    )


def dual_witness_from_classical(f, rho: DensityOperator, sigma: DensityOperator,
                                bases=None) -> float:
    """Value tr[H (rho - sigma)] of the witness H = product-measured f.

    `f` maps outcome tuples of the site grid to reals and must change by
    at most one when a single coordinate changes; this is verified pair by
    pair. `bases` optionally gives one unitary per site whose columns are
    the measured basis (default: computational basis).
    """
    dims = rho.dims
    if sigma.dims != dims:
        raise ValueError("operators live on different site structures")
    grid = list(itertools.product(*(range(d) for d in dims)))
    values = {x: float(f(x)) for x in grid}
    for x in grid:  # single-coordinate moves must change f by at most 1
        for site, d in enumerate(dims):
            for other in range(x[site] + 1, d):
                y = x[:site] + (other,) + x[site + 1:]
                if abs(values[x] - values[y]) > 1.0 + 1e-12:
                    raise ValueError(
                        f"not Hamming-Lipschitz: |f{x} - f{y}| = "
                        f"{abs(values[x] - values[y]):.6f} > 1")
    if bases is None:
        diff = np.real(np.diag(rho.matrix - sigma.matrix))
        return float(sum(values[x] * diff[i] for i, x in enumerate(grid)))
    basis_mats = []
    for d, b in zip(dims, bases):
        b = np.asarray(b, dtype=complex)
        if b.shape != (d, d) or np.max(np.abs(b.conj().T @ b - np.eye(d))) > 1e-9:
            raise ValueError("each basis must be a unitary of the site dimension")
        basis_mats.append(b)
    h = np.zeros((math.prod(dims), math.prod(dims)), dtype=complex)
    for x in grid:
        vec = np.array([1.0 + 0.0j])
        for site, coord in enumerate(x):
            vec = np.kron(vec, basis_mats[site][:, coord])
        h += values[x] * np.outer(vec, vec.conj())
    return float(np.real(np.trace(h @ (rho.matrix - sigma.matrix))))


def rdm_monotonicity_check(a: OrthonormalFamily, b: OrthonormalFamily,
                           **solver_kwargs) -> list[tuple[int, float]]:
    """Per-size distances (k, W1(reduced_k) / k) for k = 1..n.

    The sequence is non-decreasing in exact arithmetic; callers should
    allow twice the solver tolerance when asserting that.
    """
    state_a = full_state_vector(a)
    state_b = full_state_vector(b)
    out = []
    for k in range(1, a.n + 1):
        red_a = reduced_density_matrix(state_a, k)
        red_b = reduced_density_matrix(state_b, k)
        cert = w1_exact(red_a, red_b, **solver_kwargs)
        out.append((k, cert.value / k))
    return out
