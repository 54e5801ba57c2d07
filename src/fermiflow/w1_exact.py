"""Exact transport-type distance between density operators on n sites.

The distance of rho and sigma is the optimal value of the convex program

    minimize   sum_i (1/2) tr |X_i|
    subject to sum_i X_i = rho - sigma,   tr_i X_i = 0,   X_i Hermitian,

where tr_i traces out site i alone. It reduces to the trace distance on a
single site, never falls below the trace distance, and never exceeds n
times it. The trace-norm convention is (1/2) tr |.| throughout, matching
`trace_distance_slater`.

The solver is an over-relaxed ADMM (Douglas-Rachford splitting) on the n
blocks held as one (n, D, D) array: the objective's proximal map is one
batched eigenvalue soft-thresholding, and the affine constraint set is
handled by an exact orthogonal projection in closed form. In a product
operator basis whose first element per site is the normalized identity
(up to sign), tr_i X_i = 0 says block i vanishes wherever site i carries
the identity, so the projection splits coefficient by coefficient. Lower
bounds come from classical witnesses: a Hamming-Lipschitz function
measured through a product basis cannot exceed the distance.
"""

from __future__ import annotations

import itertools
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
# ADMM relative stopping tolerance and over-relaxation factor
REL_TOL = 1e-6
OVER_RELAX = 1.7


def partial_trace(op, dims, which) -> np.ndarray:
    """Trace the tensor factors listed in `which` (0-based) out of `op`."""
    mat = op.matrix if isinstance(op, DensityOperator) else np.asarray(op)
    return _partial_trace_matrix(mat, list(dims), which)


def _identity_first_reflection(d: int) -> np.ndarray:
    """Real symmetric orthogonal d^2 x d^2 matrix sending vec(I)/sqrt(d) to -e_0.

    A Householder reflection, so it is its own inverse: row 0 reads a
    matrix's identity component (negated) and the other rows a traceless
    orthonormal basis. The sign keeps v away from zero for every d >= 1.
    """
    v = np.eye(d).ravel() / math.sqrt(d)
    v[0] += 1.0
    return np.eye(d * d) - (2.0 / float(v @ v)) * np.outer(v, v)


class _ConstraintProjector:
    """Orthogonal projection onto {(Z_i): tr_i Z_i = 0, sum_i Z_i = delta}.

    In a product operator basis whose first element per site is -I/sqrt(d),
    both constraints act coefficient by coefficient. At a coefficient
    whose set A of non-identity sites has w members, block i may be
    non-zero only for i in A, and the allowed blocks share the residual
    delta - sum_{i in A} Y_i equally. w = 0 only on the identity component,
    where a traceless delta is 0. Blocks are held as one (n, D, D) array.
    """

    def __init__(self, dims, delta: np.ndarray):
        self.dims = tuple(dims)
        n = len(self.dims)
        self.reflections = [_identity_first_reflection(d) for d in self.dims]
        # (m, rows..., cols...) -> (m, row_1, col_1, ..., row_n, col_n) and back
        self._interleave = (0,) + tuple(a for i in range(n) for a in (1 + i, 1 + n + i))
        self._deinterleave = tuple(np.argsort(self._interleave))
        # flat coefficient a has site i in its identity component iff a_i == 0
        self.allowed = (np.indices([d * d for d in self.dims]) != 0).reshape(n, -1)
        # where no block is allowed (the identity component) the mask zeroes the share
        self.share = 1.0 / np.maximum(self.allowed.sum(axis=0), 1)
        self.delta_coeffs = self._to_basis(delta[None])[0]

    def _change_basis(self, coeffs: np.ndarray) -> np.ndarray:
        """Apply every site's reflection to (m, d_1^2, ..., d_n^2) entries; flat out."""
        m = coeffs.shape[0]
        for h in self.reflections:  # each step moves its site's axis to the back
            coeffs = coeffs.reshape(m, h.shape[0], -1).transpose(0, 2, 1) @ h
        return coeffs.reshape(m, -1)

    def _to_basis(self, stack: np.ndarray) -> np.ndarray:
        m = stack.shape[0]
        return self._change_basis(
            stack.reshape((m,) + self.dims * 2).transpose(self._interleave))

    def _from_basis(self, coeffs: np.ndarray) -> np.ndarray:
        m = coeffs.shape[0]
        total = math.prod(self.dims)
        pairs = self._change_basis(coeffs).reshape((m,) + tuple(np.repeat(self.dims, 2)))
        return pairs.transpose(self._deinterleave).reshape(m, total, total)

    def project(self, blocks: np.ndarray) -> np.ndarray:
        y = self._to_basis(blocks) * self.allowed
        coeffs = self.allowed * (y + self.share * (self.delta_coeffs - y.sum(axis=0)))
        out = self._from_basis(coeffs)
        return 0.5 * (out + _adjoint(out))


def _adjoint(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _shrink_eigenvalues(stack: np.ndarray, amount: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (stack + _adjoint(stack)))
    shrunk = np.sign(vals) * np.maximum(np.abs(vals) - amount, 0.0)
    return (vecs * shrunk[:, None, :]) @ _adjoint(vecs)


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


def classical_hamming_w1(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Exact Hamming transport distance of the two diagonal outcome laws.

    Both laws come from measuring every site in its own basis; the
    diagonal is in `itertools.product` order of the site outcomes. A valid
    lower bound on the operator distance: measurement in a product basis
    contracts it, and the classical dual optimizer is a Hamming-Lipschitz
    witness.
    """
    grid = list(itertools.product(*(range(d) for d in rho.dims)))
    cost = CostMatrix.from_function(grid, grid, hamming_cost)
    masses = np.maximum(np.real([np.diag(rho.matrix), np.diag(sigma.matrix)]), 0.0)
    return float(metric_transport_values(masses[:1], masses[1:], cost)[0])


def w1_exact(rho: DensityOperator, sigma: DensityOperator,
             tol: float = 1e-8, max_iter: int = 50_000,
             rho_penalty: float = 1.0, dim_cap: int = DIM_CAP) -> W1Certificate:
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
    z = projector.project(np.zeros((n, total, total), dtype=delta.dtype))
    u = np.zeros_like(z)
    shrink = 0.5 / rho_penalty
    scale = math.sqrt(n) * total
    iterations = 0
    r_norm = s_norm = float("inf")
    for iterations in range(1, max_iter + 1):
        x = _shrink_eigenvalues(z - u, shrink)
        x_hat = OVER_RELAX * x + (1.0 - OVER_RELAX) * z
        z_new = projector.project(x_hat + u)
        u = u + x_hat - z_new

        r_norm = float(np.linalg.norm(x - z_new))
        s_norm = rho_penalty * float(np.linalg.norm(z_new - z))
        z = z_new
        x_scale = max(float(np.linalg.norm(x)), float(np.linalg.norm(z)))
        u_scale = rho_penalty * float(np.linalg.norm(u))
        if (r_norm <= scale * tol + REL_TOL * x_scale
                and s_norm <= scale * tol + REL_TOL * u_scale):
            break
    else:
        raise ConvergenceError(
            f"no convergence in {max_iter} iterations "
            f"(primal {r_norm:.3e}, dual {s_norm:.3e})",
            iterations=max_iter, primal_residual=r_norm, dual_residual=s_norm)

    weights = tuple(float(w) for w in
                    0.5 * np.abs(np.linalg.eigvalsh(z)).sum(axis=1))
    feas_sum = float(np.max(np.abs(z.sum(axis=0) - delta)))
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
