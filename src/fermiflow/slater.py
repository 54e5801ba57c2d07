"""Determinant states built from orthonormal families, and their overlaps.

An orthonormal family (psi_1..psi_n) on a ground space defines the
antisymmetric n-point pure state with amplitudes

    Psi(x_1..x_n) = det(psi_i(x_j)) / sqrt(n!)

Overlaps of two such states reduce to determinants of the n x n matrix of
single-function overlaps, which is all this module needs for fidelities
and distances.

Distance convention used throughout the library: the trace distance of
density operators is half the trace norm of the difference,
(1/2) tr |rho - sigma|, so pure states are at distance sqrt(1 - fidelity)
and the maximal possible distance is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EnumerationCapError
from .ground import OrthonormalFamily


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """Matrix of overlaps <a_i, b_j> between two orthonormal families.

    Any such matrix is a sub-block of a unitary, so all singular values
    are at most one; construction enforces this within 1e-9 from `svd`, its
    one decomposition (P, s, Q^H): entries = P diag(s) Q^H, s decreasing.
    """

    entries: np.ndarray
    svd: tuple = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("overlap matrix must be square")
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "svd", np.linalg.svd(m))
        top = self.singular_values[0] if m.size else 0.0
        if top > 1 + 1e-9:
            raise ValueError(f"largest singular value {top:.12f} exceeds 1")

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def singular_values(self) -> np.ndarray:
        return self.svd[1]


def _folded_pair(a: OrthonormalFamily, b: OrthonormalFamily) -> tuple:
    """Both families' folded columns, refused on different spaces or of different sizes."""
    if not a.space.same_as(b.space):
        raise ValueError("families live on different ground spaces")
    if a.n != b.n:
        raise ValueError(f"family sizes differ: {a.n} vs {b.n}")
    return a.folded(), b.folded()


def overlap_matrix(a: OrthonormalFamily, b: OrthonormalFamily) -> OverlapMatrix:
    """Pairwise overlaps of two equally sized families on the same space."""
    fold_a, fold_b = _folded_pair(a, b)
    return OverlapMatrix(fold_a.conj().T @ fold_b)


def overlap_determinant(m: OverlapMatrix) -> complex:
    """det of the overlap matrix, as its sign times its exponentiated log magnitude."""
    sign, logabs = np.linalg.slogdet(m.entries)
    return complex(sign * np.exp(logabs))


def _fidelities(mats: np.ndarray) -> np.ndarray:
    """|det|^2 of each matrix in a stack, clamped to at most one (one for 0 x 0)."""
    _, logabs = np.linalg.slogdet(mats)
    # math.exp, not np.exp: numpy's exp can differ in the last bit, and
    # sqrt(1 - fidelity) magnifies that wherever the fidelity is near one
    return np.minimum(1.0, np.vectorize(math.exp, otypes=[float])(2.0 * logabs))


def slater_fidelity(m: OverlapMatrix) -> float:
    """|det M|^2, the squared overlap of the two determinant states."""
    return float(_fidelities(m.entries))


def trace_distance_slater(m: OverlapMatrix) -> float:
    """Trace distance of the two pure determinant states, sqrt(1 - |det M|^2)."""
    return math.sqrt(max(0.0, 1.0 - slater_fidelity(m)))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive unit-trace operator on a tensor product of finite factors."""

    dims: tuple
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        total = math.prod(self.dims)
        if m.shape != (total, total):
            raise ValueError(f"matrix shape {m.shape} does not match dims {self.dims}")
        if np.max(np.abs(m - m.conj().T)) > 1e-9:
            raise ValueError("density operator must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10 or abs(np.trace(m).imag) > 1e-12:
            raise ValueError(f"trace is {np.trace(m)}, expected 1")
        low = float(np.min(np.linalg.eigvalsh(m)))
        if low < -1e-10:
            raise ValueError(f"negative eigenvalue {low:.3e}")

    @property
    def n_factors(self) -> int:
        return len(self.dims)


def slater_state_vector(family: OrthonormalFamily, cap: int = 100_000) -> np.ndarray:
    """Weight-folded amplitudes of the determinant state on the full tuple grid.

    Returns a unit vector of length |E|**n in C-order over (x_1..x_n); the
    entry for a tuple is the amplitude times prod_j sqrt(mu(x_j)).
    """
    m = family.space.n_points
    n = family.n
    total = m ** n
    if total > cap:
        raise EnumerationCapError(total, cap)
    fold = family.folded()  # (m, n), orthonormal columns
    idx = np.indices((m,) * n).reshape(n, -1).T  # (total, n)
    mats = fold[idx, :]  # (total, n, n); transposition leaves det unchanged
    vec = np.linalg.det(mats) / math.sqrt(math.factorial(n))
    return vec


def full_state_vector(family: OrthonormalFamily, cap: int = 100_000) -> DensityOperator:
    """The pure density operator of the determinant state; `cap` holds its |E|**(2n) entries."""
    if (entries := family.space.n_points ** (2 * family.n)) > cap:
        raise EnumerationCapError(entries, cap, "density-matrix entries")
    vec = slater_state_vector(family, cap=cap)
    return DensityOperator((family.space.n_points,) * family.n, np.outer(vec, vec.conj()))


def _partial_trace_matrix(mat: np.ndarray, dims, traced) -> np.ndarray:
    """Trace the listed tensor factors (0-based) out of a square matrix."""
    dims = [int(d) for d in dims]
    mat = np.asarray(mat)
    total = math.prod(dims)
    if mat.shape != (total, total):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
    traced = sorted(set(int(i) for i in traced), reverse=True)
    for i in traced:
        if not 0 <= i < len(dims):
            raise ValueError(f"factor index {i} out of range")
    for i in traced:  # from the last, so that i still indexes the factors left
        pre, d, post = math.prod(dims[:i]), dims.pop(i), math.prod(dims[i:])
        t = mat.reshape(pre, d, post, pre, d, post)
        mat = np.einsum("apbcpd->abcd", t).reshape(pre * post, pre * post)
    return mat


def reduced_density_matrix(state: DensityOperator, k: int) -> DensityOperator:
    """Unit-trace reduction of `state` to its first k tensor factors."""
    n = state.n_factors
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    if k == n:
        return state
    red = _partial_trace_matrix(state.matrix, state.dims, range(k, n))
    return DensityOperator(state.dims[:k], red)
