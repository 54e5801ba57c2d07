"""Closed-form bounds between determinant states from their overlap matrix.

The states built from families (psi_i) and (phi_i) can each be recombined
by an n x n unitary without changing anything observable. Maximizing the
mean overlap (1/n) |sum_i <V psi_i, U phi_i>| over both recombinations
gives the nuclear norm of the overlap matrix divided by n, and that single
number controls a transport-type distance on the n-point state:

    W1(rho, sigma) <= n sqrt(1 - s^2),  s = (sum of singular values) / n.

Together with the two-sided comparison trace <= W1 <= n * trace this
sandwiches the trace distance sqrt(1 - |det M|^2) of the same pair, and
the two sides can be far apart: see `example_gap_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ground import GroundSpace, OrthonormalFamily, orthonormalize
from .slater import (OverlapMatrix, overlap_determinant, overlap_matrix,
                     trace_distance_slater)


def stabilizer_max_overlap(m: OverlapMatrix) -> float:
    """Mean overlap maximized over unitary recombinations of both families.

    Equals the nuclear norm of the overlap matrix divided by n: for
    recombinations V, U the mean overlap is |tr(V^H M U)| / n, and the
    trace inequality caps that at the singular value sum, attained at the
    polar factor. Clamped to [0, 1].
    """
    return float(_mean_overlaps(m.entries))


def _mean_overlaps(mats: np.ndarray) -> np.ndarray:
    """Singular value sum over n of each n x n matrix in a stack, in [0, 1]; one if n = 0."""
    n = mats.shape[-1]
    if n == 0:
        return np.ones(mats.shape[:-2])
    return np.clip(np.linalg.svd(mats, compute_uv=False).sum(axis=-1) / n, 0.0, 1.0)


def stabilizer_max_overlap_ascent(m: OverlapMatrix, rng: np.random.Generator) -> float:
    """Maximize |tr(A^H M B)| / n by alternating polar updates.

    Independent check on `stabilizer_max_overlap`: each half-step is the
    exact maximizer for the other unitary held fixed, so the objective
    ascends; five random restarts guard against flat starts, each stopping
    at a relative change of 1e-12 or after 200 sweeps.
    """
    mat = m.entries
    n = m.n
    if n == 0:
        return 1.0

    def polar(c: np.ndarray) -> np.ndarray:
        u, _, vh = np.linalg.svd(c)
        return u @ vh

    best = 0.0
    for _ in range(5):
        b = polar(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        value = 0.0
        for _ in range(200):
            a = polar(mat @ b)
            b = polar(mat.conj().T @ a)
            new = abs(np.trace(a.conj().T @ mat @ b))
            if abs(new - value) <= 1e-12 * max(1.0, new):
                value = new
                break
            value = new
        best = max(best, value)
    return best / n


def w1_upper_slater(m: OverlapMatrix) -> float:
    """n sqrt(1 - s^2) with s the stabilizer-maximized mean overlap."""
    s = stabilizer_max_overlap(m)
    return m.n * math.sqrt(max(0.0, 1.0 - s * s))


def w1_lower_slater(m: OverlapMatrix) -> float:
    """sum_i sin theta_i, the cos theta_i being the overlap's singular values.

    At k = 1 the reduced states are P_a / n and P_b / n, P the projector on
    a family's span, and P_a - P_b has eigenvalues +-sin theta_i, so the
    one-site distance is sum_i sin theta_i / n. W1 of the k-particle states
    over k does not decrease in k (`rdm_monotonicity_check`), so the
    n-particle distance is at least n times that. With `w1_upper_slater`
    it brackets W1, and the two ends meet exactly when all angles are
    equal, the upper end's square root being strictly concave.
    """
    cos = np.clip(m.singular_values, 0.0, 1.0)
    return float(np.sqrt(1.0 - cos * cos).sum())


@dataclass(frozen=True)
class GapRow:
    n: int
    determinant: float
    mean_overlap: float
    trace_distance: float
    w1_lower_over_n: float
    w1_upper_over_n: float


def _gap_pair(n: int) -> tuple[OrthonormalFamily, OrthonormalFamily]:
    """Families psi_i = e_i and phi_i tilted by eps_i = 2**-i toward e_{n+i}."""
    space = GroundSpace.uniform(2 * n)
    basis = np.eye(2 * n) * math.sqrt(2 * n)  # indicators scaled to unit norm
    eps = 2.0 ** -np.arange(1, n + 1)
    first = basis[:n]
    tilt = (1.0 - eps)[:, None] * basis[:n] \
        + np.sqrt(1.0 - (1.0 - eps) ** 2)[:, None] * basis[n:]
    fam_a = OrthonormalFamily(space, first)
    fam_b = orthonormalize(tilt, space)  # renormalizes to machine precision
    return fam_a, fam_b


def example_gap_table(n_max: int) -> list[GapRow]:
    """Rows (n, det, mean overlap, trace distance, w1_lower / n, w1_upper / n) for tilted pairs.

    With eps_i = 2**-i the determinant tends to a positive constant near
    0.289 while the mean overlap tends to one, so the trace distance
    saturates and the transport bound per point stays small. The two W1
    columns are closed forms, with no solve, and bracket W1 / n.
    """
    rows = []
    for n in range(1, n_max + 1):
        fam_a, fam_b = _gap_pair(n)
        m = overlap_matrix(fam_a, fam_b)
        rows.append(GapRow(
            n=n,
            determinant=float(overlap_determinant(m).real),
            mean_overlap=stabilizer_max_overlap(m),
            trace_distance=trace_distance_slater(m),
            w1_lower_over_n=w1_lower_slater(m) / n,
            w1_upper_over_n=w1_upper_slater(m) / n,
        ))
    return rows
