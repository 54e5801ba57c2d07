"""Finite weighted ground sets and orthonormal families of functions on them.

A ground space is a finite list of labelled points with strictly positive
weights, standing in for a measure space. A function on the space is a
complex vector with one value per point, and every integral is a weighted
sum:

    <f, g> = sum_x conj(f(x)) g(x) mu(x)

conjugate-linear in the first argument. Families of functions are stored
as 2-d arrays with one row per function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import stream_generator
from .errors import RankDeficiencyError

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GroundSpace:
    """Finite point set with positive weights and optional real coordinates."""

    points: tuple
    weights: np.ndarray
    coords: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.shape != (len(self.points),):
            raise ValueError("one weight per point required")
        if not np.all(w > 0):
            raise ValueError("weights must be strictly positive")
        if len(set(self.points)) != len(self.points):
            raise ValueError("point labels must be distinct")
        if self.coords is not None:
            c = np.asarray(self.coords, dtype=float)
            if c.shape != (len(self.points),):
                raise ValueError("one coordinate per point required")
            object.__setattr__(self, "coords", c)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @classmethod
    def uniform(cls, n_points: int) -> "GroundSpace":
        """Points 0..n-1 with equal weights summing to one."""
        if n_points < 1:
            raise ValueError("need at least one point")
        return cls(tuple(range(n_points)), np.full(n_points, 1.0 / n_points))

    def same_as(self, other: "GroundSpace") -> bool:
        return (self.points == other.points
                and np.array_equal(self.weights, other.weights))


def gram_matrix(functions, space: GroundSpace) -> np.ndarray:
    """Hermitian matrix of pairwise inner products, rows indexing functions."""
    fns = np.asarray(functions, dtype=complex)
    if fns.ndim != 2 or fns.shape[1] != space.n_points:
        raise ValueError("expected a (n_functions, n_points) array")
    weighted = fns * space.weights
    return np.conj(fns) @ weighted.T


@dataclass(frozen=True, eq=False)
class OrthonormalFamily:
    """Functions with Gram matrix equal to the identity within `tol`.

    `functions` has one row per family member. Construction re-checks the
    Gram matrix, so any instance can be trusted downstream.
    """

    space: GroundSpace
    functions: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        fns = np.asarray(self.functions, dtype=complex)
        if fns.ndim != 2:
            raise ValueError("expected a 2-d array of functions")
        object.__setattr__(self, "functions", fns)
        gram = gram_matrix(fns, self.space)
        err = np.max(np.abs(gram - np.eye(len(fns)))) if len(fns) else 0.0
        if err > self.tol:
            raise ValueError(
                f"family is not orthonormal: max Gram deviation {err:.3e} > {self.tol:.1e}")

    @property
    def n(self) -> int:
        return self.functions.shape[0]

    def folded(self) -> np.ndarray:
        """(n_points, n) array with columns f_i(x) sqrt(mu(x)).

        Folding the weights into the values turns weighted inner products
        into plain ones: the returned columns are orthonormal for the
        standard complex dot product.
        """
        return (self.functions * np.sqrt(self.space.weights)).T

    def subset(self, indices) -> "OrthonormalFamily":
        idx = list(indices)
        return OrthonormalFamily(self.space, self.functions[idx], self.tol)


def orthonormalize(functions, space: GroundSpace, tol: float = DEFAULT_TOL) -> OrthonormalFamily:
    """Modified Gram-Schmidt in the given order, with one reorthogonalization pass.

    Raises RankDeficiencyError naming the first function whose residual
    norm falls below `tol`.
    """
    fns = np.asarray(functions, dtype=complex)
    if fns.ndim != 2 or fns.shape[1] != space.n_points:
        raise ValueError("expected a (n_functions, n_points) array")
    w = space.weights
    done: list[np.ndarray] = []
    for idx in range(fns.shape[0]):
        v = fns[idx].copy()
        for _ in range(2):  # second pass controls cancellation error
            for q in done:
                v = v - np.sum(np.conj(q) * v * w) * q
        norm = math.sqrt(float(np.sum(np.abs(v) ** 2 * w)))
        if norm < tol:
            raise RankDeficiencyError(idx, norm)
        done.append(v / norm)
    return OrthonormalFamily(space, np.array(done), tol)


def walsh_family(levels: int) -> tuple[GroundSpace, np.ndarray]:
    """Walsh functions in sequency order on a dyadic grid of 2**levels cells.

    The grid carries uniform weights 1/2**levels and cell-center coordinates,
    so every Walsh function has unit norm. Values are computed in integer
    arithmetic: row i has exactly i sign changes across the grid.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    m = 1 << levels
    values = np.empty((m, m), dtype=int)
    for i in range(m):
        g = i ^ (i >> 1)
        r = 0
        for b in range(levels):  # bit reversal maps sequency to Sylvester row
            r |= ((g >> b) & 1) << (levels - 1 - b)
        for j in range(m):
            values[i, j] = -1 if bin(r & j).count("1") % 2 else 1
    coords = (np.arange(m) + 0.5) / m
    space = GroundSpace(tuple(range(m)), np.full(m, 1.0 / m), coords)
    return space, values.astype(float)


def random_orthonormal(dim: int, n: int, seed: int,
                       space: GroundSpace | None = None) -> OrthonormalFamily:
    """Haar-distributed orthonormal n-family, deterministic given the seed.

    Obtained by orthonormalizing i.i.d. complex Gaussian functions. When no
    space is given, the uniform space on `dim` points is used; otherwise the
    space must have exactly `dim` points.
    """
    if space is None:
        space = GroundSpace.uniform(dim)
    elif space.n_points != dim:
        raise ValueError("dim must equal the number of points of the space")
    if n > dim:
        raise ValueError(f"cannot fit {n} orthonormal functions in dimension {dim}")
    rng = stream_generator(seed)
    raw = (rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))) / math.sqrt(2)
    return orthonormalize(raw, space)
