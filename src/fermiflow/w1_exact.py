"""Exact transport-type distance between density operators on n sites.

The distance of rho and sigma is the optimal value of the convex program

    minimize   sum_i (1/2) tr |X_i|
    subject to sum_i X_i = rho - sigma,   tr_i X_i = 0,   X_i Hermitian,

where tr_i traces out site i alone. It reduces to the trace distance on a
single site, where it is returned without iterating, never falls below
the trace distance, and never exceeds n times it. The trace-norm
convention is (1/2) tr |.| throughout, matching `trace_distance_slater`.

The solver is Douglas-Rachford splitting on the n blocks, held as one
array of their sector blocks (below). It iterates the over-relaxed map

    T(v) = v + OVER_RELAX (prox(2 z - v) - z),   z = P(v),

on the single variable v: prox, the objective's proximal map with step
2 tau, is one batched soft-thresholding of eigenvalues by tau, the trace
distance (1/2) tr |delta| over 2 sqrt(D), and P is the exact orthogonal
projection onto the affine constraint set. The program is positively
homogeneous: delta scaled by c > 0 scales every feasible point, the
distance and tau by c, hence every iterate, so with tol scaled alike the
iteration count does not depend on delta's units (with a fixed tau it does).
In a product operator basis whose first element per site is -I/sqrt(d),
tr_i X_i = 0 says block i vanishes wherever site i carries the identity,
so the projection splits coefficient by coefficient. Its linear part does
not depend on delta: P(v) = M v + c with one real symmetric sparse M,
built once per layout (sites, held blocks, sectors) and cached across
solves, so no iteration changes basis. Plain iteration of T is
over-relaxed ADMM with iterate z and scaled multiplier u = v - z; near a
degenerate optimum it takes thousands of steps. So it is accelerated by
safeguarded type-II Anderson extrapolation (Walker & Ni 2011; Zhang,
O'Donoghue & Boyd 2020) from the last ANDERSON_DEPTH residual differences,
with real coefficients so that every point stays Hermitian. An
extrapolated point is kept only if its residual ||T(v) - v|| is no larger
than the last kept point's, which a plain step never exceeds since T is
averaged. Each iteration evaluates T once: one eigendecomposition and one
product with M.

Every result is certified by a duality gap. The dual program maximizes
tr(H (rho - sigma)) over H such that, for each i, some M_i makes
||H + M_i (x) I_i||_op <= 1/2 (the Lipschitz dual). For every v, u = v - P(v)
lies in the range of the constraint adjoint, whatever the extrapolation
or tau did: its blocks are L + M_i (x) I_i for one shared L. Scaled by -t
into the norm ball, u is a dual point of value -t Re tr(L (rho - sigma)),
linear in u; u's drift from that range is one more cached sparse product.
The solver stops once the value of the feasible point z exceeds that dual
value by at most `tol`, so the distance lies in an interval of width at
most `tol`.

Determinant states and their reduced states are antisymmetric: every site
swap (0 i) fixes delta and commutes with T, so from the projection of 0
block i of every point, extrapolated or not, is the swap of block 0. For
such delta the loop holds block 0 alone, in v, z and the Anderson
buffers, and averages v over the permutations of sites 1..n-1. These fix
v in exact arithmetic; the projection's rounding does not, and the part
outside their fixed subspace is otherwise never damped and can overflow.
The gap test takes n times block 0's objective, and block 0's spectrum
with the drift of all n blocks for the dual point. The swaps form the
other blocks once, after the loop.

When delta has no imaginary part, the loop runs in float64, as it does
for every pair of determinant states through `rdm_certificates`: the
distance is unchanged by one unitary applied on every site, and two
n-dimensional subspaces of C^m have a real canonical form through their
principal angles theta_i (Bjorck & Golub 1973), into which both are rotated:
the symmetric frame, where a's and b's i-th functions lie at -theta_i / 2
and +theta_i / 2 from e_i, in the plane of e_i and one point of its own.

The loop holds only the diagonal blocks of delta's sign-flip sectors. Bit p
of a site tuple's parity vector pi(i) in GF(2)^d is set when point p occurs
in i an odd number of times; W is spanned by pi(i) XOR pi(j) over the
non-zero delta_ij. Each s orthogonal to W gives a product unitary
diag((-1)^s_p)^(x)n that fixes delta, and the projection, the shrink,
Anderson's real combinations and the site average commute with it, as with
the swaps above, so in exact arithmetic every iterate is block-diagonal over
the cosets of W (one for a dense delta). Equal-sized blocks are batched and
every spectrum is taken block by block. The parts are formed whole after
the loop, exactly block-diagonal, so their spectra are the union of their
blocks' and the certificate stays rigorous.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError
from .ground import GroundSpace, OrthonormalFamily
from .slater import (DensityOperator, _partial_trace_matrix, full_state_vector,
                     overlap_matrix, reduced_density_matrix)
# ot_cost is not called here, but perfbench/tracing.py looks it up by this name
from .transport import hamming_graph, metric_transport_values, ot_cost

DIM_CAP = 64
# the solver's default certified gap and iteration ceiling, read by every caller
TOL = 1e-5
MAX_ITER = 50_000
# ADMM over-relaxation factor
OVER_RELAX = 1.7
# iterations between duality-gap tests; the first and last iterations are tested too
GAP_EVERY = 10
# residual differences kept for Anderson extrapolation
ANDERSON_DEPTH = 5
# Tikhonov weight of Anderson's normal equations, relative to their Gram matrix's trace
ANDERSON_REG = 1e-10
# principal-angle sines at or below this are rounding of an exact zero
SINE_FLOOR = 1e-12
# projection layouts (gathers and sparse operators) kept across solves
LAYOUT_CACHE = 8
# universal single-excitation solves, one per (points, functions, tol, max_iter), kept across pairs
UNIVERSAL_CACHE = 8


def _identity_first_reflection(d: int) -> np.ndarray:
    """Real symmetric orthogonal d^2 x d^2 matrix sending vec(I)/sqrt(d) to -e_0.

    A Householder reflection, so it is its own inverse: row 0 reads a
    matrix's identity component (negated) and the other rows a traceless
    orthonormal basis. The sign keeps v away from zero for every d >= 1.
    """
    v = np.eye(d).ravel() / math.sqrt(d)
    v[0] += 1.0
    return np.eye(d * d) - (2.0 / float(v @ v)) * np.outer(v, v)


def _apply(operator, x: np.ndarray) -> np.ndarray:
    """operator @ x.ravel(), a complex x as (real, imaginary) columns: the operator stays real."""
    if np.iscomplexobj(x):
        return (operator @ x.reshape(-1).view(np.float64).reshape(-1, 2)).view(x.dtype).ravel()
    return operator @ x.reshape(-1)


class _Layout:
    """Projection P(v) = M v + c onto {(Z_i): tr_i Z_i = 0, sum_i Z_i = delta}, on held blocks.

    One layout serves every delta of its sites, h held blocks (1 when every
    site swap (0 i) fixes delta, block i being block 0 swapped, else n) and
    sectors; per solve `offset` forms c = P(0), passed to `project` and
    `dual_value`. Q, every site's reflection after the interleave
    permutation, takes packed entries to basis coefficients, orthogonally.
    The linear part C keeps block i's coefficients where site i is not the
    identity (A_i), less Sh times the allowed blocks' sum, Sh the reciprocal
    of their number. `drift` holds the row blocks of Q^T C Q on all n
    blocks, the first h as one operator, M. Exact entries are rationals with
    denominators dividing D lcm(1..n): those below 1e-12 are rounding.
    """

    def __init__(self, dims: tuple, held: int, labels: tuple):
        import scipy.sparse as sp

        n, total, labels = len(dims), math.prod(dims), np.array(labels)
        self.dims, self.held, self.total = dims, held, total
        sectors = sorted((np.flatnonzero(labels == s) for s in np.unique(labels)), key=len)
        self.sectors, self.groups, positions = tuple(map(len, sectors)), [], []
        for size, group in itertools.groupby(sectors, key=len):
            rows = np.array(list(group))
            start = sum(map(len, positions))
            positions.append((rows[:, :, None] * total + rows[:, None, :]).ravel())
            self.groups.append((slice(start, start + rows.size * size), (len(rows), size, size)))
        self.positions = positions = np.concatenate(positions)
        entries = np.arange(n * total * total)
        orbit, self._expand, spread = (_swap_gathers(dims) if held == 1 else
                                       (entries[None], entries.reshape(n, -1),
                                        entries.reshape(n, -1)))
        # the orbit and the transposition composed onto packed positions: a site
        # permutation keeps each tuple's sector, and the sectors are square blocks
        full = (np.arange(held)[:, None] * total * total + positions).ravel()
        slot = np.zeros(orbit.shape[1], dtype=np.intp)
        slot[full] = np.arange(full.size)
        self._transpose = slot[positions % total * total + positions // total]
        self._orbit = slot[orbit[:, full]]

        # (rows..., cols...) -> (row_1, col_1, ..., row_n, col_n), each entry's coefficient slot
        where = np.argsort(np.arange(total * total).reshape(dims * 2)
                           .transpose([a for i in range(n) for a in (i, n + i)]).ravel())
        q = (functools.reduce(sp.kron, map(_identity_first_reflection, dims), sp.identity(1))
             .tocsc()[:, where[positions]].tocsr())
        allowed = (np.indices([d * d for d in dims]) != 0).reshape(n, -1)
        share = 1.0 / np.maximum(allowed.sum(axis=0), 1)
        # block j's coefficients are held block source[j]'s, gathered by coeffs[j] (S_j)
        source, coeffs = spread[:, 0] // total ** 2, spread % total ** 2
        same = coeffs[0]  # block 0 is held block 0 itself

        def sandwich(terms):  # Q^T (sum of diag(w) S over the terms (w, S)) Q, rounding dropped
            w, cols = (np.concatenate(x) for x in zip(*terms))
            op = q.T @ (sp.csr_matrix((w, (np.tile(same, len(terms)), cols)), (total ** 2,) * 2) @ q)
            op.data[np.abs(op.data) < 1e-12] = 0.0  # in place, keeping the build's peak memory low
            op.eliminate_zeros()
            return op

        # output block i from held block k: the sum over the blocks j drawn from k
        # of Q^T A_i (delta_ij - Sh A_j) S_j Q; then Q^T A_i Sh Q
        drift = [sp.bmat([[sandwich([(allowed[i] * ((i == j) - share * allowed[j]), coeffs[j])
                                     for j in range(n) if source[j] == k]) for k in range(held)]],
                         format="csr") for i in range(n)]
        self.operator = sp.vstack(drift[:held], "csr")
        self.drift = [self.operator, *drift[held:]]
        self._offset = sp.vstack([sandwich([(allowed[i] * share, same)]) for i in range(held)],
                                 "csr")

    def offset(self, delta: np.ndarray) -> np.ndarray:
        """c = P(0), delta's share of each held block: the one array a solve forms."""
        return _apply(self._offset, delta.ravel()[self.positions]).reshape(self.held, -1)

    def views(self, packed: np.ndarray) -> list:
        """Each size group's (h, count, size, size) view of a packed stack."""
        return [packed[:, cols].reshape((len(packed),) + shape) for cols, shape in self.groups]

    def blockwise(self, fn, packed: np.ndarray) -> np.ndarray:
        """`fn` applied to each size group's view, packed again."""
        out = np.empty_like(packed, order="C")
        for (cols, _), view in zip(self.groups, self.views(packed)):
            out[:, cols] = fn(view).reshape(len(packed), -1)
        return out

    def hermitian(self, packed: np.ndarray) -> np.ndarray:
        """The Hermitian part of each packed block."""
        return 0.5 * (packed + packed.take(self._transpose, axis=1).conj())

    def average(self, blocks: np.ndarray) -> np.ndarray:
        """Held blocks averaged over the permutations of sites 1..n-1 (h = n: copied)."""
        return blocks.reshape(-1)[self._orbit].mean(axis=0).reshape(blocks.shape)

    def expand(self, blocks: np.ndarray) -> np.ndarray:
        """The (n, D, D) stack, zero off the sectors, whose held blocks are packed in `blocks`;
        the swaps permute block 0's entries, so its norm is sqrt(n / h) times theirs."""
        out = np.zeros((len(blocks), self.total ** 2), dtype=blocks.dtype)
        out[:, self.positions] = blocks
        return out.reshape(-1)[self._expand].reshape(-1, self.total, self.total)

    def project(self, blocks: np.ndarray, c: np.ndarray) -> np.ndarray:
        return self.hermitian(_apply(self.operator, blocks).reshape(blocks.shape) + c)

    def value(self, blocks: np.ndarray) -> float:
        """Objective sum_i (1/2) tr |Z_i| of the stack; swapped blocks share block 0's spectrum."""
        weights = sum(0.5 * np.abs(np.linalg.eigvalsh(b)).sum() for b in self.views(blocks))
        return len(self.dims) // len(blocks) * float(weights)

    def dual_value(self, u: np.ndarray, c: np.ndarray) -> float:
        """Lower bound on the distance from a multiplier u near the adjoint's range.

        In the product basis the adjoint's range is the stacks whose allowed
        blocks share one coefficient, that of L. H_i keeps u_i where site i
        is the identity and takes L's coefficient elsewhere, so H_i = L +
        M_i (x) I_i and ||H_i||_op <= ||u_i||_op + ||H_i - u_i||_F, the drift
        being block i of C u (`drift`), for all n blocks. With t the reciprocal of twice
        the largest bound, -t H is dual feasible, of value -t Re<L, delta> =
        -t Re sum_i <u_i, c_i>; a swapped block's term and spectrum are block
        0's. The spectra are of u's Hermitian part, which changes neither side
        for Hermitian delta, and are the union of its sector blocks' spectra.
        """
        rows = np.concatenate([_apply(op, u) for op in self.drift])
        drift = np.linalg.norm(rows.reshape(len(self.dims), -1), axis=1)
        spectra = [np.linalg.eigvalsh(b) for b in self.views(self.hermitian(u))]
        norms = np.max([np.abs(e).max(axis=(1, 2)) for e in spectra], axis=0) + drift
        top = float(norms.max())
        if top == 0.0:
            return 0.0
        return -0.5 / top * (len(self.dims) // len(u)) * float(np.vdot(c, u).real)


_build_layout = functools.lru_cache(maxsize=LAYOUT_CACHE)(_Layout)  # (dims, held, labels)


def _layout_of(dims, delta: np.ndarray) -> _Layout:
    """delta's layout: block 0 alone held when every site swap (0 i) fixes delta, on its sectors."""
    held = 1 if _swap_invariant(dims, delta) else len(dims)
    return _build_layout(tuple(dims), held, tuple(_parity_sectors(dims, delta).tolist()))


def _shrink_eigenvalues(stack: np.ndarray, amount: float) -> np.ndarray:
    """Eigenvalues of a Hermitian stack soft-thresholded by `amount`."""
    vals, vecs = np.linalg.eigh(stack)
    shrunk = np.sign(vals) * np.maximum(np.abs(vals) - amount, 0.0)
    return (vecs * shrunk[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def _swap_gathers(dims: tuple) -> tuple:
    """Flat gathers of the one-block loop on n equal sites: rows of the first conjugate
    a flattened block by the permutations of sites 1..n-1, rows of the second by the
    swaps (0 i); rows of the third permute a block's basis coefficients by the swaps."""
    n, total = len(dims), math.prod(dims)

    def site_gather(shape, perm):  # permutes the axes of a flat array of `shape`
        return np.arange(math.prod(shape)).reshape(shape).transpose(perm).ravel()

    def conjugation(perm):
        p = site_gather(dims, perm)
        return (p[:, None] * total + p).ravel()

    swaps = [[i if j == 0 else 0 if j == i else j for j in range(n)] for i in range(n)]
    orbit = np.array([conjugation((0,) + p) for p in itertools.permutations(range(1, n))])
    return (orbit, np.array([conjugation(perm) for perm in swaps]),
            np.array([site_gather([d * d for d in dims], perm) for perm in swaps]))


def _swap_invariant(dims: tuple, delta: np.ndarray) -> bool:
    """Whether every site swap (0 i) fixes delta, to 1e-12 per entry; the stack the
    loop forms from block 0 then sums to a swap-symmetrized delta, off by that order."""
    n, tensor = len(dims), delta.reshape(dims * 2)
    return n > 1 and len(set(dims)) == 1 and all(
        np.max(np.abs(tensor.swapaxes(0, i).swapaxes(n, n + i) - tensor)) <= 1e-12
        for i in range(1, n))


def _parity_sectors(dims, delta: np.ndarray) -> np.ndarray:
    """Sector label of each product basis index: its parity vector modulo W (see the
    module docstring), reduced by XOR elimination to the coset's pivot-free member."""
    # points from 62 on share one bit: fewer sign flips, a coarser partition, still exact
    parity = np.bitwise_xor.reduce(1 << np.minimum(np.indices(dims), 62).reshape(len(dims), -1))
    rows, cols = np.nonzero(delta)
    basis = []  # distinct leading bits, in decreasing order
    for x in np.unique(parity[rows] ^ parity[cols]).tolist():
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis = sorted(basis + [x], reverse=True)
    for b in basis:
        parity = np.minimum(parity, parity ^ b)
    return parity


class _Anderson:
    """Safeguarded type-II Anderson acceleration of a fixed-point iteration v <- T(v).

    Keeps the last accepted point's T(v) and residual g = T(v) - v, and ring
    buffers of up to ANDERSON_DEPTH differences of g and of T(v) between
    consecutive accepted points, as real vectors, with the Gram matrix of
    the g differences. A g difference at rounding level is not kept: it has
    no direction, and extrapolating along it scales rounding up. The next
    point is T(v) - dT gamma for the real gamma minimizing ||g - dG gamma||
    (Tikhonov-regularized normal equations), taken Hermitian: large
    coefficients would amplify the rounding outside the Hermitian stacks,
    which T never damps. An extrapolated point is accepted only if its
    residual is no larger than the last accepted point's; otherwise the
    differences are dropped and the plain step T(v) is taken from the
    accepted point. The r-th rejection in a row makes the next 2^(r-1)
    steps plain, so a run of useless extrapolations wastes few evaluations
    of T.
    """

    def __init__(self, size: int, hermitian):
        self.hermitian = hermitian
        self.dg = np.empty((ANDERSON_DEPTH, size))
        self.dt = np.empty((ANDERSON_DEPTH, size))
        self.gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))
        self.count = self.slot = 0
        self.g = self.t = None
        self.residual = math.inf
        self.extrapolated = False
        self.rejections = self.plain_steps = 0
        self.accepted = 0  # extrapolated points accepted

    def step(self, v: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The next point to evaluate, from the point v just evaluated and g = T(v) - v."""
        g_flat = g.view(np.float64).ravel()
        residual = float(np.linalg.norm(g_flat))
        if self.extrapolated and residual > self.residual:
            self.count = self.slot = 0
            self.rejections += 1
            self.plain_steps = 2 ** (self.rejections - 1)
            self.extrapolated = False
            return self.t
        if self.extrapolated:
            self.accepted += 1
            self.rejections = 0
        t = v + g
        t_flat = t.view(np.float64).ravel()
        dg = None if self.g is None else g_flat - self.g.view(np.float64).ravel()
        if dg is not None and np.linalg.norm(dg) > 1e-12 * residual:
            s, k = self.slot, min(self.count + 1, ANDERSON_DEPTH)
            self.dg[s] = dg
            np.subtract(t_flat, self.t.view(np.float64).ravel(), out=self.dt[s])
            self.gram[s, :k] = self.gram[:k, s] = self.dg[:k] @ self.dg[s]
            self.count, self.slot = k, (s + 1) % ANDERSON_DEPTH
        self.g, self.t, self.residual = g, t, residual
        self.plain_steps -= 1
        k = self.count
        scale = float(np.trace(self.gram[:k, :k]))
        self.extrapolated = self.plain_steps <= 0 and scale > 0.0
        if not self.extrapolated:
            return t
        gamma = np.linalg.solve(self.gram[:k, :k] + ANDERSON_REG * scale * np.eye(k),
                                self.dg[:k] @ g_flat)
        return self.hermitian((t_flat - gamma @ self.dt[:k]).view(t.dtype).reshape(t.shape))


@dataclass(frozen=True, eq=False)
class W1Certificate:
    """Solver output: the certified interval [lower, value] holding the distance.

    `value` is the objective at the feasible iterate `primal_parts`, `lower`
    the dual value of the scaled multiplier, and gap = value - lower <= tol
    (TOL by default). `primal_residual` and `dual_residual` are the last
    iteration's ||x - z|| and ||z - z_prev|| over all n blocks.
    `symmetric_step` says whether the loop held block 0 alone, the other
    blocks being its site swaps (0 i), formed after the loop; the parts
    then sum to a swap-symmetrized delta, off delta by the order of the
    swap test's 1e-12, and `feasibility_error` reports the difference.
    `accelerated_steps` counts the extrapolated points the safeguard accepted;
    `threshold` is the loop's eigenvalue shrink, the trace distance over
    2 sqrt(D), which scales with delta as the distance does (0.0 on one
    site, where nothing iterates). `real_step` says the solve ran in float64
    (delta is real). `sectors` are the sizes of the sign-flip sectors the
    loop ran on ((D,) if none). `stage_seconds` splits the call's wall clock
    into "setup" (checks, the layout if not cached, and its c = P(0)),
    "iterations" and "gap_tests" (those in the loop, and measuring the parts).
    `scale` is None for a solved certificate, and sin theta for one that
    `rdm_certificates` scaled from a cached solve of a single excitation;
    such a certificate keeps that solve's `iterations`, `accelerated_steps`,
    `symmetric_step`, `sectors` and `stage_seconds`, work done once.
    """

    value: float
    lower: float
    gap: float
    part_weights: tuple
    primal_parts: tuple
    iterations: int
    primal_residual: float
    dual_residual: float
    feasibility_error: float
    symmetric_step: bool
    accelerated_steps: int
    threshold: float
    real_step: bool
    sectors: tuple
    stage_seconds: dict
    scale: float | None = None


def classical_hamming_w1(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Exact Hamming transport distance of the two diagonal outcome laws.

    Both laws come from measuring every site in its own basis; the
    diagonal is in `itertools.product` order of the site outcomes. A valid
    lower bound on the operator distance: measurement in a product basis
    contracts it, and the classical dual optimizer is a Hamming-Lipschitz
    witness. The solver does not use it; it is an independent reference
    for the certified lower bound.
    """
    masses = np.maximum(np.real([np.diag(rho.matrix), np.diag(sigma.matrix)]), 0.0)
    return float(metric_transport_values(masses[:1], masses[1:], hamming_graph(rho.dims))[0])


def _feasibility_error(parts, delta: np.ndarray, dims) -> float:
    """Largest entry of sum_i X_i - delta and of every tr_i X_i."""
    feas_sum = float(np.max(np.abs(np.sum(parts, axis=0) - delta)))
    feas_tr = max(float(np.max(np.abs(_partial_trace_matrix(part, dims, [i]))))
                  for i, part in enumerate(parts))
    return max(feas_sum, feas_tr)


def w1_exact(rho: DensityOperator, sigma: DensityOperator,
             tol: float = TOL, max_iter: int = MAX_ITER,
             dim_cap: int = DIM_CAP) -> W1Certificate:
    """Solve the transport program for a pair of density operators.

    Iterates until the value of the feasible iterate exceeds the dual value
    of the multiplier by at most `tol`, testing that gap every GAP_EVERY
    iterations; the distance lies in the returned [lower, value]. Each
    iteration, up to `max_iter`, is one evaluation of the splitting map. On
    one site the only feasible point is delta itself, and (1/2) sign(delta)
    is a dual point of the same value, so its half trace norm is returned
    with gap 0 and no iteration.
    """
    start = time.perf_counter()
    if rho.dims != sigma.dims:
        raise ValueError("operators live on different site structures")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    dims, total = rho.dims, math.prod(rho.dims)
    if total > dim_cap:
        raise ValueError(f"total dimension {total} exceeds cap {dim_cap}")
    delta = rho.matrix - sigma.matrix
    if abs(np.trace(delta)) > 1e-9:
        raise ValueError("difference must be traceless")
    real = not delta.imag.any()
    if real:
        delta = delta.real
    n = len(dims)
    trace_distance = 0.5 * float(np.abs(np.linalg.eigvalsh(delta)).sum())
    if n == 1:
        return W1Certificate(
            value=trace_distance, lower=trace_distance, gap=0.0, part_weights=(trace_distance,),
            primal_parts=(delta,), iterations=0, primal_residual=0.0, dual_residual=0.0,
            feasibility_error=float(abs(np.trace(delta))), symmetric_step=False,
            accelerated_steps=0, threshold=0.0, real_step=real, sectors=(total,),
            stage_seconds={"setup": time.perf_counter() - start, "iterations": 0.0,
                           "gap_tests": 0.0})

    layout = _layout_of(dims, delta)
    c = layout.offset(delta)
    # v = z + u, with u = 0 at the start
    v = z = layout.project(np.zeros_like(c), c)
    anderson = _Anderson(z.view(np.float64).size, layout.hermitian)
    threshold = trace_distance / (2.0 * math.sqrt(total))
    gaps, loop_start = 0.0, time.perf_counter()
    for iterations in range(1, max_iter + 1):
        y = layout.hermitian(2.0 * z - v)
        x = layout.blockwise(lambda b: _shrink_eigenvalues(b, threshold), y)
        v = layout.average(anderson.step(v, OVER_RELAX * (x - z)))
        z_prev, z = z, layout.project(v, c)
        if iterations % GAP_EVERY == 0 or iterations in (1, max_iter):
            test_start = time.perf_counter()
            value = layout.value(z)
            lower = layout.dual_value(v - z, c)
            gaps += time.perf_counter() - test_start
            if value - lower <= tol:
                break
    finish = time.perf_counter()
    scale = math.sqrt(n / layout.held)  # the whole stacks' norms from the packed ones
    r_norm, s_norm = (scale * float(np.linalg.norm(r)) for r in (x - z, z - z_prev))
    if value - lower > tol:
        raise ConvergenceError(
            f"no certified gap of {tol:.1e} in {max_iter} iterations (gap "
            f"{value - lower:.3e} between {lower:.6f} and {value:.6f})",
            iterations=max_iter, primal_residual=r_norm, dual_residual=s_norm)

    z = layout.expand(z)
    weights = 0.5 * np.abs(np.linalg.eigvalsh(z)).sum(axis=1)
    return W1Certificate(
        value=value, lower=lower, gap=value - lower, part_weights=tuple(map(float, weights)),
        primal_parts=tuple(z), iterations=iterations, primal_residual=r_norm,
        dual_residual=s_norm, feasibility_error=_feasibility_error(z, delta, dims),
        symmetric_step=layout.held < n, accelerated_steps=anderson.accepted,
        threshold=threshold, real_step=real, sectors=layout.sectors,
        stage_seconds={"setup": loop_start - start, "iterations": finish - loop_start - gaps,
                       "gap_tests": gaps + time.perf_counter() - finish})


def _principal_angles(a: OrthonormalFamily, b: OrthonormalFamily, tol: float) -> np.ndarray:
    """Principal angles of the spans (Bjorck & Golub 1973), dropped ones 0 (`rdm_certificates`).

    With A^H B = P diag(cos) Q^H for the folded (m, n) columns, the residuals
    r_i = B q_i - cos_i A p_i are orthogonal to A's span and to each other,
    of norm sin_i.
    """
    fold_a, fold_b = a.folded(), b.folded()
    p, cos, qh = np.linalg.svd(overlap_matrix(a, b).entries)
    sin = np.linalg.norm(fold_b @ qh.conj().T - (fold_a @ p) * cos, axis=0)
    dropped = sin <= SINE_FLOOR
    dropped[np.argsort(-sin)[min(a.n, a.space.n_points - a.n):]] = True
    angles = np.arctan2(sin, cos)
    if (moved := a.n * angles[dropped].sum()) > tol:
        listed = ", ".join(map("{:.1e}".format, angles[dropped]))
        raise ValueError(f"dropped principal angles {listed} may move a {a.n}-particle value "
                         f"by {moved:.1e}, past tol {tol:.1e}")
    angles[dropped] = 0.0
    return angles


def _symmetric_frame(m: int, angles: np.ndarray) -> tuple[OrthonormalFamily, OrthonormalFamily]:
    """Two real families on m unit-weight points with these principal angles.

    Sorted, the non-zero angles come last, the j-th, theta_i, with the point
    e_s, s = n + j: a_i, b_i = cos(theta_i / 2) e_i -+ sin(theta_i / 2) e_s.
    One unitary U on the points sends the spans' A p_i to a_i and r_i / sin_i
    to sin(theta_i / 2) e_i + cos(theta_i / 2) e_s (`_principal_angles`), so
    the determinant states are U^(x)n times the originals, up to phase.
    """
    n, half = len(angles), 0.5 * np.sort(angles)
    kept = np.flatnonzero(half)
    sine = np.zeros((n, m))
    sine[kept, n + np.arange(len(kept))] = np.sin(half[kept])
    cosine = np.eye(n, m) * np.cos(half)[:, None]
    space = GroundSpace(tuple(range(m)), np.ones(m))
    return OrthonormalFamily(space, cosine - sine), OrthonormalFamily(space, cosine + sine)


def _frame_certificates(m: int, angles: np.ndarray, tol: float, max_iter: int,
                        dim_cap: int) -> list[tuple[W1Certificate, np.ndarray]]:
    """(certificate, difference) of the frame states' k-particle reduced states, k = 1..n."""
    state_a, state_b = (full_state_vector(f, cap=dim_cap * dim_cap)
                        for f in _symmetric_frame(m, angles))
    pairs = [(reduced_density_matrix(state_a, k), reduced_density_matrix(state_b, k))
             for k in range(1, len(angles) + 1)]
    return [(w1_exact(rho, sigma, tol=tol, max_iter=max_iter, dim_cap=dim_cap),
             rho.matrix - sigma.matrix) for rho, sigma in pairs]


@functools.lru_cache(maxsize=UNIVERSAL_CACHE)
def _universal_certificates(m: int, n: int, tol: float, max_iter: int) -> tuple:
    """`_frame_certificates` of the universal single excitation: theta = pi/2 on column n - 1."""
    return tuple(_frame_certificates(m, np.eye(n)[-1] * (0.5 * math.pi), tol, max_iter, m ** n))


def rdm_certificates(a: OrthonormalFamily, b: OrthonormalFamily, tol: float = TOL,
                     max_iter: int = MAX_ITER, dim_cap: int = DIM_CAP) -> list[W1Certificate]:
    """`w1_exact` certificates of the k-particle reduced states, k = 1..n.

    Families of different sizes or on different ground spaces are refused,
    and the largest solve, on m**n, is held to `dim_cap`, the path's only
    cap (a state has (m**n)**2 entries), before any state is built. Every
    distance is unchanged by one unitary applied on every site, so both
    families are rebuilt from their principal angles in the symmetric frame
    (`_symmetric_frame`), where they are real and so are their reduced
    states: the solves run in real arithmetic (`real_step`), and
    `primal_parts` are parts of the frame states' difference, not of the
    original one.

    Of the sines, at most min(n, m - n) are non-zero in exact arithmetic;
    the rest, and any at most SINE_FLOOR, are set to 0, so that equal or
    recombined families give equal states and the value 0.0. Setting an
    angle t to 0 moves a column of b, hence b's state vector, by at most t,
    so the k-particle distance (a norm of rho - sigma, at most k times the
    trace distance) moves by at most k times the dropped sum. Families
    orthonormal to rounding drop angles of about SINE_FLOOR; a pair whose n
    times the dropped sum exceeds `tol` is refused before any state is built.

    A pair with exactly one non-zero angle theta is a single excitation, and
    none of its states is built or solved: its certificates are the
    universal pair's (`_universal_certificates`, theta = pi/2 on the same m
    points, solved once per (m, n, tol, max_iter) and cached), with `value`,
    `lower`, `gap`, `part_weights`, the residuals, `threshold` and the parts
    multiplied by sin theta (`scale`). This is exact:

    - A determinant state is linear in its last column, c e_{n-1} -+ t e_n
      with c, t = cos, sin (theta / 2), so rho_a - rho_b = -2 c t (U W^H +
      W U^H), U and W the states with e_{n-1}, resp. e_n, there: sin theta
      times the universal pair's difference.
    - Partial traces are linear: so is every reduced difference.
    - The program and its dual are positively homogeneous: the scaled parts
      are feasible at sin theta times the value, the scaled dual point
      certifies sin theta times the lower end, and the gap is at most `tol`.

    `feasibility_error` is measured on the returned parts. A universal solve
    that does not certify within `max_iter` raises its ConvergenceError,
    whose figures are the universal pair's. Pairs with no non-zero angle or
    with two or more are solved in their frame.
    """
    m, n, angles = a.space.n_points, a.n, _principal_angles(a, b, tol)
    if m ** n > dim_cap:
        raise ValueError(f"total dimension {m ** n} exceeds cap {dim_cap}")
    if np.count_nonzero(angles) != 1:
        return [cert for cert, _ in _frame_certificates(m, angles, tol, max_iter, dim_cap)]
    sine, certs = math.sin(angles.max()), []
    for k, (cert, delta) in enumerate(_universal_certificates(m, n, tol, max_iter), start=1):
        parts = tuple(sine * part for part in cert.primal_parts)
        value, lower = sine * cert.value, sine * cert.lower
        certs.append(replace(
            cert, value=value, lower=lower, gap=value - lower,
            part_weights=tuple(sine * w for w in cert.part_weights), primal_parts=parts,
            primal_residual=sine * cert.primal_residual, dual_residual=sine * cert.dual_residual,
            feasibility_error=_feasibility_error(parts, sine * delta, (m,) * k),
            threshold=sine * cert.threshold, stage_seconds=dict(cert.stage_seconds), scale=sine))
    return certs


def rdm_monotonicity_check(a: OrthonormalFamily, b: OrthonormalFamily,
                           **solver_kwargs) -> list[tuple[int, float]]:
    """Per-size distances (k, W1(reduced_k) / k) for k = 1..n.

    The distances over k are non-decreasing: W1(Gamma_l) / l >= W1(Gamma_k) / k
    for l >= k. Proof: take a dual-feasible H_k of the k-site program, so each
    site i has some M_i with ||H_k + M_i (x) I_i|| <= 1/2. Place H_k on each
    k-subset S of the l sites and average with weight 1 / C(l-1, k-1). For
    site i, the C(l-1, k-1) subsets containing i keep their own M_{S,i}, and
    the terms of the other subsets, the identity on site i, move into M_i;
    so the average is dual-feasible for the l-site program. An antisymmetric
    state has the same k-site marginal Gamma_k on every subset, so the
    average's value is C(l, k) / C(l-1, k-1) = l / k times H_k's. The best
    H_k attains W1(Gamma_k) (strong duality), which gives the claim; and a
    certified `lower` at k gives the lower end (l / k) `lower` at every
    l >= k with no solve at l. At k = 1 this is the one-site lower
    bound of De Palma, Marvian, Trevisan & Lloyd (2021).

    Each value is within the solver's `tol` / k above the distance. A
    monotonicity verdict should compare the certified intervals of
    `rdm_certificates` instead.
    """
    certs = rdm_certificates(a, b, **solver_kwargs)
    return [(k, cert.value / k) for k, cert in enumerate(certs, start=1)]
