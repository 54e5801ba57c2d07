"""Exact quantum transport solver: partial traces, the splitting scheme and
its certified intervals, the classical Hamming reference, reduced-state
monotonicity."""

import copy
import importlib
import itertools
import math
import re
import time

import numpy as np
import pytest
import scipy.sparse

from fermiflow import (ConvergenceError, DensityOperator, GroundSpace, MixedKernelSpec,
                       OrthonormalFamily, classical_hamming_w1, full_state_vector,
                       orthonormalize, overlap_matrix, random_orthonormal,
                       rdm_monotonicity_check, reduced_density_matrix,
                       trace_distance_slater, w1_exact, w1_lower_slater, w1_upper_slater)
from fermiflow.selftest import _random_density as check_density
from fermiflow.slater import _partial_trace_matrix
from fermiflow.w1_exact import _Layout, _layout_of

w1_module = importlib.import_module("fermiflow.w1_exact")
DEFAULT_TOL = 1e-5


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure(dims, seed):
    rng = np.random.default_rng(seed)
    total = int(np.prod(dims))
    v = rng.normal(size=total) + 1j * rng.normal(size=total)
    v /= np.linalg.norm(v)
    return DensityOperator(dims, np.outer(v, v.conj()))


def half_trace_norm(x):
    return 0.5 * np.abs(np.linalg.eigvalsh(x)).sum()


def reference_feasibility_error(parts, delta, dims):
    """The per-part formula: sum_i X_i - delta, and each tr_i X_i by `_partial_trace_matrix`."""
    sums = np.max(np.abs(sum(parts) - delta))
    return float(max(sums, *(np.max(np.abs(_partial_trace_matrix(part, dims, [i])))
                             for i, part in enumerate(parts))))


def test_partial_trace_everything_gives_trace():
    m = random_density(4, 0)
    out = _partial_trace_matrix(m, (2, 2), (0, 1))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(np.trace(m), abs=1e-12)


def test_partial_trace_product_state():
    r1 = random_density(2, 1)
    r2 = random_density(3, 2)
    joint = np.kron(r1, r2)
    np.testing.assert_allclose(_partial_trace_matrix(joint, (2, 3), (1,)), r1, atol=1e-12)
    np.testing.assert_allclose(_partial_trace_matrix(joint, (2, 3), (0,)), r2, atol=1e-12)


def test_partial_trace_slater_pair_gives_kernel():
    fam = random_orthonormal(4, 2, 3)
    state = full_state_vector(fam)
    direct = _partial_trace_matrix(state.matrix, state.dims, (1,))
    via_rdm = reduced_density_matrix(state, 1)
    np.testing.assert_allclose(direct, via_rdm.matrix, atol=1e-12)
    k = MixedKernelSpec(np.ones(2), fam).kernel_matrix()
    root = np.sqrt(np.asarray(fam.space.weights))
    np.testing.assert_allclose(direct, 0.5 * np.outer(root, root) * k.conj(),
                               atol=1e-10)


def test_partial_trace_index_out_of_range():
    with pytest.raises(ValueError):
        _partial_trace_matrix(np.eye(4) / 4, (2, 2), (2,))


def pack(layout, stack):
    """The (h, N) sector blocks, as the layout holds them, of an (h, D, D) stack."""
    return stack.reshape(len(stack), -1)[:, layout.positions]


def unpack(layout, packed):
    """The (h, D, D) stack, zero off the sectors, whose sector blocks are `packed`; a
    graded layout's packed corner B stands for the block [[0, B], [B^H, 0]]."""
    total, positions = layout.total, layout.positions
    out = np.zeros((len(packed), total ** 2), dtype=packed.dtype)
    out[:, positions] = packed
    if layout.graded:
        out[:, positions % total * total + positions // total] = packed.conj()
    return out.reshape(-1, total, total)


def constraint_map(dims):
    """Dense matrix of (Z_1..Z_n) -> (sum_i Z_i, tr_1 Z_1, ..., tr_n Z_n).

    Matrices enter and leave as row-major vectors, where vec(A X B) is
    kron(A, B^T) vec(X); tr_i X is the sum over k of L_k X L_k^T with
    L_k = I (x) e_k^T (x) I.
    """
    total, n = math.prod(dims), len(dims)
    rows = [np.hstack([np.eye(total * total)] * n)]
    for i, d in enumerate(dims):
        pre, post = np.eye(math.prod(dims[:i])), np.eye(math.prod(dims[i + 1:]))
        picks = [np.kron(np.kron(pre, np.eye(d)[k:k + 1]), post) for k in range(d)]
        trace = sum(np.kron(pick, pick) for pick in picks)
        rows.append(np.hstack([trace if j == i else np.zeros_like(trace)
                               for j in range(n)]))
    return np.vstack(rows)


LEAST_SQUARES_DIMS = [(3,), (1, 3), (2, 3), (2, 2, 2), (4, 4)]


def least_squares_case(dims):
    """A random traceless Hermitian delta on these sites and n random Hermitian blocks."""
    rng = np.random.default_rng(sum(dims))
    total, n = math.prod(dims), len(dims)
    raw = rng.normal(size=(n + 1, total, total)) + 1j * rng.normal(size=(n + 1, total, total))
    herm = raw + raw.conj().transpose(0, 2, 1)
    return herm[0] - np.trace(herm[0]) / total * np.eye(total), herm[1:]


@pytest.mark.parametrize("dims", LEAST_SQUARES_DIMS)
def test_constraint_projection_matches_least_squares(dims):
    total, n = math.prod(dims), len(dims)
    delta, blocks = least_squares_case(dims)
    amap = constraint_map(dims)
    target = np.concatenate([delta.ravel(), np.zeros(amap.shape[0] - total * total)])
    y = blocks.ravel()
    # the nearest feasible point moves y by the least-norm solution of A s = A y - b
    step = np.linalg.lstsq(amap, amap @ y - target, rcond=None)[0]
    expected = (y - step).reshape(n, total, total)

    layout = _layout_of(dims, delta)
    c = layout.offset(delta)
    # a dense delta is one sector: the packed blocks are the whole matrices
    assert layout.sectors == (total,)
    out = layout.project(pack(layout, blocks), c)
    np.testing.assert_allclose(unpack(layout, out), expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(layout.project(out, c), out, rtol=0, atol=1e-12)


class BasisChangeReference:
    """The projection and the gap test by a basis change per site, on a
    layout's gathers: the formulas the sparse operators are built from.

    Block i's allowed coefficients keep their own value less an equal share
    of the allowed blocks' sum, plus that share of delta's coefficient; the
    gap test's drift and shared coefficient come from the same coefficients.
    """

    def __init__(self, layout, delta):
        self.layout, self.dims = layout, layout.dims
        n, total = len(self.dims), layout.total
        self.reflections = [w1_module._identity_first_reflection(d) for d in self.dims]
        # (m, rows..., cols...) -> (m, row_1, col_1, ..., row_n, col_n)
        self.interleave = (0,) + tuple(a for i in range(n) for a in (1 + i, 1 + n + i))
        self.allowed = (np.indices([d * d for d in self.dims]) != 0).reshape(n, -1)
        self.share = 1.0 / np.maximum(self.allowed.sum(axis=0), 1)
        self.delta_coeffs = self.to_basis(delta[None])[0]
        # block i's coefficients among the held blocks' (h = 1: block 0's, entries 0 and i swapped)
        self.spread = (w1_module._swap_gathers(self.dims)[2] if layout.held == 1
                       else np.arange(n * total * total).reshape(n, -1))

    def change_basis(self, coeffs):
        m = coeffs.shape[0]
        for h in self.reflections:  # each step moves its site's axis to the back
            coeffs = coeffs.reshape(m, h.shape[0], -1).transpose(0, 2, 1) @ h
        return coeffs.reshape(m, -1)

    def to_basis(self, stack):
        m = stack.shape[0]
        return self.change_basis(stack.reshape((m,) + self.dims * 2).transpose(self.interleave))

    def from_basis(self, coeffs):
        m, total = coeffs.shape[0], self.layout.total
        pairs = self.change_basis(coeffs).reshape((m,) + tuple(np.repeat(self.dims, 2)))
        return pairs.transpose(np.argsort(self.interleave)).reshape(m, total, total)

    def coefficients(self, blocks):
        stack = self.to_basis(unpack(self.layout, blocks))
        return stack.reshape(-1)[self.spread] * self.allowed

    def project(self, blocks):
        y, h = self.coefficients(blocks), len(blocks)
        coeffs = self.allowed[:h] * (y[:h] + self.share * (self.delta_coeffs - y.sum(axis=0)))
        return self.layout.hermitian(pack(self.layout, self.from_basis(coeffs)))

    def dual_value(self, u):
        coeffs = self.coefficients(u)
        common = self.share * coeffs.sum(axis=0)
        drift = np.linalg.norm(coeffs - self.allowed * common, axis=1)
        stack = unpack(self.layout, self.layout.hermitian(u))
        norms = np.abs(np.linalg.eigvalsh(stack)).max(axis=1)
        top = float((norms + drift).max())
        return 0.0 if top == 0.0 else -0.5 / top * float(np.vdot(common, self.delta_coeffs).real)


def test_w1_identical_states_is_zero():
    # a zero difference leaves every iterate and the multiplier at zero, so
    # the first gap test certifies the interval [0, 0]
    rho = DensityOperator((2, 2), random_density(4, 4))
    cert = w1_exact(rho, rho)
    assert (cert.value, cert.lower, cert.gap, cert.iterations) == (0.0, 0.0, 0.0, 1)


def test_w1_product_states_single_factor():
    r1 = random_density(2, 5)
    s1 = random_density(2, 6)
    omega = random_density(2, 7)
    rho = DensityOperator((2, 2), np.kron(r1, omega))
    sig = DensityOperator((2, 2), np.kron(s1, omega))
    cert = w1_exact(rho, sig)
    single = half_trace_norm(r1 - s1)
    assert cert.value == pytest.approx(single, abs=1e-4)
    assert cert.lower - 1e-12 <= single <= cert.value + 1e-12


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_w1_single_site_is_trace_distance(dim, monkeypatch):
    # the only feasible point is delta itself: no projection layout, no iteration, gap 0
    def refuse(*args):
        raise AssertionError("a one-site solve looked up a projection layout")

    monkeypatch.setattr(w1_module, "_build_layout", refuse)
    rho = DensityOperator((dim,), random_density(dim, 30 + dim))
    sig = DensityOperator((dim,), random_density(dim, 40 + dim))
    cert = w1_exact(rho, sig)
    delta = rho.matrix - sig.matrix
    assert cert.value == pytest.approx(half_trace_norm(delta), abs=1e-12)
    assert (cert.lower, cert.gap, cert.iterations, cert.threshold) == (cert.value, 0.0, 0, 0.0)
    assert cert.primal_parts.shape == (1, dim, dim)
    np.testing.assert_array_equal(cert.primal_parts[0], delta)
    # the trace of delta, at rounding level: the reference sums it in another order
    assert cert.feasibility_error == abs(np.trace(delta))
    assert cert.feasibility_error == pytest.approx(
        reference_feasibility_error(cert.primal_parts, delta, (dim,)), rel=0, abs=1e-15)


def test_w1_two_qubit_pure_sandwich():
    for seed in range(5):
        rho = random_pure((2, 2), 100 + seed)
        sig = random_pure((2, 2), 200 + seed)
        cert = w1_exact(rho, sig)
        lower = half_trace_norm(rho.matrix - sig.matrix)
        assert lower - 1e-6 <= cert.value <= 2 * lower + 1e-4


def test_w1_certificate_feasibility():
    rho = DensityOperator((2, 2), random_density(4, 8))
    sig = DensityOperator((2, 2), random_density(4, 9))
    cert = w1_exact(rho, sig)
    total = sum(cert.primal_parts)
    np.testing.assert_allclose(total, rho.matrix - sig.matrix, atol=1e-8)
    for i, part in enumerate(cert.primal_parts):
        reduced = _partial_trace_matrix(part, (2, 2), (i,))
        np.testing.assert_allclose(reduced, np.zeros_like(reduced), atol=1e-8)
    # reported coefficients are the halved trace norms of the parts
    for weight, part in zip(cert.part_weights, cert.primal_parts):
        assert weight == pytest.approx(half_trace_norm(part), abs=1e-10)
    assert cert.value == pytest.approx(sum(cert.part_weights), abs=1e-10)
    assert cert.gap == cert.value - cert.lower
    assert 0.0 <= cert.gap <= DEFAULT_TOL
    assert cert.feasibility_error <= 1e-10


def test_w1_diagonal_states_match_classical():
    rng = np.random.default_rng(10)
    for seed in range(3):
        p = rng.random(4); p /= p.sum()
        q = rng.random(4); q /= q.sum()
        rho = DensityOperator((2, 2), np.diag(p))
        sig = DensityOperator((2, 2), np.diag(q))
        cert = w1_exact(rho, sig)
        assert cert.value == pytest.approx(classical_hamming_w1(rho, sig), abs=1e-6)


def test_w1_convergence_error_carries_residuals():
    rho = DensityOperator((2, 2), random_density(4, 11))
    sig = DensityOperator((2, 2), random_density(4, 12))
    with pytest.raises(ConvergenceError) as exc:
        w1_exact(rho, sig, max_iter=1)
    assert exc.value.iterations == 1
    assert exc.value.primal_residual > 0
    # the message states the certified gap the last test reached
    reached = re.search(r"\(gap (\S+) between (\S+) and (\S+)\)", str(exc.value))
    assert reached is not None
    gap, lower, value = map(float, reached.groups())
    assert gap > DEFAULT_TOL
    assert gap == pytest.approx(value - lower, rel=1e-3, abs=2e-6)


def test_w1_exact_makes_no_transport_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("w1_exact solved a transport problem")

    monkeypatch.setattr(w1_module, "metric_transport_values", refuse)
    monkeypatch.setattr(w1_module, "ot_cost", refuse)
    rho = DensityOperator((2, 2), random_density(4, 13))
    sig = DensityOperator((2, 2), random_density(4, 14))
    cert = w1_exact(rho, sig)
    assert cert.gap <= DEFAULT_TOL


def test_w1_dimension_cap():
    dims = (2,) * 7
    flat = DensityOperator(dims, np.eye(128) / 128)
    with pytest.raises(ValueError):
        w1_exact(flat, flat)


def test_witness_hamming_weight_on_diagonals():
    # the Hamming weight is a 1-Lipschitz witness, so it bounds the classical
    # distance from below; between the point masses at 00 and 11 it attains it
    rng = np.random.default_rng(15)
    p = rng.random(4); p /= p.sum()
    q = rng.random(4); q /= q.sum()
    weights = np.array([0, 1, 1, 2], dtype=float)
    rho = DensityOperator((2, 2), np.diag(p))
    sig = DensityOperator((2, 2), np.diag(q))
    assert classical_hamming_w1(rho, sig) >= abs(float(weights @ (p - q))) - 1e-12
    corner = DensityOperator((2, 2), np.diag([1.0, 0.0, 0.0, 0.0]))
    opposite = DensityOperator((2, 2), np.diag([0.0, 0.0, 0.0, 1.0]))
    assert classical_hamming_w1(corner, opposite) == pytest.approx(2.0, abs=1e-12)


def test_witness_weak_duality():
    # classical reference <= certified lower <= value, the gap within tol;
    # the lower end of a loose solve never passes the value of a tight one
    for dims, seed in itertools.product([(2, 2), (3, 2), (2, 2, 2)], range(3)):
        rho = DensityOperator(dims, random_density(math.prod(dims), 50 + seed))
        sig = random_pure(dims, 60 + seed)
        cert = w1_exact(rho, sig)
        assert classical_hamming_w1(rho, sig) <= cert.lower + 1e-12
        assert cert.lower <= cert.value
        assert cert.gap <= DEFAULT_TOL
        tight = w1_exact(rho, sig, tol=1e-8)
        assert tight.gap <= 1e-8
        assert cert.lower <= tight.value + 1e-12
        assert tight.lower <= cert.value + 1e-12


def test_mixed_versus_superposition_blind_spot():
    # maximally mixed pair of qubits against the uniform superposition:
    # the spectral gap puts them at distance at least 3/4, yet both push
    # forward to the uniform law in the shared product basis, so the
    # classical reference reports 0 while the certified dual does not
    rho = DensityOperator((2, 2), np.eye(4) / 4)
    v = np.full(4, 0.5)
    sig = DensityOperator((2, 2), np.outer(v, v))
    diff = rho.matrix - sig.matrix
    eigs = np.sort(np.linalg.eigvalsh(diff))
    np.testing.assert_allclose(eigs, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)
    assert half_trace_norm(diff) == pytest.approx(0.75, abs=1e-12)
    assert classical_hamming_w1(rho, sig) == pytest.approx(0.0, abs=1e-12)
    cert = w1_exact(rho, sig)
    assert cert.lower >= 0.75 - DEFAULT_TOL


def test_rdm_monotonicity_equal_families():
    fam = random_orthonormal(4, 2, 19)
    rows = rdm_monotonicity_check(fam, fam)
    assert [k for k, _ in rows] == [1, 2]
    assert all(value == 0.0 for _, value in rows)


def test_rdm_monotonicity_haar_pair():
    a = random_orthonormal(4, 2, 20)
    b = random_orthonormal(4, 2, 21, space=a.space)
    rows = rdm_monotonicity_check(a, b)
    values = [value for _, value in rows]
    assert values[0] <= values[1] + 2e-4
    # the full-state row obeys the closed-form bound
    upper = w1_upper_slater(overlap_matrix(a, b)) / 2
    assert values[1] <= upper + 1e-4
    lower = trace_distance_slater(overlap_matrix(a, b)) / 2
    assert values[1] >= lower - 1e-4


def padded(family, m):
    """`family` on m unit-weight points, its functions extended by zero columns: the
    isometry V of `rdm_certificates`'s proof, embedding the points it uses."""
    functions = np.zeros((family.n, m), dtype=family.functions.dtype)
    functions[:, :family.space.n_points] = family.functions
    return OrthonormalFamily(GroundSpace(tuple(range(m)), np.ones(m)), functions)


def refuse_states(patch):
    def refuse(*_, **__):
        raise AssertionError("a state was built before the inputs were checked")
    patch.setattr(w1_module, "full_state_vector", refuse)


def test_rdm_dimension_cap_applies_before_any_state(monkeypatch):
    refuse_states(monkeypatch)
    a = random_orthonormal(8, 4, 22)
    b = random_orthonormal(8, 4, 23, space=a.space)
    with pytest.raises(ValueError, match="total dimension 4096 exceeds cap 64"):
        w1_module.rdm_certificates(a, b)
    with pytest.raises(ValueError, match="total dimension 4096 exceeds cap 4095"):
        rdm_monotonicity_check(a, b, dim_cap=4095)


def test_rdm_refuses_families_of_different_sizes(monkeypatch):
    # a 1-particle state has no distance to the 1-RDM of a 3-particle state
    refuse_states(monkeypatch)
    a = random_orthonormal(4, 1, seed=1)
    b = random_orthonormal(4, 3, seed=2)
    with pytest.raises(ValueError, match="family sizes differ: 1 vs 3"):
        rdm_monotonicity_check(a, b)


def test_rdm_refuses_families_on_different_spaces(monkeypatch):
    refuse_states(monkeypatch)
    weighted = GroundSpace(tuple(range(4)), np.array([0.1, 0.2, 0.3, 0.4]))
    a = random_orthonormal(4, 2, seed=1)
    b = random_orthonormal(4, 2, seed=2, space=weighted)
    with pytest.raises(ValueError, match="different ground spaces"):
        w1_module.rdm_certificates(a, b)


def recombined(family, seed):
    """The family's functions mixed by a seeded unitary: the same determinant state."""
    rng = np.random.default_rng(seed)
    n = family.n
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return OrthonormalFamily(family.space, u @ family.functions)


def sharing_one_function(seed):
    a = random_orthonormal(5, 2, seed)
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(1, 5)) + 1j * rng.normal(size=(1, 5))
    b = orthonormalize(np.vstack([a.functions[:1], raw]), a.space)
    return a, recombined(b, seed)


def weighted_pair(seed):
    weights = np.random.default_rng(seed).uniform(0.2, 1.0, size=4)
    space = GroundSpace(tuple(range(4)), weights)
    return (random_orthonormal(4, 2, seed, space=space),
            random_orthonormal(4, 2, seed + 1, space=space))


FRAME_PAIRS = {
    **{f"check6_{s}": (random_orthonormal(4, 2, seed=60_000 + 2 * s),
                       random_orthonormal(4, 2, seed=60_001 + 2 * s)) for s in range(20)},
    "three_of_four": (random_orthonormal(4, 3, seed=81), random_orthonormal(4, 3, seed=82)),
    "one_shared": sharing_one_function(83),
    "weighted": weighted_pair(84),
    "recombined": (random_orthonormal(4, 3, seed=86),
                   recombined(random_orthonormal(4, 3, seed=86), 87)),
}


@pytest.mark.parametrize("pair", FRAME_PAIRS.values(), ids=FRAME_PAIRS.keys())
def test_principal_frame_matches_the_original_states(pair):
    a, b = pair
    frame = w1_module.rdm_certificates(a, b)
    state_a, state_b = full_state_vector(a), full_state_vector(b)
    for k, cert in enumerate(frame, start=1):
        original = w1_exact(reduced_density_matrix(state_a, k), reduced_density_matrix(state_b, k))
        assert cert.real_step and not original.real_step
        assert all(part.dtype == np.float64 for part in cert.primal_parts)
        # both certified intervals hold the distance
        assert max(cert.lower, original.lower) <= min(cert.value, original.value) + 1e-12
        assert cert.value == pytest.approx(original.value, abs=DEFAULT_TOL)


# pairs whose frames leave points unused: n + r = 2n < m
EMBEDDED = {f"m{m}_n{n}_s{s}": (m, n, 800 + 2 * s + 100 * m + 1000 * n)
            for m, n in [(5, 2), (6, 2), (8, 2)] for s in range(4)}


@pytest.mark.parametrize("m, n, seed", EMBEDDED.values(), ids=EMBEDDED.keys())
def test_frame_points_match_the_padded_frame(m, n, seed):
    # the frame's states on its n + r points against the same frame padded with
    # zero columns to all m points: the embedding keeps every distance
    a, b = random_orthonormal(m, n, seed=seed), random_orthonormal(m, n, seed=seed + 1)
    certs = w1_module.rdm_certificates(a, b)
    assert certs[0].primal_parts[0].shape == (2 * n, 2 * n)
    states = [full_state_vector(f) for f in principal_frame(a, b)]
    for k, cert in enumerate(certs, start=1):
        embedded = w1_exact(*(reduced_density_matrix(state, k) for state in states))
        assert embedded.primal_parts[0].shape == (m ** k, m ** k)
        # both certified intervals hold the distance
        assert max(cert.lower, embedded.lower) <= min(cert.value, embedded.value) + 1e-12
        assert cert.value == pytest.approx(embedded.value, abs=DEFAULT_TOL)


@pytest.mark.parametrize("m, n, theta", [(4, 2, 0.4), (4, 2, 1.1), (6, 2, 0.7), (6, 3, 0.5)])
def test_equal_angles_meet_both_closed_form_ends(m, n, theta):
    # at equal angles sum_i sin theta_i = n sqrt(1 - cos^2 theta): W1 = n sin theta exactly
    a, b = (padded(f, m) for f in w1_module._symmetric_frame(np.full(n, theta)))
    exact = n * math.sin(theta)
    overlap = overlap_matrix(a, b)
    assert w1_lower_slater(overlap) == pytest.approx(exact, rel=0, abs=1e-12)
    assert w1_upper_slater(overlap) == pytest.approx(exact, rel=0, abs=1e-12)
    cert = w1_module.rdm_certificates(a, b, dim_cap=216)[-1]
    # the certified interval, of width at most tol, holds n sin theta up to rounding
    assert cert.gap <= DEFAULT_TOL
    assert cert.lower - 1e-12 <= exact <= cert.value + 1e-12


def test_recombined_family_gives_exactly_zero_in_the_frame():
    a = random_orthonormal(4, 3, seed=86)
    certs = w1_module.rdm_certificates(a, recombined(a, 87))
    assert [(c.value, c.lower) for c in certs] == [(0.0, 0.0)] * 3


def test_frame_keeps_at_most_m_minus_n_sines():
    # b is a within the family tolerance: on 4 points the three residuals of
    # 1e-10 share one direction, outside a's span, so only one sine has a slot
    a = random_orthonormal(4, 3, seed=88)
    noise = np.random.default_rng(88).normal(size=a.functions.shape)
    b = OrthonormalFamily(a.space, a.functions + 1e-10 * noise)
    frame_a, frame_b = principal_frame(a, b)
    assert np.count_nonzero(frame_b.functions[:, 3:]) <= 1
    assert not frame_a.functions.imag.any() and not frame_b.functions.imag.any()
    # the dropped sines move every value by about k * 1e-10
    assert all(c.value <= 1e-8 for c in w1_module.rdm_certificates(a, b))


def test_frame_refuses_dropped_angles_past_tol(monkeypatch):
    # b is a plus 2e-5 on point 4 in every row, within the family tolerance:
    # three sines of 2e-5 share one direction, one is kept and two are
    # dropped, which may move the 3-particle value by 3 * 4e-5 > tol
    space = GroundSpace(tuple(range(4)), np.ones(4))
    a = OrthonormalFamily(space, np.eye(3, 4))
    b = OrthonormalFamily(space, np.eye(3, 4) + np.array([0.0, 0.0, 0.0, 2e-5]))
    refuse_states(monkeypatch)
    with pytest.raises(ValueError, match=r"dropped principal angles 2\.0e-05, 2\.0e-05 may "
                                         r"move a 3-particle value by 1\.2e-04, past tol 1\.0e-05"):
        w1_module.rdm_certificates(a, b)
    with pytest.raises(ValueError, match="dropped principal angles"):
        rdm_monotonicity_check(a, b, tol=1e-4)


CLI_PAIR_0 = (random_orthonormal(4, 3, seed=400_000), random_orthonormal(4, 3, seed=400_001))


def principal_frame(a, b):
    """The families in the symmetric principal-angle frame `rdm_certificates` builds,
    padded to the pair's own points."""
    angles = w1_module._principal_angles(a, b, DEFAULT_TOL)
    return tuple(padded(f, a.space.n_points) for f in w1_module._symmetric_frame(angles))


def frame_states(a, b, k):
    """The k-particle reduced states in the principal-angle frame, as
    `rdm_certificates` solves them when the frame uses every point, and each
    point's frame block."""
    frame = principal_frame(a, b)
    # a point carries column i's cosine (e_i, block i) or its sine (column i's own point)
    weight = sum(np.abs(f.functions) for f in frame)
    assert np.all(weight.max(axis=0) > 0)
    entries = a.space.n_points ** (2 * a.n)
    rho, sig = (reduced_density_matrix(full_state_vector(f, cap=entries), k) for f in frame)
    return rho, sig, np.argmax(weight, axis=0)


def frame_difference(a, b, k):
    rho, sig, _ = frame_states(a, b, k)
    return rho.dims, (rho.matrix - sig.matrix).real


def test_random_densities_stay_complex():
    cert = w1_exact(*check5_product_case(2))
    assert not cert.real_step
    assert all(np.iscomplexobj(part) for part in cert.primal_parts)


def test_anderson_skips_residual_differences_at_rounding_level():
    # packed stacks over the even-odd corners of CLI pair 0's sectors [2, 4, 4, 6] at k = 2
    layout = _layout_of(*frame_difference(*CLI_PAIR_0, 2))
    rng = np.random.default_rng(89)
    v0, v1, g = (layout.hermitian(rng.normal(size=(1, layout.positions.size)))
                 for _ in range(3))
    anderson = w1_module._Anderson(g.size, layout.hermitian)
    anderson.step(v0, g)
    # an equal residual has no direction: nothing is stored, the plain point comes back
    np.testing.assert_array_equal(anderson.step(v1, g.copy()), v1 + g)
    assert anderson.count == 0
    # a difference above 1e-12 of the residual is stored, and extrapolated along
    direction = layout.hermitian(rng.normal(size=g.shape))
    nudge = 1e-11 * np.linalg.norm(g) / np.linalg.norm(direction) * direction
    point = anderson.step(v0, g + nudge)
    assert anderson.count == 1 and anderson.extrapolated
    np.testing.assert_allclose(anderson.dg[0], nudge.ravel(), rtol=1e-3)
    np.testing.assert_array_equal(layout.hermitian(point), point)


def slater_reduced_pair(seed, k, n_functions=3, n_points=4):
    a = random_orthonormal(n_points, n_functions, seed)
    b = random_orthonormal(n_points, n_functions, seed + 1, space=a.space)
    return (reduced_density_matrix(full_state_vector(a), k),
            reduced_density_matrix(full_state_vector(b), k))


def general_step(patch):
    """Make the swap detector report every difference as not swap-invariant."""
    patch.setattr(w1_module, "_swap_invariant", lambda dims, delta: False)


@pytest.mark.parametrize("k", [2, 3])
def test_symmetric_step_matches_general_step(k, monkeypatch):
    # k-particle reduced states of 3 functions on 4 points: 2 and 3 sites, as
    # they are (one sector) and in their principal-angle frame (four sectors)
    frame = frame_states(random_orthonormal(4, 3, 70), random_orthonormal(4, 3, 71), k)
    for (rho, sig), sectors in ((slater_reduced_pair(70, k), 1), (frame[:2], 4)):
        project = _Layout.project
        iterates = {"general": [], "symmetric": []}

        for path, stack in iterates.items():
            def recording(self, blocks, c, stack=stack):
                out = project(self, blocks, c)
                # the one-block loop projects block 0; the swaps (0 i) give the stack
                stack.append((len(out), self.expand(out)))
                return out

            with monkeypatch.context() as patch:
                if path == "general":
                    general_step(patch)
                patch.setattr(_Layout, "project", recording)
                try:
                    w1_exact(rho, sig, tol=0.0, max_iter=300)
                except ConvergenceError:
                    pass
        # the projection of 0, then one projection per iteration
        assert len(iterates["general"]) == len(iterates["symmetric"]) == 301
        assert {held for held, _ in iterates["general"]} == {k}
        assert {held for held, _ in iterates["symmetric"]} == {1}
        # every point, extrapolated ones included
        assert max(float(np.max(np.abs(a - b))) for (_, a), (_, b)
                   in zip(iterates["general"], iterates["symmetric"])) <= 1e-10

        with monkeypatch.context() as patch:
            general_step(patch)
            general = w1_exact(rho, sig)
        symmetric = w1_exact(rho, sig)
        assert (general.symmetric_step, symmetric.symmetric_step) == (False, True)
        assert len(general.sectors) == len(symmetric.sectors) == sectors
        assert symmetric.iterations == general.iterations
        assert symmetric.value == pytest.approx(general.value, abs=1e-9)
        assert symmetric.gap <= DEFAULT_TOL


def check5_pair(pair):
    n_functions = 2 if pair < 25 else 3
    return [full_state_vector(random_orthonormal(4, n_functions, seed=50_000 + 2 * pair + j))
            for j in (0, 1)]


@pytest.mark.parametrize("pair", [10, 41])
def test_averaging_keeps_the_expanded_stack_feasible(pair, monkeypatch):
    # check-5 pairs: 10 (two functions on four points, D = 16) is one of its
    # two longest solves, 1,160 iterations on the general step and 490 on
    # the one-block loop, whose rounding steers the extrapolation differently;
    # 41 (three functions, D = 64) takes 20 on both
    rho, sig = check5_pair(pair)
    with monkeypatch.context() as patch:
        general_step(patch)
        general = w1_exact(rho, sig)
    cert = w1_exact(rho, sig)
    assert (general.symmetric_step, cert.symmetric_step) == (False, True)
    assert cert.feasibility_error <= 1e-10
    # both intervals hold the distance, so they meet, and each holds the
    # general step's value up to the tolerance
    assert max(general.lower, cert.lower) <= min(general.value, cert.value)
    for c in (general, cert):
        assert c.lower <= general.value <= c.value + DEFAULT_TOL
        assert c.gap <= DEFAULT_TOL


def permutation_invariant_density(dims, seed):
    """random_density averaged over every permutation of its (equal) sites."""
    n, total = len(dims), math.prod(dims)
    tensor = random_density(total, seed).reshape(tuple(dims) * 2)
    mean = sum(tensor.transpose(p + tuple(n + i for i in p))
               for p in itertools.permutations(range(n))) / math.factorial(n)
    return DensityOperator(tuple(dims), mean.reshape(total, total))


def test_averaging_keeps_permutation_invariant_densities_feasible():
    # three sites of dimension 4 (D = 64), 80 iterations: without the average
    # over the swap (1 2) the expanded stack ends 3.6e-8 from feasible
    rho, sig = (permutation_invariant_density((4, 4, 4), seed) for seed in (0, 1))
    cert = w1_exact(rho, sig)
    assert cert.symmetric_step
    assert cert.lower <= cert.value and cert.gap <= DEFAULT_TOL
    assert cert.feasibility_error <= 1e-10


@pytest.mark.parametrize("k", [2, 3])
def test_block_zero_gap_test_matches_the_swapped_stack(k, monkeypatch):
    rho, sig = slater_reduced_pair(71, k)
    delta = rho.matrix - sig.matrix
    symmetric = _layout_of(rho.dims, delta)
    with monkeypatch.context() as patch:
        general_step(patch)
        general = _layout_of(rho.dims, delta)
    assert (symmetric.held, general.held) == (1, k)
    rng = np.random.default_rng(k)
    total = math.prod(rho.dims)
    raw = rng.normal(size=(2, 1, total, total)) + 1j * rng.normal(size=(2, 1, total, total))
    # u0 is not averaged over the permutations of sites 1..k-1, so at k = 3
    # its swapped blocks drift from the adjoint's range by different amounts
    u0, z0 = raw + raw.conj().swapaxes(-1, -2)
    assert symmetric.sectors == general.sectors == (total,)
    u0, z0 = pack(symmetric, u0), pack(symmetric, z0)
    assert symmetric.dual_value(u0, symmetric.offset(delta)) == pytest.approx(
        general.dual_value(pack(general, symmetric.expand(u0)), general.offset(delta)),
        rel=0, abs=1e-12)
    assert symmetric.value(z0) == pytest.approx(
        general.value(pack(general, symmetric.expand(z0))), rel=1e-14)


@pytest.mark.parametrize("pair", [2, 4, 6, 7])
def test_symmetric_step_certifies_three_site_slater_states(pair, monkeypatch):
    # full states of 3 functions on 4 points, total dimension 64; without the
    # average of v over the swap (1 2) the stack of pair 7 ends 7.8e-9 from feasible
    a = random_orthonormal(4, 3, seed=400_000 + 2 * pair)
    b = random_orthonormal(4, 3, seed=400_001 + 2 * pair)
    rho, sig = full_state_vector(a), full_state_vector(b)
    with monkeypatch.context() as patch:
        general_step(patch)
        general = w1_exact(rho, sig)
    cert = w1_exact(rho, sig)
    assert cert.symmetric_step
    assert cert.iterations == general.iterations
    assert cert.lower <= cert.value and cert.gap <= DEFAULT_TOL
    assert cert.feasibility_error <= 1e-10


def product_case(d):
    rho1, sigma1, tau = (random_density(d, 80 + 3 * d + j) for j in range(3))
    return (DensityOperator((d, d), np.kron(rho1, tau)),
            DensityOperator((d, d), np.kron(sigma1, tau)))


def perturbed_slater_pair(weight=1e-9, k=2):
    # mixing 1e-9 of a product state into a determinant state moves entries
    # of rho - sigma by up to 2.5e-10 under the site swap
    rho, sig = slater_reduced_pair(90, k, n_functions=k)
    rest = 4 ** (k - 1)
    product = np.kron(np.diag([1.0, 0.0, 0.0, 0.0]), np.eye(rest) / rest)
    return DensityOperator(rho.dims, (1 - weight) * rho.matrix + weight * product), sig


@pytest.mark.parametrize("pair", [
    (DensityOperator((2, 3), random_density(6, 91)), DensityOperator((2, 3), random_density(6, 92))),
    product_case(2),
    product_case(3),
    perturbed_slater_pair(),
], ids=["unequal_dims", "product_d2", "product_d3", "perturbed_slater"])
def test_swap_detection_falls_back_to_general_step(pair):
    cert = w1_exact(*pair)
    assert not cert.symmetric_step
    assert cert.gap <= DEFAULT_TOL


@pytest.mark.parametrize("k", [2, 3])
def test_swap_tolerance_keeps_the_expanded_stack_feasible(k):
    # 4e-13 of a product state moves entries of rho - sigma under the swap
    # (0 1) by 1e-13 (k = 2) and 2.5e-14 (k = 3), inside the detector's
    # 1e-12: the one-block loop solves for the swap-symmetrized difference
    rho, sig = perturbed_slater_pair(4e-13, k)
    delta = rho.matrix - sig.matrix
    swapped = delta.reshape(rho.dims * 2).swapaxes(0, 1).swapaxes(k, k + 1).reshape(delta.shape)
    assert 1e-14 <= np.max(np.abs(swapped - delta)) <= 1e-12
    cert = w1_exact(rho, sig)
    assert cert.symmetric_step
    assert cert.feasibility_error <= 1e-10
    assert cert.gap <= DEFAULT_TOL


def test_identical_slater_states_on_the_symmetric_step():
    rho, _ = slater_reduced_pair(93, 3)
    cert = w1_exact(rho, rho)
    assert cert.symmetric_step
    assert (cert.value, cert.lower, cert.gap, cert.iterations) == (0.0, 0.0, 0.0, 1)


def test_cli_pair_6_certifies_in_few_iterations():
    # the unrotated pair 6 of `fermiflow rdm-monotonicity` at k = 2 took 7,790
    # plain ADMM iterations; with extrapolation it takes 230
    a = random_orthonormal(4, 2, seed=400_012)
    b = random_orthonormal(4, 2, seed=400_013)
    rho, sig = (reduced_density_matrix(full_state_vector(f), 2) for f in (a, b))
    cert = w1_exact(rho, sig)
    assert cert.lower <= cert.value and cert.gap <= DEFAULT_TOL
    assert cert.iterations <= 1_000
    assert cert.accelerated_steps > 0


@pytest.fixture
def layout_cache():
    """The solver's cached layout builder, emptied before and after the test; its
    `cache_info().misses` counts the layouts built."""
    build = w1_module._build_layout
    build.cache_clear()
    yield build
    build.cache_clear()


class CountingOperator:
    """A sparse operator that counts its products."""

    def __init__(self, operator, products):
        self.operator, self.products = operator, products

    def __matmul__(self, x):
        self.products.append(x.shape)
        return self.operator @ x


@pytest.mark.parametrize("pair, held", [(slater_reduced_pair(70, 2), 1), (product_case(3), 2)],
                         ids=["symmetric_step", "general_step"])
@pytest.mark.parametrize("max_iter", [1, 37])
def test_each_iteration_evaluates_the_splitting_map_once(pair, held, max_iter, monkeypatch,
                                                         layout_cache):
    calls = {"project": [], "shrink": [], "products": []}
    project, shrink = _Layout.project, w1_module._shrink_eigenvalues

    def counting_layout(*key):
        # a copy of the cached layout whose projections count their products
        layout = copy.copy(layout_cache(*key))
        layout.operator = CountingOperator(layout.operator, calls["products"])
        return layout

    def counting_project(self, blocks, c):
        calls["project"].append(len(blocks))
        return project(self, blocks, c)

    def counting_shrink(stack, amount):
        calls["shrink"].append(len(stack))
        return shrink(stack, amount)

    def refuse(*args):
        raise AssertionError("the solver changed basis site by site")

    monkeypatch.setattr(w1_module, "_build_layout", counting_layout)
    monkeypatch.setattr(_Layout, "project", counting_project)
    monkeypatch.setattr(w1_module, "_shrink_eigenvalues", counting_shrink)
    monkeypatch.setattr(BasisChangeReference, "change_basis", refuse)
    with pytest.raises(ConvergenceError):
        w1_exact(*pair, tol=0.0, max_iter=max_iter)
    # the projection of 0, then one projection and one shrink per iteration
    # (per size of sector; both pairs are one sector), rejected extrapolations
    # included; on block 0 alone when every swap fixes delta. Each projection
    # is one product with the operator, built once
    assert len(calls.pop("products")) == 1 + max_iter
    assert calls == {"project": [held] * (1 + max_iter), "shrink": [held] * max_iter}
    assert layout_cache.cache_info().misses == 1


def check5_product_case(d):
    # the product cases of selftest check 5, built as the check builds them
    rho1, sigma1, tau = (check_density(d, 55, d, j) for j in range(3))
    return (DensityOperator((d, d), np.kron(rho1, tau)),
            DensityOperator((d, d), np.kron(sigma1, tau)))


@pytest.mark.parametrize("d", [2, 3])
def test_rejected_extrapolations_still_certify(d, monkeypatch):
    step = w1_module._Anderson.step
    rejected, asymmetry = [], []

    def recording(self, v, g):
        was_extrapolated, accepted = self.extrapolated, self.accepted
        out = step(self, v, g)
        rejected.append(was_extrapolated and self.accepted == accepted)
        # one sector of d^2 ascending indices: each packed row is a whole block
        full = out.reshape(len(out), d * d, d * d)
        asymmetry.append(float(np.max(np.abs(full - full.conj().swapaxes(1, 2)))))
        return out

    monkeypatch.setattr(w1_module._Anderson, "step", recording)
    cert = w1_exact(*check5_product_case(d))
    assert not cert.symmetric_step and cert.sectors == (d * d,)
    # the safeguard turned extrapolated points down, and some were kept
    assert any(rejected) and cert.accelerated_steps > 0
    assert cert.lower <= cert.value and cert.gap <= DEFAULT_TOL
    assert cert.feasibility_error <= 1e-10
    # every point evaluated stayed Hermitian, and so did the primal parts
    assert max(asymmetry) <= 1e-12
    for part in cert.primal_parts:
        assert np.max(np.abs(part - part.conj().T)) <= 1e-12


@pytest.mark.parametrize("pair", [check5_pair(3), slater_reduced_pair(70, 2), product_case(3)],
                         ids=["check5_pair_3", "symmetric_step", "general_step"])
def test_threshold_is_trace_distance_over_two_root_d(pair):
    rho, sig = pair
    total = math.prod(rho.dims)
    cert = w1_exact(rho, sig)
    expected = half_trace_norm(rho.matrix - sig.matrix) / (2 * math.sqrt(total))
    assert cert.threshold == pytest.approx(expected, rel=1e-12)


def mixed_toward_identity(op, c):
    total = op.matrix.shape[0]
    return DensityOperator(op.dims, c * op.matrix + (1 - c) * np.eye(total) / total)


@pytest.mark.parametrize("pair", [3, 41])
@pytest.mark.parametrize("c", [0.5, 0.25])
def test_solver_cost_does_not_depend_on_the_scale_of_delta(pair, c):
    # mixing both states toward I/D by c scales delta, and the distance, by c;
    # with the tolerance scaled alike the threshold keeps the iterates in step.
    # A fixed shrink of 0.5 took pair 3 from 430 iterations to 8,450 at c = 1/4
    rho, sig = check5_pair(pair)
    base = w1_exact(rho, sig)
    scaled = w1_exact(mixed_toward_identity(rho, c), mixed_toward_identity(sig, c),
                      tol=c * DEFAULT_TOL)
    assert abs(scaled.iterations - base.iterations) <= 0.25 * base.iterations
    assert scaled.gap <= c * DEFAULT_TOL
    # [lower, value] / c holds the distance, and so does [base.lower, base.value]
    assert scaled.lower / c - 1e-12 <= base.value <= scaled.value / c + DEFAULT_TOL
    assert base.lower - 1e-12 <= scaled.value / c <= base.value + DEFAULT_TOL


@pytest.mark.parametrize("pair", [10, 13])
def test_check5_hardest_pairs_certify_within_1000_iterations(pair):
    # check 5's two longest solves, 3,870 and 4,210 iterations with a fixed shrink of 0.5
    cert = w1_exact(*check5_pair(pair))
    assert cert.symmetric_step
    assert cert.iterations <= 1_000
    assert cert.lower <= cert.value and cert.gap <= DEFAULT_TOL


def partition(labels):
    return {frozenset(np.flatnonzero(labels == s).tolist()) for s in np.unique(labels)}


@pytest.mark.parametrize("pair, k, sizes", [
    (CLI_PAIR_0, 2, [2, 4, 4, 6]),
    (CLI_PAIR_0, 3, [12, 16, 16, 20]),
    ((random_orthonormal(5, 3, seed=90_002), random_orthonormal(5, 3, seed=90_003)), 3,
     [24, 25, 38, 38]),
], ids=["cli0_k2", "cli0_k3", "d125"])
def test_sectors_are_the_frame_blocks(pair, k, sizes):
    rho, sig, block = frame_states(*pair, k)
    dims, delta = rho.dims, (rho.matrix - sig.matrix).real
    # a tuple's frame label: bit b set when block b holds an odd number of its points
    tuples = np.indices(dims).reshape(k, -1)
    frame_labels = np.bitwise_xor.reduce(1 << block[tuples], axis=0)
    derived = partition(w1_module._parity_sectors(dims, delta))
    assert derived == partition(frame_labels)
    assert sorted(map(len, derived)) == sizes == list(_layout_of(dims, delta).sectors)


@pytest.mark.parametrize("pair", [check5_pair(41), product_case(3)], ids=["check5_41", "product"])
def test_dense_difference_is_one_sector(pair):
    rho, sig = pair
    delta = rho.matrix - sig.matrix
    assert len(np.unique(w1_module._parity_sectors(rho.dims, delta))) == 1
    assert w1_exact(rho, sig).sectors == (math.prod(rho.dims),)


def test_sectored_solve_matches_the_unsplit_solve(monkeypatch):
    # CLI pair 0 at k = 3 is w1_cap's pair 0 before its rotation
    rho, sig, _ = frame_states(*CLI_PAIR_0, 3)
    sectored = w1_exact(rho, sig)
    with monkeypatch.context() as patch:
        patch.setattr(w1_module, "_parity_sectors", lambda dims, delta: np.zeros(64, int))
        unsplit = w1_exact(rho, sig)
    assert (sectored.sectors, unsplit.sectors) == ((12, 16, 16, 20), (64,))
    assert sectored.iterations == unsplit.iterations
    assert sectored.value == pytest.approx(unsplit.value, rel=0, abs=1e-12)
    assert sectored.gap <= DEFAULT_TOL
    # the returned parts are exactly zero off the sectors
    labels = w1_module._parity_sectors(rho.dims, rho.matrix - sig.matrix)
    off = labels[:, None] != labels[None, :]
    assert all(not part[off].any() for part in sectored.primal_parts)


def random_packed(layout, seed, complex_entries):
    """A random Hermitian packed stack of the layout's held blocks."""
    rng = np.random.default_rng(seed)
    shape = (layout.held, layout.positions.size)
    raw = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_entries else 0.0)
    return layout.hermitian(raw)


def averaging_matrix(layout):
    """The site average of the held blocks as a sparse matrix on packed entries."""
    orbit = layout._orbit
    rows = np.tile(np.arange(orbit.shape[1]), len(orbit))
    return scipy.sparse.csr_matrix((np.full(orbit.size, 1.0 / len(orbit)), (rows, orbit.ravel())))


def difference(rho, sig):
    return rho.dims, rho.matrix - sig.matrix


# every layout of the least-squares check; the frame layouts [2, 4, 4, 6], [12, 16, 16, 20]
# and [24, 25, 38, 38]; a dense complex pair on three sites, and a pair no swap fixes
ORACLE_CASES = {
    **{f"dims{i}": (dims, least_squares_case(dims)[0])
       for i, dims in enumerate(LEAST_SQUARES_DIMS)},
    "cli0_k2": frame_difference(*CLI_PAIR_0, 2),
    "cli0_k3": frame_difference(*CLI_PAIR_0, 3),
    "d125": frame_difference(random_orthonormal(5, 3, seed=90_002),
                             random_orthonormal(5, 3, seed=90_003), 3),
    "check5_41": difference(*check5_pair(41)),
    "product_d3": difference(*product_case(3)),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_cached_operator_matches_the_basis_change(case):
    dims, delta = ORACLE_CASES[case]
    layout = _layout_of(dims, delta)
    c = layout.offset(delta)
    reference = BasisChangeReference(layout, delta)
    complex_entries = np.iscomplexobj(delta)
    for seed in range(3):
        x = random_packed(layout, seed, complex_entries)
        np.testing.assert_allclose(layout.project(x, c), reference.project(x), rtol=0, atol=1e-12)
        # x is not averaged: at n = 3 with h = 1 the swapped blocks drift by different amounts
        assert layout.dual_value(x, c) == pytest.approx(reference.dual_value(x), rel=0, abs=1e-12)
    # the projection of 0 is delta's share
    zero = np.zeros_like(x)
    np.testing.assert_allclose(layout.project(zero, c), reference.project(zero),
                               rtol=0, atol=1e-12)
    # M is symmetric and idempotent on what the loop projects: the averaged stacks, which are
    # all stacks unless h = 1 and n >= 3
    m, average = layout.operator, averaging_matrix(layout)
    assert abs(m - m.T).max() <= 1e-13
    assert abs(m @ m @ average - m @ average).max() <= 1e-13
    if layout.held > 1 or len(dims) < 3:
        assert abs(average - scipy.sparse.eye(m.shape[0])).max() == 0.0


def w1_cap_pairs():
    """The CLI pairs of `rdm-monotonicity --rdm.n 3`, 0-7: three functions on four points."""
    return [(random_orthonormal(4, 3, seed=400_000 + 2 * i),
             random_orthonormal(4, 3, seed=400_001 + 2 * i)) for i in range(8)]


@pytest.fixture
def universal_cache():
    """The cached universal single-excitation solves, emptied before and after the test."""
    universal = w1_module._universal_certificates
    universal.cache_clear()
    yield universal
    universal.cache_clear()


def test_each_layout_builds_its_operator_once(layout_cache, universal_cache, monkeypatch):
    # the eight pairs are single excitations of one shape: one universal solve per
    # size k, whose two multi-site solves build two layouts, (4, 4) on sectors
    # [2, 4, 4, 6] and (4, 4, 4) on [12, 16, 16, 20], block 0 held
    solve, solves = w1_module.w1_exact, []

    def counting(rho, sigma, **kwargs):
        solves.append(rho.dims)
        return solve(rho, sigma, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(w1_module, "w1_exact", counting)
        for a, b in w1_cap_pairs():
            assert {c.sectors for c in w1_module.rdm_certificates(a, b)[1:]} <= {
                (2, 4, 4, 6), (12, 16, 16, 20)}
    assert solves == [(4,), (4, 4), (4, 4, 4)]
    assert universal_cache.cache_info()[:2] == (7, 1)
    assert layout_cache.cache_info()[:2] == (0, 2)
    rho, sig, _ = frame_states(*CLI_PAIR_0, 2)
    assert w1_exact(rho, sig).symmetric_step
    assert layout_cache.cache_info()[:2] == (1, 2)
    # the same sectors with every block held, then a new sector layout
    with monkeypatch.context() as patch:
        general_step(patch)
        assert not w1_exact(rho, sig).symmetric_step
    assert w1_exact(*check5_pair(3)).sectors == (16,)
    assert layout_cache.cache_info()[:2] == (1, 4)


# single excitations: the eight w1_cap pairs, and random pairs with m = n + 1 (seeds named)
SINGLE_EXCITATIONS = {
    **{f"w1_cap_{i}": pair for i, pair in enumerate(w1_cap_pairs())},
    **{f"m{m}_n{m - 1}_seed{seed}": (random_orthonormal(m, m - 1, seed=seed),
                                     random_orthonormal(m, m - 1, seed=seed + 1))
       for m in (3, 4, 5) for seed in (97_000 + 100 * m, 97_002 + 100 * m)},
}


@pytest.mark.parametrize("pair", SINGLE_EXCITATIONS.values(), ids=SINGLE_EXCITATIONS.keys())
def test_scaled_certificates_match_the_direct_solves(pair):
    a, b = pair
    certs = w1_module.rdm_certificates(a, b, dim_cap=625)
    for k, cert in enumerate(certs, start=1):
        rho, sig, _ = frame_states(a, b, k)
        direct = w1_exact(rho, sig, dim_cap=625)
        assert direct.scale is None and 0.0 < cert.scale < 1.0
        # both certified intervals hold the distance
        assert max(cert.lower, direct.lower) <= min(cert.value, direct.value) + 1e-12
        assert cert.gap <= DEFAULT_TOL
        # the parts are feasible for the frame's own difference: they sum to it,
        # up to the rounding of scaling the universal difference, and each has
        # a zero partial trace over its own site
        delta = (rho.matrix - sig.matrix).real
        assert cert.feasibility_error <= 1e-12
        assert np.max(np.abs(np.sum(cert.primal_parts, axis=0) - delta)) <= (
            cert.feasibility_error + 1e-15)
        for i, part in enumerate(cert.primal_parts):
            assert np.max(np.abs(_partial_trace_matrix(part, rho.dims, [i]))) <= 1e-12
        weights = [half_trace_norm(part) for part in cert.primal_parts]
        np.testing.assert_allclose(cert.part_weights, weights, rtol=0, atol=1e-12)
        assert sum(weights) == pytest.approx(cert.value, abs=1e-12)


def test_scaled_constants_at_three_functions():
    # n W1(Gamma_k) / sin theta at n = 3, k = 1..3: measured, not derived
    certs = w1_module.rdm_certificates(*CLI_PAIR_0)
    for cert, constant in zip(certs, [1.0, 1.0 + math.sqrt(3.0), 2.0 * math.sqrt(6.0)]):
        assert 3 * cert.lower / cert.scale == pytest.approx(constant, abs=1e-4)
        assert 3 * cert.value / cert.scale == pytest.approx(constant, abs=1e-4)


def test_scaled_constant_at_four_functions(universal_cache):
    # c_4 = sqrt(2) (3 + sqrt(5)) = n W1(Gamma_n) / sin theta at n = 4, k = 4: the
    # universal pair (sin theta = 1) on five points, D = 625, certified to 1e-7
    cert, _ = w1_module._universal_certificates(4, 1e-7, w1_module.MAX_ITER)[-1]
    assert cert.gap <= 1e-7
    assert 4 * cert.lower <= math.sqrt(2.0) * (3.0 + math.sqrt(5.0)) <= 4 * cert.value


def test_scaled_parts_share_no_memory_with_the_cache(universal_cache):
    # each call scales the cached stack into a new array: writing to a returned
    # stack leaves the universal solve, and so the next call, as they were
    first = w1_module.rdm_certificates(*CLI_PAIR_0)
    kept = [cert.primal_parts.copy() for cert in first]
    cached = w1_module._universal_certificates(3, DEFAULT_TOL, w1_module.MAX_ITER)
    assert universal_cache.cache_info()[:2] == (1, 1)
    for cert, (universal, _) in zip(first, cached):
        assert not np.shares_memory(cert.primal_parts, universal.primal_parts)
        cert.primal_parts[...] = 0.0
    for cert, parts in zip(w1_module.rdm_certificates(*CLI_PAIR_0), kept):
        np.testing.assert_array_equal(cert.primal_parts, parts)
        assert cert.feasibility_error <= 1e-12


def test_rdm_refuses_an_overlap_above_one(monkeypatch):
    # a family scaled by 1 + 1e-6 passes a loose Gram check; its overlap does not,
    # in `overlap_matrix` and in the one decomposition of `rdm_certificates` alike
    refuse_states(monkeypatch)
    a = random_orthonormal(4, 2, seed=1)
    grown = OrthonormalFamily(a.space, (1 + 1e-6) * a.functions, tol=1e-5)
    for entry in (overlap_matrix, w1_module.rdm_certificates):
        with pytest.raises(ValueError, match=r"largest singular value 1\.0000010\d* exceeds 1"):
            entry(a, grown)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 2, 3)])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_stacked_feasibility_error_matches_the_per_part_formula(dims, complex_entries):
    # unequal sites, where a stack traced over the wrong axes gives other numbers;
    # delta is the exact sum (the traces decide), then far off it (the sum decides)
    rng = np.random.default_rng(len(dims) + 10 * complex_entries)
    total = math.prod(dims)
    parts = rng.normal(size=(len(dims), total, total))
    if complex_entries:
        parts = parts + 1j * rng.normal(size=parts.shape)
    for delta in (parts.sum(axis=0), parts.sum(axis=0) + 50.0):
        expected = reference_feasibility_error(parts, delta, dims)
        assert w1_module._feasibility_error(parts, delta, dims) == pytest.approx(
            expected, rel=1e-15, abs=0.0)
    # each site alone: only part i's trace over site i is off
    for i in range(len(dims)):
        single = np.zeros_like(parts)
        single[i] = parts[i]
        expected = reference_feasibility_error(single, single[i], dims)
        assert expected > 0.0
        assert w1_module._feasibility_error(single, single[i], dims) == pytest.approx(
            expected, rel=1e-15, abs=0.0)


def test_universal_solve_past_max_iter_still_raises(universal_cache):
    with pytest.raises(ConvergenceError, match="in 1 iterations"):
        w1_module.rdm_certificates(*CLI_PAIR_0, max_iter=1)
    # nothing was cached: the next call solves anew and certifies
    assert universal_cache.cache_info().currsize == 0
    assert all(c.gap <= DEFAULT_TOL for c in w1_module.rdm_certificates(*CLI_PAIR_0))


def test_single_excitations_share_one_universal_solve_across_points(universal_cache):
    # a single excitation of three functions on eight points, and w1_cap's pair 0
    # on four: both scale the universal pair on four points, solved once
    basis = random_orthonormal(8, 4, seed=98)
    a = OrthonormalFamily(basis.space, basis.functions[:3])
    b = OrthonormalFamily(basis.space, np.vstack([basis.functions[:2],
                                                  0.8 * basis.functions[2:3]
                                                  + 0.6 * basis.functions[3:]]))
    certs = w1_module.rdm_certificates(a, b)
    scaled = w1_module.rdm_certificates(*w1_cap_pairs()[0])
    assert universal_cache.cache_info()[:2] == (1, 1)
    assert len(certs[0].primal_parts[0]) == len(scaled[0].primal_parts[0]) == 4
    # sin theta, theta the angle of cos 0.8
    assert all(c.scale == pytest.approx(0.6, abs=1e-12) for c in certs)
    states = [full_state_vector(f, cap=8 ** 6) for f in principal_frame(a, b)]
    for k, cert in enumerate(certs[:2], start=1):
        embedded = w1_exact(*(reduced_density_matrix(state, k) for state in states))
        assert max(cert.lower, embedded.lower) <= min(cert.value, embedded.value) + 1e-12
        assert cert.value == pytest.approx(embedded.value, abs=DEFAULT_TOL)
    assert certs[2].gap <= DEFAULT_TOL and certs[2].feasibility_error <= 1e-12


@pytest.mark.parametrize("pair, held", [(slater_reduced_pair(70, 3), 1), (product_case(3), 2),
                                        (frame_states(*CLI_PAIR_0, 3)[:2], 1)],
                         ids=["symmetric_step", "general_step", "graded"])
def test_packed_residuals_equal_the_expanded_ones(pair, held, monkeypatch):
    # the solver measures x - z and z - z_prev on the packed held blocks, scaled
    # by sqrt(copies n / h), copies 2 for corners; here on the whole (n, D, D) stacks
    seen = {"blockwise": [], "project": []}
    for name, outputs in seen.items():
        def recording(self, *args, method=getattr(_Layout, name), outputs=outputs):
            outputs.append((self, method(self, *args)))
            return outputs[-1][1]

        monkeypatch.setattr(_Layout, name, recording)
    cert = w1_exact(*pair)
    layout, x = seen["blockwise"][-1]
    (_, z_prev), (_, z) = seen["project"][-2:]
    assert layout.held == held
    x, z, z_prev = (layout.expand(s) for s in (x, z, z_prev))
    assert len(x) == len(pair[0].dims)
    assert cert.primal_residual == pytest.approx(float(np.linalg.norm(x - z)), rel=1e-12)
    assert cert.dual_residual == pytest.approx(float(np.linalg.norm(z - z_prev)), rel=1e-12)


def test_dim_cap_is_the_rdm_paths_only_cap(monkeypatch):
    # two functions on 20 points: their frame has 4 points, so the k = 2 states
    # have 16 dimensions, not 400
    dims = []

    def recording(rho, sigma, **kwargs):
        dims.append(rho.dims)
        return kwargs["dim_cap"]

    monkeypatch.setattr(w1_module, "w1_exact", recording)
    a = random_orthonormal(20, 2, seed=94)
    b = random_orthonormal(20, 2, seed=95, space=a.space)
    assert w1_module.rdm_certificates(a, b, dim_cap=400) == [400, 400]
    assert dims == [(4,), (4, 4)]
    # the frame's 16, one past the cap, is refused before any state is built
    with monkeypatch.context() as patch:
        refuse_states(patch)
        with pytest.raises(ValueError, match="total dimension 16 exceeds cap 15"):
            w1_module.rdm_certificates(a, b, dim_cap=15)
    # four functions with two non-zero angles on 20 points: 6 frame points, 1,296
    # dimensions at k = 4, and states of 1,679,616 entries, past full_state_vector's
    # default cap of 100,000, which only dim_cap (squared) holds
    dims.clear()
    a, b = (padded(f, 20) for f in w1_module._symmetric_frame(np.array([0.0, 0.0, 0.5, 1.0])))
    assert w1_module.rdm_certificates(a, b, dim_cap=1296) == [1296] * 4
    assert dims == [(6,) * k for k in range(1, 5)]


def test_stage_seconds_split_the_call():
    start = time.perf_counter()
    cert = w1_exact(*check5_pair(3))
    elapsed = time.perf_counter() - start
    assert set(cert.stage_seconds) == {"setup", "iterations", "gap_tests"}
    assert min(cert.stage_seconds.values()) > 0.0
    assert sum(cert.stage_seconds.values()) <= elapsed
    one_site = w1_exact(DensityOperator((3,), random_density(3, 5)),
                        DensityOperator((3,), random_density(3, 6)))
    assert one_site.stage_seconds["iterations"] == one_site.stage_seconds["gap_tests"] == 0.0


def ungraded(patch):
    """Make the grading detector report no grading: the loop holds square blocks."""
    patch.setattr(w1_module, "_grading", lambda dims, delta: None)


def graded_difference(pair, k):
    """The frame states at k, as `frame_states` builds them but with unused (padded)
    points allowed, their real difference and its grading."""
    entries = pair[0].space.n_points ** (2 * pair[0].n)
    rho, sig = (reduced_density_matrix(full_state_vector(f, cap=entries), k)
                for f in principal_frame(*pair))
    delta = (rho.matrix - sig.matrix).real
    return rho, sig, delta, np.array(w1_module._grading(rho.dims, delta))


# pair 0 of `fermiflow rdm-monotonicity` with two functions, as the w1_pairs workload solves it
W1_PAIRS_0 = (random_orthonormal(4, 2, seed=400_000), random_orthonormal(4, 2, seed=400_001))
D125_PAIR = (random_orthonormal(5, 3, seed=90_002), random_orthonormal(5, 3, seed=90_003))


@pytest.mark.parametrize("pair, k", [(CLI_PAIR_0, 2), (CLI_PAIR_0, 3), (W1_PAIRS_0, 2)],
                         ids=["cli0_k2", "cli0_k3", "w1_pairs0_k2"])
def test_graded_solve_matches_the_square_blocks(pair, k, monkeypatch):
    rho, sig, _, grades = graded_difference(pair, k)
    graded = w1_exact(rho, sig)
    with monkeypatch.context() as patch:
        ungraded(patch)
        square = w1_exact(rho, sig)
    assert (graded.graded, square.graded) == (True, False)
    assert graded.sectors == square.sectors
    assert graded.iterations == square.iterations
    assert graded.value == pytest.approx(square.value, rel=0, abs=1e-12)
    assert graded.gap <= DEFAULT_TOL and graded.feasibility_error <= 1e-10
    # the returned parts are exactly zero on the even-even and odd-odd entries
    same = grades[:, None] == grades[None, :]
    assert all(not part[same].any() for part in graded.primal_parts)


@pytest.mark.parametrize("pair", [CLI_PAIR_0, W1_PAIRS_0, D125_PAIR],
                         ids=["cli0_single_excitation", "w1_pairs0", "d125"])
def test_frame_differences_are_graded_at_every_k(pair):
    n = pair[0].n
    for k in range(1, n + 1):
        rho, _, delta, grades = graded_difference(pair, k)
        assert grades.shape == (len(delta),)
        assert not delta[grades[:, None] == grades[None, :]].any()
        # derived from delta alone, the grades are the parity of the tuple's sine
        # points (points n on), up to a flip of a whole sector
        sines = (np.indices(rho.dims).reshape(k, -1) >= n).sum(axis=0) % 2
        labels = w1_module._parity_sectors(rho.dims, delta)
        assert all(len(np.unique((grades ^ sines)[labels == s])) == 1 for s in np.unique(labels))
    certs = w1_module.rdm_certificates(*pair, dim_cap=125)
    # one site runs no loop; CLI pair 0 is a single excitation, scaled from the universal solve
    assert [c.graded for c in certs] == [False] + [True] * (n - 1)
    assert all(c.scale is not None for c in certs) == (pair is CLI_PAIR_0)


@pytest.mark.parametrize("pair", [check5_pair(41), product_case(3)], ids=["check5_41", "product"])
def test_dense_differences_are_not_graded(pair):
    rho, sig = pair
    delta = rho.matrix - sig.matrix
    assert w1_module._grading(rho.dims, delta) is None
    # dense real parts have no grading either
    assert w1_module._grading(rho.dims, delta.real) is None
    assert not w1_exact(rho, sig).graded


def test_complex_differences_keep_square_blocks():
    # a frame difference under a diagonal phase on every site keeps its grading's
    # pattern, but a complex corner would need a second operator for its imaginary part
    rho, sig, delta, grades = graded_difference(CLI_PAIR_0, 2)
    phases = np.kron(*[np.exp(1j * np.arange(4))] * 2)
    rotated = phases[:, None] * delta * phases.conj()[None, :]
    assert grades.shape == (16,) and w1_module._grading(rho.dims, rotated) is None


def test_equal_families_hold_no_corner():
    fam = random_orthonormal(4, 3, seed=19)
    certs = w1_module.rdm_certificates(fam, fam)
    assert [(c.value, c.lower, c.gap) for c in certs] == [(0.0, 0.0, 0.0)] * 3
    assert [c.graded for c in certs] == [False, True, True]
    # delta = 0: every tuple has grade 0, so every corner is empty
    for k in (2, 3):
        rho, _, delta, grades = graded_difference((fam, fam), k)
        assert not delta.any() and not grades.any()
        assert _layout_of(rho.dims, delta).positions.size == 0


def test_frame_with_empty_half_sectors_certifies(monkeypatch):
    # two functions on eight points, their four-point frame padded to eight: points
    # 4..7 are unused, and a sector of tuples through them may hold one grade only,
    # an empty corner
    pair = (random_orthonormal(8, 2, seed=96), random_orthonormal(8, 2, seed=97))
    rho, sig, delta, grades = graded_difference(pair, 2)
    labels = w1_module._parity_sectors(rho.dims, delta)
    halves = [np.bincount(grades[labels == s], minlength=2) for s in np.unique(labels)]
    assert any(0 in half for half in halves)
    assert _layout_of(rho.dims, delta).positions.size == sum(even * odd for even, odd in halves)
    cert = w1_exact(rho, sig)
    assert cert.graded and cert.gap <= DEFAULT_TOL and cert.feasibility_error <= 1e-10
    with monkeypatch.context() as patch:
        ungraded(patch)
        square = w1_exact(rho, sig)
    # both certified intervals hold the distance
    assert square.iterations == cert.iterations
    assert max(square.lower, cert.lower) <= min(square.value, cert.value) + 1e-12


def svd_soft_threshold(stack, amount):
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    return (u * np.maximum(s - amount, 0.0)[..., None, :]) @ vh


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4), (2, 3, 2, 6)])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_rectangle_shrink_is_singular_value_soft_thresholding(shape, complex_entries):
    rng = np.random.default_rng(sum(shape))
    stack = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_entries else 0.0)
    # the same stack with its smallest singular value set to zero
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    s[..., -1] = 0.0
    deficient = (u * s[..., None, :]) @ vh
    for b in (stack, deficient):
        top = np.linalg.svd(b, compute_uv=False).max()
        for amount in (0.0, 0.3 * top, 2.0 * top):
            shrunk = w1_module._shrink_singular_values(b, amount)
            np.testing.assert_allclose(shrunk, svd_soft_threshold(b, amount), rtol=0, atol=1e-12)


@pytest.mark.parametrize("pair, held", [(frame_difference(*CLI_PAIR_0, 2), 1),
                                        (difference(*product_case(3)), 2)],
                         ids=["two_sites_block_0", "every_block"])
def test_one_permutation_average_returns_its_input(pair, held):
    layout = _layout_of(*pair)
    assert layout.held == held and len(layout._orbit) == 1
    x = random_packed(layout, 5, np.iscomplexobj(pair[1]))
    assert layout.average(x) is x
    # the gather it skips is the identity, and its mean of one row changes no bit
    np.testing.assert_array_equal(x.reshape(-1)[layout._orbit].mean(axis=0).reshape(x.shape), x)
    # three sites with block 0 held average over the swap (1 2)
    assert len(_layout_of(*frame_difference(*CLI_PAIR_0, 3))._orbit) == 2


class ReferenceAnderson:
    """`_Anderson` as first written, with np.linalg.norm and np.linalg.solve: the
    solver's leaner step must do the same arithmetic."""

    def __init__(self, size, hermitian):
        depth = w1_module.ANDERSON_DEPTH
        self.hermitian = hermitian
        self.dg, self.dt = np.empty((depth, size)), np.empty((depth, size))
        self.gram = np.empty((depth, depth))
        self.count = self.slot = self.rejections = self.plain_steps = self.accepted = 0
        self.g = self.t = None
        self.residual, self.extrapolated = math.inf, False

    def step(self, v, g):
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
            s, k = self.slot, min(self.count + 1, w1_module.ANDERSON_DEPTH)
            self.dg[s] = dg
            np.subtract(t_flat, self.t.view(np.float64).ravel(), out=self.dt[s])
            self.gram[s, :k] = self.gram[:k, s] = self.dg[:k] @ self.dg[s]
            self.count, self.slot = k, (s + 1) % w1_module.ANDERSON_DEPTH
        self.g, self.t, self.residual = g, t, residual
        self.plain_steps -= 1
        k = self.count
        scale = float(np.trace(self.gram[:k, :k]))
        self.extrapolated = self.plain_steps <= 0 and scale > 0.0
        if not self.extrapolated:
            return t
        gamma = np.linalg.solve(self.gram[:k, :k] + w1_module.ANDERSON_REG * scale * np.eye(k),
                                self.dg[:k] @ g_flat)
        return self.hermitian((t_flat - gamma @ self.dt[:k]).view(t.dtype).reshape(t.shape))


def reference_projections(rho, sig, iterations):
    """The splitting loop's projected iterates z, from the projection of 0 on, written
    with `ReferenceAnderson` and one np.empty_like copy per size group of the shrink;
    and the extrapolated points it accepted."""
    delta = rho.matrix - sig.matrix
    delta = delta.real if not delta.imag.any() else delta
    layout = _layout_of(rho.dims, delta)
    c = layout.offset(delta)
    threshold = half_trace_norm(delta) / (2.0 * math.sqrt(layout.total))
    shrink = (w1_module._shrink_singular_values if layout.graded
              else w1_module._shrink_eigenvalues)

    def project(blocks):
        return layout.hermitian(w1_module._apply(layout.operator, blocks).reshape(blocks.shape)
                                + c)

    v = z = project(np.zeros_like(c))
    anderson, projections = ReferenceAnderson(z.view(np.float64).size, layout.hermitian), [z]
    for _ in range(iterations):
        y = layout.hermitian(2.0 * z - v)
        x = np.empty_like(y, order="C")
        for (cols, _), view in zip(layout.groups, layout.views(y)):
            x[:, cols] = shrink(view, threshold).reshape(len(y), -1)
        v = layout.average(anderson.step(v, w1_module.OVER_RELAX * (x - z)))
        z = project(v)
        projections.append(z)
    return projections, anderson.accepted


@pytest.mark.parametrize("pair, graded", [(frame_states(*CLI_PAIR_0, 2)[:2], True),
                                          (check5_pair(10), False)],
                         ids=["cli0_k2_graded", "check5_10_square_complex"])
def test_splitting_loop_matches_the_reference_loop(pair, graded, monkeypatch):
    # the square complex loop is run by no benchmark workload: this keeps it honest
    seen, project = [], _Layout.project

    def recording(self, blocks, c):
        seen.append((self, project(self, blocks, c)))
        return seen[-1][1]

    monkeypatch.setattr(_Layout, "project", recording)
    with pytest.raises(ConvergenceError):
        w1_exact(*pair, tol=0.0, max_iter=50)
    expected, accepted = reference_projections(*pair, 50)
    layout = seen[0][0]
    assert layout.graded == graded and np.iscomplexobj(seen[0][1]) != graded
    assert len(seen) == len(expected) == 51 and accepted > 0
    for (_, got), want in zip(seen, expected):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_anderson_raises_on_a_singular_system(monkeypatch):
    # LAPACK's dgesv reports a zero pivot by info > 0, where np.linalg.solve raises
    lapack = importlib.import_module("scipy.linalg.lapack")
    dgesv = lapack.dgesv
    assert dgesv(np.zeros((2, 2)), np.ones(2))[-1] > 0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.zeros((2, 2)), np.ones(2))
    monkeypatch.setattr(lapack, "dgesv", lambda a, b: dgesv(np.zeros_like(a), b))
    layout = _layout_of(*frame_difference(*CLI_PAIR_0, 2))
    rng = np.random.default_rng(90)
    v, g0, g1 = (rng.normal(size=(1, layout.positions.size)) for _ in range(3))
    anderson = w1_module._Anderson(g0.size, layout.hermitian)
    # no residual difference yet: the plain point, no solve
    np.testing.assert_array_equal(anderson.step(v, g0), v + g0)
    # one difference stored: the normal equations are solved, and found singular
    with pytest.raises(np.linalg.LinAlgError):
        anderson.step(v, g1)
    assert anderson.count == 1
