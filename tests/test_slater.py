"""Slater states: overlap matrices, fidelity, trace distance, projection
kernels, amplitudes, and the tiny-scale state-vector oracle."""

import numpy as np
import pytest

from fermiflow import (DensityOperator, EnumerationCapError, MixedKernelSpec,
                       OrthonormalFamily, OverlapMatrix, full_state_vector, orthonormalize,
                       overlap_determinant, overlap_matrix, random_orthonormal,
                       reduced_density_matrix, slater_fidelity,
                       slater_state_vector, trace_distance_slater, walsh_family)

# frozen: prod_{i=1..20} (1 - 2^-i), squared
DET_PROD_20 = 0.28878837049656664
FIDELITY_20 = 0.08339872293406224


def unitary(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_overlap_with_self_is_identity():
    fam = random_orthonormal(6, 3, 5)
    m = overlap_matrix(fam, fam)
    np.testing.assert_allclose(m.entries, np.eye(3), atol=1e-10)


def test_overlap_row_permutation():
    fam = random_orthonormal(6, 3, 6)
    perm = [2, 0, 1]
    permuted = orthonormalize(fam.functions[perm], fam.space)
    m = overlap_matrix(fam, permuted)
    expected = np.zeros((3, 3))
    for j, i in enumerate(perm):
        expected[i, j] = 1.0
    np.testing.assert_allclose(m.entries, expected, atol=1e-10)


def test_overlap_singular_values_contractive():
    a = random_orthonormal(4, 2, 11)
    b = random_orthonormal(4, 2, 12, space=a.space)
    svals = np.linalg.svd(overlap_matrix(a, b).entries, compute_uv=False)
    assert np.all(svals <= 1.0 + 1e-9)


def test_overlap_mismatched_inputs():
    a = random_orthonormal(4, 2, 1)
    b = random_orthonormal(5, 2, 1)
    with pytest.raises(ValueError):
        overlap_matrix(a, b)
    c = random_orthonormal(4, 3, 1, space=a.space)
    with pytest.raises(ValueError):
        overlap_matrix(a, c)


def test_fidelity_identity_and_zero_row():
    assert slater_fidelity(OverlapMatrix(np.eye(3))) == 1.0
    m = np.eye(3)
    m[1] = 0.0
    assert slater_fidelity(OverlapMatrix(m)) == 0.0


def test_fidelity_geometric_diagonal():
    eps = np.array([2.0 ** -i for i in range(1, 21)])
    m = OverlapMatrix(np.diag(1.0 - eps))
    assert slater_fidelity(m) == pytest.approx(FIDELITY_20, rel=1e-12)
    assert overlap_determinant(m) == pytest.approx(DET_PROD_20, rel=1e-12)


def test_trace_distance_edge_cases():
    assert trace_distance_slater(OverlapMatrix(np.eye(2))) == 0.0
    m = np.eye(2)
    m[0] = 0.0
    assert trace_distance_slater(OverlapMatrix(m)) == 1.0
    # single particle: sqrt(1 - |c|^2)
    c = 0.6
    assert trace_distance_slater(OverlapMatrix(np.array([[c]]))) == pytest.approx(0.8, abs=1e-14)


def projection_kernel(fam):
    """The rank-n projection kernel K(x, y) = sum_l conj(psi_l(x)) psi_l(y)."""
    return MixedKernelSpec(np.ones(fam.n), fam).kernel_matrix()


def amplitude(fam, points):
    """det(psi_i(x_j)) / sqrt(n!): the state vector's entry for `points`, unfolded."""
    m = fam.space.n_points
    fold = np.prod(np.sqrt(np.asarray(fam.space.weights)[list(points)]))
    return slater_state_vector(fam)[np.ravel_multi_index(points, (m,) * fam.n)] / fold


def test_projection_kernel_walsh_blocks():
    space, fns = walsh_family(2)
    fam = orthonormalize(fns[:2], space)
    k = projection_kernel(fam)
    assert np.linalg.matrix_rank(k) == 2
    expected = np.array([[2, 2, 0, 0], [2, 2, 0, 0], [0, 0, 2, 2], [0, 0, 2, 2]], dtype=float)
    np.testing.assert_allclose(k, expected, atol=1e-12)


def test_projection_kernel_full_frame_completeness():
    fam = random_orthonormal(5, 5, 2)
    k = projection_kernel(fam)
    mu = np.asarray(fam.space.weights)
    np.testing.assert_allclose(np.diag(k).real * mu, np.ones(5), atol=1e-10)
    # weight-folded, the kernel is the identity operator
    root = np.sqrt(mu)
    np.testing.assert_allclose(root[:, None] * k * root[None, :], np.eye(5), atol=1e-10)


def test_projection_kernel_idempotent_weighted():
    fam = random_orthonormal(7, 3, 8)
    k = projection_kernel(fam)
    d = np.diag(np.asarray(fam.space.weights))
    np.testing.assert_allclose(k @ d @ k, k, atol=1e-9)
    np.testing.assert_allclose(k, k.conj().T, atol=1e-12)
    assert np.sum(np.diag(k).real * np.asarray(fam.space.weights)) == pytest.approx(3.0, abs=1e-9)


def test_amplitude_repeated_point_vanishes():
    fam = random_orthonormal(5, 2, 3)
    assert abs(amplitude(fam, (2, 2))) <= 1e-12


def test_amplitude_single_particle():
    fam = random_orthonormal(4, 1, 9)
    assert amplitude(fam, (2,)) == pytest.approx(fam.functions[0][2], abs=1e-14)


def test_amplitude_antisymmetry():
    fam = random_orthonormal(6, 3, 21)
    v1 = amplitude(fam, (0, 2, 5))
    v2 = amplitude(fam, (2, 0, 5))
    assert v1 == pytest.approx(-v2, abs=1e-14)


def test_full_state_vector_normalized():
    fam = random_orthonormal(5, 2, 30)
    state = full_state_vector(fam)
    assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-10)
    vec = slater_state_vector(fam)
    assert np.vdot(vec, vec).real == pytest.approx(1.0, abs=1e-10)


def test_state_vector_overlap_matches_determinant():
    a = random_orthonormal(4, 2, 31)
    b = random_orthonormal(4, 2, 32, space=a.space)
    va = slater_state_vector(a)
    vb = slater_state_vector(b)
    det = overlap_determinant(overlap_matrix(a, b))
    assert np.vdot(va, vb) == pytest.approx(det, abs=1e-10)


def test_full_state_vector_cap():
    # the cap holds the 36 x 36 density matrix, not the 36-entry vector
    fam = random_orthonormal(6, 2, 1)
    with pytest.raises(EnumerationCapError) as exc:
        full_state_vector(fam, cap=10)
    assert exc.value.required == 36 ** 2
    assert exc.value.cap == 10


def test_full_state_vector_cap_counts_the_matrix_before_any_determinant(monkeypatch):
    # 10^5 amplitudes fit the default cap; their 10^10-entry matrix would take 160 GB
    def refuse(*args, **kwargs):
        raise AssertionError("a determinant was taken before the cap was checked")

    fam = random_orthonormal(10, 5, 2)
    monkeypatch.setattr(np.linalg, "det", refuse)
    with pytest.raises(EnumerationCapError) as exc:
        full_state_vector(fam)
    assert (exc.value.required, exc.value.cap) == (10 ** 10, 100_000)
    assert "density-matrix entries" in str(exc.value)


def test_rdm_top_level_is_state():
    fam = random_orthonormal(4, 2, 40)
    state = full_state_vector(fam)
    again = reduced_density_matrix(state, 2)
    np.testing.assert_allclose(again.matrix, state.matrix, atol=1e-12)


def test_one_particle_rdm_is_kernel_over_n():
    # rdm1[x,y] = (1/n) sqrt(mu_x mu_y) K(y,x); row index conjugates the
    # kernel's first slot
    fam = random_orthonormal(5, 2, 41)
    state = full_state_vector(fam)
    rdm1 = reduced_density_matrix(state, 1)
    k = projection_kernel(fam)
    root = np.sqrt(np.asarray(fam.space.weights))
    expected = 0.5 * np.outer(root, root) * k.conj()
    np.testing.assert_allclose(rdm1.matrix, expected, atol=1e-10)
    assert np.trace(rdm1.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_one_particle_rdm_walsh_quarters():
    space, fns = walsh_family(2)
    fam = orthonormalize(fns[:2], space)
    rdm1 = reduced_density_matrix(full_state_vector(fam), 1)
    expected = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]) / 4.0
    np.testing.assert_allclose(rdm1.matrix, expected, atol=1e-12)


def test_one_particle_rdm_spectrum():
    fam = random_orthonormal(6, 3, 42)
    rdm1 = reduced_density_matrix(full_state_vector(fam), 1)
    eigs = np.sort(np.linalg.eigvalsh(rdm1.matrix))
    np.testing.assert_allclose(eigs[-3:], np.full(3, 1.0 / 3.0), atol=1e-9)
    np.testing.assert_allclose(eigs[:-3], np.zeros(3), atol=1e-9)


def test_rdm_invalid_k():
    fam = random_orthonormal(4, 2, 1)
    state = full_state_vector(fam)
    for k in (0, 3):
        with pytest.raises(ValueError):
            reduced_density_matrix(state, k)


def test_fidelity_invariant_under_stabilizer():
    a = random_orthonormal(6, 3, 50)
    b = random_orthonormal(6, 3, 51, space=a.space)
    base = slater_fidelity(overlap_matrix(a, b))
    for seed in (0, 1):
        recombined = OrthonormalFamily(b.space, unitary(3, seed).T @ b.functions)
        value = slater_fidelity(overlap_matrix(a, recombined))
        assert value == pytest.approx(base, abs=1e-10)


def test_trace_distance_matches_state_vector_oracle():
    a = random_orthonormal(4, 2, 60)
    b = random_orthonormal(4, 2, 61, space=a.space)
    closed_form = trace_distance_slater(overlap_matrix(a, b))
    diff = full_state_vector(a).matrix - full_state_vector(b).matrix
    half_trace_norm = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
    assert closed_form == pytest.approx(half_trace_norm, abs=1e-8)


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator((2,), np.eye(2))
    with pytest.raises(ValueError):
        DensityOperator((2,), np.array([[1.5, 0.0], [0.0, -0.5]]))
