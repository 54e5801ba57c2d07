import numpy as np
import pytest
from fractions import Fraction

from fermiflow import (OrthonormalFamily, OverlapMatrix, example_gap_table,
                       overlap_matrix, random_orthonormal, stabilizer_max_overlap,
                       rdm_monotonicity_check, stabilizer_max_overlap_ascent,
                       trace_distance_slater, w1_lower_slater, w1_upper_slater)

# frozen: 1 - (1 - 2^-20)/20 in exact rationals, then to float
STAB_DIAG_20 = float(1 - (1 - Fraction(1, 2 ** 20)) / 20)
# frozen: prod_{i<=20}(1 - 2^-i)
DET_PROD_20 = 0.28878837049656664


def haar_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_contraction(n, seed):
    # submatrix of a larger unitary: singular values in [0, 1]
    u = haar_unitary(2 * n, seed)
    return OverlapMatrix(u[:n, :n])


def test_stabilizer_identity():
    assert stabilizer_max_overlap(OverlapMatrix(np.eye(4))) == pytest.approx(1.0, abs=1e-12)


def test_stabilizer_permutation_absorbed():
    p = np.zeros((3, 3))
    p[0, 2] = p[1, 0] = p[2, 1] = 1.0
    assert stabilizer_max_overlap(OverlapMatrix(p)) == pytest.approx(1.0, abs=1e-12)


def test_stabilizer_geometric_diagonal():
    eps = np.array([2.0 ** -i for i in range(1, 21)])
    m = OverlapMatrix(np.diag(1.0 - eps))
    assert stabilizer_max_overlap(m) == pytest.approx(STAB_DIAG_20, rel=1e-12)


def test_stabilizer_unitary_invariance():
    m = random_contraction(4, 7)
    base = stabilizer_max_overlap(m)
    for seed in (0, 1, 2):
        a = haar_unitary(4, 10 + seed)
        b = haar_unitary(4, 20 + seed)
        rotated = OverlapMatrix(a.conj().T @ m.entries @ b)
        assert stabilizer_max_overlap(rotated) == pytest.approx(base, abs=1e-10)


def test_w1_upper_edge_cases():
    assert w1_upper_slater(OverlapMatrix(np.eye(3))) == pytest.approx(0.0, abs=1e-9)
    c = 0.6
    assert w1_upper_slater(OverlapMatrix(np.array([[c]]))) == pytest.approx(0.8, abs=1e-12)
    assert w1_upper_slater(OverlapMatrix(np.zeros((3, 3)))) == pytest.approx(3.0, abs=1e-12)


def test_single_particle_bounds_coincide():
    for c in (0.0, 0.3, 0.99):
        m = OverlapMatrix(np.array([[c]]))
        assert w1_upper_slater(m) == pytest.approx(trace_distance_slater(m), abs=1e-12)


def test_bound_chain_random_instances():
    # trace <= w1_upper <= n * trace
    for i in range(50):
        n = 2 + i % 4
        m = random_contraction(n, 100 + i)
        lower = trace_distance_slater(m)
        mid = w1_upper_slater(m)
        assert lower <= mid + 1e-9
        assert mid <= n * lower + 1e-9


@pytest.mark.parametrize("m, n, seed", [(4, 2, 5_000), (5, 2, 5_002), (5, 3, 5_004)])
def test_lower_bound_is_n_times_the_one_site_distance(m, n, seed):
    a = random_orthonormal(m, n, seed=seed)
    b = random_orthonormal(m, n, seed=seed + 1)
    overlap = overlap_matrix(a, b)
    # the one-site distance is the trace distance of P_a / n and P_b / n
    (k, one_site), *_ = rdm_monotonicity_check(a, b, dim_cap=125)
    assert k == 1
    assert w1_lower_slater(overlap) == pytest.approx(n * one_site, abs=1e-12)
    assert w1_lower_slater(overlap) < w1_upper_slater(overlap)


def test_lower_and_upper_bounds_meet_at_equal_angles():
    for n in (1, 3):
        for c in (0.0, 0.6, 1.0):
            m = OverlapMatrix(c * np.eye(n))
            expected = n * np.sqrt(1.0 - c * c)
            assert w1_lower_slater(m) == pytest.approx(expected, abs=1e-12)
            assert w1_upper_slater(m) == pytest.approx(expected, abs=1e-12)
    # unequal angles: a strict Jensen gap
    m = OverlapMatrix(np.diag([1.0, 0.0]))
    assert (w1_lower_slater(m), w1_upper_slater(m)) == pytest.approx((1.0, np.sqrt(3.0)))


def test_ascent_oracle_matches_svd():
    rng = np.random.default_rng(2024)
    for i in range(10):
        m = random_contraction(2 + i % 5, 300 + i)
        closed = stabilizer_max_overlap(m)
        iterated = stabilizer_max_overlap_ascent(m, rng)
        assert iterated == pytest.approx(closed, abs=1e-8)


def test_report_self_is_all_zero():
    fam = random_orthonormal(6, 3, 1)
    m = overlap_matrix(fam, fam)
    assert trace_distance_slater(m) == pytest.approx(0.0, abs=1e-9)
    assert w1_upper_slater(m) == pytest.approx(0.0, abs=1e-7)
    assert stabilizer_max_overlap(m) == pytest.approx(1.0, abs=1e-10)


def test_report_invariant_under_recombination():
    a = random_orthonormal(6, 3, 2)
    b = OrthonormalFamily(a.space, haar_unitary(3, 5).T @ a.functions)
    m = overlap_matrix(a, b)
    assert trace_distance_slater(m) == pytest.approx(0.0, abs=1e-8)
    assert w1_upper_slater(m) == pytest.approx(0.0, abs=1e-4)


def test_report_chain_fields():
    # trace <= w1_upper <= n * trace on one pair of determinant states, the
    # stabilizer overlap being the mean singular value of the overlap matrix
    a = random_orthonormal(6, 3, 3)
    b = random_orthonormal(6, 3, 4, space=a.space)
    m = overlap_matrix(a, b)
    trace = trace_distance_slater(m)
    upper = w1_upper_slater(m)
    assert m.n == 3
    assert trace <= upper + 1e-9
    assert upper <= 3 * trace + 1e-9
    assert len(m.singular_values) == 3
    assert stabilizer_max_overlap(m) == pytest.approx(sum(m.singular_values) / 3, abs=1e-12)


def test_gap_table_frozen_columns():
    table = example_gap_table(20)
    last = table[-1]
    assert last.n == 20
    assert last.determinant == pytest.approx(DET_PROD_20, abs=1e-9)
    mean_overlap = float(1 - (1 - Fraction(1, 2 ** 20)) / 20)
    assert last.mean_overlap == pytest.approx(mean_overlap, abs=1e-12)
    # the divergence the construction exists to show
    assert last.w1_upper_over_n < 0.33
    assert last.trace_distance > 0.95


def test_gap_table_structure():
    table = example_gap_table(6)
    assert [row.n for row in table] == [1, 2, 3, 4, 5, 6]
    dets = [row.determinant for row in table]
    assert all(a > b for a, b in zip(dets, dets[1:]))
    for row in table:
        assert row.trace_distance == pytest.approx(
            np.sqrt(1.0 - row.determinant ** 2), abs=1e-12)
    # single particle: both distance columns agree
    first = table[0]
    assert first.w1_upper_over_n == pytest.approx(first.trace_distance, abs=1e-12)
