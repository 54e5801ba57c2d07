"""Ground-space primitives: weighted inner products, Gram matrices,
orthonormalization, Walsh families, Haar frames."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermiflow import (GroundSpace, RankDeficiencyError, gram_matrix,
                       orthonormalize, random_orthonormal, walsh_family)


def inner(f, g, space):
    """<f, g> as the off-diagonal entry of the two functions' Gram matrix."""
    return gram_matrix([f, g], space)[0, 1]


def test_inner_product_unit_constant():
    space = GroundSpace.uniform(4)
    f = np.ones(4)
    assert inner(f, f, space) == pytest.approx(1.0, abs=1e-15)


def test_inner_product_walsh_pair_orthogonal():
    space, fns = walsh_family(2)
    # sum of (+-1)(+-1) products over equal cells cancels exactly
    assert inner(fns[1], fns[2], space) == 0.0


def test_inner_product_normalized_indicator():
    space = GroundSpace((0, 1, 2), (0.2, 0.5, 0.3))
    f = np.zeros(3)
    f[1] = 0.5 ** -0.5
    assert inner(f, f, space) == pytest.approx(1.0, abs=1e-15)


def test_inner_product_conjugate_linear_in_first_slot():
    space = GroundSpace.uniform(5)
    rng = np.random.default_rng(0)
    f = rng.normal(size=5) + 1j * rng.normal(size=5)
    g = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert inner(f, g, space) == pytest.approx(np.conj(inner(g, f, space)), abs=1e-14)
    assert inner(2j * f, g, space) == pytest.approx(-2j * inner(f, g, space), abs=1e-14)


def test_inner_product_dimension_mismatch():
    space = GroundSpace.uniform(4)
    with pytest.raises(ValueError):
        gram_matrix(np.ones((2, 3)), space)


def test_gram_of_orthonormal_family_is_identity():
    fam = random_orthonormal(6, 3, 17)
    g = gram_matrix(fam.functions, fam.space)
    np.testing.assert_allclose(g, np.eye(3), atol=1e-10)


def test_gram_single_function_squared_norm():
    space = GroundSpace.uniform(4)
    c = 1.7
    g = gram_matrix([c * np.ones(4)], space)
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(c * c, abs=1e-14)


def test_gram_two_equal_unit_functions():
    space = GroundSpace.uniform(4)
    f = np.ones(4)
    g = gram_matrix([f, f], space)
    np.testing.assert_allclose(g, np.ones((2, 2)), atol=1e-14)


def test_orthonormalize_keeps_orthonormal_input():
    fam = random_orthonormal(5, 3, 23)
    redone = orthonormalize(fam.functions, fam.space)
    np.testing.assert_allclose(redone.functions, fam.functions, atol=1e-9)


def test_orthonormalize_affine_pair_unequal_weights():
    space = GroundSpace((0, 1, 2, 3), (0.1, 0.2, 0.3, 0.4))
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fam = orthonormalize([np.ones(4), x], space)
    g = gram_matrix(fam.functions, space)
    np.testing.assert_allclose(g, np.eye(2), atol=1e-12)
    # span preserved: x is a combination of the two outputs
    coeffs = [inner(f, x, space) for f in fam.functions]
    rebuilt = sum(c * f for c, f in zip(coeffs, fam.functions))
    np.testing.assert_allclose(rebuilt, x, atol=1e-12)


def test_orthonormalize_dependent_pair_raises():
    space = GroundSpace.uniform(4)
    with pytest.raises(RankDeficiencyError) as exc:
        orthonormalize([np.ones(4), 2.0 * np.ones(4)], space)
    assert exc.value.index == 1


def test_walsh_level_two_values():
    space, fns = walsh_family(2)
    assert space.n_points == 4
    np.testing.assert_array_equal(fns[0], [1, 1, 1, 1])
    np.testing.assert_array_equal(fns[1], [1, 1, -1, -1])
    np.testing.assert_array_equal(fns[2], [1, -1, -1, 1])
    np.testing.assert_array_equal(fns[3], [1, -1, 1, -1])
    # multiplicative structure
    np.testing.assert_array_equal(fns[1] * fns[2], fns[3])


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_walsh_exact_orthogonality(levels):
    space, fns = walsh_family(levels)
    ints = fns.astype(int)
    assert set(np.unique(ints)) <= {-1, 1}
    # integer dot products before weighting: exact orthogonality
    prod = ints @ ints.T
    np.testing.assert_array_equal(prod, len(space.points) * np.eye(len(fns), dtype=int))


def test_walsh_unit_norms():
    space, fns = walsh_family(3)
    for f in fns:
        assert inner(f, f, space) == pytest.approx(1.0, abs=1e-14)


def test_random_orthonormal_full_frame():
    fam = random_orthonormal(6, 6, 3)
    g = gram_matrix(fam.functions, fam.space)
    np.testing.assert_allclose(g, np.eye(6), atol=1e-10)


def test_random_orthonormal_deterministic():
    a = random_orthonormal(8, 2, 99)
    b = random_orthonormal(8, 2, 99)
    np.testing.assert_array_equal(a.functions, b.functions)


def test_random_orthonormal_cross_seed_overlap_contractive():
    a = random_orthonormal(8, 2, 1)
    b = random_orthonormal(8, 2, 2, space=a.space)
    m = gram_matrix(np.vstack([a.functions, b.functions]), a.space)[:2, 2:]
    svals = np.linalg.svd(m, compute_uv=False)
    assert np.all(svals <= 1.0 + 1e-9)
    assert np.all(svals >= 0.0)


def test_random_orthonormal_rejects_oversized_family():
    with pytest.raises(ValueError):
        random_orthonormal(3, 4, 0)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4))
def test_gram_is_hermitian_psd(seed, count):
    rng = np.random.default_rng(seed)
    space = GroundSpace.uniform(5)
    fns = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(count)]
    g = gram_matrix(fns, space)
    np.testing.assert_allclose(g, g.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(g).min() >= -1e-10
