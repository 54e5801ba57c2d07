"""Determinantal point process layer: correlation minors, counting moments,
the brute-force measurement oracle, exact samplers, Bernoulli mixtures and
their Cauchy-Binet laws."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fermiflow import (ConfigurationDistribution, EnumerationCapError,
                       GroundSpace, MixedKernelSpec,
                       brute_force_configuration_distribution,
                       correlation_function, count_covariance,
                       coupled_sample_counts, coupled_sample_pair,
                       exact_mixed_distribution,
                       expected_count, ordered_measurement_distribution,
                       orthonormalize, projection_kernel, random_orthonormal,
                       sample_mixed_dpp, sample_projection_dpp,
                       stream_generator, walsh_family)


def walsh_pair_family():
    space, fns = walsh_family(2)
    return orthonormalize(fns[:2], space)


def test_correlation_single_point_is_diagonal():
    fam = random_orthonormal(5, 2, 1)
    k = projection_kernel(fam)
    for x in range(5):
        assert correlation_function(k, [x]) == pytest.approx(k.matrix[x, x].real, abs=1e-12)


def test_correlation_above_rank_vanishes():
    fam = random_orthonormal(5, 2, 2)
    k = projection_kernel(fam)
    assert correlation_function(k, [0, 1, 2]) == pytest.approx(0.0, abs=1e-10)


def test_correlation_walsh_cross_half():
    # kernel diagonal is 2, cross-half off-diagonal is 0, so the two-point
    # minor across halves is 2*2 - 0 = 4
    k = projection_kernel(walsh_pair_family())
    assert correlation_function(k, [0, 2]) == pytest.approx(4.0, abs=1e-12)
    # same half: rows proportional, determinant 0
    assert correlation_function(k, [0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_correlation_rejects_repeats():
    fam = random_orthonormal(4, 2, 3)
    with pytest.raises(ValueError):
        correlation_function(projection_kernel(fam), [1, 1])


def test_expected_count_whole_space_is_rank():
    fam = random_orthonormal(6, 3, 4)
    k = projection_kernel(fam)
    assert expected_count(k, list(range(6))) == pytest.approx(3.0, abs=1e-10)
    assert expected_count(k, []) == 0.0


def test_expected_count_walsh_half():
    k = projection_kernel(walsh_pair_family())
    assert expected_count(k, [0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_count_covariance_walsh_values():
    space, fns = walsh_family(2)
    fam_01 = orthonormalize(fns[:2], space)
    fam_02 = orthonormalize(fns[[0, 2]], space)
    # adjacent quarter cells (0,1/4) and (1/4,1/2) are single grid points
    assert count_covariance(projection_kernel(fam_01), [0], [1]) == pytest.approx(-0.25, abs=1e-12)
    assert count_covariance(projection_kernel(fam_02), [0], [1]) == pytest.approx(0.0, abs=1e-12)
    assert count_covariance(projection_kernel(fam_01), [], [1]) == 0.0


def test_count_covariance_never_positive():
    rng = np.random.default_rng(11)
    for seed in range(10):
        fam = random_orthonormal(6, 3, 500 + seed)
        k = projection_kernel(fam)
        pts = rng.permutation(6)
        a, b = list(pts[:2]), list(pts[2:4])
        assert count_covariance(k, a, b) <= 1e-12


def test_count_covariance_rejects_overlap():
    fam = random_orthonormal(4, 2, 5)
    with pytest.raises(ValueError):
        count_covariance(projection_kernel(fam), [0, 1], [1, 2])


def test_brute_force_total_mass_and_support():
    fam = random_orthonormal(6, 2, 6)
    dist = brute_force_configuration_distribution(fam)
    assert dist.kind == "exact"
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert all(len(cfg) == 2 and cfg[0] < cfg[1] for cfg in dist.support)


def test_ordered_distribution_kills_repeats():
    fam = random_orthonormal(5, 2, 7)
    tuples, probs = ordered_measurement_distribution(fam)
    for t, pr in zip(tuples, probs):
        if len(set(t)) < len(t):
            assert pr <= 1e-20


def test_ordered_distribution_exchangeable():
    fam = random_orthonormal(5, 3, 8)
    tuples, probs = ordered_measurement_distribution(fam)
    lookup = {tuple(t): p for t, p in zip(tuples, probs)}
    base = (0, 2, 4)
    for perm in itertools.permutations(base):
        assert lookup[perm] == pytest.approx(lookup[base], abs=1e-15)


def test_inclusion_statistics_match_kernel_minors():
    fam = random_orthonormal(5, 2, 9)
    dist = brute_force_configuration_distribution(fam)
    k = projection_kernel(fam)
    mu = np.asarray(fam.space.weights)
    for pts in itertools.combinations(range(5), 2):
        target = correlation_function(k, list(pts)) * mu[list(pts)].prod()
        assert dist.inclusion_probability(pts) == pytest.approx(target, abs=1e-9)
    for x in range(5):
        target = k.matrix[x, x].real * mu[x]
        assert dist.inclusion_probability((x,)) == pytest.approx(target, abs=1e-9)


def test_permutation_sum_reduces_to_kernel_minor():
    # sum over permutations tau of det[ conj(psi_tau(i)(x_i)) psi_tau(i)(x_j) ],
    # scaled by 1/(n-m)!, against the kernel minor computed separately;
    # rows with a repeated function index vanish, so only injective
    # assignments contribute
    rng = np.random.default_rng(31)
    for trial in range(8):
        n = int(rng.integers(1, 4))
        dim = int(rng.integers(n, 7))
        m = int(rng.integers(1, n + 1))
        fam = random_orthonormal(dim, n, 700 + trial)
        pts = list(rng.choice(dim, size=m, replace=False))
        psi = fam.functions
        total = 0.0 + 0.0j
        for tau in itertools.permutations(range(n)):
            mat = np.empty((m, m), dtype=complex)
            for i in range(m):
                for j in range(m):
                    mat[i, j] = np.conj(psi[tau[i], pts[i]]) * psi[tau[i], pts[j]]
            total += np.linalg.det(mat)
        lhs = total / math.factorial(n - m)
        kmat = projection_kernel(fam).matrix
        rhs = np.linalg.det(kmat[np.ix_(pts, pts)])
        assert lhs.real == pytest.approx(rhs.real, abs=1e-9)
        assert lhs.imag == pytest.approx(rhs.imag, abs=1e-9)


def test_projection_sampler_full_frame_forced():
    fam = random_orthonormal(4, 4, 10)
    rng = stream_generator(100, 0)
    for _ in range(10):
        cfg = sample_projection_dpp(fam, rng)
        assert tuple(sorted(cfg)) == (0, 1, 2, 3)


def test_projection_sampler_cardinality_and_distinctness():
    fam = random_orthonormal(7, 3, 11)
    rng = stream_generator(101, 0)
    for _ in range(200):
        cfg = sample_projection_dpp(fam, rng)
        assert len(cfg) == 3
        assert len(set(cfg)) == 3


def test_mixed_sampler_degenerate_eigenvalues():
    fam = random_orthonormal(5, 2, 12)
    rng = stream_generator(102, 0)
    ones = MixedKernelSpec(np.ones(2), fam)
    zeros = MixedKernelSpec(np.zeros(2), fam)
    for _ in range(20):
        assert len(sample_mixed_dpp(ones, rng)) == 2
        assert sample_mixed_dpp(zeros, rng) == ()


def test_mixed_cardinality_law_is_poisson_binomial():
    lam = np.array([0.9, 0.4, 0.2])
    fam = random_orthonormal(5, 3, 13)
    dist = exact_mixed_distribution(MixedKernelSpec(lam, fam))
    by_size = {}
    for cfg, pr in zip(dist.support, dist.probs):
        by_size[len(cfg)] = by_size.get(len(cfg), 0.0) + pr
    for size in range(4):
        target = sum(
            np.prod([lam[i] if i in subset else 1 - lam[i] for i in range(3)])
            for subset in map(set, itertools.chain.from_iterable(
                itertools.combinations(range(3), r) for r in range(4)))
            if len(subset) == size)
        assert by_size.get(size, 0.0) == pytest.approx(float(target), abs=1e-12)


def tuple_enumeration_law(spec):
    """Mixed law from all 2^n index sets, each by all m^|I| ordered tuples.

    An independent route to the law of exact_mixed_distribution: Bernoulli
    weights times the brute-force oracle's law of each kept family.
    """
    acc = {(): 0.0}
    for bits in itertools.product((0, 1), repeat=spec.n_indices):
        weight = math.prod(lam if b else 1.0 - lam for lam, b in zip(spec.lambdas, bits))
        if weight <= 0.0:
            continue
        keep = [i for i, b in enumerate(bits) if b]
        if not keep:
            acc[()] += weight
            continue
        sub = brute_force_configuration_distribution(spec.family.subset(keep))
        for config, p in zip(sub.support, sub.probs):
            acc[config] = acc.get(config, 0.0) + weight * float(p)
    support = sorted(acc, key=lambda c: (len(c), c))
    probs = np.array([acc[c] for c in support])
    keep = probs > 1e-14
    return tuple(c for c, k in zip(support, keep) if k), probs[keep] / probs[keep].sum()


def weighted_space(m, seed):
    w = stream_generator(seed, 1).uniform(0.5, 2.0, size=m)
    return GroundSpace(tuple(range(m)), w / w.sum())


@pytest.mark.parametrize("m, lambdas, weighted", [
    (4, [0.4], False),
    (4, [0.0, 0.0], True),
    (4, [1.0, 1.0], True),
    (5, [0.3, 0.0, 0.8], False),
    (6, [1.0, 0.5, 0.25, 0.9], True),
    (6, [1.0, 0.0, 0.5, 1.0, 0.7, 0.0], True),
    (7, [1.0] * 5, False),
    (7, [1.0] * 6, True),
    (8, [0.2, 0.6, 0.95], True),
    (8, [0.1, 0.35, 0.5, 0.75, 0.9], False),
])
def test_exact_law_matches_tuple_enumeration(m, lambdas, weighted):
    n = len(lambdas)
    space = weighted_space(m, 900 + m) if weighted else None
    fam = random_orthonormal(m, n, 800 + 10 * m + n, space=space)
    spec = MixedKernelSpec(np.array(lambdas), fam)
    support, probs = tuple_enumeration_law(spec)
    law = exact_mixed_distribution(spec)
    assert law.support == support
    assert np.max(np.abs(law.probs - probs)) <= 1e-12


@pytest.mark.parametrize("lambdas, required", [
    ([0.2, 0.5, 0.7], math.comb(6 + 3, 3)),
    ([1.0, 1.0, 1.0], math.comb(6, 3)),
    ([1.0, 0.0, 0.5], math.comb(6, 1) + math.comb(6, 2)),
])
def test_exact_law_cap_counts_minors_before_any_determinant(monkeypatch, lambdas, required):
    spec = MixedKernelSpec(np.array(lambdas), random_orthonormal(6, 3, 17))
    real_det = np.linalg.det
    minors = []

    def counting_det(a):
        minors.append(math.prod(np.shape(a)[:-2]))
        return real_det(a)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    with pytest.raises(EnumerationCapError) as exc:
        exact_mixed_distribution(spec, cap=required - 1)
    assert exc.value.required == required
    assert exc.value.cap == required - 1
    assert minors == []
    exact_mixed_distribution(spec, cap=required)
    assert sum(minors) == required


def test_coupled_pair_identical_specs():
    fam = random_orthonormal(5, 2, 14)
    spec = MixedKernelSpec(np.array([0.7, 0.6]), fam)
    rng = stream_generator(103, 0)
    cache = {}
    for _ in range(50):
        a, b = coupled_sample_pair(spec, spec, rng, _cache=cache)
        assert a == b


def test_coupled_pair_index_mismatch_rate():
    fam = random_orthonormal(5, 2, 15)
    spec_a = MixedKernelSpec(np.array([1.0, 0.8]), fam)
    spec_b = MixedKernelSpec(np.array([1.0, 0.5]), fam)
    rng = stream_generator(104, 0)
    cache = {}
    draws = 4000
    mismatch = 0
    for _ in range(draws):
        a, b = coupled_sample_pair(spec_a, spec_b, rng, _cache=cache)
        mismatch += len(a) != len(b)
    # P(sizes differ) = |0.8 - 0.5|; four standard errors around it
    rate = mismatch / draws
    se = math.sqrt(0.3 * 0.7 / draws)
    assert abs(rate - 0.3) <= 4 * se


def test_coupled_pair_identical_specs_past_the_cap_may_differ():
    # C(6, 2) = 15 minors exceed a cap of 10: the two configurations are
    # drawn independently even for identical specs
    spec = MixedKernelSpec(np.ones(2), random_orthonormal(6, 2, 18))
    rng = stream_generator(106, 0)
    draws = [coupled_sample_pair(spec, spec, rng, cap=10) for _ in range(50)]
    assert any(a != b for a, b in draws)
    assert all(a == b for a, b in (coupled_sample_pair(spec, spec, rng, cap=15)
                                   for _ in range(50)))


def test_coupled_counts_identical_specs():
    spec = MixedKernelSpec(np.array([0.7, 0.6, 0.9]), random_orthonormal(6, 3, 19))
    support, counts, exact = coupled_sample_counts(spec, spec, 5000, stream_generator(107, 0))
    assert exact
    assert counts.sum(axis=1).tolist() == [5000, 5000]
    assert np.array_equal(counts[0], counts[1])
    assert support == tuple(sorted(support, key=lambda c: (len(c), c)))
    _, counts, exact = coupled_sample_counts(spec, spec, 5000, stream_generator(107, 0), cap=10)
    assert not exact
    assert not np.array_equal(counts[0], counts[1])


def test_coupled_counts_index_mismatch_rate():
    # same functions, eigenvalues (1, 0.8) against (1, 0.5): the index sets
    # differ exactly when a keeps both and b only the first, so every
    # two-point configuration is at least as frequent under a, and the
    # surplus counts the mismatched draws, |0.8 - 0.5| of them on average
    fam = random_orthonormal(5, 2, 15)
    spec_a = MixedKernelSpec(np.array([1.0, 0.8]), fam)
    spec_b = MixedKernelSpec(np.array([1.0, 0.5]), fam)
    draws = 4000
    support, counts, exact = coupled_sample_counts(spec_a, spec_b, draws,
                                                   stream_generator(108, 0))
    assert exact
    pairs = np.array([len(c) == 2 for c in support])
    assert np.all(counts[0, pairs] >= counts[1, pairs])
    rate = (counts[0, pairs] - counts[1, pairs]).sum() / draws
    se = math.sqrt(0.3 * 0.7 / draws)
    assert abs(rate - 0.3) <= 4 * se


def test_coupled_counts_match_exact_laws():
    fam_a = random_orthonormal(5, 3, 20)
    fam_b = random_orthonormal(5, 3, 21, space=fam_a.space)
    spec_a = MixedKernelSpec(np.array([0.9, 0.4, 0.7]), fam_a)
    spec_b = MixedKernelSpec(np.array([0.5, 0.8, 0.7]), fam_b)
    draws = 20000
    support, counts, _ = coupled_sample_counts(spec_a, spec_b, draws, stream_generator(109, 0))
    for spec, row in zip((spec_a, spec_b), counts):
        law = exact_mixed_distribution(spec).as_dict()
        assert set(c for c, k in zip(support, row) if k) <= set(law)
        for config, k in zip(support, row):
            p = law.get(config, 0.0)
            assert abs(k / draws - p) <= 5 * math.sqrt(p * (1 - p) / draws) + 1e-12


def test_from_samples_normalizes_counts():
    samples = [(0, 1), (0, 1), (2, 3), (0, 1)]
    dist = ConfigurationDistribution.from_samples(samples, seed=5)
    assert dist.kind == "empirical"
    assert dist.sample_count == 4
    assert dist.seed == 5
    assert dict(zip(dist.support, dist.probs)) == pytest.approx(
        {(0, 1): 0.75, (2, 3): 0.25})


def test_enumeration_cap_error_payload():
    fam = random_orthonormal(6, 3, 16)
    with pytest.raises(EnumerationCapError) as exc:
        brute_force_configuration_distribution(fam, cap=100)
    assert exc.value.required == 216
    assert exc.value.cap == 100
