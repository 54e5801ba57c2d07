"""Determinantal point process layer: correlation minors, counting moments,
the brute-force measurement oracle, exact samplers, Bernoulli mixtures and
their Cauchy-Binet laws."""

import itertools
import math

import numpy as np
import pytest

from fermiflow import dpp
from fermiflow.bounds import weight_w
from fermiflow import (EnumerationCapError, GroundSpace, MixedKernelSpec,
                       brute_force_configuration_distribution,
                       correlation_function, coupled_sample_counts,
                       coupled_sample_pair, exact_mixed_distribution,
                       expected_count, ordered_measurement_distribution,
                       orthonormalize, random_orthonormal,
                       sample_projection_dpp, stream_generator, walsh_family)


def walsh_pair_family():
    space, fns = walsh_family(2)
    return orthonormalize(fns[:2], space)


def projection_spec(fam):
    return MixedKernelSpec(np.ones(fam.n), fam)


def test_correlation_single_point_is_diagonal():
    fam = random_orthonormal(5, 2, 1)
    k = projection_spec(fam)
    kmat = k.kernel_matrix()
    for x in range(5):
        assert correlation_function(k, [x]) == pytest.approx(kmat[x, x].real, abs=1e-12)


def test_correlation_above_rank_vanishes():
    fam = random_orthonormal(5, 2, 2)
    k = projection_spec(fam)
    assert correlation_function(k, [0, 1, 2]) == pytest.approx(0.0, abs=1e-10)


def test_correlation_past_the_nonzero_eigenvalues_is_exactly_zero():
    fam = random_orthonormal(6, 4, 12)
    spec = MixedKernelSpec(np.array([0.7, 0.0, 0.4, 0.0]), fam)
    assert correlation_function(spec, [0, 3]) > 0.0
    assert correlation_function(spec, [0, 3, 5]) == 0.0
    assert correlation_function(spec, [0, 1, 3, 5]) == 0.0
    assert correlation_function(MixedKernelSpec(np.zeros(4), fam), [2]) == 0.0


def test_correlation_walsh_cross_half():
    # kernel diagonal is 2, cross-half off-diagonal is 0, so the two-point
    # minor across halves is 2*2 - 0 = 4
    k = projection_spec(walsh_pair_family())
    assert correlation_function(k, [0, 2]) == pytest.approx(4.0, abs=1e-12)
    # same half: rows proportional, determinant 0
    assert correlation_function(k, [0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_correlation_rejects_repeats():
    fam = random_orthonormal(4, 2, 3)
    with pytest.raises(ValueError):
        correlation_function(projection_spec(fam), [1, 1])


def test_expected_count_whole_space_is_rank():
    fam = random_orthonormal(6, 3, 4)
    k = projection_spec(fam)
    assert expected_count(k, list(range(6))) == pytest.approx(3.0, abs=1e-10)
    assert expected_count(k, []) == 0.0


def test_expected_count_walsh_half():
    k = projection_spec(walsh_pair_family())
    assert expected_count(k, [0, 1]) == pytest.approx(1.0, abs=1e-12)


def count_covariance(spec, subset_a, subset_b):
    """Covariance of the counts in two disjoint subsets, from one- and two-point
    correlations: sum of (rho2(x, y) - rho1(x) rho1(y)) mu(x) mu(y)."""
    mu = spec.family.space.weights
    return sum((correlation_function(spec, (x, y))
                - correlation_function(spec, (x,)) * correlation_function(spec, (y,)))
               * mu[x] * mu[y] for x in subset_a for y in subset_b)


def test_count_covariance_walsh_values():
    space, fns = walsh_family(2)
    fam_01 = orthonormalize(fns[:2], space)
    fam_02 = orthonormalize(fns[[0, 2]], space)
    # adjacent quarter cells (0,1/4) and (1/4,1/2) are single grid points
    assert count_covariance(projection_spec(fam_01), [0], [1]) == pytest.approx(-0.25, abs=1e-12)
    assert count_covariance(projection_spec(fam_02), [0], [1]) == pytest.approx(0.0, abs=1e-12)
    assert count_covariance(projection_spec(fam_01), [], [1]) == 0.0


def test_count_covariance_never_positive():
    # for a determinantal kernel the covariance is -sum |K(x,y)|^2 mu(x) mu(y)
    rng = np.random.default_rng(11)
    for seed in range(10):
        fam = random_orthonormal(6, 3, 500 + seed)
        k = MixedKernelSpec(np.ones(3) if seed % 2 else rng.random(3), fam)
        pts = rng.permutation(6)
        a, b = list(pts[:2]), list(pts[2:4])
        assert count_covariance(k, a, b) <= 1e-12


def test_brute_force_total_mass_and_support():
    fam = random_orthonormal(6, 2, 6)
    dist = brute_force_configuration_distribution(fam)
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
    k = projection_spec(fam)
    mu = np.asarray(fam.space.weights)
    for pts in itertools.combinations(range(5), 2):
        target = correlation_function(k, list(pts)) * mu[list(pts)].prod()
        assert dist.inclusion_probability(pts) == pytest.approx(target, abs=1e-9)
    for x in range(5):
        target = k.kernel_matrix()[x, x].real * mu[x]
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
        kmat = projection_spec(fam).kernel_matrix()
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
        full, empty = coupled_sample_pair(ones, zeros, rng)
        assert len(full) == 2
        assert empty == ()


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


EXACT_LAW_CASES = [
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
]


@pytest.mark.parametrize("m, lambdas, weighted", EXACT_LAW_CASES)
def test_exact_law_matches_tuple_enumeration(m, lambdas, weighted):
    n = len(lambdas)
    space = weighted_space(m, 900 + m) if weighted else None
    fam = random_orthonormal(m, n, 800 + 10 * m + n, space=space)
    spec = MixedKernelSpec(np.array(lambdas), fam)
    support, probs = tuple_enumeration_law(spec)
    law = exact_mixed_distribution(spec)
    assert law.support == support
    assert np.max(np.abs(law.probs - probs)) <= 1e-12


@pytest.mark.parametrize("m, lambdas, weighted", EXACT_LAW_CASES)
def test_exact_law_matches_tuple_enumeration_in_small_blocks(monkeypatch, m, lambdas, weighted):
    # blocks of two index sets: every size with more than two sets spans
    # several blocks, whose masses must add up
    monkeypatch.setattr(dpp, "INDEX_SET_BLOCK", 2)
    test_exact_law_matches_tuple_enumeration(m, lambdas, weighted)


@pytest.mark.parametrize("lam, lam_p", [
    ([0.3, 0.7, 0.5, 0.9, 0.2], [0.3, 0.7, 0.5, 0.9, 0.2]),
    ([0.3, 0.7, 0.5, 0.9, 0.2], [0.6, 0.1, 0.5, 0.95, 0.4]),
    ([1.0, 0.0, 0.4, 1.0, 0.8, 0.5], [1.0, 0.0, 0.7, 0.6, 0.8, 0.5]),
    ([1.0, 0.0, 0.4], [0.0, 1.0, 0.4]),
    ([], []),
])
@pytest.mark.parametrize("block", [256, 3])
def test_weighted_index_sets_match_weight_w(monkeypatch, lam, lam_p, block):
    monkeypatch.setattr(dpp, "INDEX_SET_BLOCK", block)
    lam, lam_p = np.array(lam), np.array(lam_p)
    inside, outside = np.minimum(lam, lam_p), 1.0 - np.maximum(lam, lam_p)
    seen, sizes = {}, []
    for sets, weights in dpp.weighted_index_sets(inside, outside):
        assert 1 <= len(sets) <= block and sets.ndim == 2
        assert np.all(np.diff(sets, axis=1) > 0)
        sizes.append(sets.shape[1])
        for row, w in zip(sets, weights):
            key = tuple(int(i) for i in row)
            assert key not in seen
            seen[key] = w
            assert w == pytest.approx(weight_w(lam, lam_p, key), rel=1e-15)
    assert sizes == sorted(sizes)
    positive = {s for r in range(lam.size + 1)
                for s in itertools.combinations(range(lam.size), r)
                if weight_w(lam, lam_p, s) > 0.0}
    assert set(seen) == positive
    if np.all((inside > 0) | (outside > 0)):
        assert sum(seen.values()) == pytest.approx(np.prod(inside + outside), rel=1e-13)
    else:
        assert not seen


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


def refuse(what):
    def refused(*args, **kwargs):
        raise AssertionError(what)
    return refused


def test_exact_law_refuses_with_the_full_count_before_any_index_set(monkeypatch):
    # eleven eigenvalues inside (0, 1) on 11 points: C(22, 11) minors in 2,048
    # blocks, all counted before the first block is made
    spec = MixedKernelSpec(stream_generator(0, 3, 0).random(11), random_orthonormal(11, 11, 2))
    monkeypatch.setattr(dpp, "weighted_index_sets", refuse("an index set was made"))
    with pytest.raises(EnumerationCapError) as exc:
        exact_mixed_distribution(spec, cap=1000)
    assert (exc.value.required, exc.value.cap) == (math.comb(22, 11), 1000)
    assert "needs 705432 minors, cap is 1000" in str(exc.value)


@pytest.mark.parametrize("lambdas", [[0.2, 0.5, 0.7], [1.0, 1.0, 1.0], [1.0, 0.0, 0.5],
                                     [0.0, 0.0, 0.0], [1.0, 0.3, 0.0, 0.9, 1.0]])
def test_enumeration_counts_match_the_blocks(lambdas):
    lam = np.array(lambdas)
    fam = random_orthonormal(7, lam.size, 25)
    blocks = list(dpp.weighted_index_sets(lam, 1.0 - lam))
    sizes = {sets.shape[1] for sets, _ in blocks}
    configs, minors = dpp._enumeration_counts(MixedKernelSpec(lam, fam))
    assert configs == sum(math.comb(7, r) for r in sizes)
    assert minors == sum(math.comb(7, sets.shape[1]) * len(sets) for sets, _ in blocks)


# (points, eigenvalues, mixed, draws, configurations, minors, path): C configurations
# at most the draws and M minors at most ENUMERATION_CAP on both sides draw by counts
PATH_TABLE = [
    (6, 2, False, 20_000, 15, 15, "count"),
    (8, 4, True, 20_000, 163, 495, "count"),
    (12, 4, False, 200, 495, 495, "rejection"),
    (11, 11, True, 200, 2_048, 705_432, "rejection"),
    (11, 11, True, 2_000, 2_048, 705_432, "rejection"),
    (11, 11, True, 20_000, 2_048, 705_432, "count"),
    (30, 6, False, 200, 593_775, 593_775, "rejection"),
    (30, 6, False, 2_000, 593_775, 593_775, "rejection"),
]


@pytest.mark.parametrize("m, k, mixed, draws, configs, minors, path", PATH_TABLE)
def test_coupling_path_follows_the_closed_form_counts(monkeypatch, m, k, mixed, draws,
                                                      configs, minors, path):
    lam = stream_generator(0, 3, 0).random(k) if mixed else np.ones(k)
    specs = [MixedKernelSpec(lam, random_orthonormal(m, k, seed=s)) for s in (1, 2)]
    assert all(dpp._enumeration_counts(spec) == (configs, minors) for spec in specs)
    # each path names itself at its first step
    monkeypatch.setattr(dpp, "exact_mixed_distribution", refuse("count"))
    monkeypatch.setattr(dpp, "_rejection_coupling", refuse("rejection"))
    with pytest.raises(AssertionError) as exc:
        coupled_sample_counts(*specs, draws, stream_generator(5, 7))
    assert str(exc.value) == path


def test_rejection_path_builds_each_kernel_once(monkeypatch):
    # 200 draws over C(12, 4) = 495 configurations per law take the rejection
    # path, which meets many configurations and folds each spec's kernel once
    specs = [projection_spec(random_orthonormal(12, 4, seed=s)) for s in (1, 2)]
    built = []
    kernel_matrix = MixedKernelSpec.kernel_matrix

    def counting(self):
        built.append(self)
        return kernel_matrix(self)

    monkeypatch.setattr(MixedKernelSpec, "kernel_matrix", counting)
    support, _, _ = coupled_sample_counts(*specs, 200, stream_generator(5, 7))
    assert len(support) > 2
    assert len(built) == 2 and {id(s) for s in built} == {id(s) for s in specs}


def test_rejection_path_enumerates_no_law(monkeypatch):
    spec_a, spec_b = (projection_spec(random_orthonormal(12, 4, seed=s)) for s in (1, 2))
    monkeypatch.setattr(dpp, "exact_mixed_distribution", refuse("a law was enumerated"))
    support, counts, _ = coupled_sample_counts(spec_a, spec_b, 200, stream_generator(5, 7))
    assert counts.sum(axis=1).tolist() == [200, 200]
    assert all(len(c) == 4 for c in support)


def test_count_path_draws_no_sample(monkeypatch):
    spec_a, spec_b = coupling_pair("mixed")
    monkeypatch.setattr(dpp, "sample_projection_dpp", refuse("a configuration was sampled"))
    support, counts, _ = coupled_sample_counts(spec_a, spec_b, 20_000, stream_generator(5, 7))
    assert counts.sum(axis=1).tolist() == [20_000, 20_000]


def test_coupled_pair_identical_specs():
    fam = random_orthonormal(5, 2, 14)
    spec = MixedKernelSpec(np.array([0.7, 0.6]), fam)
    rng = stream_generator(103, 0)
    for _ in range(50):
        a, b = coupled_sample_pair(spec, spec, rng)
        assert a == b


def test_coupled_pair_index_mismatch_rate():
    fam = random_orthonormal(5, 2, 15)
    spec_a = MixedKernelSpec(np.array([1.0, 0.8]), fam)
    spec_b = MixedKernelSpec(np.array([1.0, 0.5]), fam)
    rng = stream_generator(104, 0)
    draws = 4000
    mismatch = 0
    for _ in range(draws):
        a, b = coupled_sample_pair(spec_a, spec_b, rng)
        mismatch += len(a) != len(b)
    # P(sizes differ) = |0.8 - 0.5|; four standard errors around it
    rate = mismatch / draws
    se = math.sqrt(0.3 * 0.7 / draws)
    assert abs(rate - 0.3) <= 4 * se


def test_coupled_counts_identical_specs():
    # 10 draws are fewer than either law's configurations (42 for the mixed
    # spec, C(6, 2) = 15 for the projection), so the second half runs the
    # rejection path; so does every single draw of coupled_sample_pair
    mixed = MixedKernelSpec(np.array([0.7, 0.6, 0.9]), random_orthonormal(6, 3, 19))
    projection = MixedKernelSpec(np.ones(2), random_orthonormal(6, 2, 18))
    for spec in (mixed, projection):
        for draws in (2000, 10):
            support, counts, disagreements = coupled_sample_counts(
                spec, spec, draws, stream_generator(107, 0))
            assert disagreements == 0
            assert counts.sum(axis=1).tolist() == [draws, draws]
            assert np.array_equal(counts[0], counts[1])
            assert support == tuple(sorted(support, key=lambda c: (len(c), c)))
    rng = stream_generator(106, 0)
    assert all(a == b for a, b in (coupled_sample_pair(projection, projection, rng)
                                   for _ in range(50)))


def test_coupled_counts_index_mismatch_rate():
    # same functions, eigenvalues (1, 0.8) against (1, 0.5): the index sets
    # differ exactly when a keeps both and b only the first, so every
    # two-point configuration is at least as frequent under a, and the
    # surplus counts the mismatched draws, |0.8 - 0.5| of them on average
    fam = random_orthonormal(5, 2, 15)
    spec_a = MixedKernelSpec(np.array([1.0, 0.8]), fam)
    spec_b = MixedKernelSpec(np.array([1.0, 0.5]), fam)
    draws = 4000
    support, counts, disagreements = coupled_sample_counts(spec_a, spec_b, draws,
                                                           stream_generator(108, 0))
    pairs = np.array([len(c) == 2 for c in support])
    assert np.all(counts[0, pairs] >= counts[1, pairs])
    surplus = (counts[0, pairs] - counts[1, pairs]).sum()
    se = math.sqrt(0.3 * 0.7 / draws)
    assert abs(surplus / draws - 0.3) <= 4 * se
    # under the maximal coupling a pair differs only when a draws two points and b one
    assert disagreements == surplus


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


def coupling_pair(kind):
    fam_a = random_orthonormal(6, 3, 23)
    fam_b = random_orthonormal(6, 3, 24, space=fam_a.space)
    if kind == "projection":
        return projection_spec(fam_a), projection_spec(fam_b)
    return (MixedKernelSpec(np.array([0.9, 0.4, 0.7]), fam_a),
            MixedKernelSpec(np.array([0.5, 0.8, 1.0]), fam_b))


@pytest.mark.parametrize("kind", ["projection", "mixed"])
@pytest.mark.parametrize("cap", [dpp.ENUMERATION_CAP, 10])
def test_coupled_counts_disagreements_estimate_tv(kind, cap, monkeypatch):
    # C(6, 3) = 20 minors or more per law: held to a minor cap of 10, the
    # coupling takes the rejection path and enumerates no law
    spec_a, spec_b = coupling_pair(kind)
    laws = [exact_mixed_distribution(spec).as_dict() for spec in (spec_a, spec_b)]
    tv = 0.5 * sum(abs(laws[0].get(c, 0.0) - laws[1].get(c, 0.0))
                   for c in set(laws[0]) | set(laws[1]))
    draws = 4000
    monkeypatch.setattr(dpp, "ENUMERATION_CAP", cap)
    if cap == 10:
        monkeypatch.setattr(dpp, "exact_mixed_distribution", refuse("a law was enumerated"))
    support, counts, disagreements = coupled_sample_counts(
        spec_a, spec_b, draws, stream_generator(110, 0))
    assert abs(disagreements / draws - tv) <= 4 * math.sqrt(tv * (1 - tv) / draws)
    for law, row in zip(laws, counts):
        assert row.sum() == draws
        assert set(c for c, k in zip(support, row) if k) <= set(law)
        for config, k in zip(support, row):
            p = law.get(config, 0.0)
            assert abs(k / draws - p) <= 5 * math.sqrt(p * (1 - p) / draws) + 1e-12


@pytest.mark.parametrize("kind", ["projection", "mixed"])
def test_configuration_probability_matches_exact_law(kind):
    for spec in coupling_pair(kind):
        law = exact_mixed_distribution(spec).as_dict()
        root = np.sqrt(spec.family.space.weights)
        kernel = root[:, None] * spec.kernel_matrix() * root
        for r in range(7):
            for config in itertools.combinations(range(6), r):
                assert dpp._configuration_probability(kernel, config) == pytest.approx(
                    law.get(config, 0.0), abs=1e-12)


def test_enumeration_cap_error_payload():
    fam = random_orthonormal(6, 3, 16)
    with pytest.raises(EnumerationCapError) as exc:
        brute_force_configuration_distribution(fam, cap=100)
    assert exc.value.required == 216
    assert exc.value.cap == 100
