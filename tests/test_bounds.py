"""Distance bounds for determinantal laws: projection and mixture right-hand
sides, the free-index cap, exact verification reports, the Walsh exhibit."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermiflow import bounds, dpp, transport
from fermiflow._rng import stream_generator
from fermiflow import (ConfigurationDistribution, CostMatrix, EnumerationCapError,
                       GroundSpace, MixedKernelSpec, OrthonormalFamily, OverlapMatrix,
                       count_covariance_exact, ot_cost,
                       density_transport_rhs, exact_mixed_distribution,
                       orthonormalize, overlap_matrix, random_orthonormal,
                       total_variation, trace_distance_slater, tv_bound_general,
                       verify_instance, w1_upper_slater, walsh_counterexample_report,
                       walsh_family, weight_w, wsharp_bound_general, wsharp_exact)

SQRT3 = 1.7320508075688772


def walsh_specs():
    space, fns = walsh_family(2)
    fam_01 = orthonormalize(fns[:2], space)
    fam_02 = orthonormalize(fns[[0, 2]], space)
    return (MixedKernelSpec(np.ones(2), fam_01),
            MixedKernelSpec(np.ones(2), fam_02))


def haar_spec_pair(dim, n, seed):
    a = random_orthonormal(dim, n, seed)
    b = random_orthonormal(dim, n, seed + 1, space=a.space)
    return MixedKernelSpec(np.ones(n), a), MixedKernelSpec(np.ones(n), b)


def test_projection_bounds_identity():
    m = OverlapMatrix(np.eye(3))
    assert trace_distance_slater(m) == 0.0
    assert w1_upper_slater(m) == pytest.approx(0.0, abs=1e-7)


def test_projection_bounds_walsh_pair():
    spec_a, spec_b = walsh_specs()
    m = overlap_matrix(spec_a.family, spec_b.family)
    # overlap matrix has singular values 1 and 0: determinant term dies,
    # mean overlap is 1/2
    assert trace_distance_slater(m) == pytest.approx(1.0, abs=1e-12)
    assert w1_upper_slater(m) == pytest.approx(SQRT3, abs=1e-12)


def test_projection_bounds_single_index():
    c = 0.8
    m = OverlapMatrix(np.array([[c]]))
    assert trace_distance_slater(m) == pytest.approx(0.6, abs=1e-12)
    assert w1_upper_slater(m) == pytest.approx(0.6, abs=1e-12)


def test_wsharp_bound_dominated_by_n_times_tv_bound():
    for seed in range(20):
        spec_a, spec_b = haar_spec_pair(6, 3, 900 + 2 * seed)
        m = overlap_matrix(spec_a.family, spec_b.family)
        assert w1_upper_slater(m) <= 3 * trace_distance_slater(m) + 1e-9


def test_weight_full_support():
    assert weight_w([1.0, 1.0], [1.0, 1.0], [0, 1]) == 1.0
    assert weight_w([0.0, 1.0], [0.5, 1.0], [0, 1]) == 0.0
    assert weight_w([], [], []) == 1.0


def test_weight_equal_lists_normalize():
    rng = np.random.default_rng(5)
    lam = rng.random(10)
    total = sum(weight_w(lam, lam, subset)
                for r in range(11)
                for subset in itertools.combinations(range(10), r))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_weight_rejects_out_of_range():
    with pytest.raises(ValueError):
        weight_w([1.2], [0.5], [])
    with pytest.raises(ValueError):
        weight_w([0.5], [-0.1], [])


@settings(deadline=None, derandomize=True, max_examples=30)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
def test_weight_sums_to_subprobability(seed, count):
    rng = np.random.default_rng(seed)
    lam = rng.random(count)
    lam_p = rng.random(count)
    total = sum(weight_w(lam, lam_p, subset)
                for r in range(count + 1)
                for subset in itertools.combinations(range(count), r))
    assert total <= 1.0 + 1e-12
    assert total >= -1e-12


def test_general_bounds_identical_specs():
    fam = random_orthonormal(5, 2, 30)
    spec = MixedKernelSpec(np.array([1.0, 1.0]), fam)
    # sqrt(1 - x^2) turns determinant roundoff of ~1e-16 into ~1e-8
    assert tv_bound_general(spec, spec) == pytest.approx(0.0, abs=1e-7)
    assert wsharp_bound_general(spec, spec) == pytest.approx(0.0, abs=1e-7)


def test_general_bounds_reduce_to_projection():
    spec_a, spec_b = haar_spec_pair(6, 3, 31)
    m = overlap_matrix(spec_a.family, spec_b.family)
    assert tv_bound_general(spec_a, spec_b) == pytest.approx(
        trace_distance_slater(m), abs=1e-12)
    assert wsharp_bound_general(spec_a, spec_b) == pytest.approx(
        w1_upper_slater(m), abs=1e-12)


def test_general_tv_bound_dropped_eigenvalue():
    # lambda (1,1) versus (1,0) on the same family: eigenvalue terms give
    # 1, every subset weight vanishes
    fam = random_orthonormal(5, 2, 32)
    spec_a = MixedKernelSpec(np.array([1.0, 1.0]), fam)
    spec_b = MixedKernelSpec(np.array([1.0, 0.0]), fam)
    assert tv_bound_general(spec_a, spec_b) == 1.0


def test_general_wsharp_single_index():
    a = random_orthonormal(4, 1, 33)
    b = random_orthonormal(4, 1, 34, space=a.space)
    c = abs(overlap_matrix(a, b).entries[0, 0])
    spec_a = MixedKernelSpec(np.ones(1), a)
    spec_b = MixedKernelSpec(np.ones(1), b)
    assert wsharp_bound_general(spec_a, spec_b) == pytest.approx(
        math.sqrt(1 - c * c), abs=1e-12)


def subset_definition_bounds(spec_a, spec_b):
    """Both general bounds summed subset by subset, straight from their definition."""
    lam, lam_p = spec_a.lambdas, spec_b.lambdas
    cross = spec_a.family.folded().conj().T @ spec_b.family.folded()
    tv = ws = 0.0
    for r in range(1, lam.size + 1):
        for subset in itertools.combinations(range(lam.size), r):
            minor = OverlapMatrix(cross[np.ix_(subset, subset)])
            w = weight_w(lam, lam_p, subset)
            tv += w * trace_distance_slater(minor)
            ws += w * w1_upper_slater(minor)
    mismatch = float(np.abs(lam - lam_p).sum())
    head = (2.0 + lam.sum() + lam_p.sum()) * math.sqrt(mismatch)
    return mismatch + tv, head + ws


@pytest.mark.parametrize("lam, lam_p", [
    ([0.3, 0.7, 0.5, 0.9], [0.3, 0.7, 0.5, 0.9]),
    ([0.3, 0.7, 0.5, 0.9], [0.6, 0.2, 0.5, 0.95]),
    ([1.0, 0.0, 0.4, 1.0, 0.8], [1.0, 0.0, 0.4, 1.0, 0.8]),
    ([1.0, 0.0, 0.4, 1.0, 0.8], [0.5, 0.3, 0.4, 1.0, 0.0]),
    ([1.0, 1.0, 0.2, 0.6, 0.9, 0.1], [0.7, 1.0, 0.25, 0.6, 0.8, 0.3]),
])
@pytest.mark.parametrize("small_blocks", [False, True])
def test_general_bounds_match_subset_definition(monkeypatch, lam, lam_p, small_blocks):
    if small_blocks:
        # blocks of three index sets: most sizes span several blocks, whose sums add up
        monkeypatch.setattr(dpp, "INDEX_SET_BLOCK", 3)
    n = len(lam)
    fam = random_orthonormal(n + 2, n, 60 + n)
    fam_b = random_orthonormal(n + 2, n, 61 + n, space=fam.space)
    spec_a = MixedKernelSpec(np.array(lam), fam)
    spec_b = MixedKernelSpec(np.array(lam_p), fam_b)
    tv, ws = subset_definition_bounds(spec_a, spec_b)
    assert tv_bound_general(spec_a, spec_b) == pytest.approx(tv, abs=1e-12)
    assert wsharp_bound_general(spec_a, spec_b) == pytest.approx(ws, abs=1e-12)


def test_general_bounds_refuse_past_the_free_index_cap(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("minor evaluated before the free-index cap was checked")

    fam = random_orthonormal(6, 4, 65)
    fam_b = random_orthonormal(6, 4, 66, space=fam.space)
    # index 0 is in every set of positive weight and index 3 in none: 2 free
    two_free = (MixedKernelSpec(np.array([1.0, 0.4, 0.7, 0.0]), fam),
                MixedKernelSpec(np.array([1.0, 0.6, 0.2, 0.3]), fam_b))
    three_free = (MixedKernelSpec(np.array([0.9, 0.4, 0.7, 0.0]), fam),
                  MixedKernelSpec(np.array([0.8, 0.6, 0.2, 0.3]), fam_b))
    monkeypatch.setattr(bounds, "SUBSET_CAP", 2)
    expected = subset_definition_bounds(*two_free)
    assert tv_bound_general(*two_free) == pytest.approx(expected[0], abs=1e-12)
    assert wsharp_bound_general(*two_free) == pytest.approx(expected[1], abs=1e-12)
    monkeypatch.setattr(bounds, "_fidelities", unreachable)
    monkeypatch.setattr(bounds, "_mean_overlaps", unreachable)
    monkeypatch.setattr(bounds, "weighted_index_sets", unreachable)
    for bound in (tv_bound_general, wsharp_bound_general):
        with pytest.raises(ValueError, match="3 free indices, cap is 2"):
            bound(*three_free)


def test_general_bounds_of_a_22_index_projection_pair():
    spec_a, spec_b = haar_spec_pair(24, 22, 67)
    m = overlap_matrix(spec_a.family, spec_b.family)
    assert tv_bound_general(spec_a, spec_b) == trace_distance_slater(m)
    assert wsharp_bound_general(spec_a, spec_b) == w1_upper_slater(m)


def test_general_bounds_ignore_indices_dead_on_both_sides():
    # 21 indices, 18 of them with eigenvalue 0 on both sides: the bounds are
    # those of the pair restricted to the other 3
    rng = np.random.default_rng(68)
    fam = random_orthonormal(23, 21, 69)
    fam_b = random_orthonormal(23, 21, 70, space=fam.space)
    live = np.array([2, 9, 17])
    lam, lam_p = np.zeros(21), np.zeros(21)
    lam[live], lam_p[live] = rng.random(3), rng.random(3)
    whole = (MixedKernelSpec(lam, fam), MixedKernelSpec(lam_p, fam_b))
    part = (MixedKernelSpec(lam[live], OrthonormalFamily(fam.space, fam.functions[live])),
            MixedKernelSpec(lam_p[live], OrthonormalFamily(fam.space, fam_b.functions[live])))
    for bound in (tv_bound_general, wsharp_bound_general):
        assert bound(*whole) == pytest.approx(bound(*part), abs=1e-12)


def test_specs_of_different_index_counts_are_refused():
    fam = random_orthonormal(6, 3, 71)
    fam_b = random_orthonormal(6, 4, 72, space=fam.space)
    spec_a = MixedKernelSpec(np.full(3, 0.5), fam)
    spec_b = MixedKernelSpec(np.full(4, 0.5), fam_b)
    for entry in (tv_bound_general, wsharp_bound_general, verify_instance):
        with pytest.raises(ValueError, match="specs must share an index set, got 3 and 4"):
            entry(spec_a, spec_b)


@pytest.mark.parametrize("space_b", [GroundSpace(tuple(range(4)), np.array([0.1, 0.2, 0.3, 0.4])),
                                     GroundSpace.uniform(5)], ids=["weights", "points"])
def test_specs_on_different_ground_spaces_are_refused(monkeypatch, space_b):
    def unreachable(*args, **kwargs):
        raise AssertionError("work done before the ground spaces were compared")

    spec_a = MixedKernelSpec(np.ones(2), random_orthonormal(4, 2, 73))
    spec_b = MixedKernelSpec(np.ones(2), random_orthonormal(space_b.n_points, 2, 74,
                                                            space=space_b))
    for name in ("exact_mixed_distribution", "weighted_index_sets", "check_subset_graph"):
        monkeypatch.setattr(bounds, name, unreachable)
    monkeypatch.setattr(dpp, "exact_mixed_distribution", unreachable)
    monkeypatch.setattr(dpp, "sample_projection_dpp", unreachable)
    for entry in (tv_bound_general, wsharp_bound_general, verify_instance,
                  lambda a, b: dpp.coupled_sample_counts(a, b, 10, stream_generator(0))):
        with pytest.raises(ValueError, match="specs live on different ground spaces"):
            entry(spec_a, spec_b)
    # the cross overlap of the bounds makes the same check
    with pytest.raises(ValueError, match="families live on different ground spaces"):
        bounds._general_bound(spec_a, spec_b, np.abs)


def test_exact_mode_enforces_the_law_cap_before_any_bound(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("bound computed before the law cap was checked")

    monkeypatch.setattr(bounds, "tv_bound_general", unreachable)
    monkeypatch.setattr(bounds, "wsharp_bound_general", unreachable)
    rng = np.random.default_rng(62)
    fam = random_orthonormal(7, 4, 63)
    fam_b = random_orthonormal(7, 4, 64, space=fam.space)
    spec_a = MixedKernelSpec(rng.random(4), fam)
    spec_b = MixedKernelSpec(rng.random(4), fam_b)
    with pytest.raises(EnumerationCapError):
        verify_instance(spec_a, spec_b, mode="exact", enumeration_cap=50)


def test_precheck_counts_the_band_the_subset_graph_builds(monkeypatch):
    # 22 of 26 points: the band above has 119,600 arcs, the one below 657,800,
    # past the variable cap; the pre-check passes and the law cap refuses next
    bands = []
    monkeypatch.setattr(bounds, "check_subset_graph",
                        lambda *args: bands.append(transport.check_subset_graph(*args)))
    fam = random_orthonormal(26, 22, 65)
    fam_b = random_orthonormal(26, 22, 66, space=fam.space)
    specs = [MixedKernelSpec(np.ones(22), f) for f in (fam, fam_b)]
    with pytest.raises(EnumerationCapError):
        verify_instance(*specs, mode="exact", enumeration_cap=50)
    assert bands == [(22, 23)]


def test_wsharp_exact_point_masses():
    da = ConfigurationDistribution([(0, 1)], [1.0])
    db = ConfigurationDistribution([(2, 3)], [1.0])
    assert wsharp_exact(da, da) == 0.0
    # disjoint pairs: symmetric difference 4, halved
    assert wsharp_exact(da, db) == pytest.approx(2.0, abs=1e-12)


def test_verify_instance_identical_specs():
    fam = random_orthonormal(5, 2, 40)
    spec = MixedKernelSpec(np.ones(2), fam)
    report = verify_instance(spec, spec)
    assert report.mode == "exact"
    assert report.tv_value == pytest.approx(0.0, abs=1e-10)
    assert report.wsharp_value == pytest.approx(0.0, abs=1e-10)
    assert report.tv_slack == pytest.approx(report.tv_bound, abs=1e-9)
    assert report.tv_ci is None and report.wsharp_ci is None


def test_verify_instance_walsh_exact_values():
    spec_a, spec_b = walsh_specs()
    report = verify_instance(spec_a, spec_b)
    assert report.tv_value == pytest.approx(0.5, abs=1e-12)
    assert report.wsharp_value == pytest.approx(0.5, abs=1e-12)
    assert report.tv_bound == pytest.approx(1.0, abs=1e-12)
    assert report.wsharp_bound == pytest.approx(SQRT3, abs=1e-12)
    assert report.tv_slack >= 0 and report.wsharp_slack >= 0
    assert (report.n_indices, report.n_points) == (2, 4)


def test_verify_instance_empirical_mode():
    spec_a, spec_b = haar_spec_pair(5, 2, 41)
    report = verify_instance(spec_a, spec_b, mode="empirical", budget=600,
                             seed=7, bootstrap_resamples=200)
    assert report.mode == "empirical"
    assert report.sample_count == 600
    assert report.seed == 7
    lo, hi = report.tv_ci
    assert lo <= report.tv_value <= hi
    lo, hi = report.wsharp_ci
    assert lo <= report.wsharp_value <= hi
    # empirical reruns with the same seed reproduce bit for bit
    again = verify_instance(spec_a, spec_b, mode="empirical", budget=600,
                            seed=7, bootstrap_resamples=200)
    assert again.tv_value == report.tv_value
    assert again.tv_ci == report.tv_ci


def test_bootstrap_resamples_equal_one_draw_per_row(monkeypatch):
    # one multinomial call over both rows draws what one call per resample and
    # row drew from the same stream, bit for bit
    captured = []
    solve = bounds.metric_transport_values

    def capture(p_rows, q_rows, graph):
        captured.append((p_rows, q_rows))
        return solve(p_rows, q_rows, graph)

    monkeypatch.setattr(bounds, "metric_transport_values", capture)
    spec_a, spec_b = haar_spec_pair(5, 2, 41)
    verify_instance(spec_a, spec_b, mode="empirical", budget=600, seed=7,
                    bootstrap_resamples=50)
    [(p_rows, q_rows)] = captured
    boot = stream_generator(7, 11)
    loop = np.array([[boot.multinomial(600, row) for row in (p_rows[0], q_rows[0])]
                     for _ in range(50)]) / 600
    np.testing.assert_array_equal(p_rows[1:], loop[:, 0])
    np.testing.assert_array_equal(q_rows[1:], loop[:, 1])


def test_verify_instance_empirical_identical_specs_at_any_cap():
    # C(6, 2) = 15 configurations: 2,000 draws come from the enumerated laws,
    # 10 by rejection; the maximal coupling never separates the two
    spec, _ = haar_spec_pair(6, 2, 45)
    for budget in (2000, 10):
        report = verify_instance(spec, spec, mode="empirical", budget=budget, seed=3,
                                 bootstrap_resamples=50)
        assert report.tv_value == 0.0 and report.wsharp_value == 0.0
        assert report.tv_ci[0] == 0.0


def test_verify_instance_tv_interval_is_clopper_pearson():
    from scipy.stats import binom

    spec_a, spec_b = haar_spec_pair(5, 2, 41)
    budget = 600
    report = verify_instance(spec_a, spec_b, mode="empirical", budget=budget,
                             seed=7, bootstrap_resamples=20)
    k = round(report.tv_value * budget)
    assert 0 < k < budget
    lo, hi = report.tv_ci
    # each end is the success probability at which the observed count sits
    # at the 2.5% tail of its binomial law
    assert binom.sf(k - 1, budget, lo) == pytest.approx(0.025, abs=1e-9)
    assert binom.cdf(k, budget, hi) == pytest.approx(0.025, abs=1e-9)


def test_bound_validity_small_sweep():
    for seed in range(10):
        spec_a, spec_b = haar_spec_pair(5, 2, 800 + 2 * seed)
        report = verify_instance(spec_a, spec_b)
        assert report.tv_slack >= -1e-9
        assert report.wsharp_slack >= -1e-9


def test_count_covariance_exact_walsh():
    cell = Fraction(1, 4)
    w01 = [[1, 1, 1, 1], [1, 1, -1, -1]]
    w02 = [[1, 1, 1, 1], [1, -1, -1, 1]]
    assert count_covariance_exact(w01, cell, [0], [1]) == Fraction(-1, 4)
    assert count_covariance_exact(w02, cell, [0], [1]) == Fraction(0)


def test_density_transport_rhs_walsh_is_zero():
    spec_a, spec_b = walsh_specs()
    assert density_transport_rhs(spec_a, spec_b) == 0.0


def line_spec_pair(seed):
    """Two projection specs on 2-9 points of random weights and unsorted
    coordinates, a third of them rounded to thirds so that some coincide."""
    g = stream_generator(515, seed)
    n_points = int(g.integers(2, 10))
    m = int(g.integers(1, min(4, n_points) + 1))
    coords = g.random(n_points)
    if seed % 3 == 0:
        coords = np.round(3 * coords) / 3
    space = GroundSpace(tuple(range(n_points)), 0.1 + g.random(n_points), coords)
    return tuple(MixedKernelSpec(np.ones(m), orthonormalize(
        g.normal(size=(m, n_points)) + 1j * g.normal(size=(m, n_points)), space))
        for _ in range(2))


def dense_density_rhs(spec_a, spec_b):
    """The pairing minimum from one dense `ot_cost` LP per pair of densities."""
    space = spec_a.family.space
    labels = range(space.n_points)
    cost = CostMatrix((space.coords[:, None] - space.coords[None, :]) ** 2, labels, labels)
    densities = [[dict(enumerate(np.abs(f) ** 2 * space.weights)) for f in spec.family.functions]
                 for spec in (spec_a, spec_b)]
    w2 = np.array([[math.sqrt(max(0.0, ot_cost(p, q, cost).value)) for q in densities[1]]
                   for p in densities[0]])
    return min(w2[range(len(w2)), list(perm)].sum()
               for perm in itertools.permutations(range(len(w2))))


def test_density_transport_rhs_matches_dense_reference():
    worst = 0.0
    for seed in range(100):
        spec_a, spec_b = line_spec_pair(seed)
        worst = max(worst, abs(density_transport_rhs(spec_a, spec_b)
                               - dense_density_rhs(spec_a, spec_b)))
    assert worst <= 1e-12


@pytest.mark.parametrize("m", [3, 4, 5])
def test_density_transport_rhs_pairing_is_the_best_permutation(m):
    for seed in range(5):
        space = GroundSpace(tuple(range(8)), np.full(8, 1 / 8),
                            stream_generator(516, m, seed).random(8))
        fam_a = random_orthonormal(8, m, 40 * m + 2 * seed, space=space)
        fam_b = random_orthonormal(8, m, 40 * m + 2 * seed + 1, space=space)
        single = [[MixedKernelSpec(np.ones(1), fam.subset([i])) for i in range(m)]
                  for fam in (fam_a, fam_b)]
        w2 = np.array([[density_transport_rhs(a, b) for b in single[1]] for a in single[0]])
        brute = min(w2[range(m), list(perm)].sum() for perm in itertools.permutations(range(m)))
        value = density_transport_rhs(MixedKernelSpec(np.ones(m), fam_a),
                                      MixedKernelSpec(np.ones(m), fam_b))
        assert value == pytest.approx(brute, abs=1e-14)


def test_density_transport_rhs_solves_no_lp(monkeypatch):
    calls = []
    solve = transport._min_cost_flows

    def counting(*args):
        calls.append(args)
        return solve(*args)

    def refuse(*args):
        raise AssertionError("the density-only term solved a transport LP")

    monkeypatch.setattr(transport, "_min_cost_flows", refuse)
    for seed in range(3):
        density_transport_rhs(*line_spec_pair(seed))
    assert density_transport_rhs(*walsh_specs()) == 0.0
    monkeypatch.setattr(transport, "_min_cost_flows", counting)
    # the whole Walsh report solves one LP, the exact W#
    assert walsh_counterexample_report().density_transport_rhs == 0.0
    assert len(calls) == 1


def test_walsh_counterexample_report_frozen():
    report = walsh_counterexample_report()
    assert report.covariance_adjacent_cells == Fraction(-1, 4)
    assert report.covariance_adjacent_cells_alt == Fraction(0)
    assert report.density_transport_rhs == pytest.approx(0.0, abs=1e-12)
    assert report.tv_exact == pytest.approx(0.5, abs=1e-12)
    assert report.wsharp_exact == pytest.approx(0.5, abs=1e-12)
    assert report.tv_bound == pytest.approx(1.0, abs=1e-12)
    assert report.wsharp_bound == pytest.approx(SQRT3, abs=1e-12)
    # the point of the exhibit: a vanishing right-hand side next to
    # genuinely different laws
    assert report.tv_exact > 0


def test_exact_walsh_laws_differ_only_across_families():
    spec_a, spec_b = walsh_specs()
    da = exact_mixed_distribution(spec_a)
    db = exact_mixed_distribution(spec_b)
    assert total_variation(da.as_dict(), db.as_dict()) == pytest.approx(0.5, abs=1e-12)
    assert total_variation(da.as_dict(), da.as_dict()) == 0.0
