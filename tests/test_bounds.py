"""Distance bounds for determinantal laws: projection and mixture right-hand
sides, certified truncation, exact verification reports, the Walsh exhibit."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fermiflow import (ConfigurationDistribution, MixedKernelSpec,
                       OverlapMatrix, count_covariance_exact,
                       density_transport_rhs, exact_mixed_distribution,
                       orthonormalize, overlap_matrix,
                       pair_by_descending_eigenvalue, random_orthonormal,
                       total_variation, tv_bound_general, tv_bound_projection,
                       verify_instance, walsh_counterexample_report,
                       walsh_family, weight_w, wsharp_bound_general,
                       wsharp_bound_projection, wsharp_exact)

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
    assert tv_bound_projection(m) == 0.0
    assert wsharp_bound_projection(m) == pytest.approx(0.0, abs=1e-7)


def test_projection_bounds_walsh_pair():
    spec_a, spec_b = walsh_specs()
    m = overlap_matrix(spec_a.family, spec_b.family)
    # overlap matrix has singular values 1 and 0: determinant term dies,
    # mean overlap is 1/2
    assert tv_bound_projection(m) == pytest.approx(1.0, abs=1e-12)
    assert wsharp_bound_projection(m) == pytest.approx(SQRT3, abs=1e-12)


def test_projection_bounds_single_index():
    c = 0.8
    m = OverlapMatrix(np.array([[c]]))
    assert tv_bound_projection(m) == pytest.approx(0.6, abs=1e-12)
    assert wsharp_bound_projection(m) == pytest.approx(0.6, abs=1e-12)


def test_wsharp_bound_dominated_by_n_times_tv_bound():
    for seed in range(20):
        spec_a, spec_b = haar_spec_pair(6, 3, 900 + 2 * seed)
        m = overlap_matrix(spec_a.family, spec_b.family)
        assert wsharp_bound_projection(m) <= 3 * tv_bound_projection(m) + 1e-9


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
        tv_bound_projection(m), abs=1e-12)
    assert wsharp_bound_general(spec_a, spec_b) == pytest.approx(
        wsharp_bound_projection(m), abs=1e-12)


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


def test_truncated_enumeration_stays_conservative():
    rng = np.random.default_rng(35)
    lam = rng.random(6)
    fam = random_orthonormal(8, 6, 36)
    fam_b = random_orthonormal(8, 6, 37, space=fam.space)
    spec_a = MixedKernelSpec(lam, fam)
    spec_b = MixedKernelSpec(lam, fam_b)
    exact_tv = tv_bound_general(spec_a, spec_b)
    exact_ws = wsharp_bound_general(spec_a, spec_b)
    # forcing the heap path with a tight budget may only grow the bound
    rough_tv = tv_bound_general(spec_a, spec_b, subset_cap=3, truncation_limit=10)
    rough_ws = wsharp_bound_general(spec_a, spec_b, subset_cap=3, truncation_limit=10)
    assert rough_tv >= exact_tv - 1e-12
    assert rough_ws >= exact_ws - 1e-12
    # with the budget covering every subset the two paths agree
    full_tv = tv_bound_general(spec_a, spec_b, subset_cap=3, truncation_limit=64)
    assert full_tv == pytest.approx(exact_tv, abs=1e-12)


def test_eigenvalue_pairing_shrinks_mismatch_term():
    fam = random_orthonormal(6, 2, 38)
    fam_b = random_orthonormal(6, 2, 39, space=fam.space)
    spec_a = MixedKernelSpec(np.array([0.2, 0.9]), fam)
    spec_b = MixedKernelSpec(np.array([0.8, 0.1]), fam_b)
    paired_a, paired_b = pair_by_descending_eigenvalue(spec_a, spec_b)
    assert sorted(paired_a.lambdas) == sorted(spec_a.lambdas)
    mismatch = np.abs(np.asarray(spec_a.lambdas) - np.asarray(spec_b.lambdas)).sum()
    paired_mismatch = np.abs(np.asarray(paired_a.lambdas)
                             - np.asarray(paired_b.lambdas)).sum()
    assert paired_mismatch == pytest.approx(0.2, abs=1e-12)
    assert paired_mismatch <= mismatch


def test_wsharp_exact_point_masses():
    da = ConfigurationDistribution([(0, 1)], [1.0], "exact")
    db = ConfigurationDistribution([(2, 3)], [1.0], "exact")
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
    payload = json.loads(report.to_json())
    assert payload["tv_value"] == pytest.approx(0.5)
    row = report.csv_row()
    assert row[:3] == [2, 4, "exact"]
    assert row[3:5] == [report.tv_value, report.wsharp_value]
    assert row[7:] == [report.tv_slack, report.wsharp_slack]


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


def test_verify_instance_reports_coupling_past_the_cap():
    # C(6, 2) = 15 minors: within a cap of 15 identical specs are coupled
    # exactly, past a cap of 10 every draw is independent
    spec, _ = haar_spec_pair(6, 2, 45)
    exact = verify_instance(spec, spec, mode="empirical", budget=2000, seed=3,
                            bootstrap_resamples=50, enumeration_cap=15)
    assert exact.coupling_exact
    assert exact.tv_value == 0.0 and exact.wsharp_value == 0.0
    past = verify_instance(spec, spec, mode="empirical", budget=2000, seed=3,
                           bootstrap_resamples=50, enumeration_cap=10)
    assert not past.coupling_exact
    assert past.tv_value > 0.0
    assert json.loads(past.to_json())["coupling_exact"] is False


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
    assert density_transport_rhs(spec_a, spec_b) == pytest.approx(0.0, abs=1e-12)


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
    payload = json.loads(report.to_json())
    assert payload["covariance_adjacent_cells"] == -0.25


def test_exact_walsh_laws_differ_only_across_families():
    spec_a, spec_b = walsh_specs()
    da = exact_mixed_distribution(spec_a)
    db = exact_mixed_distribution(spec_b)
    assert total_variation(da.as_dict(), db.as_dict()) == pytest.approx(0.5, abs=1e-12)
    assert total_variation(da.as_dict(), da.as_dict()) == 0.0
