"""Acceptance sweep.

Each test drives one of the nine library-level checks that `fermiflow
selftest` runs, prints its single PASS/FAIL line, and enforces the check's
verdict plus its wall-clock budget where one is declared. Tolerances live
inside the checks themselves; nothing here loosens them.
"""

# loaded up front, as `run_all` does, so that no budgeted check times an import
import scipy.optimize  # noqa: F401
import scipy.special  # noqa: F401

from fermiflow.selftest import (check_bound_validity_sweep, check_gap_table,
                                check_measurement_matches_kernel,
                                check_rdm_monotonicity,
                                check_sampler_statistics,
                                check_stabilizer_ascent_agreement,
                                check_transport_sandwich,
                                check_transport_solver, check_walsh_exhibit)


def report(result):
    print(result.line())
    assert result.passed, result.line()
    if result.budget is not None:
        assert result.elapsed < result.budget, result.line()


def test_criterion_1_measurement_law_matches_kernel_minors():
    # exact enumeration across dims 4-6, n in {2,3}, ten seeds each:
    # inclusion statistics against kernel minors at 1e-9, unit mass at
    # 1e-10, vanishing repeated-tuple mass; budgeted under 30 s
    report(check_measurement_matches_kernel())


def test_criterion_2_walsh_covariance_exhibit():
    # rational-arithmetic covariances -1/4 and 0, vanishing quadratic
    # transport term next to strictly positive exact TV and W#; under 1 s
    report(check_walsh_exhibit())


def test_criterion_3_sampler_statistics():
    # 50k draws against the enumerated law: chi-square at the 1% cutoff
    # and one-point counts within four standard errors; under 60 s
    report(check_sampler_statistics())


def test_criterion_4_bound_validity_sweep():
    # 100 projection instances and 50 Bernoulli-mixture instances with
    # exact enumeration on both sides: zero bound violations at 1e-9;
    # under 5 min
    report(check_bound_validity_sweep())


def test_criterion_5_quantum_sandwich():
    # 50 random pairs, 25 of two functions and 25 of three functions on 4
    # points (total dimension 16 and 64): half trace norm <= exact
    # transport value <= closed-form upper bound <= n times trace, within
    # solver tolerance; plus the analytic product-state case
    report(check_transport_sandwich())


def test_criterion_6_reduced_state_monotonicity():
    # (1/k)-scaled transport distance of k-point reduced states is
    # non-decreasing over 20 seeds; equal families give exact zeros
    report(check_rdm_monotonicity())


def test_criterion_7_gap_construction_columns():
    # geometric-epsilon construction at n=20: frozen determinant and
    # mean-overlap columns, upper bound per particle below 0.33 while the
    # trace distance exceeds 0.95
    report(check_gap_table())


def test_criterion_8_stabilizer_ascent_oracle():
    # alternating polar-decomposition ascent agrees with the singular
    # value form within 1e-8 on 100 matrices
    report(check_stabilizer_ascent_agreement())


def test_criterion_9_transport_solver_against_tv():
    # trivial-cost transport equals half-l1 total variation within 1e-10
    # on 200 pairs, with exact plan marginals
    report(check_transport_solver())
