"""The benchmark's output checks: each passes the program's real output and
fails a deliberately perturbed one (negative controls)."""

import dataclasses
import importlib

import numpy as np
import pytest

from fermiflow import ConvergenceError, MixedKernelSpec, random_orthonormal
from fermiflow.cli import _SUBCOMMAND_CODE, RunConfig
from fermiflow.selftest import SOLVER_TOL
from perfbench import checks, inputs, workloads
from perfbench.workloads import DEFAULT_MAX_ITER

w1_module = importlib.import_module("fermiflow.w1_exact")
bounds_module = importlib.import_module("fermiflow.bounds")
dpp_module = importlib.import_module("fermiflow.dpp")


def test_constants_match_the_program():
    assert checks.SOLVER_TOL == SOLVER_TOL
    config = RunConfig(seed=0)
    assert inputs.CLI_RDM_SEED_BASE == config.instance_seed("rdm-monotonicity", 0)
    assert inputs.CLI_BOUNDS_SEED_BASE == config.instance_seed("bounds", 0)
    assert inputs.CLI_BOUNDS_CODE == _SUBCOMMAND_CODE["bounds"]


def test_inputs_repeat_for_a_seed_and_differ_between_seeds():
    first, again, other = (inputs.build("w1_pairs", s) for s in (3, 3, 4))
    assert np.array_equal(first[1].a.functions, again[1].a.functions)
    assert not np.allclose(first[1].a.functions, other[1].a.functions)
    # the failing pair is the CLI's, whatever the seed
    assert first[0].label == "cli6"
    assert np.array_equal(first[0].a.functions, other[0].a.functions)


@pytest.fixture(scope="module")
def w1_case():
    pair = next(p for p in inputs.w1_pairs(0) if p.label == "cli1")  # 634 iterations
    values = [v for _, v in w1_module.rdm_monotonicity_check(pair.a, pair.b)]
    return pair, values


def test_w1_check_passes_solver_output(w1_case):
    pair, values = w1_case
    assert checks.check_w1_values(pair.a, pair.b, values) == []


def test_w1_check_fails_value_below_trace_distance(w1_case):
    pair, values = w1_case
    fold_a = checks.folded(pair.a.functions, pair.a.space.weights)
    fold_b = checks.folded(pair.b.functions, pair.b.space.weights)
    vec_a, vec_b = checks.slater_vector(fold_a), checks.slater_vector(fold_b)
    trace = checks.trace_distance(checks.reduced_state(vec_a, 4, 2, 2),
                                  checks.reduced_state(vec_b, 4, 2, 2))
    low = [values[0], (trace - 10 * SOLVER_TOL) / 2]
    assert any("below trace distance" in p for p in checks.check_w1_values(pair.a, pair.b, low))


def test_w1_check_fails_a_drop_in_k(w1_case):
    pair, values = w1_case
    dropped = [values[0], values[0] - 3 * SOLVER_TOL]
    assert any("drops" in p for p in checks.check_w1_values(pair.a, pair.b, dropped))


@pytest.fixture(scope="module")
def exact_case():
    g = np.random.default_rng(5)
    fam_a = random_orthonormal(5, 3, seed=71)
    fam_b = random_orthonormal(5, 3, seed=72)
    spec_a = MixedKernelSpec(g.random(3), fam_a)
    spec_b = MixedKernelSpec(g.random(3), fam_b)
    laws = [dpp_module.exact_mixed_distribution(s) for s in (spec_a, spec_b)]
    report = bounds_module.verify_instance(spec_a, spec_b, mode="exact")
    return spec_a, spec_b, report, laws


def test_exact_check_passes_program_laws(exact_case):
    assert checks.check_exact_report(*exact_case) == []


def test_exact_check_fails_law_with_moved_mass(exact_case):
    spec_a, spec_b, report, laws = exact_case
    law = laws[0]
    probs = law.probs.copy()
    moved = 0.5 * probs[-1]
    probs[-1] -= moved
    probs[1] += moved  # total mass unchanged
    perturbed = dataclasses.replace(law, probs=probs)
    problems = checks.check_exact_report(spec_a, spec_b, report, [perturbed, laws[1]])
    assert any("law a" in p for p in problems)


def test_exact_check_fails_wrong_total_variation(exact_case):
    spec_a, spec_b, report, laws = exact_case
    wrong = dataclasses.replace(report, tv_value=report.tv_value + 1e-6)
    assert any(p.startswith("tv ") for p in checks.check_exact_report(spec_a, spec_b, wrong, laws))


@pytest.fixture(scope="module")
def sampled_case():
    pair = inputs.laws_sampled(0)[0]
    report = bounds_module.verify_instance(pair.a, pair.b, mode="empirical", budget=2000,
                                           seed=pair.sample_seed, bootstrap_resamples=100)
    return pair.a, pair.b, report


def test_sampled_check_passes_program_report(sampled_case):
    assert checks.check_sampled_report(*sampled_case) == []


def test_sampled_check_fails_tv_outside_interval(sampled_case):
    spec_a, spec_b, report = sampled_case
    lo, hi = report.tv_ci
    outside = dataclasses.replace(report, tv_value=hi + 0.5 * (hi - lo))
    problems = checks.check_sampled_report(spec_a, spec_b, outside)
    assert any("outside its interval" in p for p in problems)


def test_sampled_check_fails_interval_away_from_exact(sampled_case):
    spec_a, spec_b, report = sampled_case
    lo, hi = report.wsharp_ci
    shift = 5 * (hi - lo)
    moved = dataclasses.replace(report, wsharp_value=report.wsharp_value + shift,
                                wsharp_ci=(lo + shift, hi + shift))
    assert any("half-widths" in p for p in checks.check_sampled_report(spec_a, spec_b, moved))


def test_cauchy_binet_law_matches_enumeration():
    fam = random_orthonormal(6, 3, seed=81)
    spec = MixedKernelSpec(np.array([0.3, 0.9, 0.5]), fam)
    law = dpp_module.exact_mixed_distribution(spec)
    exact = checks.cauchy_binet_law(spec.lambdas, fam.functions, fam.space.weights)
    for config, p in zip(law.support, law.probs):
        assert p == pytest.approx(exact[config], abs=1e-12)


@pytest.mark.parametrize("index", [6, 12, 15])
def test_cli_pairs_hit_the_iteration_ceiling(index):
    """The CLI's seed-0 pairs 6, 12 and 15 fail at the default ceiling (about 22 s each)."""
    a = random_orthonormal(4, 2, seed=inputs.CLI_RDM_SEED_BASE + 2 * index)
    b = random_orthonormal(4, 2, seed=inputs.CLI_RDM_SEED_BASE + 2 * index + 1)
    with pytest.raises(ConvergenceError) as info:
        w1_module.rdm_monotonicity_check(a, b)
    assert info.value.iterations == DEFAULT_MAX_ITER


@pytest.mark.parametrize("workload, label, iterations, allowed", [
    ("w1_pairs", "cli6", DEFAULT_MAX_ITER, True),
    ("w1_pairs", "cli6", DEFAULT_MAX_ITER - 1, False),
    ("w1_pairs", "cli0", DEFAULT_MAX_ITER, False),
    ("w1_cap", "cli0", DEFAULT_MAX_ITER, False),
])
def test_only_the_kept_pair_may_stop_at_the_ceiling(monkeypatch, workload, label,
                                                     iterations, allowed):
    def stop(a, b):
        raise ConvergenceError("stopped", iterations=iterations)

    monkeypatch.setattr(w1_module, "rdm_monotonicity_check", stop)
    pair = next(p for p in inputs.build(workload, 0) if p.label == label)
    outcome = workloads.RUNNERS[workload](pair)
    assert outcome.failed
    assert (outcome.problems == []) == allowed
