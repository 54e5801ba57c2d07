"""Running the workloads: each instance is one public fermiflow call, timed and checked.

- w1_pairs, w1_cap: `rdm_monotonicity_check` at the library's default
  solver settings, the call behind `fermiflow rdm-monotonicity`.
- laws_exact: `verify_instance(mode="exact")`.
- laws_sampled: `verify_instance(mode="empirical")` at the CLI defaults of
  20,000 coupled draws and 1,000 bootstrap resamples.

A run repeats whole rounds of the same instances (closed loop, one caller),
so the share of failed instances is the same in every run.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from fermiflow.errors import ConvergenceError

from . import checks
from .tracing import Tracer, patched

W1_MODULE = importlib.import_module("fermiflow.w1_exact")
BOUNDS_MODULE = importlib.import_module("fermiflow.bounds")
# the solver's default iteration ceiling (50,000): the kept pair of w1_pairs
# may stop there; any other ConvergenceError fails the check
DEFAULT_MAX_ITER = inspect.signature(W1_MODULE.w1_exact).parameters["max_iter"].default
SAMPLED_DRAWS = 20_000
SAMPLED_RESAMPLES = 1_000


@dataclass
class Outcome:
    """One instance: how long the call took, whether it failed, what the check found."""

    label: str
    seconds: float
    failed: bool = False
    problems: list = field(default_factory=list)


def _w1_instance(pair) -> Outcome:
    start = perf_counter()
    try:
        values = [v for _, v in W1_MODULE.rdm_monotonicity_check(pair.a, pair.b)]
    except ConvergenceError as exc:
        elapsed = perf_counter() - start
        kept = pair.may_fail and exc.iterations == DEFAULT_MAX_ITER
        problems = [] if kept else [f"ConvergenceError after {exc.iterations} iterations"]
        return Outcome(pair.label, elapsed, failed=True, problems=problems)
    elapsed = perf_counter() - start
    return Outcome(pair.label, elapsed, problems=checks.check_w1_values(pair.a, pair.b, values))


def _exact_instance(pair) -> Outcome:
    laws = []
    enumerate_law = BOUNDS_MODULE.exact_mixed_distribution

    def capture(*args, **kwargs):
        laws.append(enumerate_law(*args, **kwargs))
        return laws[-1]

    with patched([(BOUNDS_MODULE, "exact_mixed_distribution", capture)]):
        start = perf_counter()
        report = BOUNDS_MODULE.verify_instance(pair.a, pair.b, mode="exact")
        elapsed = perf_counter() - start
    return Outcome(pair.label, elapsed,
                   problems=checks.check_exact_report(pair.a, pair.b, report, laws))


def _sampled_instance(pair) -> Outcome:
    start = perf_counter()
    report = BOUNDS_MODULE.verify_instance(
        pair.a, pair.b, mode="empirical", budget=SAMPLED_DRAWS,
        seed=pair.sample_seed, bootstrap_resamples=SAMPLED_RESAMPLES)
    elapsed = perf_counter() - start
    return Outcome(pair.label, elapsed, problems=checks.check_sampled_report(pair.a, pair.b, report))


RUNNERS = {"w1_pairs": _w1_instance, "w1_cap": _w1_instance,
           "laws_exact": _exact_instance, "laws_sampled": _sampled_instance}


def run_round(workload: str, instances) -> list[Outcome]:
    return [RUNNERS[workload](inst) for inst in instances]


def timed_run(workload: str, instances, seconds: float) -> tuple[list[Outcome], float]:
    """Whole rounds until `seconds` have passed; returns the outcomes and the wall time."""
    outcomes = []
    start = perf_counter()
    while True:
        outcomes += run_round(workload, instances)
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return outcomes, elapsed


def traced_run(workload: str, instances) -> tuple[list[Outcome], dict, dict]:
    """One untraced round, then the same round traced; the difference is the overhead."""
    start = perf_counter()
    outcomes = run_round(workload, instances)
    untraced = perf_counter() - start
    tracer = Tracer()
    start = perf_counter()
    with tracer.installed(), tracer.span("bench.round", "bench", "round"):
        outcomes += run_round(workload, instances)
    traced = perf_counter() - start
    return outcomes, tracer.metrics(untraced, traced), tracer.dump()


def end_to_end(outcomes: list[Outcome], elapsed: float) -> dict:
    """Throughput and median latency of the instances that returned an answer."""
    done = [o.seconds for o in outcomes if not o.failed]
    return {
        "instances_per_s": (len(done) / elapsed, "1/s"),
        "instance_p50_s": (statistics.median(done), "s"),
    }
