"""The benchmark's tracer wraps library functions at the names their callers
look up; each of those names must stay defined where the tracer looks, or
traced runs stop working while untraced ones still pass."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from fermiflow.bounds import verify_instance  # noqa: E402
from fermiflow.w1_exact import (DIM_CAP, TOL, _principal_angles,  # noqa: E402
                                rdm_monotonicity_check, w1_exact)
from perfbench import inputs, tracing  # noqa: E402


@pytest.mark.parametrize("module, cls, attr",
                         [patch[:3] for patch in tracing.PATCHES],
                         ids=[f"{patch[0]}.{patch[2]}" for patch in tracing.PATCHES])
def test_traced_name_resolves_where_the_tracer_looks(module, cls, attr):
    owner = tracing._owner(module, cls)
    # the tracer saves vars(owner)[attr] for restoring and wraps getattr(owner, attr)
    assert attr in vars(owner)
    assert callable(getattr(owner, attr))


def test_solver_signature_is_pinned():
    # perfbench/workloads.py reads the max_iter default from this signature,
    # and a new solver knob would change what the benchmark measures
    params = list(inspect.signature(w1_exact).parameters.values())
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert [(p.name, p.default) for p in params] == [
        ("rho", inspect.Parameter.empty), ("sigma", inspect.Parameter.empty),
        ("tol", 1e-5), ("max_iter", 50_000), ("dim_cap", DIM_CAP)]


def test_benchmark_calls_bind_to_the_library():
    # the workloads call these two functions with these arguments; a renamed
    # keyword would break a workload while every other test passes
    source = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    targets = {"verify_instance": verify_instance,
               "rdm_monotonicity_check": rdm_monotonicity_check}
    calls = [node for node in ast.walk(ast.parse(source.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in targets]
    passed = set()
    for call in calls:
        keywords = [k.arg for k in call.keywords]
        inspect.signature(targets[call.func.attr]).bind(*call.args, **dict.fromkeys(keywords))
        passed.add((call.func.attr, len(call.args), tuple(keywords)))
    assert passed == {
        ("rdm_monotonicity_check", 2, ()),
        ("verify_instance", 2, ("mode",)),
        ("verify_instance", 2, ("mode", "budget", "seed", "bootstrap_resamples")),
    }


@pytest.mark.parametrize("workload", ["w1_pairs", "w1_cap"])
@pytest.mark.parametrize("seed", [7, 1101])
def test_determinant_workloads_use_every_point(workload, seed):
    # rdm_certificates solves a pair on its frame's n + r points, r the non-zero
    # principal angles; while that is every point, the timed solves are those of
    # the pair on all its points
    for pair in inputs.build(workload, seed):
        r = int((_principal_angles(pair.a, pair.b, TOL) != 0).sum())
        assert pair.a.n + r == pair.a.space.n_points
