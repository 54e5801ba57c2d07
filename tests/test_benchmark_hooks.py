"""The benchmark's tracer wraps library functions at the names their callers
look up; each of those names must stay defined where the tracer looks, or
traced runs stop working while untraced ones still pass."""

import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from fermiflow.w1_exact import DIM_CAP, w1_exact  # noqa: E402
from perfbench import tracing  # noqa: E402


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
