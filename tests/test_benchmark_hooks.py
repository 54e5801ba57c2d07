"""The benchmark's tracer wraps library functions at the names their callers
look up; each of those names must stay defined where the tracer looks, or
traced runs stop working while untraced ones still pass."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import tracing  # noqa: E402


@pytest.mark.parametrize("module, cls, attr",
                         [patch[:3] for patch in tracing.PATCHES],
                         ids=[f"{patch[0]}.{patch[2]}" for patch in tracing.PATCHES])
def test_traced_name_resolves_where_the_tracer_looks(module, cls, attr):
    owner = tracing._owner(module, cls)
    # the tracer saves vars(owner)[attr] for restoring and wraps getattr(owner, attr)
    assert attr in vars(owner)
    assert callable(getattr(owner, attr))
