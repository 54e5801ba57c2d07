"""Spans around the public functions of each fermiflow layer, and the metrics they give.

A traced round replaces each function below by a wrapper at the name its
caller looks up (the global of the calling module, or a class attribute),
records one span per call (name, layer, start, end, parent), counts the
work the call did from its inputs or result, and restores every name when
the round ends. Nothing inside the library changes.

A layer's self time is the time its spans cover minus the time of their
direct children; the benchmark's own share is the round span's self time,
so the self times of all layers add up to the traced round.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from fermiflow.errors import ConvergenceError

LAYERS = ("w1_exact", "slater", "dpp", "transport", "bounds", "bench")

# (module, class or None, attribute, layer, kind), wrapped where it is looked up
PATCHES = (
    ("fermiflow.w1_exact", None, "rdm_monotonicity_check", "w1_exact", "rdm"),
    ("fermiflow.w1_exact", None, "w1_exact", "w1_exact", "solve"),
    ("fermiflow.w1_exact", None, "classical_hamming_w1", "w1_exact", "witness"),
    ("fermiflow.w1_exact", None, "full_state_vector", "slater", "state"),
    ("fermiflow.w1_exact", None, "reduced_density_matrix", "slater", "state"),
    ("fermiflow.w1_exact", None, "ot_cost", "transport", "ot"),
    ("fermiflow.bounds", None, "verify_instance", "bounds", "verify"),
    ("fermiflow.bounds", None, "tv_bound_general", "bounds", "bound"),
    ("fermiflow.bounds", None, "wsharp_bound_general", "bounds", "bound"),
    ("fermiflow.bounds", None, "wsharp_exact", "bounds", "wsharp"),
    ("fermiflow.bounds", None, "OverlapMatrix", "slater", "overlap"),
    ("fermiflow.bounds", None, "slater_fidelity", "slater", "fidelity"),
    ("fermiflow.bounds", None, "exact_mixed_distribution", "dpp", "enumerate"),
    ("fermiflow.bounds", None, "coupled_sample_pair", "dpp", "sample"),
    ("fermiflow.bounds", None, "ot_cost", "transport", "ot"),
    ("fermiflow.bounds", None, "total_variation", "transport", "tv"),
    ("fermiflow.dpp", None, "brute_force_configuration_distribution", "dpp", "configs"),
    ("fermiflow.dpp", None, "ordered_measurement_distribution", "dpp", "tuples"),
    ("fermiflow.transport", "CostMatrix", "from_function", "transport", "cost_build"),
)

_ENUMERATION = {"enumerate", "configs", "tuples"}


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


@contextmanager
def patched(wrappers):
    """Set (owner, attribute, replacement) triples for the block, then restore."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in wrappers]
    try:
        for owner, attr, replacement in wrappers:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Spans and counts of one traced round, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, kind, start, end, parent index]
        self.counts: Counter = Counter()
        self.gap_max = 0.0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, kind: str):
        index = len(self.spans)
        record = [name, layer, kind, perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    def _count(self, kind: str, args, kwargs, result) -> None:
        c = self.counts
        if kind == "solve":
            c["iterations"] += result.iterations
            c["iterations_max"] = max(c["iterations_max"], result.iterations)
            self.gap_max = max(self.gap_max, result.gap)
        elif kind == "tuples":
            c["tuples_visited"] += len(result[0])
        elif kind == "configs":
            c["configs_out"] += len(result.support)
        elif kind == "sample":
            c["draws"] += 1
        elif kind == "ot":
            cost = kwargs["cost"] if "cost" in kwargs else args[2]
            c["ot_calls"] += 1
            c["ot_cells"] += cost.values.size
        elif kind == "bound":
            c["bound_calls"] += 1
            c["subsets"] += 2 ** args[0].n_indices

    def _wrap(self, fn, name: str, layer: str, kind: str):
        def traced(*args, **kwargs):
            with self.span(name, layer, kind):
                try:
                    result = fn(*args, **kwargs)
                except ConvergenceError as exc:
                    if kind == "solve":
                        self.counts["nonconverged"] += 1
                        self.counts["iterations"] += exc.iterations
                        self.counts["iterations_max"] = max(
                            self.counts["iterations_max"], exc.iterations)
                    raise
            self._count(kind, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every function in PATCHES for the duration of the block."""
        wrappers = []
        for module, cls, attr, layer, kind in PATCHES:
            owner = _owner(module, cls)
            name = f"{layer}.{cls + '.' if cls else ''}{attr}"
            wrappers.append((owner, attr, self._wrap(getattr(owner, attr), name, layer, kind)))
        with patched(wrappers):
            yield

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[5] >= 0:
                own[s[5]] -= s[4] - s[3]
        return own

    def _outermost(self, kinds) -> float:
        """Total duration of spans of `kinds` that no other span of `kinds` encloses."""
        total = 0.0
        for s in self.spans:
            if s[2] not in kinds:
                continue
            parent = s[5]
            while parent >= 0 and self.spans[parent][2] not in kinds:
                parent = self.spans[parent][5]
            if parent < 0:
                total += s[4] - s[3]
        return total

    def metrics(self, untraced_wall: float, traced_wall: float) -> dict:
        """Per-layer metrics of the round, as name -> (value, unit)."""
        own = self.self_times()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        kind_self = Counter()
        for s, t in zip(self.spans, own):
            layer_self[s[1]] += t
            kind_self[s[2]] += t
        c = self.counts
        iterations = c["iterations"]
        draws = c["draws"]
        ot_calls = c["ot_calls"]
        tuples = c["tuples_visited"]
        sample_s = self._outermost({"sample"})
        ot_s = self._outermost({"ot"})
        out = {
            "w1_exact.iterations": (iterations, "count"),
            "w1_exact.iterations_max": (c["iterations_max"], "count"),
            "w1_exact.nonconverged": (c["nonconverged"], "count"),
            "w1_exact.ms_per_iteration": (
                1e3 * kind_self["solve"] / iterations if iterations else 0.0, "ms"),
            "w1_exact.witness_s": (self._outermost({"witness"}), "s"),
            "w1_exact.gap_max": (self.gap_max, "distance"),
            "dpp.enumerate_s": (self._outermost(_ENUMERATION), "s"),
            "dpp.tuples_visited": (tuples, "count"),
            "dpp.configs_per_tuple": (c["configs_out"] / tuples if tuples else 0.0,
                                      "configs/tuple"),
            "dpp.draws": (draws, "count"),
            "dpp.sample_s": (sample_s, "s"),
            "dpp.us_per_draw": (1e6 * sample_s / draws if draws else 0.0, "us"),
            "transport.ot_calls": (ot_calls, "count"),
            "transport.ot_s": (ot_s, "s"),
            "transport.ot_cells": (c["ot_cells"], "count"),
            "transport.ms_per_ot": (1e3 * ot_s / ot_calls if ot_calls else 0.0, "ms"),
            "transport.cost_build_s": (self._outermost({"cost_build"}), "s"),
            "bounds.bound_calls": (c["bound_calls"], "count"),
            "bounds.bound_s": (self._outermost({"bound"}), "s"),
            "bounds.subsets": (c["subsets"], "count"),
            "bounds.verify_self_s": (kind_self["verify"], "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.wall_s"] = (traced_wall, "s")
        out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        return out

    def dump(self) -> dict:
        """Spans in a JSON-ready form, times relative to the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        return {"fields": ["name", "layer", "kind", "start_s", "end_s", "parent"],
                "spans": [[s[0], s[1], s[2], s[3] - t0, s[4] - t0, s[5]]
                          for s in self.spans],
                "counts": dict(self.counts), "gap_max": self.gap_max}
