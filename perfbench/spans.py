"""Spans around pacroute's layer seams, recorded from outside the package.

Each seam is a module attribute that a caller looks up at call time, so
replacing the attribute with a recording wrapper traces every call that goes
through it. Span records (name, start, end, parent) stay in memory; per-layer
busy time, self time and counts are derived once, after the traced call.
A seam a later change removes is skipped: its span reports zero calls and its
time shows in its parent.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from importlib import import_module


def _bound(fn, args, kwargs) -> dict:
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


def _seed_counts(fn, args, kwargs, result, tr):
    a = _bound(fn, args, kwargs)
    reps, cols = int(a.get("replications", 0)), int(a.get("cols", 0))
    tr.counts["simulate.seed_replications"] += reps
    tr.counts["simulate.seed_bytes"] += reps * cols * 8  # computed, float64 draws


def _kernel_counts(fn, args, kwargs, result, tr):
    u = args[0] if args else kwargs.get("u")
    shape = getattr(u, "shape", (0, 0))
    tr.counts["kernels.rows"] += int(shape[0])
    tr.counts["kernels.bytes_in"] += int(shape[0]) * int(shape[1]) * 8  # computed


def _outcome_counts(fn, args, kwargs, result, tr):
    tr.counts["simulate.outcomes"] += int(getattr(result, "n_outcomes", 0))


def _world_counts(fn, args, kwargs, result, tr):
    tr.counts["worlds.cells"] += len(getattr(result, "cells", ()))


def _report_counts(fn, args, kwargs, result, tr):
    tr.counts["serialize.report_bytes"] += len(result.encode("utf-8"))


def _trace_counts(fn, args, kwargs, result, tr):
    # the file is measured in layers(), after the traced call
    tr.trace_paths.append(_bound(fn, args, kwargs).get("path"))


# (module, attribute, span name, count hook). Each attribute is the name the
# caller looks up, e.g. simulate calls `_kernels.tau_indices` at call time.
SEAMS = [
    ("pacroute.cli", "_load_config", "cli.load_config", None),
    ("pacroute.cli", "_load_world_from_config", "cli.load_world_from_config", None),
    ("pacroute.cli", "load_world", "worlds.load_world", _world_counts),
    ("pacroute.cli", "audit_profile", "simulate.audit_profile", None),
    ("pacroute.cli", "demo_with_replications", "simulate.demo_with_replications", None),
    ("pacroute.cli", "enumerate_distribution", "simulate.enumerate", _outcome_counts),
    ("pacroute.cli", "_write_trace", "cli.trace", _trace_counts),
    ("pacroute.cli", "dump_json", "serialize.dump_json", _report_counts),
    ("pacroute.simulate", "audit_profile", "simulate.audit_profile", None),
    ("pacroute.simulate", "mc_joint_risk", "simulate.mc_joint_risk", None),
    ("pacroute.simulate", "_tau_values_for_replications", "simulate.walk", None),
    ("pacroute.simulate", "_replication_uniforms", "simulate.seed", _seed_counts),
    ("pacroute._kernels", "tau_indices", "kernels.tau_indices", _kernel_counts),
    ("pacroute.simulate", "make_perturbation", "adversary.solve", None),
    ("pacroute.simulate", "perturb", "adversary.solve", None),
    ("pacroute.simulate", "select_threshold", "calibrate.select_threshold", None),
    ("pacroute.simulate", "exact_miscoverage", "risk.exact_miscoverage", None),
]

# Called too often for a span each; only their calls are counted.
COUNTED = [
    ("pacroute.calibrate", "empirical_exceedances", "calibrate.thresholds_tested"),
    ("pacroute.simulate", "exact_deferral_mass", "risk.exact_deferral_mass_calls"),
]

AGGREGATE = ("simulate.audit_profile", "simulate.mc_joint_risk",
             "simulate.demo_with_replications")


def unit(name: str) -> str:
    """Unit of a per-layer metric; bytes derived from shapes are labelled computed."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name in ("simulate.seed_bytes", "kernels.bytes_in"):
        return "bytes_computed"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class Tracer:
    """Installs recording wrappers on the seams; ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.trace_paths: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._cache_before = (0, 0)

    def _span_wrapper(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if hook is not None:
                hook(fn, args, kwargs, result, self)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, hook in SEAMS:
            self._patch(mod_name, attr, lambda fn, n=name, h=hook: self._span_wrapper(fn, n, h))
        for mod_name, attr, name in COUNTED:
            self._patch(mod_name, attr, lambda fn, n=name: self._count_wrapper(fn, n))
        self._cache_before = self._cache_info()

    def _patch(self, mod_name, attr, make) -> None:
        try:
            mod = import_module(mod_name)
        except ImportError:
            return
        fn = getattr(mod, attr, None)
        if fn is None:
            return
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    @staticmethod
    def _cache_info() -> tuple[int, int]:
        try:
            info = import_module("pacroute.calibrate").binomial_pvalue_table.cache_info()
        except (ImportError, AttributeError):
            return 0, 0
        return info.hits, info.misses

    def layers(self) -> dict:
        """Per-layer metrics from the recorded spans and counts."""
        busy = defaultdict(float)
        self_time = defaultdict(float)
        calls = Counter()
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), cov in zip(self.spans, covered):
            busy[name] += end - start
            self_time[name] += end - start - cov
            calls[name] += 1
        hits, misses = self._cache_info()
        hits -= self._cache_before[0]
        misses -= self._cache_before[1]
        lookups = hits + misses
        c = self.counts
        for path in self.trace_paths:
            with open(path, "rb") as f:
                data = f.read()
            c["cli.trace_bytes"] += len(data)
            c["cli.trace_rows"] += max(data.count(b"\n") - 1, 0)  # minus header
        return {
            "simulate.seed_s": busy["simulate.seed"],
            "simulate.seed_calls": calls["simulate.seed"],
            "simulate.seed_replications": c["simulate.seed_replications"],
            "simulate.seed_bytes": c["simulate.seed_bytes"],
            "kernels.tau_indices_s": busy["kernels.tau_indices"],
            "kernels.calls": calls["kernels.tau_indices"],
            "kernels.rows": c["kernels.rows"],
            "kernels.bytes_in": c["kernels.bytes_in"],
            "simulate.walk_self_s": self_time["simulate.walk"],
            "simulate.aggregate_self_s": sum(self_time[n] for n in AGGREGATE),
            "cli.trace_s": busy["cli.trace"],
            "cli.trace_rows": c["cli.trace_rows"],
            "cli.trace_bytes": c["cli.trace_bytes"],
            "simulate.enumerate_self_s": self_time["simulate.enumerate"],
            "simulate.outcomes": c["simulate.outcomes"],
            "calibrate.select_threshold_s": busy["calibrate.select_threshold"],
            "calibrate.select_threshold_calls": calls["calibrate.select_threshold"],
            "calibrate.thresholds_tested": c["calibrate.thresholds_tested"],
            "calibrate.pvalue_cache_hit_ratio": hits / lookups if lookups else 0.0,
            "calibrate.pvalue_cache_lookups": lookups,
            "risk.exact_miscoverage_s": busy["risk.exact_miscoverage"],
            "risk.exact_miscoverage_calls": calls["risk.exact_miscoverage"],
            "risk.exact_deferral_mass_calls": c["risk.exact_deferral_mass_calls"],
            "worlds.load_world_s": busy["worlds.load_world"],
            "worlds.cells": c["worlds.cells"],
            "cli.parse_s": busy["cli.load_config"] + busy["cli.load_world_from_config"],
            "adversary.solve_s": busy["adversary.solve"],
            "serialize.dump_json_s": busy["serialize.dump_json"],
            "serialize.report_bytes": c["serialize.report_bytes"],
        }
