"""Spans around the library's public functions, installed from outside.

The tracer rebinds every public function of each traced module (its
``__all__``) in every package namespace that holds it, the defining module
included, and wraps ``LatticeDistribution.tail``.  So a call is recorded
wherever it is made, with no change to the library.  Spans (name, start, end,
parent, command index) are kept in flat arrays and written out at the end.

``install``/``uninstall`` swap the wrappers in and out, so a run can
alternate traced and untraced passes and measure the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = (
    "cli",
    "experiments",
    "weighted_sum",
    "poisson_core",
    "stein_lattice",
    "bernoulli_lattice",
    "coupling",
)
ROOT = "bench.pass"


def _module_of(name: str) -> str:
    return name.split(".", 1)[0]


def _rows(result, args, kwargs) -> dict:
    rows = result if isinstance(result, list) else result.rows
    return {"experiments.rows": len(rows)}


def _solve(result, args, kwargs) -> dict:
    return {
        "stein_lattice.points": int(np.count_nonzero(~np.isnan(result.values))),
        "stein_lattice.series_terms": int(result.truncation_terms.sum()),
    }


def _checked(result, args, kwargs) -> dict:
    return {"stein_lattice.checked_points": sum(c.points for c in result.checks)}


def _samples(result, args, kwargs) -> dict:
    return {"coupling.samples": int(kwargs["samples"] if "samples" in kwargs else args[2])}


def _support(key: str):
    return lambda result, args, kwargs: {key: result.probs.size}


# Span name -> counts it adds.  Experiment rows are counted only for calls
# entering experiments from outside, since compare_normal returns the rows of
# the relative_error_sweep it calls.
COUNTERS = {
    "experiments.relative_error_sweep": _rows,
    "experiments.scaling_sweep": _rows,
    "experiments.compare_normal": _rows,
    "experiments.empirical_constant": _rows,
    "weighted_sum.exact_distribution": _support("weighted_sum.support_entries"),
    "bernoulli_lattice.w_distribution": _support("bernoulli_lattice.support_entries"),
    "stein_lattice.solve_stein": _solve,
    "stein_lattice.verify_f_properties": _checked,
    "coupling.size_bias_sample": _samples,
}


class Tracer:
    """Records spans for the calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.command_index = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.coupling_peak_rss_mb = 0.0
        self._patches = self._plan()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every rebinding."""
        mods = {m: importlib.import_module(f"scaled_poisson.{m}") for m in MODULES}
        wrappers = {}
        for mod_name, mod in mods.items():
            for fn_name in getattr(mod, "__all__", ()):
                fn = getattr(mod, fn_name)
                if inspect.isfunction(fn):
                    wrappers[fn] = self.wrap(fn, f"{mod_name}.{fn_name}")
        patches = []
        for mod in mods.values():
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and value in wrappers:
                    patches.append((mod, attr, value, wrappers[value]))
        dist = mods["weighted_sum"].LatticeDistribution
        patches.append((dist, "tail", dist.tail, self.wrap(dist.tail, "weighted_sum.tail")))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def wrap(self, fn, name: str):
        """fn with a span named ``name`` around every call."""
        nid = self._id(name)
        module = _module_of(name)
        counter = COUNTERS.get(name)
        names, stack = self.names, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = stack[-1] if stack else -1
            self.span_name.append(nid)
            self.parent.append(parent)
            self.command.append(self.command_index)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            nested = parent >= 0 and _module_of(names[self.span_name[parent]]) == module
            if counter is not None and not (counter is _rows and nested):
                for key, value in counter(result, args, kwargs).items():
                    self.counts[key] += value
            if module == "coupling":
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                self.coupling_peak_rss_mb = max(self.coupling_peak_rss_mb, rss)
            return result

        return traced

    def summary(self) -> "TraceSummary":
        return TraceSummary(self)


class TraceSummary:
    """Per-name call counts, inclusive and self times, from the span arrays."""

    def __init__(self, tracer: Tracer):
        names = np.asarray(tracer.span_name, dtype=np.int64)
        parent = np.asarray(tracer.parent, dtype=np.int64)
        dur = np.asarray(tracer.end) - np.asarray(tracer.start)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        n_names = len(tracer.names)
        self.names = tracer.names
        self.calls = np.bincount(names, minlength=n_names)
        self.total_s = np.bincount(names, weights=dur, minlength=n_names)
        self.self_s = np.bincount(names, weights=self_time, minlength=n_names)
        self.command = np.asarray(tracer.command, dtype=np.int64)
        self.span_name = names
        self.dur = dur
        root = tracer.names.index(ROOT) if ROOT in tracer.names else -1
        self.passes = int(self.calls[root]) if root >= 0 else 0
        self.pass_s = float(self.total_s[root]) if root >= 0 else 0.0
        self.self_sum_s = float(self_time.sum())

    def _idx(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def calls_of(self, name: str) -> int:
        i = self._idx(name)
        return int(self.calls[i]) if i >= 0 else 0

    def mean_s(self, name: str, command: int | None = None) -> float:
        """Mean inclusive duration of ``name`` spans, optionally within one command."""
        i = self._idx(name)
        if i < 0:
            return 0.0
        mask = self.span_name == i
        if command is not None:
            mask &= self.command == command
        return float(self.dur[mask].mean()) if mask.any() else 0.0

    def total_of(self, name: str) -> float:
        i = self._idx(name)
        return float(self.total_s[i]) if i >= 0 else 0.0

    def module_self_s(self, module: str) -> float:
        return float(
            sum(s for n, s in zip(self.names, self.self_s) if _module_of(n) == module)
        )
