"""Span tracing for the benchmark, installed from outside the package.

``Tracer.install`` replaces the public functions of ``cli``, ``analyzer``,
``solver`` and ``space`` that the layer metrics need, in their defining
module and in every ``enrichedfp`` module that imported them by name, and
replaces ``apply`` / ``apply_batch`` on every ``SelfMap`` subclass, so
nested ``Averaged`` / ``Iterated`` nodes become child spans of their parent
node. ``uninstall`` puts every original back. Nothing inside the package is
edited.

A span is ``(name, start, end, parent index, scenario id, info)``; ``info``
carries the work count of the call (rows, samples, iterations) where the
metrics need one. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import csv
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer", "installed_wrappers", "layer_metrics", "PER_LAYER_UNITS"]

_MARK = "__perfbench_span__"

# Public functions wrapped per module; each name becomes the span "module.name".
FUNCTIONS: dict[str, tuple[str, ...]] = {
    "cli": ("main", "run_scenario", "resolve_certificate", "parse_scenario",
            "emit_trace_csv", "emit_report"),
    "analyzer": ("estimate_theta", "optimize_b"),
    "solver": ("krasnoselskij_solve", "picard_solve", "local_ball_solve",
               "asymptotic_solve", "detect_cycle"),
    "space": ("two_norm", "witness_residual", "two_norm_batch"),
}
MAP_METHODS = ("apply", "apply_batch")
SOLVES = tuple(f"solver.{n}" for n in FUNCTIONS["solver"] if n.endswith("_solve"))


def _rows(args, kwargs, result) -> int:
    return len(result)


def _samples(args, kwargs, result) -> tuple[int, int]:
    return result.sample_count, result.accepted


def _iterations(args, kwargs, result) -> int:
    return result.iterations


_INFO: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "mapping.apply_batch": _rows,
    "space.two_norm_batch": _rows,
    "analyzer.estimate_theta": _samples,
    **{name: _iterations for name in SOLVES},
}


def _package_modules() -> list:
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "enrichedfp" or k.startswith("enrichedfp."))]


def _selfmap_classes() -> list[type]:
    mapping = importlib.import_module("enrichedfp.mapping")
    found, todo = [], [mapping.SelfMap]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def installed_wrappers() -> list[str]:
    """Names of every span wrapper currently reachable from the package."""
    found = []
    for mod in _package_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, _MARK):
                found.append(f"{mod.__name__}.{attr}")
    for cls in _selfmap_classes():
        for attr in MAP_METHODS:
            if hasattr(cls.__dict__.get(attr), _MARK):
                found.append(f"{cls.__name__}.{attr}")
    return found


class Tracer:
    """Collects spans while installed; ``scenario`` tags the spans recorded.

    Spans are held column-wise (names, starts, ends, parents, scenarios,
    infos) so recording one allocates no tuple; ``spans`` zips them back.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.scenarios = array("q")
        self.infos: list = []
        self.scenario = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def spans(self):
        """Iterate the spans as (name, start, end, parent, scenario, info)."""
        return zip(self.names, self.starts, self.ends, self.parents,
                   self.scenarios, self.infos)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        scenarios, infos, stack, info = self.scenarios, self.infos, self._stack, _INFO.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            scenarios.append(self.scenario)
            infos.append(None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    infos[idx] = info(args, kwargs, result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for short, names in FUNCTIONS.items():
            home = importlib.import_module(f"enrichedfp.{short}")
            for fname in names:
                orig = getattr(home, fname, None)
                if orig is None:  # renamed or removed: its metrics read zero
                    continue
                wrapped = self._wrap(f"{short}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        for cls in _selfmap_classes():
            for meth in MAP_METHODS:
                orig = cls.__dict__.get(meth)
                if orig is None or getattr(orig, "__isabstractmethod__", False):
                    continue
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"mapping.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self._stack.clear()

    def reset(self) -> None:
        for column in (self.names, self.starts, self.ends, self.parents,
                       self.scenarios, self.infos):
            del column[:]
        self._stack.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "scenario", "info"])
            for i, (name, start, end, parent, scn, extra) in enumerate(self.spans):
                out.writerow([i, name, repr(start), repr(end), parent, scn,
                              "" if extra is None else extra])


# --- per-layer metrics ----------------------------------------------------------

PER_LAYER_UNITS: dict[str, str] = {
    "cli.parse_scenario.s": "s",
    "cli.emit.s": "s",
    "cli.emit.bytes": "bytes",
    "cli.self.s": "s",
    "analyzer.estimate_theta.calls": "count",
    "analyzer.estimate_theta.s": "s",
    "analyzer.optimize_b.s": "s",
    "analyzer.samples": "count",
    "analyzer.accepted_frac": "ratio",
    "analyzer.us_per_sample": "us",
    "solver.iterations": "count",
    "solver.self.s": "s",
    "solver.us_per_iteration": "us",
    "solver.detect_cycle.calls": "count",
    "solver.detect_cycle.s": "s",
    "mapping.apply.calls": "count",
    "mapping.apply.s": "s",
    "mapping.apply.per_iteration": "calls/iter",
    "mapping.apply_batch.calls": "count",
    "mapping.apply_batch.rows": "count",
    "mapping.apply_batch.s": "s",
    "space.two_norm.calls": "count",
    "space.two_norm.s": "s",
    "space.two_norm.us_per_call": "us",
    "space.two_norm.per_iteration": "calls/iter",
    "space.witness_residual.calls": "count",
    "space.witness_residual.s": "s",
    "space.two_norm_batch.calls": "count",
    "space.two_norm_batch.rows": "count",
    "space.two_norm_batch.s": "s",
    "space.two_norm_batch.ns_per_row": "ns",
    "cli.share": "ratio",
    "analyzer.share": "ratio",
    "solver.share": "ratio",
    "mapping.share": "ratio",
    "space.share": "ratio",
    "trace.overhead_frac": "ratio",
}

COUNT_METRICS = tuple(k for k, u in PER_LAYER_UNITS.items() if u == "count")


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, wall_untraced: float, wall_traced: float,
                  emit_bytes: int) -> dict[str, float]:
    """Per-layer totals over one traced pass; ``s`` is self time.

    Self time is a span's duration minus the durations of its direct
    children. Inclusive times (per iteration, per sample) keep the children.
    """
    child = [0.0] * len(tracer.names)
    for start, end, parent in zip(tracer.starts, tracer.ends, tracer.parents):
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    info: dict[str, list] = defaultdict(list)
    for i, (name, start, end, _, _, extra) in enumerate(tracer.spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
        incl_s[name] += end - start
        if extra is not None:
            info[name].append(extra)

    iterations = sum(sum(info[n]) for n in SOLVES)
    samples = sum(s for s, _ in info["analyzer.estimate_theta"])
    accepted = sum(a for _, a in info["analyzer.estimate_theta"])
    layer_self: dict[str, float] = defaultdict(float)
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value

    m = {
        "cli.parse_scenario.s": self_s["cli.parse_scenario"],
        "cli.emit.s": self_s["cli.emit_trace_csv"] + self_s["cli.emit_report"],
        "cli.emit.bytes": emit_bytes,
        "cli.self.s": (self_s["cli.main"] + self_s["cli.run_scenario"]
                       + self_s["cli.resolve_certificate"]),
        "analyzer.estimate_theta.calls": calls["analyzer.estimate_theta"],
        "analyzer.estimate_theta.s": self_s["analyzer.estimate_theta"],
        "analyzer.optimize_b.s": self_s["analyzer.optimize_b"],
        "analyzer.samples": samples,
        "analyzer.accepted_frac": _div(accepted, samples),
        "analyzer.us_per_sample": 1e6 * _div(incl_s["analyzer.estimate_theta"], samples),
        "solver.iterations": iterations,
        "solver.self.s": sum(self_s[n] for n in SOLVES),
        "solver.us_per_iteration": 1e6 * _div(sum(incl_s[n] for n in SOLVES), iterations),
        "solver.detect_cycle.calls": calls["solver.detect_cycle"],
        "solver.detect_cycle.s": self_s["solver.detect_cycle"],
        "mapping.apply.calls": calls["mapping.apply"],
        "mapping.apply.s": self_s["mapping.apply"],
        "mapping.apply.per_iteration": _div(calls["mapping.apply"], iterations),
        "mapping.apply_batch.calls": calls["mapping.apply_batch"],
        "mapping.apply_batch.rows": sum(info["mapping.apply_batch"]),
        "mapping.apply_batch.s": self_s["mapping.apply_batch"],
        "space.two_norm.calls": calls["space.two_norm"],
        "space.two_norm.s": self_s["space.two_norm"],
        "space.two_norm.us_per_call": 1e6 * _div(self_s["space.two_norm"],
                                                 calls["space.two_norm"]),
        "space.two_norm.per_iteration": _div(calls["space.two_norm"], iterations),
        "space.witness_residual.calls": calls["space.witness_residual"],
        "space.witness_residual.s": self_s["space.witness_residual"],
        "space.two_norm_batch.calls": calls["space.two_norm_batch"],
        "space.two_norm_batch.rows": sum(info["space.two_norm_batch"]),
        "space.two_norm_batch.s": self_s["space.two_norm_batch"],
        "space.two_norm_batch.ns_per_row": 1e9 * _div(self_s["space.two_norm_batch"],
                                                      sum(info["space.two_norm_batch"])),
        "trace.overhead_frac": _div(wall_traced - wall_untraced, wall_untraced),
    }
    for layer in ("cli", "analyzer", "solver", "mapping", "space"):
        m[f"{layer}.share"] = _div(layer_self[layer], wall_traced)
    assert set(m) == set(PER_LAYER_UNITS)
    return m
