"""Span recorder for traced benchmark runs, and the per-layer metric table.

:func:`install` wraps the public calls of every layer at the name its
caller looks up (a module attribute, a class attribute, or the adjuster's
search table), so the program under test is not edited. Each wrapper
records one span per call: name, start, end, parent span and cell id. A
layer's self time is its span's duration minus the time covered by the
spans nested inside it.

Calls made once per simulated event (``next_action``, ``EnergyMeter.observe``,
``state_fingerprint``) would produce millions of spans per run, so they are
*hot*: they are timed and nested exactly like spans but kept only as
per-cell aggregates (calls, self seconds, total seconds).

Spans stay in memory while the run is timed and are written as JSON lines
by :meth:`Recorder.dump` when it ends. Garbage-collector pauses are taken
from ``gc.callbacks``; they overlap the spans they interrupt and are
reported on their own, never subtracted.

The wrappers cost time of their own, most of it charged to the parent of
each wrapped call; end-to-end numbers therefore always come from untraced
runs.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import itertools
import json
import threading
import time
from typing import Any, Callable, Optional


class _ThreadLog:
    """One thread's open spans, finished spans and aggregates."""

    __slots__ = ("stack", "cell", "spans", "aggs", "sums", "top_s")

    def __init__(self) -> None:
        #: Open frames: ``[name, span id or None for hot calls, child seconds]``.
        self.stack: list[list[Any]] = []
        self.cell: Any = None
        self.spans: list[tuple] = []
        self.aggs: dict[tuple[str, Any], list[float]] = {}
        self.sums: dict[str, float] = {}
        #: Seconds covered by outermost spans (the traced share of wall time).
        self.top_s = 0.0


class Recorder:
    """Collects spans from the wrappers :func:`install` puts in place.

    Recording happens only while :attr:`active` is true, so set-up and the
    correctness checks that follow the timed phase stay out of the trace.
    """

    def __init__(self) -> None:
        self.active = False
        self.t0 = time.perf_counter()
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._gc_start: Optional[float] = None
        self.gc_pauses: list[tuple[float, float, int]] = []
        gc.callbacks.append(self._on_gc)

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._logs_lock:
                self._logs.append(log)
        return log

    def set_cell(self, cell: Any) -> None:
        """Tag the calling thread's following spans with ``cell``."""
        self._log().cell = cell

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_pauses.append(
                (self._gc_start, time.perf_counter(), info["generation"])
            )
            self._gc_start = None

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        hot: bool = False,
        measure: Optional[Callable[[Any], tuple[str, float]]] = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``.

        A call made while a span of the same name is open on the same
        thread (a ``super()`` chain, or ``benchmark_program`` calling
        ``generate_program``) belongs to the open span and is not counted
        again. ``measure`` maps the return value to a ``(key, amount)`` pair
        summed per run.
        """
        recorder = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.active:
                return fn(*args, **kwargs)
            log = recorder._log()
            stack = log.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, None if hot else next(recorder._ids), 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                total = end - start
                if stack:
                    stack[-1][2] += total
                else:
                    log.top_s += total
                key = (name, log.cell)
                agg = log.aggs.get(key)
                if agg is None:
                    log.aggs[key] = [1, total - frame[2], total]
                else:
                    agg[0] += 1
                    agg[1] += total - frame[2]
                    agg[2] += total
                if not hot:
                    parent = next((f[1] for f in reversed(stack) if f[1]), None)
                    log.spans.append((frame[1], name, start, end, parent, log.cell))
            if measure is not None:
                what, amount = measure(result)
                log.sums[what] = log.sums.get(what, 0.0) + amount
            return result

        return traced

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Per-layer totals over every thread (JSON-ready)."""
        layers: dict[str, dict[str, float]] = {}
        sums: dict[str, float] = {}
        top_s = 0.0
        for log in self._logs:
            top_s += log.top_s
            for (name, _cell), (calls, self_s, total_s) in log.aggs.items():
                entry = layers.setdefault(
                    name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                )
                entry["calls"] += calls
                entry["self_s"] += self_s
                entry["total_s"] += total_s
            for what, amount in log.sums.items():
                sums[what] = sums.get(what, 0.0) + amount
        return {
            "layers": layers,
            "sums": sums,
            "top_s": top_s,
            "gc_pause_s": sum(end - start for start, end, _ in self.gc_pauses),
            "gc_gen2": sum(1 for _, _, gen in self.gc_pauses if gen == 2),
        }

    def dump(self, path: str) -> None:
        """Write every span, aggregate and GC pause as JSON lines, then the
        :meth:`summary` as the last line."""
        t0 = self.t0
        with open(path, "w", encoding="utf-8") as fh:
            for log in self._logs:
                for span_id, name, start, end, parent, cell in log.spans:
                    fh.write(json.dumps({
                        "span": span_id, "name": name, "start": start - t0,
                        "end": end - t0, "parent": parent, "cell": cell,
                    }) + "\n")
                for (name, cell), (calls, self_s, total_s) in log.aggs.items():
                    fh.write(json.dumps({
                        "agg": name, "cell": cell, "calls": calls,
                        "self": self_s, "total": total_s,
                    }) + "\n")
            for start, end, gen in self.gc_pauses:
                fh.write(json.dumps(
                    {"gc": gen, "start": start - t0, "end": end - t0}
                ) + "\n")
            fh.write(json.dumps({"summary": self.summary()}) + "\n")


def load_summary(path: str) -> dict[str, Any]:
    """The summary line of a trace written by :meth:`Recorder.dump`."""
    with open(path, encoding="utf-8") as fh:
        *_, last = fh
    return json.loads(last)["summary"]


# ----------------------------------------------------------------------
# where the wrappers go
# ----------------------------------------------------------------------


def _cache_hit(payload: Any) -> tuple[str, float]:
    return "cache_get_hits", float(payload is not None)


def _frame_bytes(frame: bytes) -> tuple[str, float]:
    return "frame_bytes", float(len(frame))


def install(recorder: Recorder) -> int:
    """Wrap every layer's public calls; returns the number of wrappers.

    Targets that do not exist in this version of the program are skipped,
    so the benchmark keeps running when a layer is removed.
    """
    import repro.core.adjuster as adjuster
    import repro.core.eewa as eewa
    import repro.experiments.parallel as parallel
    import repro.experiments.sweep as sweep
    import repro.machine.energy as energy
    import repro.service.server as server
    import repro.sim.rng as rng
    import repro.workloads.benchmarks as benchmarks
    import repro.workloads.generators as generators
    from repro.machine.topology import opteron_8380_machine
    from repro.scenario.registry import POLICIES, spread_levels_for

    # (owner, attribute, span name, hot, measure)
    targets: list[tuple[Any, str, str, bool, Any]] = [
        (parallel, "benchmark_program", "workloads.generate", False, None),
        (benchmarks, "generate_program", "workloads.generate", False, None),
        (generators, "generate_program", "workloads.generate", False, None),
        (sweep, "cell_key", "experiments.parallel.cell_key", False, None),
        (parallel.ResultCache, "put", "experiments.parallel.cache_put", False, None),
        (parallel.ResultCache, "get", "experiments.parallel.cache_get", False, _cache_hit),
        (sweep.SweepEngine, "submit", "experiments.sweep.submit", False, None),
        (sweep.SweepTicket, "result", "experiments.sweep.wait", False, None),
        (parallel, "simulate", "sim.simulate", False, None),
        (sweep, "classify_cell", "model.classify", False, None),
        (sweep, "predict_cell", "model.predict", False, None),
        (server, "resolve_scenario", "scenario.resolve", False, None),
        (server, "stream_request", "service.stream", False, None),
        (server, "cell_frame", "service.encode", False, None),
        (server, "encode_frame", "service.encode", False, _frame_bytes),
        (adjuster.WorkloadAwareFrequencyAdjuster, "decide", "core.adjuster", False, None),
        (adjuster, "build_cc_table", "core.cc_table", False, None),
        (getattr(adjuster, "SEARCH_ALGORITHMS", {}), "backtracking", "core.ktuple", False, None),
        (eewa, "search_ktuple", "core.ktuple", False, None),
        (energy.EnergyMeter, "observe", "machine.meter", True, None),
        (rng.RngStreams, "state_fingerprint", "sim.fingerprint", True, None),
    ]
    machine = opteron_8380_machine()
    seen: set[tuple[int, str]] = set()
    for entry in POLICIES:
        levels = spread_levels_for(machine) if entry.needs_core_levels else None
        for cls in type(entry.build(core_levels=levels)).__mro__[:-1]:
            for attr, name in (
                ("next_action", "runtime.next_action"),
                ("state_fingerprint", "sim.fingerprint"),
            ):
                if attr in vars(cls) and (id(cls), attr) not in seen:
                    seen.add((id(cls), attr))
                    targets.append((cls, attr, name, True, None))

    installed = 0
    for owner, attr, name, hot, measure in targets:
        if isinstance(owner, dict):
            if attr in owner:
                owner[attr] = recorder.wrap(name, owner[attr], hot=hot, measure=measure)
                installed += 1
        elif attr in vars(owner):
            setattr(owner, attr, recorder.wrap(
                name, vars(owner)[attr], hot=hot, measure=measure
            ))
            installed += 1
    return installed


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Layer:
    """One per-layer metric and the end-to-end metric it should move."""

    name: str
    unit: str
    better: str
    #: End-to-end metric a change to this layer should move ...
    moves: str
    #: ... and the workload where it should move. Workloads that bypass
    #: the layer predict no change.
    on: str
    #: ``(summary, extras, cells) -> value``.
    compute: Callable[[dict[str, Any], dict[str, float], int], float]


def _self_ms(*names: str) -> Callable[..., float]:
    def compute(summary: dict[str, Any], _extras: dict[str, float], cells: int) -> float:
        layers = summary["layers"]
        return 1e3 * sum(layers.get(n, {}).get("self_s", 0.0) for n in names) / cells
    return compute


def _calls(name: str) -> Callable[..., float]:
    def compute(summary: dict[str, Any], _extras: dict[str, float], cells: int) -> float:
        return summary["layers"].get(name, {}).get("calls", 0) / cells
    return compute


def _extra(key: str) -> Callable[..., float]:
    def compute(_summary: dict[str, Any], extras: dict[str, float], _cells: int) -> float:
        return extras.get(key, 0.0)
    return compute


def _ratio(num: str, den_layer: str) -> Callable[..., float]:
    def compute(summary: dict[str, Any], _extras: dict[str, float], _cells: int) -> float:
        calls = summary["layers"].get(den_layer, {}).get("calls", 0)
        return summary["sums"].get(num, 0.0) / calls if calls else 0.0
    return compute


def _per_cell_kb(key: str) -> Callable[..., float]:
    def compute(summary: dict[str, Any], _extras: dict[str, float], cells: int) -> float:
        return summary["sums"].get(key, 0.0) / 1024 / cells
    return compute


LAYERS: tuple[Layer, ...] = (
    Layer("workloads.generate_ms", "ms", "lower", "cell_ms_p50", "steady-periodic",
          _self_ms("workloads.generate")),
    Layer("experiments.parallel.cell_key_ms", "ms", "lower", "cell_ms_p50", "steady-periodic",
          _self_ms("experiments.parallel.cell_key")),
    Layer("experiments.parallel.cache_put_ms", "ms", "lower", "cells_per_s", "paper-grid-cold",
          _self_ms("experiments.parallel.cache_put")),
    Layer("experiments.parallel.entry_kb", "KB", "lower", "cells_per_s", "paper-grid-cold",
          _extra("entry_kb")),
    Layer("experiments.parallel.cache_get_ms", "ms", "lower", "cell_ms_p50", "serve-mixed",
          _self_ms("experiments.parallel.cache_get")),
    Layer("experiments.parallel.cache_hit_ratio", "ratio", "higher", "cell_ms_p50", "serve-mixed",
          _ratio("cache_get_hits", "experiments.parallel.cache_get")),
    Layer("experiments.sweep.submit_self_ms", "ms", "lower", "cell_ms_p90", "serve-mixed",
          _self_ms("experiments.sweep.submit")),
    Layer("experiments.sweep.wait_ms", "ms", "lower", "cell_ms_p90", "serve-mixed",
          _self_ms("experiments.sweep.wait")),
    Layer("experiments.sweep.dedup_share", "ratio", "higher", "cell_ms_p90", "serve-mixed",
          _extra("dedup_share")),
    Layer("sim.simulate_self_ms", "ms", "lower", "cells_per_s", "paper-grid-cold",
          _self_ms("sim.simulate")),
    Layer("sim.fingerprint_ms", "ms", "lower", "cell_ms_p50", "steady-periodic",
          _self_ms("sim.fingerprint")),
    Layer("sim.ff_share", "ratio", "higher", "cell_ms_p50", "steady-periodic",
          _extra("ff_share")),
    Layer("runtime.next_action_ms", "ms", "lower", "cells_per_s", "paper-grid-cold",
          _self_ms("runtime.next_action")),
    Layer("runtime.next_action_calls", "count", "lower", "cells_per_s", "paper-grid-cold",
          _calls("runtime.next_action")),
    Layer("runtime.steal_success", "ratio", "higher", "cells_per_s", "paper-grid-cold",
          _extra("steal_success")),
    Layer("core.adjuster_ms", "ms", "lower", "cell_ms_p50", "paper-grid-cold",
          _self_ms("core.adjuster")),
    Layer("core.cc_table_ms", "ms", "lower", "cell_ms_p50", "paper-grid-cold",
          _self_ms("core.cc_table")),
    Layer("core.ktuple_ms", "ms", "lower", "cell_ms_p50", "paper-grid-cold",
          _self_ms("core.ktuple")),
    Layer("machine.meter_ms", "ms", "lower", "cells_per_s", "paper-grid-cold",
          _self_ms("machine.meter")),
    Layer("machine.meter_calls", "count", "lower", "cells_per_s", "paper-grid-cold",
          _calls("machine.meter")),
    Layer("model.classify_ms", "ms", "lower", "cells_per_s", "auto-explore",
          _self_ms("model.classify")),
    Layer("model.predict_ms", "ms", "lower", "cells_per_s", "auto-explore",
          _self_ms("model.predict")),
    Layer("model.served_share", "ratio", "higher", "cells_per_s", "auto-explore",
          _extra("served_share")),
    Layer("model.max_rel_err", "ratio", "lower", "cells_per_s", "auto-explore",
          _extra("max_rel_err")),
    Layer("scenario.resolve_ms", "ms", "lower", "cell_ms_p90", "serve-mixed",
          _self_ms("scenario.resolve")),
    Layer("service.stream_self_ms", "ms", "lower", "cell_ms_p50", "serve-mixed",
          _self_ms("service.stream")),
    Layer("service.encode_ms", "ms", "lower", "cell_ms_p50", "serve-mixed",
          _self_ms("service.encode")),
    Layer("service.frame_kb", "KB", "lower", "cell_ms_p50", "serve-mixed",
          _per_cell_kb("frame_bytes")),
    Layer("service.retries", "count", "lower", "cell_ms_p50", "serve-mixed",
          _extra("retries")),
    Layer("python.gc_pause_ms", "ms", "lower", "cells_per_s", "steady-periodic",
          lambda summary, _extras, cells: 1e3 * summary["gc_pause_s"] / cells),
    Layer("python.gc_gen2", "count", "lower", "peak_rss_mb", "steady-periodic",
          lambda summary, _extras, cells: summary["gc_gen2"] / cells),
    # The trace's own health: no end-to-end metric follows these.
    Layer("trace.coverage", "ratio", "higher", "-", "-", _extra("coverage")),
    Layer("trace.cell_ms", "ms", "lower", "-", "-", _extra("traced_cell_ms")),
)


def layer_metrics(
    summary: dict[str, Any], extras: dict[str, float], cells: int
) -> dict[str, dict[str, Any]]:
    """Every :data:`LAYERS` metric, as the result line's ``metrics`` map."""
    return {
        layer.name: {"value": layer.compute(summary, extras, cells), "unit": layer.unit}
        for layer in LAYERS
    }
