"""Result and trace export.

Serialises a :class:`~repro.sim.engine.SimResult`, or the
:class:`~repro.sim.record.CellResult` record the sweep engine returns for
it, to plain dictionaries (JSON-ready) and CSV rows so runs can be
archived, diffed across commits, or analysed outside Python. Only derived
values are exported — no live object references — so exports are stable
across library versions, and a result and its record export identically.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

from repro.sim.engine import SimResult
from repro.sim.record import CellResult


def result_to_dict(result: SimResult | CellResult, *, include_tasks: bool = False) -> dict[str, Any]:
    """A JSON-serialisable summary of one run."""
    out: dict[str, Any] = {
        "policy": result.policy_name,
        "machine": {
            "num_cores": result.machine.num_cores,
            "frequencies_hz": list(result.machine.scale.levels),
            "dvfs_domains": (
                [list(d) for d in result.machine.dvfs_domains]
                if result.machine.dvfs_domains is not None
                else None
            ),
        },
        "total_time_s": result.total_time,
        "total_joules": result.total_joules,
        "core_joules": result.core_joules,
        "baseline_joules": result.baseline_joules,
        "spin_joules": result.spin_joules,
        "running_joules": result.running_joules,
        "average_power_w": result.average_power,
        "tasks_executed": result.tasks_executed,
        "batches_executed": result.batches_executed,
        "batches_simulated": result.batches_simulated,
        "batches_fast_forwarded": result.batches_fast_forwarded,
        "adjust_overhead_s": result.adjust_overhead_seconds,
        "policy_stats": dict(result.policy_stats),
        "batches": [
            {
                "index": bt.batch_index,
                "start_s": bt.start_time,
                "duration_s": bt.duration,
                "tasks": bt.tasks_completed,
                "level_histogram": list(bt.level_histogram),
                "adjust_overhead_s": bt.adjust_overhead_seconds,
            }
            for bt in result.trace.batches
        ],
        "dvfs_transitions": len(result.trace.transitions),
    }
    if include_tasks:
        out["tasks"] = [
            {
                "id": t.task_id,
                "function": t.function,
                "batch": t.batch_index,
                "core": t.executed_on,
                "level": t.executed_level,
                "stolen": t.stolen,
                "start_s": t.start_time,
                "finish_s": t.finish_time,
            }
            for t in result.tasks
        ]
    return out


def result_to_json(result: SimResult | CellResult, *, include_tasks: bool = False, indent: int = 2) -> str:
    """JSON text of :func:`result_to_dict`."""
    return json.dumps(result_to_dict(result, include_tasks=include_tasks), indent=indent)


def batches_to_csv(result: SimResult | CellResult) -> str:
    """CSV of per-batch metrics (one row per batch)."""
    buffer = io.StringIO()
    r = result.machine.r
    writer = csv.writer(buffer)
    writer.writerow(
        ["batch", "start_s", "duration_s", "tasks", "adjust_overhead_s"]
        + [f"cores_at_level_{j}" for j in range(r)]
    )
    for bt in result.trace.batches:
        writer.writerow(
            [bt.batch_index, bt.start_time, bt.duration, bt.tasks_completed,
             bt.adjust_overhead_seconds]
            + list(bt.level_histogram)
        )
    return buffer.getvalue()


def tasks_to_csv(result: SimResult | CellResult) -> str:
    """CSV of per-task execution records."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["task_id", "function", "batch", "core", "level", "stolen",
         "start_s", "finish_s", "elapsed_s"]
    )
    for t in result.tasks:
        writer.writerow(
            [t.task_id, t.function, t.batch_index, t.executed_on,
             t.executed_level, int(t.stolen), t.start_time, t.finish_time,
             t.finish_time - t.start_time]
        )
    return buffer.getvalue()


def transitions_to_csv(result: SimResult | CellResult) -> str:
    """CSV of the DVFS transition log."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["time_s", "core", "from_level", "to_level"])
    for tr in result.trace.transitions:
        writer.writerow([tr.time, tr.core_id, tr.from_level, tr.to_level])
    return buffer.getvalue()
