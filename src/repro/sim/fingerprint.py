"""Canonical fingerprints of simulation results.

A *trace fingerprint* is a SHA-256 over every observable of a run — the
:class:`~repro.sim.engine.SimResult` scalars, the per-batch trace, the DVFS
transition log, the per-task execution records, and (when recorded) the
deep task-event trace. Floats are rendered with :func:`repr`, which is the
shortest round-trip representation, so two fingerprints match *iff* the
runs are bit-identical — the property the golden-trace regression suite
pins and any engine refactor must preserve.

The same canonical encoding keys the sweep engine's result cache
(:mod:`repro.experiments.parallel`): identical inputs hash identically
across processes and across Python sessions (no reliance on ``hash()``,
which is salted per-process for strings).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
from typing import TYPE_CHECKING, Any, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import SimResult
    from repro.sim.record import CellResult


def canonical_value(value: Any) -> Any:
    """Encode dataclasses/enums/containers into nested lists of scalars.

    Field *names* are included so reordering or renaming a config field
    changes the encoding, and every float round-trips through ``repr``
    inside :func:`canonical_blob`. This is the reference definition of the
    canonical form behind both the result-cache keys
    (:mod:`repro.experiments.parallel`) and scenario digests
    (:mod:`repro.scenario.spec`); :func:`digest` encodes raw values into
    the same bytes in one pass, so callers need not build this tree.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        parts: list[Any] = [type(value).__name__]
        for f in dataclasses.fields(value):
            parts.append(f.name)
            parts.append(canonical_value(getattr(value, f.name)))
        return parts
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.value]
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if isinstance(value, dict):
        return [[canonical_value(k), canonical_value(v)] for k, v in sorted(value.items())]
    return value


#: Types :func:`_encode` writes with ``repr`` or walks without any check.
_REPR_TYPES = frozenset({str, int, float, bool, type(None)})
_SEQUENCE_TYPES = frozenset({tuple, list})


@functools.lru_cache(maxsize=None)
def _dataclass_tokens(cls: type) -> Optional[tuple[str, tuple[tuple[str, str], ...]]]:
    """A dataclass type's encoding tokens; ``None`` for any other type.

    The opening token (``"['TaskSpec'|"``) and, per field, its name and
    the token written before its value (``"'function'|"``): the bytes the
    generic walk writes for ``[cls.__name__, name, value, ...]``, built
    once per class instead of once per instance.
    """
    if dataclasses.is_dataclass(cls):
        head = "[" + repr(cls.__name__) + "|"
        return head, tuple(
            (f.name, repr(f.name) + "|") for f in dataclasses.fields(cls)
        )
    return None


def _encode(parts: Iterable[Any], out: list[str], seen: dict[int, list[Any]]) -> None:
    """Append the canonical encoding of each part, ``|``-terminated.

    A dataclass, enum or dict is written as the list
    :func:`canonical_value` turns it into — one walk over the raw value,
    with no intermediate tree. A dataclass is written from its class's
    precomputed tokens, with scalar field values inline.

    A list or tuple met a second time in the same call is written by
    copying the bytes its first walk wrote, so a program whose batches
    share one ``specs`` tuple is walked once per distinct batch. ``seen``
    maps the ``id`` of each sequence walked so far to ``[sequence, start,
    end]``, where ``out[start:end]`` is what the walk wrote; the first
    repeat appends the join of that slice to the entry for later repeats.
    The entry holds the sequence, so no other object can take its ``id``
    while the call runs, and ``out`` only grows, so the slice stays valid.
    """
    append = out.append
    for part in parts:
        cls = type(part)
        if cls in _REPR_TYPES:
            append(repr(part))
        elif cls in _SEQUENCE_TYPES:
            if not part:
                append("[]")
            elif (entry := seen.get(id(part))) is None:
                start = len(out)
                append("[")
                _encode(part, out, seen)
                append("]")
                seen[id(part)] = [part, start, len(out)]
            else:
                if len(entry) == 3:
                    entry.append("".join(out[entry[1]:entry[2]]))
                append(entry[3])
        elif (tokens := _dataclass_tokens(cls)) is not None:
            head, fields = tokens
            append(head)
            for name, token in fields:
                append(token)
                value = getattr(part, name)
                value_cls = type(value)
                if value_cls in _REPR_TYPES:
                    append(repr(value))
                    append("|")
                elif value_cls in _SEQUENCE_TYPES and not value:
                    append("[]|")
                else:
                    _encode((value,), out, seen)
            append("]")
        else:
            if isinstance(part, enum.Enum):
                items = [cls.__name__, part.value]
            elif isinstance(part, (list, tuple)):
                items = part
            elif isinstance(part, dict):
                items = sorted(part.items())
            else:
                append(repr(part))
                append("|")
                continue
            append("[")
            _encode(items, out, seen)
            append("]")
        append("|")


def canonical_blob(parts: Iterable[Any]) -> bytes:
    """Deterministic byte encoding of a nested structure of scalars,
    containers, dataclasses and enums."""
    out: list[str] = []
    _encode(parts, out, {})
    return "".join(out).encode()


def digest(parts: Iterable[Any]) -> str:
    """Hex SHA-256 of :func:`canonical_blob`.

    Parts may be raw dataclasses, enums and dicts: ``digest([x])`` equals
    ``digest([canonical_value(x)])``.
    """
    return hashlib.sha256(canonical_blob(parts)).hexdigest()


def result_scalars(result: "SimResult | CellResult") -> dict[str, Any]:
    """The scalar observables the golden suite pins, by name."""
    return {
        "total_time": result.total_time,
        "total_joules": result.total_joules,
        "core_joules": result.core_joules,
        "baseline_joules": result.baseline_joules,
        "spin_joules": result.spin_joules,
        "running_joules": result.running_joules,
        "tasks_executed": result.tasks_executed,
        "batches_executed": result.batches_executed,
        "adjust_overhead_seconds": result.adjust_overhead_seconds,
    }


def trace_fingerprint(result: "SimResult | CellResult") -> str:
    """SHA-256 over every observable of one run.

    Covers the result scalars, batch traces, DVFS transitions, per-task
    execution records (id, function, placement, timing, steal bit) and —
    when the run recorded them — the deep task-event and plan traces.
    """
    trace = result.trace
    parts: list[Any] = ["scalars"]
    scalars = result_scalars(result)
    for name in sorted(scalars):
        parts.append(name)
        parts.append(scalars[name])
    parts.append("batches")
    for bt in trace.batches:
        parts.append(
            (
                bt.batch_index,
                bt.start_time,
                bt.duration,
                bt.tasks_completed,
                bt.level_histogram,
                bt.adjust_overhead_seconds,
            )
        )
    parts.append("transitions")
    for tr in trace.transitions:
        parts.append((tr.time, tr.core_id, tr.from_level, tr.to_level))
    parts.append("tasks")
    for task in result.tasks:
        parts.append(
            (
                task.task_id,
                task.function,
                task.batch_index,
                task.stolen,
                task.start_time,
                task.finish_time,
                task.executed_on,
                task.executed_level,
            )
        )
    parts.append("task_events")
    for ev in trace.task_events:
        parts.append(
            (ev.seq, ev.time, ev.kind.value, ev.actor, ev.task_id,
             ev.pool_core, ev.pool_index)
        )
    parts.append("plan_events")
    for ev in trace.plan_events:
        parts.append((ev.seq, ev.time, ev.group_of_core, ev.group_levels))
    return digest(parts)
