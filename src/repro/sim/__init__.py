"""Deterministic discrete-event simulation engine."""

from repro.sim.engine import DEFAULT_MAX_EVENTS, SimResult, Simulator, simulate
from repro.sim.export import (
    batches_to_csv,
    result_to_dict,
    result_to_json,
    tasks_to_csv,
    transitions_to_csv,
)
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.record import CellResult, TaskRecord
from repro.sim.rng import RngStreams, derive_seed
from repro.sim.trace import BatchTrace, DvfsTransition, TraceRecorder

__all__ = [
    "BatchTrace",
    "CellResult",
    "batches_to_csv",
    "result_to_dict",
    "result_to_json",
    "tasks_to_csv",
    "transitions_to_csv",
    "DEFAULT_MAX_EVENTS",
    "DvfsTransition",
    "Event",
    "EventKind",
    "EventQueue",
    "RngStreams",
    "SimResult",
    "Simulator",
    "TaskRecord",
    "TraceRecorder",
    "derive_seed",
    "simulate",
]
