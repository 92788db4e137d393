"""Event records for the discrete-event engine.

Events are ordered by ``(time, seq)``; ``seq`` is a monotonically increasing
tie-breaker so simultaneous events process in scheduling order and the
simulation stays fully deterministic.

Representation
--------------
An :class:`Event` is a :class:`typing.NamedTuple` — a plain tuple at the C
level — so the heap holds ``(time, seq, kind, core_id, task_id,
batch_index)`` tuples and every comparison is a C tuple compare. Because
``seq`` is unique per queue, ordering is fully decided by the first two
slots and the comparison never reaches the (unorderable) ``kind`` member.
This replaced a frozen ``order=True`` dataclass whose generated ``__lt__``
built throwaway tuples on every heap sift; the tuple form cuts event
scheduling cost roughly in half while keeping the exact same ``(time,
seq)`` order, field names, and :class:`EventQueue` API. The engine pushes
its per-task events (``TASK_DONE`` and zero-delay ``CORE_READY`` wakes)
onto the heap itself as plain tuples in the same layout, drawing ``seq``
from the queue's counter, so both kinds share one order.
"""

from __future__ import annotations

import enum
from heapq import heappop, heappush
from typing import NamedTuple, Optional

from repro.errors import SimulationError


class EventKind(enum.Enum):
    """Discriminator for engine events."""

    TASK_DONE = "task_done"
    DVFS_DONE = "dvfs_done"
    CORE_READY = "core_ready"
    BATCH_LAUNCH = "batch_launch"

    #: Enum's default ``__hash__`` is a Python-level function; events are
    #: hashed in hot dict lookups, so use the identity slot wrapper. Dicts
    #: iterate in insertion order, so this cannot perturb determinism.
    __hash__ = object.__hash__


class Event(NamedTuple):
    """One scheduled occurrence.

    A plain tuple ordered by its leading ``(time, seq)`` slots; payload
    fields are never compared because ``seq`` is unique.
    """

    time: float
    seq: int
    kind: EventKind
    core_id: Optional[int] = None
    task_id: Optional[int] = None
    batch_index: Optional[int] = None


class EventQueue:
    """Deterministic min-heap of :class:`Event` tuples."""

    __slots__ = ("_heap", "_seq", "_now")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(
        self,
        delay: float,
        kind: EventKind,
        *,
        core_id: Optional[int] = None,
        task_id: Optional[int] = None,
        batch_index: Optional[int] = None,
    ) -> Event:
        """Enqueue an event ``delay`` seconds from now and return it."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        event = Event(self._now + delay, seq, kind, core_id, task_id, batch_index)
        heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing the clock."""
        if not self._heap:
            raise SimulationError("event queue is empty")
        event = heappop(self._heap)
        time = event[0]
        if time > self._now:
            self._now = time
        elif time < self._now - 1e-12:
            raise SimulationError(
                f"event at t={time} precedes clock t={self._now}"
            )
        return event
