"""Wire schema of the sweep service.

One request, many frames back. The request body is a single JSON object::

    {
      "protocol": 1,
      "scenarios": [ <scenario-spec JSON, schema v3>, ... ],
      "fidelity": "sim" | "model" | "auto" | null,   // null: server default
      "priority": 0,                                 // lower runs first
      "deadline_s": 5.0 | null                       // per-request budget
    }

Scenario objects go through :meth:`~repro.scenario.spec.ScenarioSpec.from_dict`
— the exact validation path of ``repro run-spec`` — so schema versioning
and unknown-field and unknown-name rejection behave identically over the
wire and on the command line.

The response is a newline-delimited JSON stream (``application/x-ndjson``),
one frame per line, in completion order:

``cell``
    One resolved cell: ``index`` is the cell's position in the request's
    flattened (scenario × seed) order (the idempotency/resume key),
    ``scenario`` the index of its owning scenario, plus benchmark /
    policy / seed / cache provenance and the full
    :func:`~repro.sim.export.result_to_dict` result payload. Results are
    JSON-exact: floats round-trip bit-identically, so a streamed cell
    equals a local run of the same cell field for field.
``error``
    Terminal failure *after* streaming started (deadline expiry, engine
    failure). The stream ends after an error frame; cells streamed before
    it are valid.
``end``
    Normal termination: totals for the request. Exactly one ``end`` or
    ``error`` frame terminates every stream.

Transport-level failures *before* streaming starts are plain HTTP status
codes: 400 for validation errors, 429 + ``Retry-After`` for queue-full
backpressure, 404/405 for unknown routes.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Iterable, Mapping, Optional

from repro.errors import ScenarioError
from repro.experiments.parallel import CellOutcome, CellSpec
from repro.experiments.sweep import FIDELITIES
from repro.scenario.spec import ScenarioSpec
from repro.sim.export import result_to_dict

#: Version of the request/frame schema. Bump on any incompatible change;
#: the server rejects requests carrying a different version.
PROTOCOL_VERSION = 1

#: Frame kinds a stream may carry.
FRAME_KINDS = ("cell", "error", "end")

#: Error codes carried by ``error`` frames and pre-stream HTTP error
#: bodies. ``deadline``: the request's ``deadline_s`` expired mid-stream;
#: ``backpressure``: the engine queue was full at admission (HTTP 429);
#: ``bad-request``: validation failed (HTTP 400); ``engine``: a cell
#: failed inside the engine; ``shutdown``: the server is draining.
ERROR_CODES = ("deadline", "backpressure", "bad-request", "engine", "shutdown")


@dataclasses.dataclass(frozen=True)
class SweepRequest:
    """One validated sweep request: scenarios plus streaming options."""

    scenarios: tuple[ScenarioSpec, ...]
    fidelity: Optional[str] = None
    priority: int = 0
    deadline_s: Optional[float] = None

    def cells(self) -> list[tuple[int, CellSpec]]:
        """Flattened (scenario-index, cell) pairs in submission order."""
        out: list[tuple[int, CellSpec]] = []
        for index, scenario in enumerate(self.scenarios):
            for seed in scenario.seeds:
                out.append((index, CellSpec.from_scenario(scenario, seed)))
        return out

    def to_dict(self) -> dict[str, Any]:
        return build_sweep_request(
            [s.to_dict() for s in self.scenarios],
            fidelity=self.fidelity,
            priority=self.priority,
            deadline_s=self.deadline_s,
        )


def build_sweep_request(
    scenarios: Iterable[Mapping[str, Any]],
    *,
    fidelity: Optional[str] = None,
    priority: int = 0,
    deadline_s: Optional[float] = None,
) -> dict[str, Any]:
    """The request body as a plain dict (scenarios already JSON-shaped)."""
    body: dict[str, Any] = {
        "protocol": PROTOCOL_VERSION,
        "scenarios": list(scenarios),
    }
    if fidelity is not None:
        body["fidelity"] = fidelity
    if priority:
        body["priority"] = priority
    if deadline_s is not None:
        body["deadline_s"] = deadline_s
    return body


def parse_sweep_request(data: Any) -> SweepRequest:
    """Validate one request body; raises :class:`ScenarioError` on any flaw."""
    if not isinstance(data, Mapping):
        raise ScenarioError("sweep request must be a JSON object")
    unknown = set(data) - {
        "protocol", "scenarios", "fidelity", "priority", "deadline_s",
    }
    if unknown:
        raise ScenarioError(f"unknown request fields: {sorted(unknown)}")
    protocol = data.get("protocol", PROTOCOL_VERSION)
    if protocol != PROTOCOL_VERSION:
        raise ScenarioError(
            f"unsupported protocol version {protocol!r}; this server speaks "
            f"version {PROTOCOL_VERSION}"
        )
    raw = data.get("scenarios")
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ScenarioError("request needs a non-empty 'scenarios' list")
    scenarios = tuple(ScenarioSpec.from_dict(item) for item in raw)
    fidelity = data.get("fidelity")
    if fidelity is not None and fidelity not in FIDELITIES:
        raise ScenarioError(
            f"fidelity must be one of {FIDELITIES}, got {fidelity!r}"
        )
    priority = data.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ScenarioError("priority must be an integer")
    deadline_s = data.get("deadline_s")
    if deadline_s is not None:
        if isinstance(deadline_s, bool) or not isinstance(deadline_s, (int, float)):
            raise ScenarioError("deadline_s must be a number of seconds")
        if deadline_s < 0:
            raise ScenarioError("deadline_s must be non-negative")
        deadline_s = float(deadline_s)
    return SweepRequest(
        scenarios=scenarios,
        fidelity=fidelity,
        priority=priority,
        deadline_s=deadline_s,
    )


# ----------------------------------------------------------------------
# response frames
# ----------------------------------------------------------------------


def cell_frame(
    index: int, scenario_index: int, outcome: CellOutcome
) -> dict[str, Any]:
    """One resolved cell as a wire frame."""
    spec = outcome.spec
    return {
        "frame": "cell",
        "index": index,
        "scenario": scenario_index,
        "benchmark": spec.benchmark,
        "policy": spec.policy,
        "seed": spec.seed,
        "key": outcome.key,
        "from_cache": outcome.from_cache,
        "source": outcome.source,
        "adjuster_wallclock_s": outcome.adjuster_wallclock_s,
        "adjuster_decisions": outcome.adjuster_decisions,
        "result": result_to_dict(outcome.result),
    }


def error_frame(code: str, detail: str) -> dict[str, Any]:
    """Terminal failure frame (also the body of 4xx/5xx responses)."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return {"frame": "error", "code": code, "detail": detail}


def end_frame(
    *, cells: int, streamed: int, from_cache: int, sources: Mapping[str, int]
) -> dict[str, Any]:
    """Normal stream termination with per-request totals."""
    return {
        "frame": "end",
        "cells": cells,
        "streamed": streamed,
        "from_cache": from_cache,
        "sources": dict(sources),
    }


def encode_frame(frame: Mapping[str, Any]) -> bytes:
    """One frame as a compact JSON line (the only wire encoding)."""
    return json.dumps(frame, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    ) + b"\n"


def decode_frame(line: bytes | str) -> dict[str, Any]:
    """Parse and validate one received line; raises :class:`ScenarioError`."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid frame JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ScenarioError("frame must be a JSON object")
    kind = frame.get("frame")
    if kind not in FRAME_KINDS:
        raise ScenarioError(f"unknown frame kind {kind!r}")
    return frame


__all__ = [
    "ERROR_CODES",
    "FRAME_KINDS",
    "PROTOCOL_VERSION",
    "SweepRequest",
    "build_sweep_request",
    "cell_frame",
    "decode_frame",
    "encode_frame",
    "end_frame",
    "error_frame",
    "parse_sweep_request",
]
