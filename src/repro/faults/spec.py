"""Typed, JSON-round-trippable fault-injection specifications.

A :class:`FaultSpec` describes *which* platform faults a run is subject to
and *how often*; the :class:`~repro.faults.injector.FaultInjector` turns it
into deterministic per-event draws. Specs are frozen dataclasses, so they
participate in scenario digests and parallel-runner cache keys through
the canonical encoding of :func:`repro.sim.fingerprint.digest` with no
extra code.

Fault channels (all off by default):

* **DVFS denial** — a frequency request is rejected by the platform; the
  requesting policy is notified via
  :meth:`~repro.runtime.policy.SchedulerPolicy.on_dvfs_denied` and a
  spinning requester retries after ``dvfs_deny_penalty_s``.
* **DVFS delay** — a granted transition takes ``dvfs_delay_s`` longer than
  the machine's nominal latency.
* **Core stall** — a core about to be dispatched instead goes offline
  (parked) for ``stall_duration_s``; work stealing routes around it.
* **Counter noise** — a finished task's PMU reading gains spurious cache
  misses (``counter_noise_intensity`` misses per retired instruction),
  perturbing the profiler's memory-boundness signal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigurationError, ScenarioError

#: Version of the fault-spec JSON schema. Bump on any field change.
FAULT_SCHEMA_VERSION = 1

_RATE_FIELDS = (
    "dvfs_deny_rate",
    "dvfs_delay_rate",
    "stall_rate",
    "counter_noise_rate",
)


@dataclass(frozen=True)
class FaultSpec:
    """One run's fault mix. All rates are per-opportunity probabilities."""

    #: Probability each distinct DVFS request (per core) is denied.
    dvfs_deny_rate: float = 0.0
    #: Seconds a spinning core waits before retrying after a denial.
    dvfs_deny_penalty_s: float = 1e-3
    #: Probability a granted transition is slower than nominal.
    dvfs_delay_rate: float = 0.0
    #: Extra transition seconds when the delay fault fires.
    dvfs_delay_s: float = 0.0
    #: Probability a dispatch finds the core transiently offline.
    stall_rate: float = 0.0
    #: Length of one offline window in seconds.
    stall_duration_s: float = 0.0
    #: Probability a finished task's PMU counters are corrupted.
    counter_noise_rate: float = 0.0
    #: Spurious cache misses added, as a fraction of retired instructions.
    counter_noise_intensity: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        for name in (
            "dvfs_deny_penalty_s", "dvfs_delay_s",
            "stall_duration_s", "counter_noise_intensity",
        ):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be non-negative")
        # A rate without a magnitude is a silent no-op (or, for denial, a
        # zero-delay retry storm) — reject the inconsistent combination.
        if self.dvfs_deny_rate > 0.0 and self.dvfs_deny_penalty_s <= 0.0:
            raise ConfigurationError(
                "dvfs_deny_rate > 0 requires a positive dvfs_deny_penalty_s"
            )
        if self.dvfs_delay_rate > 0.0 and self.dvfs_delay_s <= 0.0:
            raise ConfigurationError(
                "dvfs_delay_rate > 0 requires a positive dvfs_delay_s"
            )
        if self.stall_rate > 0.0 and self.stall_duration_s <= 0.0:
            raise ConfigurationError(
                "stall_rate > 0 requires a positive stall_duration_s"
            )
        if self.counter_noise_rate > 0.0 and self.counter_noise_intensity <= 0.0:
            raise ConfigurationError(
                "counter_noise_rate > 0 requires a positive "
                "counter_noise_intensity"
            )

    @property
    def active(self) -> bool:
        """Whether any fault channel can actually fire."""
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Sparse JSON form: schema tag plus every non-default field."""
        data: dict[str, Any] = {"schema": FAULT_SCHEMA_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        if not isinstance(data, Mapping):
            raise ScenarioError("fault spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known - {"schema"}
        if unknown:
            raise ScenarioError(f"unknown fault fields: {sorted(unknown)}")
        schema = data.get("schema", FAULT_SCHEMA_VERSION)
        if schema != FAULT_SCHEMA_VERSION:
            raise ScenarioError(
                f"unsupported fault schema {schema!r}; this version reads "
                f"schema {FAULT_SCHEMA_VERSION}"
            )
        kwargs = {k: float(v) for k, v in data.items() if k != "schema"}
        try:
            return cls(**kwargs)
        except ConfigurationError as exc:
            raise ScenarioError(f"invalid fault spec: {exc}") from exc

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid fault JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "FaultSpec":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ScenarioError(
                f"cannot load fault spec from {path}: {exc}"
            ) from exc
        return cls.from_json(text)


__all__ = ["FAULT_SCHEMA_VERSION", "FaultSpec"]
