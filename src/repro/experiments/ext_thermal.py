"""Extension experiment: thermal headroom under each scheduler.

Not a paper exhibit — the paper's related work motivates power management
with "the heat dissipation problem" but never measures temperature. With
the recorded per-core power traces and the RC thermal model
(:mod:`repro.analysis.thermal`) we can quantify the side benefit of EEWA's
lower frequencies: peak core temperatures drop by tens of kelvin, buying
headroom before a thermal throttle would engage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.thermal import ThermalParams, socket_thermal_report, thermal_report
from repro.experiments.report import format_table
from repro.experiments.sweep import SweepEngine
from repro.scenario.registry import baseline_policy_names
from repro.scenario.spec import ScenarioSpec


@dataclass(frozen=True)
class ThermalRow:
    policy: str
    peak_c: float
    mean_peak_c: float
    socket_peaks_c: tuple[float, ...]
    throttle_seconds: float
    energy_joules: float


@dataclass(frozen=True)
class ThermalStudyResult:
    benchmark: str
    params: ThermalParams
    rows: tuple[ThermalRow, ...]

    def table(self) -> str:
        return format_table(
            ["policy", "hottest core (C)", "mean peak (C)",
             "socket peaks (C)", "throttle (s)", "energy (J)"],
            [
                (
                    r.policy,
                    r.peak_c,
                    r.mean_peak_c,
                    " ".join(f"{p:.0f}" for p in r.socket_peaks_c),
                    r.throttle_seconds,
                    r.energy_joules,
                )
                for r in self.rows
            ],
            title=(
                f"Extension — thermal headroom, {self.benchmark} "
                f"(throttle {self.params.throttle_c:.0f} C)"
            ),
            float_fmt="{:.2f}",
        )

    def row(self, policy: str) -> ThermalRow:
        for r in self.rows:
            if r.policy == policy:
                return r
        raise KeyError(policy)


def run_thermal_study(
    *,
    benchmark: str = "SHA-1",
    batches: int | None = 30,
    seed: int = 11,
    params: Optional[ThermalParams] = None,
    policies: Optional[Sequence[str]] = None,
) -> ThermalStudyResult:
    """Run ``benchmark`` under each policy on the paper's machine and
    integrate the thermal model.

    Power-series recording bypasses the result cache (traces are
    observability extras the cache does not store), so this always
    simulates in-process via :meth:`SweepEngine.run_single`.
    """
    if policies is None:
        policies = baseline_policy_names()
    if params is None:
        params = ThermalParams()
    rows = []
    with SweepEngine() as engine:
        for policy in policies:
            scenario = ScenarioSpec(
                workload=benchmark, policy=policy, seeds=(seed,), batches=batches
            )
            result = engine.run_single(scenario, record_power_series=True)
            report = thermal_report(result, params)
            sockets = socket_thermal_report(result)
            peaks = [c.peak_c for c in report.cores]
            rows.append(
                ThermalRow(
                    policy=policy,
                    peak_c=report.peak_c,
                    mean_peak_c=sum(peaks) / len(peaks),
                    socket_peaks_c=tuple(c.peak_c for c in sockets.cores),
                    throttle_seconds=report.total_throttle_seconds,
                    energy_joules=result.total_joules,
                )
            )
    return ThermalStudyResult(benchmark=benchmark, params=params, rows=tuple(rows))
