"""Fig. 1 — the four dual-core schedules of Section II.

The paper motivates EEWA with two tasks (costing ``2t`` and ``t`` at the
fast frequency) on a dual-core machine whose cores run at ``f_0`` or
``0.5 f_0``. This experiment does both halves:

* :func:`analytic_schedules` evaluates the paper's four schedules (a)-(d)
  under our power model, confirming the ordering the paper derives —
  (b) saves energy at unchanged time, (c) and (d) lose on both axes;
* :func:`run_fig1` runs the actual EEWA scheduler on that program and
  checks it lands on schedule (b): the slow core takes the small task after
  the profiling batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.eewa import EEWAConfig, EEWAScheduler
from repro.machine.operating_point import homogeneous_space
from repro.machine.power import calibrated_power_model
from repro.machine.topology import MachineConfig
from repro.sim.engine import SimResult, simulate
from repro.workloads.synthetic import fig1_program


def fig1_machine() -> MachineConfig:
    """Dual-core machine with levels ``{f_0, 0.5 f_0}``."""
    scale = homogeneous_space((2.0e9, 1.0e9))
    power = calibrated_power_model(
        scale,
        top_core_busy_watts=20.0,
        core_idle_watts=2.0,
        machine_base_watts=0.0,
        v_min=1.0,
        v_max=1.3,
    )
    return MachineConfig(num_cores=2, scale=scale, power=power)


@dataclass(frozen=True)
class Schedule:
    """One of the paper's four schedules: per-core (level, busy_seconds)."""

    label: str
    finish_time: float
    energy: float


def analytic_schedules(t: float = 0.1) -> list[Schedule]:
    """Evaluate schedules (a)-(d) exactly under the power model.

    Core 0 always runs gamma_0 (2t at f_0); core 1 runs gamma_1 (t at f_0).
    Idle-but-spinning time is billed at the core's busy power, matching the
    paper's 'cores busily steal until the application terminates'.
    """
    machine = fig1_machine()
    p_fast = machine.power.busy_power(machine.scale[0])
    p_slow = machine.power.busy_power(machine.scale[1])

    # (a) both fast: finish max(2t, t); both spin-burn until the end.
    a = Schedule("a: both f0", 2 * t, (p_fast + p_fast) * 2 * t)
    # (b) core1 at 0.5 f0 runs gamma_1 in 2t: same finish, less power.
    b = Schedule("b: c1 slow, small task", 2 * t, (p_fast + p_slow) * 2 * t)
    # (c) core1 slow but runs gamma_0 (the BIG task) at half speed: 4t.
    c = Schedule("c: c1 slow, big task", 4 * t, (p_fast + p_slow) * 4 * t)
    # (d) both slow: gamma_0 takes 4t.
    d = Schedule("d: both slow", 4 * t, (p_slow + p_slow) * 4 * t)
    return [a, b, c, d]


def run_fig1(t: float = 0.1, batches: int = 3, seed: int = 0) -> SimResult:
    """Run EEWA on the two-task program; after profiling it should pick (b).

    The paper's example is an exact-fit idealisation — gamma_1 at the half
    frequency finishes precisely at ``T`` — so the jitter headroom is
    disabled here (the synthetic tasks have no jitter to guard against).
    The machine and program are Section II's hand-built ones, not a
    registered preset and workload, so this one run calls the simulator
    directly.
    """
    machine = fig1_machine()
    program = fig1_program(t, ref_frequency=machine.scale.fastest, batches=batches)
    return simulate(
        program, EEWAScheduler(EEWAConfig(headroom=0.0)), machine, seed=seed
    )


def fig1_rows(t: float = 0.1) -> list[tuple[str, float, float]]:
    """(label, time, energy) rows: the four analytic schedules + EEWA."""
    rows = [(s.label, s.finish_time, s.energy) for s in analytic_schedules(t)]
    result = run_fig1(t)
    # Per-batch time/energy of the final (adjusted) batch.
    last = result.trace.batches[-1]
    per_batch_energy = result.total_joules / result.batches_executed
    rows.append(("eewa (simulated, steady batch)", last.duration, per_batch_energy))
    return rows
