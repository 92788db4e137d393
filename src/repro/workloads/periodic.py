"""Strictly periodic programs for steady-state fast-forward tests.

Every batch is *identical* — same specs in the same order, no jitter —
which is the iteration-based shape EEWA targets (Fig. 2: "iterations of
similar computation"). On :func:`repro.machine.topology.dyadic_test_machine`
the task cycle counts below are dyadic multiples of the frequency ladder,
so all durations and energies are float-exact and the engine's fast-forward
replay is provably bit-identical.

The raw :func:`periodic_program` harness builds batches directly (no
jitter, cycle counts pinned to the dyadic constants below). The module
also ships :func:`periodic_workload_spec`, the ``WORKLOADS``-registered
``periodic`` entry: the same two-class mix expressed as a
:class:`~repro.workloads.spec.WorkloadSpec` with zero jitter and drift,
so ``repro run periodic ...`` exercises the strictly periodic shape the
fast-forward engine and the analytic model are built around.
"""

from __future__ import annotations

from repro.runtime.task import Batch, TaskSpec, flat_batch
from repro.workloads.spec import TaskClassSpec, WorkloadSpec

#: Reference frequency the cycle counts below are dyadic fractions of
#: (``F_0`` of :func:`~repro.machine.topology.dyadic_test_machine`).
DYADIC_REF_FREQUENCY = 2.0**31

#: Heavy tasks run ``2^-5`` seconds at ``F_0``; light ones ``2^-8``.
HEAVY_CYCLES = (2.0**-5) * DYADIC_REF_FREQUENCY
LIGHT_CYCLES = (2.0**-8) * DYADIC_REF_FREQUENCY


def periodic_batch_specs(
    heavy: int = 4,
    light: int = 8,
    *,
    heavy_cycles: float = HEAVY_CYCLES,
    light_cycles: float = LIGHT_CYCLES,
) -> list[TaskSpec]:
    """The spec list one batch repeats: ``heavy`` + ``light`` flat tasks,
    one shared spec object per class."""
    return [TaskSpec("heavy", cpu_cycles=heavy_cycles)] * heavy + [
        TaskSpec("light", cpu_cycles=light_cycles)
    ] * light


def periodic_program(
    batches: int,
    heavy: int = 4,
    light: int = 8,
    *,
    heavy_cycles: float = HEAVY_CYCLES,
    light_cycles: float = LIGHT_CYCLES,
) -> list[Batch]:
    """``batches`` identical flat batches of heavy+light two-class work,
    sharing one ``specs`` tuple."""
    specs = tuple(periodic_batch_specs(
        heavy, light, heavy_cycles=heavy_cycles, light_cycles=light_cycles
    ))
    return [flat_batch(i, specs) for i in range(batches)]


def periodic_workload_spec() -> WorkloadSpec:
    """The registry entry for the strictly periodic two-class workload.

    Class means are the dyadic harness constants expressed in seconds at
    the dyadic reference frequency; zero jitter, drift, and miss
    intensity make every batch identical and the generated program
    seed-independent — the pure steady-state regime (Fig. 2's
    "iterations of similar computation") where fast-forward replay and
    the analytic model are exact.
    """
    return WorkloadSpec(
        name="periodic",
        classes=(
            TaskClassSpec(
                name="heavy",
                count=4,
                mean_seconds=HEAVY_CYCLES / DYADIC_REF_FREQUENCY,
                jitter_sigma=0.0,
                drift_sigma=0.0,
                miss_intensity=0.0,
            ),
            TaskClassSpec(
                name="light",
                count=8,
                mean_seconds=LIGHT_CYCLES / DYADIC_REF_FREQUENCY,
                jitter_sigma=0.0,
                drift_sigma=0.0,
                miss_intensity=0.0,
            ),
        ),
        default_batches=12,
        description="strictly periodic two-class mix (zero jitter/drift): "
        "the steady-state regime fast-forward and the analytic model target",
    )
