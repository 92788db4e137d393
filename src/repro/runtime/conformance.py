"""Policy conformance harness.

A downstream user writing a custom :class:`SchedulerPolicy` can validate it
against the runtime contract in one call::

    from repro.runtime.conformance import check_policy
    report = check_policy(lambda: MyPolicy())
    assert report.ok, report.failures

The battery exercises the invariants the engine relies on:

1. every task executes exactly once, across flat and imbalanced batches;
2. the policy survives multi-batch programs and empty-steal tails;
3. nested spawns (if the policy claims support) are scheduled;
4. runs are deterministic for a fixed seed;
5. frequency requests stay within the machine's ladder;
6. steady-state fast-forward reproduces full simulation bit-identically
   (which also audits the policy's ``state_fingerprint`` for soundness);
7. the policy completes 100% of tasks under every mix of the standard
   fault matrix (:data:`repro.faults.matrix.STANDARD_FAULT_MATRIX`),
   with its energy/makespan degradation vs the fault-free baseline
   reported in :attr:`ConformanceReport.fault_degradation`;
8. operating-point parity: a homogeneous machine expressed as an explicit
   one-type operating-point space (``core_types``/``type_powers`` set)
   reproduces the flat-ladder run bit-identically — the generalised
   heterogeneous code paths must be exact supersets of the paper's
   homogeneous ones;
9. model parity: wherever the analytic companion model
   (:mod:`repro.model`) offers a prediction for the policy, its makespan
   and energy agree with the simulator within the calibrated error bound
   (:data:`repro.model.bounds.MAX_RELATIVE_ERROR`); policies without an
   analytic steady state decline and pass vacuously.

``check_policy(..., deep=True)`` additionally replays a deep task-event
trace through the race detector (:mod:`repro.checks.races`): exactly-once
execution via vector clocks, lost-task detection, and — for c-group
policies — conformance to the rob-the-weaker-first stealing order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.machine.topology import (
    MachineConfig,
    dyadic_test_machine,
    small_test_machine,
)
from repro.runtime.policy import SchedulerPolicy
from repro.runtime.task import Batch, TaskSpec, flat_batch
from repro.sim.engine import simulate

PolicyFactory = Callable[[], SchedulerPolicy]

_REF = 2.0e9  # fastest level of the default test machine


@dataclass
class ConformanceReport:
    """Outcome of :func:`check_policy`."""

    policy_name: str
    checks_run: int = 0
    failures: list[str] = field(default_factory=list)
    #: fault-mix name -> (time_ratio, energy_ratio) vs the fault-free
    #: baseline, filled by the fault-matrix check.
    fault_degradation: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def _flat_program(batches: int, sizes: list[float]) -> list[Batch]:
    return [
        flat_batch(i, [TaskSpec(f"c{j % 3}", cpu_cycles=s * _REF) for j, s in enumerate(sizes)])
        for i in range(batches)
    ]


def _nested_program() -> list[Batch]:
    child = TaskSpec("child", cpu_cycles=0.01 * _REF)
    parent = TaskSpec("parent", cpu_cycles=0.02 * _REF, children=(child, child))
    return [flat_batch(0, [parent, parent])]


def check_policy(
    factory: PolicyFactory,
    *,
    machine: MachineConfig | None = None,
    check_spawns: bool = True,
    deep: bool = False,
) -> ConformanceReport:
    """Run the conformance battery against a policy factory.

    ``factory`` must return a *fresh* policy instance per call (policies
    are stateful and single-use). Set ``check_spawns=False`` for policies
    that legitimately do not support nested spawns. ``deep=True`` adds the
    trace-replay race check (slower: records every task event).
    """
    if machine is None:
        machine = small_test_machine(num_cores=4, levels=(2.0e9, 1.5e9, 1.0e9))
    report = ConformanceReport(policy_name=factory().name)

    def run_check(label: str, fn: Callable[[], None]) -> None:
        report.checks_run += 1
        try:
            fn()
        except AssertionError as exc:
            report.failures.append(f"{label}: {exc}")
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            report.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")

    def balanced() -> None:
        program = _flat_program(2, [0.01] * 12)
        result = simulate(program, factory(), machine, seed=3)
        assert result.tasks_executed == 24, f"executed {result.tasks_executed}/24"
        ids = [t.task_id for t in result.tasks]
        assert len(set(ids)) == len(ids), "duplicate task execution"

    def imbalanced() -> None:
        program = _flat_program(2, [0.001] * 10 + [0.08])
        result = simulate(program, factory(), machine, seed=3)
        assert result.tasks_executed == 22, f"executed {result.tasks_executed}/22"
        # The big task bounds the batch; gross over-serialisation fails.
        assert result.total_time < 0.5, f"took {result.total_time:.3f}s"

    def single_task_tail() -> None:
        program = _flat_program(3, [0.02])
        result = simulate(program, factory(), machine, seed=3)
        assert result.tasks_executed == 3

    def spawns() -> None:
        result = simulate(_nested_program(), factory(), machine, seed=3)
        assert result.tasks_executed == 6, f"executed {result.tasks_executed}/6"

    def deterministic() -> None:
        program = _flat_program(3, [0.004] * 9 + [0.03])
        a = simulate(program, factory(), machine, seed=7)
        b = simulate(program, factory(), machine, seed=7)
        assert a.total_time == b.total_time, "time differs across identical runs"
        assert a.total_joules == b.total_joules, "energy differs across identical runs"

    def frequency_sanity() -> None:
        program = _flat_program(4, [0.003] * 8 + [0.05])
        result = simulate(program, factory(), machine, seed=5)
        r = machine.r
        for task in result.tasks:
            assert task.executed_level is not None and 0 <= task.executed_level < r
        for level, secs in result.meter.seconds_by_level().items():
            assert 0 <= level < r and secs >= 0

    def fast_forward_parity() -> None:
        # A strictly periodic program on a dyadic machine is the shape
        # that engages the engine's steady-state fast-forward (when the
        # policy exposes a sound ``state_fingerprint``); the two runs must
        # be bit-identical either way. Same core count and ladder depth as
        # the battery machine so factory-baked level vectors stay valid.
        # A heterogeneous battery machine (dyadic by construction of the
        # big.LITTLE preset) is exercised directly, so fast-forward parity
        # is also proven across core types.
        from repro.sim.fingerprint import trace_fingerprint
        from repro.workloads.periodic import periodic_program

        dyadic = (
            machine
            if machine.is_heterogeneous
            else dyadic_test_machine(num_cores=machine.num_cores, r=machine.r)
        )
        program = periodic_program(12, 2, 4)
        full = simulate(
            program, factory(), dyadic, seed=11, fast_forward=False
        )
        fast = simulate(program, factory(), dyadic, seed=11)
        assert full.batches_fast_forwarded == 0, "fast_forward=False replayed"
        assert (
            fast.batches_simulated + fast.batches_fast_forwarded
            == fast.batches_executed
        ), "batch counters do not sum to batches_executed"
        assert trace_fingerprint(fast) == trace_fingerprint(full), (
            "fast-forward diverged from full simulation "
            f"({fast.batches_fast_forwarded} batches replayed)"
        )

    def fault_matrix() -> None:
        # Imported here: repro.faults.matrix imports scenario modules,
        # which import runtime modules — module-level would be circular.
        from repro.faults.matrix import policy_resilience

        rows = policy_resilience(factory, machine=machine)
        for row in rows:
            report.fault_degradation[row.fault] = (
                row.time_ratio,
                row.energy_ratio,
            )
            assert row.completed, (
                f"lost tasks under fault mix '{row.fault}' "
                f"({row.tasks_executed}/{row.tasks_expected})"
            )

    def operating_point_parity() -> None:
        # Check #9: the heterogeneous machinery (explicit core_types /
        # type_powers, per-type search budgets, op-indexed c-groups) must
        # be an exact superset of the flat-ladder paths. A homogeneous
        # dyadic machine re-expressed as a one-type operating-point space
        # has to reproduce the flat run bit-for-bit.
        from dataclasses import replace

        from repro.sim.fingerprint import trace_fingerprint

        base = dyadic_test_machine(num_cores=machine.num_cores, r=machine.r)
        only = base.scale.types[0]
        twin = replace(
            base,
            core_types=((only, base.num_cores),),
            type_powers=((only, base.power),),
        )
        assert twin.is_heterogeneous is False
        program = _flat_program(3, [0.004] * 9 + [0.03])
        flat = simulate(program, factory(), base, seed=7)
        typed = simulate(program, factory(), twin, seed=7)
        assert trace_fingerprint(flat) == trace_fingerprint(typed), (
            "explicit one-type operating-point metadata changed behaviour"
        )

    def model_parity() -> None:
        # Check #10: the analytic companion model must agree with the
        # simulator within its calibrated bound wherever it offers a
        # prediction. The model predicts the *registry* configuration of
        # the policy's name, so the simulation side builds through the
        # factory — for the shipped registry-default policies the two
        # coincide; unregistered or analytically inexpressible policies
        # decline the prediction and the check passes vacuously.
        from repro.experiments.parallel import CellSpec
        from repro.model.bounds import MAX_RELATIVE_ERROR, classify_cell
        from repro.model.predict import predict_cell

        program = tuple(_flat_program(3, [0.004] * 9 + [0.03]))
        cell = CellSpec(
            benchmark="conformance", policy=report.policy_name, seed=7,
            machine=machine, program=program,
        )
        if not classify_cell(cell, program):
            # Outside the calibrated envelope (no analytic form, hetero
            # battery machine, …): fidelity="auto" would simulate this
            # cell, so there is no promise to check.
            return
        predicted = predict_cell(cell, program)
        if predicted is None:
            return
        sim = simulate(program, factory(), machine, seed=7)
        time_err = abs(predicted.total_time - sim.total_time) / sim.total_time
        joule_err = (
            abs(predicted.total_joules - sim.total_joules) / sim.total_joules
        )
        assert time_err <= MAX_RELATIVE_ERROR, (
            f"model makespan off by {time_err:.2%} "
            f"(bound {MAX_RELATIVE_ERROR:.0%})"
        )
        assert joule_err <= MAX_RELATIVE_ERROR, (
            f"model energy off by {joule_err:.2%} "
            f"(bound {MAX_RELATIVE_ERROR:.0%})"
        )

    def race_free() -> None:
        # Imported here: repro.checks imports runtime modules, so a
        # module-level import would be circular.
        from repro.checks.races import find_trace_races
        from repro.sim.engine import Simulator

        program = _flat_program(2, [0.004] * 9 + [0.03])
        sim = Simulator(machine, factory(), seed=3, record_task_events=True)
        try:
            sim.run(program)
        finally:
            findings = find_trace_races(
                sim.trace, label=f"races({report.policy_name})"
            )
            assert not findings, "; ".join(f.message for f in findings)

    run_check("balanced-batches", balanced)
    run_check("imbalanced-batch", imbalanced)
    run_check("single-task-tail", single_task_tail)
    if check_spawns:
        run_check("nested-spawns", spawns)
    run_check("determinism", deterministic)
    run_check("frequency-sanity", frequency_sanity)
    run_check("fast-forward-parity", fast_forward_parity)
    run_check("fault-matrix", fault_matrix)
    run_check("operating-point-parity", operating_point_parity)
    run_check("model-parity", model_parity)
    if deep:
        run_check("race-detection", race_free)
    return report


def check_registered_policies(
    *,
    machine: MachineConfig | None = None,
    deep: bool = False,
) -> list[ConformanceReport]:
    """Run the conformance battery over every policy in the registry.

    Policies that require a fixed level vector (``needs_core_levels``)
    get the standard spread configuration
    (:func:`repro.scenario.registry.spread_levels_for`, which clamps each
    core's level to its own ladder on heterogeneous machines); policies
    declaring ``supports_spawns=False`` skip the nested-spawn check. This
    is what CI runs (``python -m repro.runtime.conformance``), so a newly
    registered policy is conformance-checked with no extra wiring.
    """
    # Imported here: the scenario layer imports runtime modules, so a
    # module-level import would be circular.
    from repro.scenario.registry import POLICIES, spread_levels_for

    if machine is None:
        machine = small_test_machine(num_cores=4, levels=(2.0e9, 1.5e9, 1.0e9))
    reports = []
    for entry in POLICIES:
        levels = (
            spread_levels_for(machine) if entry.needs_core_levels else None
        )

        def factory(entry=entry, levels=levels) -> SchedulerPolicy:
            return entry.build(core_levels=levels)

        reports.append(
            check_policy(
                factory,
                machine=machine,
                check_spawns=entry.supports_spawns,
                deep=deep,
            )
        )
    return reports


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.runtime.conformance`` — the CI conformance job."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.conformance",
        description="Run the policy conformance battery over every "
        "registered policy.",
    )
    parser.add_argument(
        "--shallow", action="store_true",
        help="skip the deep trace-replay race check",
    )
    parser.add_argument(
        "--machine", choices=("small", "big-little"), default="small",
        help="battery machine: the homogeneous small test machine "
        "(default) or the 4+4 big.LITTLE test machine",
    )
    args = parser.parse_args(argv)
    if args.machine == "big-little":
        from repro.machine.topology import big_little_test_machine

        battery_machine = big_little_test_machine()
    else:
        battery_machine = None
    reports = check_registered_policies(
        machine=battery_machine, deep=not args.shallow
    )
    failed = False
    for report in reports:
        status = "ok" if report.ok else "FAIL"
        print(f"{report.policy_name:10s} {status} ({report.checks_run} checks)")
        for fault, (time_ratio, energy_ratio) in sorted(
            report.fault_degradation.items()
        ):
            print(
                f"    {fault:14s} time x{time_ratio:.3f}  "
                f"energy x{energy_ratio:.3f}"
            )
        for failure in report.failures:
            failed = True
            print(f"  - {failure}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
