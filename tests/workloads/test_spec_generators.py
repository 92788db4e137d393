"""Tests for workload specs and the batch generator."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.generators import generate_program, program_total_work
from repro.workloads.spec import TaskClassSpec, WorkloadSpec, scaled


def simple_spec(**overrides):
    defaults = dict(
        name="toy",
        classes=(
            TaskClassSpec("big", count=4, mean_seconds=0.02),
            TaskClassSpec("small", count=16, mean_seconds=0.002),
        ),
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestTaskClassSpec:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            TaskClassSpec("", count=1, mean_seconds=0.1)
        with pytest.raises(WorkloadError):
            TaskClassSpec("x", count=0, mean_seconds=0.1)
        with pytest.raises(WorkloadError):
            TaskClassSpec("x", count=1, mean_seconds=0.0)
        with pytest.raises(WorkloadError):
            TaskClassSpec("x", count=1, mean_seconds=0.1, mem_stall_fraction=1.0)

    @pytest.mark.parametrize("field", [
        "count", "mean_seconds", "jitter_sigma", "drift_sigma", "miss_intensity",
        "mem_stall_fraction", "phase_amplitude", "phase_period",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_are_rejected(self, field, value):
        fields = dict(name="x", count=2, mean_seconds=0.1, phase_amplitude=0.5)
        fields[field] = value
        with pytest.raises(WorkloadError, match=f"{field} must be finite"):
            TaskClassSpec(**fields)

    def test_total_seconds(self):
        c = TaskClassSpec("x", count=10, mean_seconds=0.01)
        assert c.total_seconds == pytest.approx(0.1)


class TestWorkloadSpec:
    def test_aggregates(self):
        spec = simple_spec()
        assert spec.tasks_per_batch == 20
        assert spec.work_per_batch == pytest.approx(4 * 0.02 + 16 * 0.002)

    def test_utilization(self):
        spec = simple_spec()
        u = spec.utilization(16)
        assert u == pytest.approx(spec.work_per_batch / (16 * 0.02))

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(
                name="dup",
                classes=(
                    TaskClassSpec("x", count=1, mean_seconds=0.1),
                    TaskClassSpec("x", count=2, mean_seconds=0.2),
                ),
            )

    def test_class_named(self):
        spec = simple_spec()
        assert spec.class_named("big").count == 4
        with pytest.raises(WorkloadError):
            spec.class_named("missing")

    def test_scaled(self):
        spec = scaled(simple_spec(), 2.0)
        assert spec.class_named("big").mean_seconds == pytest.approx(0.04)
        assert spec.tasks_per_batch == 20
        with pytest.raises(WorkloadError):
            scaled(simple_spec(), 0.0)


class TestGenerator:
    def test_batch_structure(self):
        program = generate_program(simple_spec(), batches=3, seed=0)
        assert len(program) == 3
        for i, batch in enumerate(program):
            assert batch.index == i
            assert len(batch) == 20
            assert batch.functions() == {"big", "small"}

    def test_determinism(self):
        a = generate_program(simple_spec(), batches=4, seed=7)
        b = generate_program(simple_spec(), batches=4, seed=7)
        for ba, bb in zip(a, b):
            assert [s.cpu_cycles for s in ba.specs] == [s.cpu_cycles for s in bb.specs]

    def test_seed_changes_jitter(self):
        a = generate_program(simple_spec(), batches=1, seed=1)
        b = generate_program(simple_spec(), batches=1, seed=2)
        assert [s.cpu_cycles for s in a[0].specs] != [s.cpu_cycles for s in b[0].specs]

    def test_jitter_bounded_around_mean(self):
        spec = simple_spec()
        program = generate_program(spec, batches=1, seed=3)
        bigs = [s for s in program[0].specs if s.function == "big"]
        for s in bigs:
            seconds = s.cpu_cycles / 2.5e9
            assert 0.5 * 0.02 < seconds < 2.0 * 0.02

    def test_drift_is_clamped(self):
        spec = WorkloadSpec(
            name="drifty",
            classes=(
                TaskClassSpec("w", count=4, mean_seconds=0.01, drift_sigma=0.5),
            ),
        )
        program = generate_program(spec, batches=40, seed=5)
        for batch in program:
            for s in batch.specs:
                seconds = s.cpu_cycles / 2.5e9
                # drift clamp [0.7, 1.4] times jitter wiggle
                assert 0.3 * 0.01 < seconds < 3.0 * 0.01

    def test_counters_attached(self):
        spec = WorkloadSpec(
            name="mem",
            classes=(
                TaskClassSpec(
                    "m", count=2, mean_seconds=0.01,
                    miss_intensity=0.05, mem_stall_fraction=0.5,
                ),
            ),
        )
        program = generate_program(spec, batches=1, seed=0)
        for s in program[0].specs:
            assert s.counters is not None
            assert s.counters.miss_intensity == pytest.approx(0.05, rel=0.01)
            assert s.mem_stall_seconds > 0

    def test_total_work_helper(self):
        program = generate_program(simple_spec(), batches=2, seed=0)
        assert program_total_work(program) == pytest.approx(
            sum(b.total_cpu_cycles() for b in program)
        )
