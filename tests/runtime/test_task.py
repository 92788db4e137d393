"""Tests for the task and batch model."""

import pytest

from repro.errors import ConfigurationError
from repro.machine.counters import PerfCounters
from repro.runtime.task import (
    Batch,
    TaskFactory,
    TaskSpec,
    flat_batch,
    iter_programs_batches,
)


class TestTaskSpec:
    def test_basic_construction(self):
        spec = TaskSpec("f", cpu_cycles=1000.0)
        assert spec.function == "f"
        assert spec.mem_stall_seconds == 0.0
        assert spec.children == ()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TaskSpec("", cpu_cycles=1.0)
        with pytest.raises(ConfigurationError):
            TaskSpec("f", cpu_cycles=-1.0)
        with pytest.raises(ConfigurationError):
            TaskSpec("f", cpu_cycles=1.0, mem_stall_seconds=-0.1)

    def test_total_cycles_recursive(self):
        leaf = TaskSpec("leaf", cpu_cycles=10.0)
        mid = TaskSpec("mid", cpu_cycles=20.0, children=(leaf, leaf))
        root = TaskSpec("root", cpu_cycles=5.0, children=(mid,))
        assert root.total_cpu_cycles() == pytest.approx(45.0)
        assert root.count_tasks() == 4

    def test_counters_attach(self):
        c = PerfCounters(retired_instructions=100, cache_misses=1)
        spec = TaskSpec("f", cpu_cycles=1.0, counters=c)
        assert spec.counters.miss_intensity == pytest.approx(0.01)


class TestBatch:
    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            Batch(index=0, specs=())

    def test_totals(self):
        b = flat_batch(0, [TaskSpec("a", 10.0), TaskSpec("b", 20.0)])
        assert len(b) == 2
        assert b.total_tasks() == 2
        assert b.total_cpu_cycles() == pytest.approx(30.0)
        assert b.functions() == {"a", "b"}

    def test_functions_include_children(self):
        child = TaskSpec("child", 1.0)
        b = flat_batch(0, [TaskSpec("root", 1.0, children=(child,))])
        assert b.functions() == {"root", "child"}


class TestTaskRecord:
    def test_factory_unique_ids(self):
        factory = TaskFactory()
        spec = TaskSpec("f", 1.0)
        ids = {factory.make(spec, 0).task_id for _ in range(100)}
        assert len(ids) == 100

    def test_make_batch_mints_what_make_would(self):
        specs = [TaskSpec(f"f{i}", float(i)) for i in range(5)]
        one_by_one, batched = TaskFactory(), TaskFactory()
        one_by_one.make(specs[0], 0)
        batched.make(specs[0], 0)
        expected = [one_by_one.make(spec, 3) for spec in specs]
        assert batched.make_batch(specs, 3) == expected
        assert batched.next_id == one_by_one.next_id == 6
        assert batched.make(specs[0], 4).task_id == 6

    def test_elapsed_requires_completion(self):
        task = TaskFactory().make(TaskSpec("f", 1.0), 0)
        with pytest.raises(ConfigurationError):
            _ = task.elapsed
        task.start_time = 1.0
        task.finish_time = 1.5
        assert task.elapsed == pytest.approx(0.5)


class TestProgramValidation:
    def test_dense_indices_ok(self):
        batches = [flat_batch(i, [TaskSpec("f", 1.0)]) for i in range(3)]
        assert len(list(iter_programs_batches(batches))) == 3

    def test_gap_rejected(self):
        batches = [
            flat_batch(0, [TaskSpec("f", 1.0)]),
            flat_batch(2, [TaskSpec("f", 1.0)]),
        ]
        with pytest.raises(ConfigurationError):
            list(iter_programs_batches(batches))
