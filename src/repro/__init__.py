"""EEWA reproduction: energy-efficient workload-aware task scheduling.

A full reproduction of *"EEWA: Energy-Efficient Workload-Aware Task
Scheduling in Multi-core Architectures"* (Chen, Zheng, Guo, Huang — IPDPS
2014), built on a deterministic discrete-event multicore/DVFS simulator.

Quickstart
----------
>>> from repro import (
...     EEWAScheduler, CilkScheduler, opteron_8380_machine, simulate,
... )
>>> from repro.workloads import benchmark_program
>>> machine = opteron_8380_machine()
>>> program = benchmark_program("MD5", batches=6, seed=7)
>>> eewa = simulate(program, EEWAScheduler(), machine, seed=7)
>>> cilk = simulate(program, CilkScheduler(), machine, seed=7)
>>> eewa.total_joules < cilk.total_joules
True

Package layout
--------------
``repro.machine``
    Simulated hardware: frequency scales, CMOS power model, cores, energy
    metering (replaces the paper's Opteron testbed and wall power meter).
``repro.sim``
    Deterministic discrete-event engine, RNG streams, traces.
``repro.runtime``
    Task model, work-stealing pools, and the Cilk / Cilk-D / WATS
    baselines.
``repro.core``
    The paper's contribution: online profiler (Eq. 1), CC table (Table I),
    backtracking k-tuple search (Algorithm 1), c-groups, preference lists,
    the frequency adjuster, and the EEWA policy.
``repro.kernels``
    Real implementations of the Table II benchmark algorithms (BWT, bzip2
    pipeline, DMC, JPEG, LZW, MD5, SHA-1) used to calibrate workloads.
``repro.workloads``
    Batch/task generators for the seven named benchmarks plus synthetic
    imbalance sweeps.
``repro.experiments``
    One module per paper exhibit (Fig. 1, 6, 7, 8, 9, Table III).
``repro.analysis``
    Normalisation and summary statistics used in reports.
"""

from repro.core import EEWAConfig, EEWAScheduler
from repro.machine import (
    MachineConfig,
    opteron_8380_machine,
    small_test_machine,
)
from repro.runtime import (
    Batch,
    CilkDScheduler,
    CilkScheduler,
    TaskSpec,
    WATSScheduler,
    flat_batch,
)
from repro.sim import SimResult, Simulator, simulate

__version__ = "1.0.0"

__all__ = [
    "Batch",
    "CilkDScheduler",
    "CilkScheduler",
    "EEWAConfig",
    "EEWAScheduler",
    "MachineConfig",
    "SimResult",
    "Simulator",
    "TaskSpec",
    "WATSScheduler",
    "__version__",
    "flat_batch",
    "opteron_8380_machine",
    "simulate",
    "small_test_machine",
]
