"""Public API surface: the names downstream code may rely on.

This is a stability snapshot — removing or renaming anything here is a
breaking change and must be deliberate.
"""

import repro
import repro.analysis
import repro.core
import repro.experiments
import repro.kernels
import repro.machine
import repro.runtime
import repro.scenario
import repro.service
import repro.sim
import repro.workloads

TOP_LEVEL = {
    "Batch", "CilkDScheduler", "CilkScheduler", "EEWAConfig", "EEWAScheduler",
    "MachineConfig", "SimResult", "Simulator", "TaskSpec",
    "WATSScheduler", "flat_batch", "opteron_8380_machine", "simulate",
    "small_test_machine",
}

CORE = {
    "CCTable", "EEWAConfig", "EEWAScheduler", "KTupleSolution",
    "MemoryBoundMode", "OnlineProfiler", "WorkloadAwareFrequencyAdjuster",
    "build_cc_table", "build_cgroup_plan", "exhaustive_search",
    "preference_order", "search_ktuple",
}

RUNTIME = {
    "CilkDScheduler", "CilkScheduler", "GroupedStealingPolicy", "PoolGrid",
    "RunTask", "SchedulerPolicy", "SetFrequency", "WATSScheduler", "Wait",
    "WorkStealingDeque", "check_policy",
}

KERNELS = {
    "bwc_compress", "bwc_decompress", "bwt_forward", "bwt_inverse",
    "bzip2_compress", "bzip2_decompress", "dmc_compress", "dmc_decompress",
    "jpeg_decode", "jpeg_encode", "lzw_compress", "lzw_decompress",
    "md5_hexdigest", "sha1_hexdigest",
}

WORKLOADS = {
    "BENCHMARK_NAMES", "TaskClassSpec", "WorkloadSpec", "benchmark_program",
    "benchmark_spec", "diagnose", "generate_program", "load_spec",
    "save_spec",
}

EXPERIMENTS = {
    "run_fig6", "run_fig7", "run_fig8", "run_fig9", "run_table3",
    "format_table", "bar_chart", "frequency_timeline",
    "CellOutcome", "CellSpec", "ResultCache",
    "SweepEngine", "SweepStats", "SweepTicket",
}

ANALYSIS = {
    "aggregate", "energy_reduction_percent", "normalized_energy",
    "normalized_time", "thermal_report", "socket_thermal_report",
}

SIM = {"SimResult", "Simulator", "simulate", "result_to_json", "batches_to_csv"}

SCENARIO = {
    "MACHINES", "MachineSpec", "POLICIES", "PolicySpec",
    "SCENARIO_SCHEMA_VERSION", "ScenarioSpec", "WORKLOADS",
    "baseline_policy_names", "register_machine", "register_policy",
    "register_workload", "spread_levels", "workload_names",
}

SERVICE = {
    "PROTOCOL_VERSION", "ServiceError", "SweepRequest", "SweepServer",
    "SweepServiceClient", "decode_frame", "encode_frame",
    "parse_sweep_request", "serve",
}


def _check(module, names):
    exported = set(module.__all__)
    missing = names - exported
    assert not missing, f"{module.__name__} lost exports: {sorted(missing)}"
    for name in names:
        assert hasattr(module, name), f"{module.__name__}.{name} not importable"


def test_top_level_surface():
    _check(repro, TOP_LEVEL)


def test_core_surface():
    _check(repro.core, CORE)


def test_runtime_surface():
    _check(repro.runtime, RUNTIME)


def test_kernels_surface():
    _check(repro.kernels, KERNELS)


def test_workloads_surface():
    _check(repro.workloads, WORKLOADS)


def test_experiments_surface():
    _check(repro.experiments, EXPERIMENTS)


def test_analysis_surface():
    _check(repro.analysis, ANALYSIS)


def test_sim_surface():
    _check(repro.sim, SIM)


def test_scenario_surface():
    _check(repro.scenario, SCENARIO)


def test_service_surface():
    _check(repro.service, SERVICE)


def test_version_string():
    assert repro.__version__.count(".") == 2
