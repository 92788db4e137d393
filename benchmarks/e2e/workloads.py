"""The benchmark's four workloads and the cell records they produce.

Every workload is an unbounded, seeded stream of *cells* (one simulation
request each) sent in a closed loop: a caller submits its next cell only
after the previous result arrived, because sweep callers wait on their
results. A run sends a fixed number of cells (see :attr:`Workload.rate`),
so every run with a given seed does the same work, down to the garbage
collections it triggers. The first ``prefix_cells`` cells in workload
order are the run's *prefix*, which the output digest and the eewa/cilk
ratios cover. Load generators send every cell or request inside
:meth:`pace.Pacer.request`, so the run's times can be scaled to reference
speed.

Why each workload exists is in its ``why`` line and in README.md.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import random
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.experiments.parallel import CellSpec, ResultCache
from repro.experiments.sweep import SweepEngine
from repro.machine.topology import MachineConfig, opteron_8380_machine
from repro.scenario.registry import POLICIES, spread_levels_for
from repro.scenario.spec import ScenarioSpec
from repro.service.client import ServiceError, SweepServiceClient
from repro.sim.engine import simulate
from repro.workloads.benchmarks import BENCHMARK_NAMES, benchmark_program

from pace import Pacer

HERE = Path(__file__).resolve().parent

#: The four policies of the paper's comparison, in Table II's column order.
PAPER_POLICIES = ("cilk", "cilk-d", "wats", "eewa")

#: The scalar observables a cell is judged by (``SimResult`` attributes).
#: Traces and task lists are never read, so cache formats that drop them
#: keep working.
SCALARS = (
    "total_time", "total_joules", "core_joules", "baseline_joules",
    "spin_joules", "running_joules", "tasks_executed", "batches_executed",
    "adjust_overhead_seconds",
)

#: Where the same observables sit in a service ``cell`` frame's result.
_FRAME_NAMES = {"total_time": "total_time_s", "adjust_overhead_seconds": "adjust_overhead_s"}
FRAME_SCALARS = {name: _FRAME_NAMES.get(name, name) for name in SCALARS}


@dataclasses.dataclass(frozen=True)
class Cell:
    """Identity of one cell: everything its result depends on."""

    benchmark: str
    policy: str
    seed: int
    batches: Optional[int] = None
    cores: int = 16
    core_levels: Optional[tuple[int, ...]] = None
    #: Per-submit fidelity override; ``None`` takes the engine's.
    fidelity: Optional[str] = None

    def spec(self) -> CellSpec:
        return CellSpec(
            benchmark=self.benchmark, policy=self.policy, seed=self.seed,
            batches=self.batches, core_levels=self.core_levels,
            machine=None if self.cores == 16 else machine_for(self.cores),
        )

    def twin(self, policy: str) -> "Cell":
        return dataclasses.replace(self, policy=policy, core_levels=None)


@dataclasses.dataclass
class Record:
    """One finished (or failed) cell as the benchmark saw it."""

    cell: Cell
    latency_s: float
    #: ``time.perf_counter()`` when the result (or failure) arrived.
    done_s: float
    #: ``None`` when the cell failed (exception or error frame).
    scalars: Optional[dict[str, Any]]
    source: str = "sim"
    batches_ff: int = 0
    stolen: float = 0.0
    failed_scans: float = 0.0


@dataclasses.dataclass
class RunOutput:
    """What a timed phase produced."""

    records: list[Record]
    #: The first ``prefix_cells`` cells, in workload order.
    prefix: list[Record]
    #: Summed ``SweepStats`` of the engine(s) that served the cells.
    stats: dict[str, int]
    retries: int = 0


@functools.lru_cache(maxsize=None)
def machine_for(cores: int) -> MachineConfig:
    """One machine object per core count (the paper's Opteron preset)."""
    return opteron_8380_machine(num_cores=cores)


def wats_levels(cores: int) -> tuple[int, ...]:
    return tuple(spread_levels_for(machine_for(cores)))


def record_of(cell: Cell, started: float, result: Any, source: str) -> Record:
    stats = getattr(result, "policy_stats", {}) or {}
    done = time.perf_counter()
    return Record(
        cell, done - started, done, {name: getattr(result, name) for name in SCALARS}, source,
        getattr(result, "batches_fast_forwarded", 0),
        stats.get("tasks_stolen", 0.0), stats.get("failed_scans", 0.0),
    )


def direct_scalars(cell: Cell) -> dict[str, Any]:
    """The cell simulated by a direct ``simulate()`` call: no engine, cache
    or service in the way."""
    policy = POLICIES.get(cell.policy).build(core_levels=cell.core_levels)
    result = simulate(
        benchmark_program(cell.benchmark, batches=cell.batches, seed=cell.seed),
        policy, machine_for(cell.cores), seed=cell.seed,
    )
    return {name: getattr(result, name) for name in SCALARS}


def _seeds(name: str, seed: int) -> Iterator[int]:
    rng = random.Random(f"{name}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def _add_stats(total: dict[str, int], engine: SweepEngine) -> None:
    for key, value in dataclasses.asdict(engine.stats).items():
        total[key] = total.get(key, 0) + value


def _failed(cell: Cell, started: float) -> Record:
    done = time.perf_counter()
    return Record(cell, done - started, done, None)


def _closed_loop(
    engine: SweepEngine, cells: Iterator[Cell], count: int,
    records: list[Record], recorder: Any, pacer: Pacer,
) -> None:
    """Submit one cell at a time and wait for it, until ``count`` are done."""
    perf = time.perf_counter
    for cell in cells:
        if len(records) >= count:
            return
        if recorder is not None:
            recorder.set_cell(len(records))
        spec = cell.spec()
        with pacer.request():
            started = perf()
            try:
                outcome = engine.submit(spec, fidelity=cell.fidelity).result()
            except Exception:  # counted as a failed cell; the run goes on
                traceback.print_exc()
                records.append(_failed(cell, started))
                continue
            records.append(record_of(cell, started, outcome.result, outcome.source))


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------


class Workload:
    """One cell stream plus its set-up; subclasses fill in the details."""

    name = ""
    why = ""
    #: Cells per requested second: the workload's throughput at reference
    #: speed (see pace.py; 2 CPUs, Python 3.11), so a run of ``--seconds``
    #: sends ``rate * seconds`` cells and lasts about that long there.
    rate = 0.0
    #: Runs send whole blocks of this many cells, so the mix of cells in a
    #: run does not depend on where it stops.
    block = 1
    #: The process doing the work is a child (its RSS is read after exit).
    child_process = False

    def setup(
        self, work_dir: Path, seed: int, trace_out: Optional[Path], cpu: int
    ) -> Any:
        """Everything before the first timed cell; returns the run state.
        A child process the workload starts is pinned to ``cpu``."""
        raise NotImplementedError

    def run(
        self, state: Any, seed: int, count: int, prefix_cells: int, recorder: Any,
        pacer: Pacer,
    ) -> RunOutput:
        """Send ``count`` cells, each cell or request inside
        ``pacer.request()``; the first ``prefix_cells`` form the prefix."""
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what :meth:`setup` started (processes, engines)."""


class _SingleEngine(Workload):
    """A fresh cache and one in-process engine serving a closed-loop stream."""

    fidelity = "sim"

    def cells(self, seed: int) -> Iterator[Cell]:
        raise NotImplementedError

    def setup(self, work_dir, seed, trace_out, cpu) -> Any:
        return SweepEngine(workers=0, cache_dir=work_dir / "cache", fidelity=self.fidelity)

    def run(self, state, seed, count, prefix_cells, recorder, pacer) -> RunOutput:
        records: list[Record] = []
        _closed_loop(state, self.cells(seed), count, records, recorder, pacer)
        stats: dict[str, int] = {}
        _add_stats(stats, state)
        return RunOutput(records, records[:prefix_cells], stats)

    def teardown(self, state: Any) -> None:
        state.close()


class PaperGridCold(_SingleEngine):
    name = "paper-grid-cold"
    rate = 46.0
    block = len(BENCHMARK_NAMES) * len(PAPER_POLICIES)
    why = ("Table II x {cilk, cilk-d, wats, eewa}, seed-major, every cell cold: "
           "event loop, policy dispatch, adjuster, meter and cache writes do the work")

    def cells(self, seed: int) -> Iterator[Cell]:
        levels = wats_levels(16)
        for cell_seed in _seeds(self.name, seed):
            for bench in BENCHMARK_NAMES:
                for policy in PAPER_POLICIES:
                    yield Cell(bench, policy, cell_seed,
                               core_levels=levels if policy == "wats" else None)


class SteadyPeriodic(_SingleEngine):
    name = "steady-periodic"
    rate = 58.0
    why = ("zero-jitter periodic program under eewa, 30 batches per cell: "
           "fast-forward replays most batches, so key hashing, generation and cache show")
    batches = 30

    def cells(self, seed: int) -> Iterator[Cell]:
        for cell_seed in _seeds(self.name, seed):
            yield Cell("periodic", "eewa", cell_seed, self.batches)


class AutoExplore(_SingleEngine):
    name = "auto-explore"
    rate = 110.0
    why = ("SHA-1, JE, STREAM-like, periodic x 4 policies x {8, 12, 16} cores, shuffled, "
           "fidelity=auto, every other seed checked at sim: the only workload the model serves")
    fidelity = "auto"
    #: Programs on which the model stays within MAX_RELATIVE_ERROR with a
    #: wide margin (worst 0.8% over 60 seeds x 3 policies x 3 core counts).
    #: On DMC-phased, and on BWC, LZW and MD5 under eewa at 12-16 cores,
    #: it exceeds its 2% envelope on about 1 eligible cell in 100, which
    #: would fail the run's own check.
    programs = ("SHA-1", "JE", "STREAM-like", "periodic")
    seeds_per_block = 6
    block = len(programs) * len(PAPER_POLICIES) * 3 * seeds_per_block

    def cells(self, seed: int) -> Iterator[Cell]:
        """Every other seed is submitted with ``fidelity="sim"``, as an
        explorer checking the model against the simulator would. That
        keeps the median cell a simulated one: a model-served cell takes
        about 2 ms, 40% of it a cache file write whose time moves with the
        file system by +-15% from run to run, so a median among them would
        measure the file system more than the program."""
        order = random.Random(f"{self.name}:order:{seed}")
        seeds = _seeds(self.name, seed)
        while True:
            block = [next(seeds) for _ in range(self.seeds_per_block)]
            grid = [
                Cell(bench, policy, cell_seed, cores=cores,
                     core_levels=wats_levels(cores) if policy == "wats" else None,
                     fidelity="sim" if index % 2 else None)
                for bench in self.programs
                for policy in PAPER_POLICIES
                for cores in (8, 12, 16)
                for index, cell_seed in enumerate(block)
            ]
            order.shuffle(grid)
            yield from grid


# ----------------------------------------------------------------------
# the service workload
# ----------------------------------------------------------------------


@dataclasses.dataclass
class _Server:
    process: subprocess.Popen
    url: str


def _scenario(cell: Cell) -> dict[str, Any]:
    return {"schema": 3, "workload": cell.benchmark, "policy": cell.policy,
            "seeds": [cell.seed], "batches": cell.batches}


def _spec_of(cell: Cell) -> CellSpec:
    """The cell exactly as the server builds it from the wire scenario."""
    return CellSpec.from_scenario(ScenarioSpec.from_dict(_scenario(cell)), cell.seed)


class ServeMixed(Workload):
    name = "serve-mixed"
    rate = 920.0
    why = ("repro serve child + 2 streaming clients; 85% of requests hit a pre-written hot "
           "set, 15% carry fresh seeds sent by both clients: reads beside writes, dedup, wire")
    child_process = True
    clients = 2
    cells_per_request = 4
    batches = 4
    #: Every client sends a fresh request as its 7th, 14th, 20th, ...
    #: request: 3 in 20.
    fresh_per_20 = 3
    hot_seeds = 4
    block = clients * cells_per_request

    def hot_set(self, seed: int) -> list[Cell]:
        seeds = _seeds(f"{self.name}:hot", seed)
        return [
            Cell(bench, policy, cell_seed, self.batches)
            for cell_seed in [next(seeds) for _ in range(self.hot_seeds)]
            for bench in BENCHMARK_NAMES
            for policy in ("cilk", "eewa")
        ]

    def fresh_request(self, seed: int, index: int) -> list[Cell]:
        """The ``index``-th fresh request; every client sends the same one."""
        rng = random.Random(f"{self.name}:fresh:{seed}:{index}")
        bench = BENCHMARK_NAMES[index % len(BENCHMARK_NAMES)]
        seeds = [rng.randrange(1, 2**31) for _ in range(self.cells_per_request // 2)]
        return [Cell(bench, policy, s, self.batches) for s in seeds for policy in ("cilk", "eewa")]

    def requests(self, seed: int, slot: int) -> Iterator[list[Cell]]:
        hot = self.hot_set(seed)
        rng = random.Random(f"{self.name}:client:{seed}:{slot}")
        for index in itertools.count():
            fresh = index * self.fresh_per_20 // 20
            if (index + 1) * self.fresh_per_20 // 20 > fresh:
                yield self.fresh_request(seed, fresh)
            else:
                yield rng.sample(hot, self.cells_per_request)

    def setup(self, work_dir, seed, trace_out, cpu) -> _Server:
        cache_dir = work_dir / "cache"
        with SweepEngine(workers=0, cache_dir=cache_dir) as engine:
            engine.run_cells([_spec_of(cell) for cell in self.hot_set(seed)])
        sock = work_dir / "serve.sock"
        if len(str(sock)) > 100:  # AF_UNIX paths are limited to ~108 bytes
            sock = Path(os.path.relpath(sock))
        if trace_out is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, str(HERE / "serve_child.py"), "--trace-out", str(trace_out)]
        command += ["--unix-socket", str(sock), "--workers", "0", "--cache-dir", str(cache_dir)]
        env = dict(os.environ)
        src = str(HERE.parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        log_path = work_dir / "serve.log"
        with open(log_path, "wb") as log:
            process = subprocess.Popen(command, env=env, stdout=log, stderr=subprocess.STDOUT)
        os.sched_setaffinity(process.pid, {cpu})  # before the server starts any thread
        server = _Server(process, f"unix:{sock}")
        probe = SweepServiceClient(server.url, retries=0, timeout=10)
        give_up = time.monotonic() + 60
        while True:
            if process.poll() is not None:
                raise RuntimeError(f"server exited early:\n{log_path.read_text()}")
            try:
                probe.stats()
                return server
            except (OSError, ServiceError):
                if time.monotonic() > give_up:
                    self.teardown(server)
                    raise
                time.sleep(0.02)

    def run(self, state: _Server, seed, count, prefix_cells, recorder, pacer) -> RunOutput:
        quota = -(-count // self.clients)
        prefix = -(-prefix_cells // self.clients)
        per_client: list[list[Record]] = [[] for _ in range(self.clients)]
        retries = [0] * self.clients
        errors: list[BaseException] = []

        def client_loop(slot: int) -> None:
            try:
                retries[slot] = self._client(
                    state.url, seed, slot, quota, per_client[slot], pacer
                )
            except BaseException as exc:  # re-raised in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=client_loop, args=(slot,))
                   for slot in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        stats = SweepServiceClient(state.url, retries=0).stats()["engine"]
        return RunOutput(
            [r for records in per_client for r in records],
            [r for records in per_client for r in records[:prefix]],
            {k: v for k, v in stats.items() if isinstance(v, int)},
            sum(retries),
        )

    def _client(
        self, url: str, seed: int, slot: int, quota: int, records: list[Record],
        pacer: Pacer,
    ) -> int:
        perf = time.perf_counter
        client = SweepServiceClient(url, jitter_seed=slot, timeout=60)
        for cells in self.requests(seed, slot):
            if len(records) >= quota:
                break
            got: dict[int, Record] = {}
            with pacer.request():
                started = perf()
                try:
                    for frame in client.stream([_scenario(cell) for cell in cells]):
                        if frame["frame"] == "error":
                            print(f"error frame: {frame}", file=sys.stderr)
                        if frame["frame"] != "cell":
                            break
                        result = frame["result"]
                        stats = result["policy_stats"]
                        done = perf()
                        got[frame["index"]] = Record(
                            cells[frame["index"]], done - started, done,
                            {name: result[key] for name, key in FRAME_SCALARS.items()},
                            frame["source"], result["batches_fast_forwarded"],
                            stats.get("tasks_stolen", 0.0), stats.get("failed_scans", 0.0),
                        )
                except (ServiceError, OSError):
                    traceback.print_exc()  # the cells not streamed count as failed below
                for index, cell in enumerate(cells):
                    records.append(got.get(index) or _failed(cell, started))
        return len(client.backoff_log)

    def teardown(self, state: _Server) -> None:
        process = state.process
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (PaperGridCold(), SteadyPeriodic(), AutoExplore(), ServeMixed())
}


def entry_kb(cache_dir: Path) -> float:
    """Mean size of the cache entries a run left behind."""
    sizes = [entry.nbytes for entry in ResultCache(cache_dir).iter_entries()]
    return sum(sizes) / len(sizes) / 1024 if sizes else 0.0
