"""Tests for the persistent sweep engine and the cache maintenance tooling.

Covers the queue semantics the exhibits rely on (in-flight dedup,
priority, cancellation, backpressure, streaming order), the cache's
crash-safety contract (atomic writes, torn-entry recovery), and the
``repro cache`` backing functions. Several processes sharing one cache
are covered by ``test_cache_processes.py``.
"""

import errno
import os
import pathlib
import pickle
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import CancelledError, Future

import pytest

import repro
from repro.errors import ConfigurationError
from repro.experiments import cachectl
from repro.experiments.fig1 import fig1_machine
from repro.experiments.parallel import CellSpec, ResultCache
from repro.experiments import sweep as sweep_mod
from repro.experiments.sweep import SweepEngine
from repro.machine.topology import opteron_8380_machine
from repro.scenario.registry import MACHINES, POLICIES, spread_levels_for
from repro.sim.engine import ENGINE_VERSION, simulate
from repro.sim.fingerprint import trace_fingerprint
from repro.sim.record import CellResult
from repro.workloads.benchmarks import benchmark_program

BATCHES = 2


def spec(policy="cilk", seed=11, benchmark="SHA-1"):
    return CellSpec(benchmark=benchmark, policy=policy, seed=seed, batches=BATCHES)


@pytest.fixture()
def engine(tmp_path):
    with SweepEngine(workers=0, cache_dir=tmp_path / "cache") as eng:
        yield eng


class TestInflightDedup:
    def test_duplicates_coalesce_onto_one_simulation(self, engine):
        tickets = engine.submit_many([spec(), spec(), spec()])
        outcomes = [t.result() for t in tickets]
        assert engine.stats.executed == 1
        assert engine.stats.deduplicated == 2
        # One simulation, one payload: every ticket sees the same result.
        assert outcomes[0].result is outcomes[1].result is outcomes[2].result
        assert not any(o.from_cache for o in outcomes)

    def test_cold_sweep_leaves_the_memo_empty(self, engine):
        engine.run_cells([spec(seed=11), spec(seed=23), spec(seed=11)])
        assert engine.stats.executed == 2
        assert not engine._memo  # simulated payloads go to disk only

    def test_cell_read_back_from_disk_is_memoised(self, engine):
        # The memo admits a payload on its second read from disk.
        first = engine.submit(spec()).result()
        repeat = engine.submit(spec()).result()
        assert repeat.from_cache
        assert engine.stats.executed == 1
        assert engine.stats.cache_hits == 1
        assert engine.stats.memo_hits == 0  # the first repeat reads disk
        assert not engine._memo  # ...and only records the key
        second = engine.submit(spec()).result()
        assert second.from_cache
        assert engine.stats.cache_hits == 2
        assert engine.stats.memo_hits == 0  # the second reads disk too
        assert len(engine._memo) == 1  # ...and admits the payload
        again = engine.submit(spec()).result()
        assert again.from_cache
        assert engine.stats.cache_hits == 3
        assert engine.stats.memo_hits == 1  # the third does not
        assert again.result is second.result
        assert trace_fingerprint(again.result) == trace_fingerprint(first.result)

    def test_a_cell_read_back_once_takes_no_memo_slot(self, engine, monkeypatch):
        monkeypatch.setattr(sweep_mod, "MEMO_ENTRIES", 2)
        engine.run_cells([spec(seed=s) for s in (11, 23, 37)])
        engine.run_cells([spec(seed=s) for s in (11, 23, 37)])
        assert engine.stats.cache_hits == 3
        assert not engine._memo
        # The keys read once are bounded like the memo, oldest dropped
        # first: seed 11's next read is a first read again.
        assert len(engine._read_once) == 2
        engine.submit(spec(seed=11)).result()
        assert not engine._memo
        admitted = engine.submit(spec(seed=37)).result()
        assert list(engine._memo) == [admitted.key]

    def test_dedup_works_without_cache(self, tmp_path):
        with SweepEngine(workers=0, cache_dir=None) as eng:
            outcomes = [t.result() for t in eng.submit_many([spec(), spec()])]
            assert eng.stats.executed == 1
            assert eng.stats.deduplicated == 1
            assert outcomes[0].result is outcomes[1].result

    def test_distinct_cells_do_not_coalesce(self, engine):
        engine.run_cells([spec(seed=11), spec(seed=23)])
        assert engine.stats.executed == 2
        assert engine.stats.deduplicated == 0

    @pytest.mark.parametrize("meanwhile", ["queued", "finished"])
    def test_a_cell_that_appears_while_its_program_is_generated_runs_once(
        self, engine, monkeypatch, meanwhile
    ):
        # A missed submit generates its program outside the engine lock,
        # where another submit of the same cell can queue it or finish it;
        # here that submit runs inside the generation, deterministically.
        build_program = CellSpec.build_program

        def racing(cell):
            monkeypatch.setattr(CellSpec, "build_program", build_program)
            ticket = engine.submit(spec())
            if meanwhile == "finished":
                ticket.result()
            return build_program(cell)

        monkeypatch.setattr(CellSpec, "build_program", racing)
        outcome = engine.submit(spec()).result()
        assert engine.stats.executed == 1
        if meanwhile == "queued":
            assert engine.stats.deduplicated == 1 and not outcome.from_cache
        else:
            assert engine.stats.cache_hits == 1 and outcome.from_cache


def _simulated(cell):
    """The cell's record from a direct ``simulate`` call."""
    return CellResult.from_sim(simulate(
        cell.build_program(), cell.build_policy(), cell.machine, seed=cell.seed,
    ))


def _full_disk(cache, key, payload):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestFailedCacheWrite:
    """A cache write that fails (here: a full disk) strands no cell."""

    def test_every_ticket_of_the_chunk_resolves(self, engine, monkeypatch):
        monkeypatch.setattr(sweep_mod, "CHUNK_TARGET_SECONDS", 1e9)
        engine.submit(spec(seed=1)).result()  # feed the chunk sizer
        monkeypatch.setattr(ResultCache, "put", _full_disk)
        cells = [spec(seed=s) for s in (11, 23, 37)]
        outcomes = [t.result(timeout=10) for t in engine.submit_many(cells)]
        assert engine.stats.chunks == 2  # the three cells ran in one chunk
        assert engine.stats.cache_write_errors == 3
        assert not engine._inflight
        for cell, outcome in zip(cells, outcomes):
            assert not outcome.from_cache
            assert outcome.result == _simulated(cell)
            assert engine.cache.get(outcome.key) is None
        again = engine.submit(cells[0]).result(timeout=10)
        assert not again.from_cache
        assert engine.stats.executed == 5
        assert engine.stats.cache_write_errors == 4

    def test_pooled_every_ticket_resolves(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ResultCache, "put", _full_disk)
        cells = [spec(seed=s) for s in (11, 23, 37, 41)]
        with SweepEngine(workers=2, cache_dir=tmp_path / "cache") as eng:
            outcomes = [t.result(timeout=60) for t in eng.submit_many(cells)]
            again = eng.submit(cells[0]).result(timeout=60)
        # Closing joined the pool, so every chunk's write has been tried.
        assert eng.stats.executed == 5
        assert eng.stats.cache_write_errors == 5
        assert not eng._inflight
        assert not again.from_cache
        for cell, outcome in zip(cells, outcomes):
            assert not outcome.from_cache
            assert outcome.result == _simulated(cell)
            assert eng.cache.get(outcome.key) is None


#: Run by a fresh interpreter: the CLI's imports, one cell of every
#: registered policy simulated and then read back from a cache, one
#: streamed request and a pool worker's warm-up; prints whether NumPy
#: got loaded.
_CELL_PATH = """
import sys
import repro, repro.cli
from repro.experiments.parallel import CellSpec
from repro.experiments.sweep import SweepEngine, _warm_worker
from repro.scenario.registry import POLICIES, spread_levels_for
from repro.scenario.spec import MachineSpec
from repro.service.protocol import parse_sweep_request
from repro.service.server import stream_request

levels = tuple(spread_levels_for(MachineSpec().build()))
cells = [
    CellSpec("SHA-1", entry.name, seed=11, batches=2,
             core_levels=levels if entry.needs_core_levels else None)
    for entry in POLICIES
]
with SweepEngine(cache_dir=sys.argv[1]) as engine:
    engine.run_cells(cells)
    engine.run_cells(cells)
    assert engine.stats.cache_hits == len(cells), engine.stats
    request = parse_sweep_request({"scenarios": [
        {"workload": "MD5", "policy": "wats", "seeds": [5], "batches": 2},
    ]})
    assert stream_request(engine, request, lambda frame: None)["ended"] == "end"
_warm_worker()
print("numpy" in sys.modules)
"""


def test_no_cell_imports_numpy(tmp_path):
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    child = subprocess.run(
        [sys.executable, "-c", _CELL_PATH, str(tmp_path / "cache")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False", (
        "a cell, the CLI or a pool worker imported NumPy; import it inside "
        "the functions that use it"
    )


class TestCancellation:
    def test_cancel_mid_queue(self, engine):
        tickets = engine.submit_many([spec(seed=s) for s in (11, 23, 37)])
        assert tickets[1].cancel()
        assert tickets[1].cancelled()
        with pytest.raises(CancelledError):
            tickets[1].result()
        # The rest of the queue is unaffected.
        assert tickets[0].result().result.tasks_executed > 0
        assert tickets[2].result().result.tasks_executed > 0
        assert engine.stats.cancelled == 1
        assert engine.stats.executed == 2

    def test_cancel_one_coalesced_ticket_keeps_the_cell(self, engine):
        keep, drop = engine.submit_many([spec(), spec()])
        assert drop.cancel()
        assert keep.result().result.tasks_executed > 0
        assert engine.stats.executed == 1
        assert engine.stats.cancelled == 1

    def test_cancel_after_resolution_fails(self, engine):
        ticket = engine.submit(spec())
        ticket.result()
        assert not ticket.cancel()

    def test_close_cancels_queued_work_and_rejects_submits(self, tmp_path):
        eng = SweepEngine(workers=0, cache_dir=tmp_path / "cache")
        ticket = eng.submit(spec())
        eng.close()
        assert ticket.cancelled()
        assert eng.stats.cancelled == 1
        with pytest.raises(RuntimeError):
            eng.submit(spec())


class TestOrdering:
    def test_lower_priority_value_executes_first(self, engine):
        late = engine.submit(spec(seed=11), priority=5)
        early = engine.submit(spec(seed=23), priority=0)
        order = [t is early for t in engine.as_completed([late, early])]
        assert order == [True, False]

    def test_as_completed_yields_cache_hits_first(self, engine):
        engine.submit(spec(seed=11)).result()
        tickets = engine.submit_many([spec(seed=37), spec(seed=11)])
        first = next(iter(engine.as_completed(tickets)))
        assert first.spec.seed == 11  # already cached: resolved instantly

    def test_run_cells_returns_submission_order(self, engine):
        engine.submit(spec(seed=23, policy="eewa")).result()  # cached: resolves first
        cells = [spec(seed=s, policy=p) for s in (11, 23) for p in ("cilk", "eewa")]
        outcomes = engine.run_cells(cells)
        assert [o.spec for o in outcomes] == cells
        assert [o.from_cache for o in outcomes] == [False, False, False, True]

    def test_streaming_order_is_deterministic(self, tmp_path):
        cells = [spec(seed=s, policy=p) for s in (37, 11) for p in ("eewa", "cilk")]
        runs = []
        for attempt in range(2):
            with SweepEngine(workers=0, cache_dir=tmp_path / f"c{attempt}") as eng:
                runs.append(
                    [trace_fingerprint(o.result) for o in eng.run_cells(cells)]
                )
        assert runs[0] == runs[1]


class TestBackpressureAndChunking:
    def test_inprocess_backpressure_bounds_the_queue(self, tmp_path):
        with SweepEngine(
            workers=0, cache_dir=tmp_path / "cache", max_pending=4
        ) as eng:
            tickets = [eng.submit(spec(seed=s)) for s in range(1, 11)]
            # Submissions past the bound drained chunks inline.
            assert eng.queue_depth <= 4
            assert all(t.result().result.tasks_executed > 0 for t in tickets)
            assert eng.stats.executed == 10

    def test_chunk_size_adapts_to_observed_cost(self, engine, monkeypatch):
        assert engine.chunk_size == 1  # no cost estimate yet
        engine.submit(spec()).result()
        assert engine.ema_cell_seconds > 0
        # A huge per-trip budget lifts the chunk to its cap.
        monkeypatch.setattr(sweep_mod, "CHUNK_TARGET_SECONDS", 1e9)
        monkeypatch.setattr(sweep_mod, "MAX_CHUNK", 4)
        assert engine.chunk_size == 4

    def test_chunked_dispatch_batches_cells(self, engine, monkeypatch):
        monkeypatch.setattr(sweep_mod, "CHUNK_TARGET_SECONDS", 1e9)
        engine.submit(spec(seed=1)).result()  # feed the cost estimator
        engine.run_cells([spec(seed=s) for s in range(2, 8)])
        # 6 queued cells, chunk cap 32: one more dispatch round-trip.
        assert engine.stats.executed == 7
        assert engine.stats.chunks == 2

    def test_pooled_batch_larger_than_max_pending_completes(self, tmp_path):
        # Regression: the submit_many dispatch gate must yield at the
        # backpressure bound, or a pooled batch bigger than max_pending
        # deadlocks — the parked submit waits on the dispatcher to drain
        # while the dispatcher waits on the gate the submit holds.
        with SweepEngine(
            workers=2, cache_dir=tmp_path / "cache", max_pending=3
        ) as eng:
            done = {}
            run = threading.Thread(
                target=lambda: done.setdefault(
                    "outcomes",
                    eng.run_cells([spec(seed=s) for s in range(1, 9)]),
                ),
                daemon=True,
            )
            run.start()
            run.join(timeout=180)
            assert "outcomes" in done, "pooled submit_many deadlocked"
            assert len(done["outcomes"]) == 8
            assert all(o.result.tasks_executed > 0 for o in done["outcomes"])
            assert eng.stats.executed == 8

    def test_result_timeout_honoured_in_process(self, engine):
        first, second = engine.submit_many([spec(seed=11), spec(seed=23)])
        with pytest.raises(TimeoutError):
            second.result(timeout=0)
        assert engine.stats.executed == 0  # a zero wait runs no chunks
        assert second.result().result.tasks_executed > 0
        assert first.result().result.tasks_executed > 0

    def test_default_engine_is_in_process_and_uncached(self):
        with SweepEngine() as eng:
            assert eng.cache is None
            eng.run_cells([spec(seed=11)])
            assert eng.stats.executed == 1
            assert eng._pool is None and eng._dispatcher is None

    def test_invalid_parameters_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SweepEngine(workers=-1)
        with pytest.raises(ConfigurationError):
            SweepEngine(max_pending=0)


class _StalledPool:
    """Pool stub whose chunks never complete — parks the dispatcher."""

    def __init__(self):
        self.futures = []

    def submit(self, fn, *args, **kwargs):
        future = Future()
        self.futures.append(future)
        return future

    def shutdown(self, wait=True):
        pass


class TestCloseRaces:
    def test_submit_parked_on_backpressure_raises_on_close(self):
        # A submit parked in backpressure when close() lands must raise,
        # not enqueue a job no dispatcher will ever resolve (which would
        # hang the caller on result() forever).
        eng = SweepEngine(workers=2, cache_dir=None, max_pending=1)
        stalled = _StalledPool()
        eng._ensure_pool = lambda: stalled
        failures = []

        def feed():
            try:
                eng.submit_many([spec(seed=s) for s in range(1, 9)])
            except RuntimeError as exc:
                failures.append(exc)

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        # 2 workers → the dispatcher stops after 4 in-flight chunks; the
        # feeder then fills the queue and parks in backpressure.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and len(stalled.futures) < 4:
            time.sleep(0.01)
        assert len(stalled.futures) == 4
        eng.close()
        feeder.join(timeout=30)
        assert not feeder.is_alive()
        assert failures and "closed" in str(failures[0])


class TestAsCompletedTickets:
    def test_coalesced_tickets_each_yielded_exactly_once(self, engine):
        # Regression: keying completion by future dropped tickets that
        # coalesced onto one in-flight cell — exactly as many tickets must
        # come out of as_completed as went in.
        first = engine.submit(spec())
        second = engine.submit(spec())
        assert engine.stats.deduplicated == 1
        out = list(engine.as_completed([first, second]))
        assert len(out) == 2
        assert {id(t) for t in out} == {id(first), id(second)}
        assert engine.stats.executed == 1
        assert out[0].result().result is out[1].result().result

    def test_coalesced_batch_yields_one_per_ticket(self, engine):
        tickets = engine.submit_many([spec(), spec(), spec(seed=23)])
        out = list(engine.as_completed(tickets))
        assert len(out) == len(tickets)
        assert {id(t) for t in out} == {id(t) for t in tickets}

    def test_timeout_zero_raises_with_cells_unresolved(self, engine):
        tickets = engine.submit_many([spec(seed=s) for s in (11, 23)])
        with pytest.raises(TimeoutError, match="unresolved"):
            list(engine.as_completed(tickets, timeout=0))

    def test_timeout_yields_resolved_cells_before_raising(self, engine):
        engine.submit(spec()).result()  # warm the cache
        warm = engine.submit(spec())  # resolves at submit time
        cold = engine.submit(spec(seed=23))
        got = []
        with pytest.raises(TimeoutError):
            for ticket in engine.as_completed([warm, cold], timeout=0):
                got.append(ticket)
        assert got == [warm]
        assert cold.cancel()


class TestCloseDispatcherJoin:
    def test_wedged_dispatcher_join_warns_instead_of_leaking_silently(
        self, monkeypatch
    ):
        eng = SweepEngine(workers=0, cache_dir=None)
        release = threading.Event()
        wedged = threading.Thread(target=release.wait, name="wedged-dispatcher")
        wedged.start()
        eng._dispatcher = wedged
        monkeypatch.setattr(sweep_mod, "DISPATCHER_JOIN_SECONDS", 0.05)
        try:
            with pytest.warns(RuntimeWarning, match="failed to join"):
                eng.close()
        finally:
            release.set()
            wedged.join()

    def test_clean_close_emits_no_warning(self):
        eng = SweepEngine(workers=0, cache_dir=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eng.close()


class TestTornEntryRecovery:
    def test_torn_loose_entry_is_deleted_and_resimulated(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with SweepEngine(workers=0, cache_dir=cache_dir) as eng:
            good = eng.submit(spec()).result()
        cache = ResultCache(cache_dir)
        path = cache._path(good.key)
        path.write_bytes(path.read_bytes()[:10])  # simulate a torn write
        with SweepEngine(workers=0, cache_dir=cache_dir) as eng:
            again = eng.submit(spec()).result()
            assert eng.stats.executed == 1  # miss: recovered by re-running
            assert not again.from_cache
        assert trace_fingerprint(again.result) == trace_fingerprint(good.result)

    def test_torn_entry_removed_on_get(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        cache.put(key, {"engine_version": ENGINE_VERSION, "result": 1})
        cache._path(key).write_bytes(b"\x80garbage")
        assert cache.get(key) is None
        assert not cache._path(key).exists()


def _touch(path):
    """Where a planted entry's pickle calls: proof that it ran."""
    open(path, "x").close()
    return {"engine_version": ENGINE_VERSION, "result": None}


class _Planted:
    """Pickles as a call to :func:`_touch`."""

    def __init__(self, flag):
        self.flag = flag

    def __reduce__(self):
        return _touch, (str(self.flag),)


class TestEntryLayout:
    def test_planted_entry_is_a_deleted_miss_that_runs_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        flag = tmp_path / "ran"
        blob = pickle.dumps(_Planted(flag), protocol=pickle.HIGHEST_PROTOCOL)
        cache._path(key).parent.mkdir(parents=True)
        cache._path(key).write_bytes(blob)
        assert cache.get(key) is None
        assert not cache._path(key).exists()
        assert not flag.exists()
        pickle.loads(blob)  # a plain unpickler would have run it
        assert flag.exists()

    def test_records_round_trip_for_every_preset_and_paper_policy(self, tmp_path):
        # A class a record holds but the allow-list misses would turn
        # every warm hit into a re-simulation; here it fails instead.
        cache_dir = tmp_path / "cache"
        machines = [MACHINES.get(preset).build() for preset in MACHINES.names()]
        machines.append(fig1_machine())
        outcomes = []
        with SweepEngine(workers=0, cache_dir=cache_dir) as eng:
            for machine in machines:
                for policy in ("cilk", "cilk-d", "wats", "eewa"):
                    levels = (
                        tuple(spread_levels_for(machine))
                        if POLICIES.get(policy).needs_core_levels else None
                    )
                    outcomes.append(eng.submit(CellSpec(
                        benchmark="SHA-1", policy=policy, seed=11,
                        batches=BATCHES, machine=machine, core_levels=levels,
                    )).result())
            # A cell not simulated above: a cached sim result would win.
            model = eng.submit(
                spec(policy="eewa", seed=23), fidelity="auto"
            ).result()
            assert eng.stats.executed == len(outcomes)
        assert model.source == "model"
        assert isinstance(model.result, CellResult)
        fresh = ResultCache(cache_dir)
        assert fresh.get(model.key) is None  # predictions are not stored
        for outcome in outcomes:
            assert isinstance(outcome.result, CellResult)
            payload = fresh.get(outcome.key)
            assert payload is not None, outcome.spec
            assert payload["result"] == outcome.result

    def test_entry_in_the_earlier_layout_is_a_miss_and_rewritten(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with SweepEngine(workers=0, cache_dir=cache_dir) as eng:
            key = eng.submit(spec()).result().key
        # Earlier versions stored the whole SimResult under the same key.
        full = simulate(
            benchmark_program("SHA-1", batches=BATCHES, seed=11),
            POLICIES.get("cilk").build(), opteron_8380_machine(), seed=11,
        )
        cache = ResultCache(cache_dir)
        cache.put(key, {
            "engine_version": ENGINE_VERSION, "result": full,
            "adjuster_wallclock_s": 0.0, "adjuster_decisions": 0,
        })
        with SweepEngine(workers=0, cache_dir=cache_dir) as eng:
            again = eng.submit(spec()).result()
            assert eng.stats.executed == 1
        assert not again.from_cache
        assert trace_fingerprint(again.result) == trace_fingerprint(full)
        assert isinstance(cache.get(key)["result"], CellResult)


class TestCachectl:
    def _warm(self, cache_dir, seeds=(11, 23)):
        with SweepEngine(workers=0, cache_dir=cache_dir) as eng:
            eng.run_cells([spec(seed=s) for s in seeds])

    def test_stats_counts_loose_and_packed(self, tmp_path):
        # Entries are the loose files; a shard.pack left by an older
        # version is neither counted nor served.
        self._warm(tmp_path)
        stats = cachectl.cache_stats(tmp_path)
        assert stats.entries == 2
        assert stats.total_bytes > 0
        orphan = "ab" + "0" * 62
        blob = pickle.dumps({"engine_version": ENGINE_VERSION, "result": 0})
        (tmp_path / "ab").mkdir(exist_ok=True)
        (tmp_path / "ab" / "shard.pack").write_bytes(
            pickle.dumps({"format": 1, "entries": {orphan: (0.0, blob)}})
        )
        assert cachectl.cache_stats(tmp_path) == stats
        assert ResultCache(tmp_path).get(orphan) is None

    def test_prune_by_age(self, tmp_path):
        self._warm(tmp_path)
        entries = cachectl._entry_map(ResultCache(tmp_path))
        newest = max(mtime for mtime, _ in entries.values())
        # "Now" far in the future: everything is stale.
        result = cachectl.prune(
            tmp_path, max_age_days=1, now=newest + 2 * 86400
        )
        assert (result.removed, result.kept) == (2, 0)
        assert cachectl.cache_stats(tmp_path).entries == 0

    def test_prune_by_bytes_evicts_oldest_first(self, tmp_path):
        self._warm(tmp_path, seeds=(11, 23, 37))
        cache = ResultCache(tmp_path)
        entries = cachectl._entry_map(cache)
        oldest = min(entries, key=lambda k: entries[k][0])
        largest_two = sum(
            sorted((n for _, n in entries.values()), reverse=True)[:2]
        )
        result = cachectl.prune(tmp_path, max_bytes=largest_two)
        assert result.removed == 1
        assert cache.get(oldest) is None  # oldest evicted first

    def test_prune_keeps_entry_exactly_at_age_cutoff(self, tmp_path):
        # The age bound is strict (mtime < cutoff): an entry whose mtime
        # equals the cutoff to the second is NOT stale yet.
        self._warm(tmp_path)
        cache = ResultCache(tmp_path)
        entries = cachectl._entry_map(cache)
        at_cutoff, stale = sorted(entries)
        base = 1_700_000_000.0
        os.utime(cache._path(at_cutoff), (base, base))
        os.utime(cache._path(stale), (base - 1.0, base - 1.0))
        result = cachectl.prune(
            tmp_path, max_age_days=1, now=base + 86400.0
        )
        assert (result.removed, result.kept) == (1, 1)
        assert cache.get(at_cutoff) is not None
        assert cache.get(stale) is None

    def test_prune_by_bytes_breaks_mtime_ties_by_key(self, tmp_path):
        # Equal mtimes: eviction order falls back to the key, so the
        # victim choice stays deterministic across runs.
        self._warm(tmp_path, seeds=(11, 23, 37))
        cache = ResultCache(tmp_path)
        entries = cachectl._entry_map(cache)
        base = 1_700_000_000.0
        for key in entries:
            os.utime(cache._path(key), (base, base))
        total = sum(nbytes for _, nbytes in entries.values())
        result = cachectl.prune(tmp_path, max_bytes=total - 1)
        assert result.removed == 1
        assert cache.get(min(entries)) is None  # smallest key loses the tie
        for key in sorted(entries)[1:]:
            assert cache.get(key) is not None

    def test_prune_by_age_removes_only_stale_temp_files(self, tmp_path):
        # A writer that died between mkstemp and os.replace left the
        # stale one; a live writer's temp file is only seconds old.
        self._warm(tmp_path)
        cache = ResultCache(tmp_path)
        entries = cachectl._entry_map(cache)
        shard = cache._path(min(entries)).parent
        stale, live = shard / "tmpdead.tmp", shard / "tmplive.tmp"
        stale.write_bytes(b"torn")
        live.write_bytes(b"torn")
        now = time.time()
        os.utime(stale, (now - 3 * 86400, now - 3 * 86400))
        result = cachectl.prune(tmp_path, max_age_days=1, now=now)
        assert not stale.exists()
        assert live.exists()
        assert (result.removed, result.kept) == (0, len(entries))
        assert cachectl._entry_map(cache) == entries

    def test_prune_empty_cache_is_a_noop(self, tmp_path):
        result = cachectl.prune(
            tmp_path / "never-written", max_age_days=1, max_bytes=0
        )
        assert (result.removed, result.kept, result.bytes_freed) == (0, 0, 0)
