"""Parallel, cached experiment execution — the cell model and the cache.

The paper's evaluation repeats every (benchmark × policy) pair ~100 times;
our exhibits repeat each cell over seeds. The cells are embarrassingly
parallel — every simulation is a pure function of *(program, policy config,
machine, seed, engine version)* — so this module provides the shared
vocabulary the sweep engine (:mod:`repro.experiments.sweep`) builds on:

* **cell model** — :class:`CellSpec` / :class:`CellOutcome` /
  :func:`cell_key`, the content-addressed identity of one simulation;
* **content-addressed caching** — each cell's inputs are canonically
  encoded (:mod:`repro.sim.fingerprint`) and SHA-256 hashed into a cache
  key; each finished cell's :class:`~repro.sim.record.CellResult` (the
  record a worker builds from its :class:`~repro.sim.engine.SimResult`,
  without the energy meter or the ``Task`` objects) is pickled under that
  key in a :class:`ResultCache`, one file per entry, sharded by two-hex
  digest prefix and safe to share between processes. Entries load through
  an allow-listed unpickler that admits only the classes a record holds,
  so an entry names its own layout: one holding anything else (such as a
  whole ``SimResult``, as earlier versions wrote) is a miss, deleted and
  re-simulated. A generated cell is keyed by what generates its program
  (:class:`GeneratedProgram`), so a cached one is found without
  generating it. A repeated sweep with unchanged inputs executes zero
  simulations; changing *any* input — a workload or task-class field,
  the batch count, a policy tunable, the machine, the seed, the engine
  version tag (:data:`repro.sim.engine.ENGINE_VERSION`), the generator
  version (:data:`repro.workloads.generators.GENERATOR_VERSION`), or the
  key layout (``_CACHE_FORMAT`` and
  :data:`repro.scenario.spec.SCENARIO_SCHEMA_VERSION`) — changes the key
  and misses. Entries written under an older layout are therefore never
  served.

Cells run through :class:`repro.experiments.sweep.SweepEngine`.

Determinism note: results are byte-identical whether a cell is computed
in-process, in a worker, or served from cache — the simulation itself is
seeded and single-threaded; only *where* it runs changes. The one
exception is the wall-clock adjuster measurement riding along for Table
III, which is a real timing and is cached verbatim from the run that
produced it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from repro.core.eewa import EEWAConfig
from repro.errors import ConfigurationError
from repro.faults.spec import FaultSpec
from repro.machine.operating_point import OperatingPoint, OperatingPointSpace
from repro.machine.power import PowerModel, VoltageCurve
from repro.machine.topology import MachineConfig
from repro.runtime.task import Batch
from repro.scenario.registry import POLICIES
from repro.scenario.spec import SCENARIO_SCHEMA_VERSION, ScenarioSpec
from repro.sim.engine import ENGINE_VERSION, simulate
from repro.sim.fingerprint import digest
from repro.sim.record import CellResult
from repro.sim.trace import BatchTrace, DvfsTransition, TraceRecorder
from repro.workloads import generators
from repro.workloads.benchmarks import benchmark_spec
from repro.workloads.spec import WorkloadSpec

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Version of the key layout :func:`cell_key` hashes, part of every key.
#: 2 since a generated cell is keyed by its generator
#: (:class:`GeneratedProgram`) instead of its program's digest, so no
#: entry written under 1 is served. The stored format needs no bump: an
#: entry names its own layout through the classes it pickles, and
#: :data:`_ENTRY_CLASSES` admits only the current one. (Simulated
#: behaviour is versioned by ``ENGINE_VERSION``, generated programs by
#: ``GENERATOR_VERSION`` and scenario fields by ``SCENARIO_SCHEMA_VERSION``.)
_CACHE_FORMAT = 2

#: Programs :func:`_generated_program` keeps: a grid runs each program
#: under several policies. A jittered Table II program holds 150-330 KB,
#: while a program whose batches repeat shares its specs and its
#: ``specs`` tuple (3.4 KB for 30 periodic batches).
_PROGRAM_CACHE_ENTRIES = 256

#: Machine digests, memoised by object identity. A preset's machine is
#: one shared object (:meth:`~repro.scenario.spec.MachineSpec.build`), so
#: a sweep digests it once instead of once per cell. Identity keying is
#: sound because an entry holds a strong reference to its machine (so its
#: id cannot be recycled while the entry lives) and every hit re-verifies
#: identity. The memo is an LRU of :data:`_MACHINE_MEMO_ENTRIES`.
_MACHINE_MEMO_ENTRIES = 256
_machine_memo: OrderedDict[int, tuple[MachineConfig, str]] = OrderedDict()
_machine_memo_lock = threading.Lock()


def _machine_digest(machine: MachineConfig) -> str:
    key = id(machine)
    with _machine_memo_lock:
        cached = _machine_memo.get(key)
        if cached is None or cached[0] is not machine:
            cached = _machine_memo[key] = (machine, digest([machine]))
        _machine_memo.move_to_end(key)
        if len(_machine_memo) > _MACHINE_MEMO_ENTRIES:
            _machine_memo.popitem(last=False)
        return cached[1]


@functools.lru_cache(maxsize=64)
def _workload_digest(workload: WorkloadSpec) -> str:
    """Memoised by value: a WorkloadSpec is frozen and hashable, and
    hashing one costs a twentieth of digesting it."""
    return digest([workload])


@dataclasses.dataclass(frozen=True)
class GeneratedProgram:
    """A cell's program named by what generates it.

    The program is ``generate_program(workload, batches=batches,
    seed=seed)`` for the cell's seed: a pure function of the spec, the
    batch count, the seed and the generator code, which
    ``GENERATOR_VERSION`` versions. So the cell key digests those instead
    of the program, and a cached cell is found without generating it.
    ``batches`` is resolved: a cell asking for the workload's default
    batch count keys like one that names it.
    """

    workload: WorkloadSpec
    batches: int

    def generate(self, seed: int) -> tuple[Batch, ...]:
        return _generated_program(self, seed)


ProgramSource = Union[Sequence[Batch], GeneratedProgram]


def cell_key(
    program: ProgramSource,
    policy: str,
    machine: MachineConfig,
    seed: int,
    *,
    core_levels: Optional[Sequence[int]] = None,
    eewa_config: Optional[EEWAConfig] = None,
    policy_params: Optional[tuple[tuple[str, Any], ...]] = None,
    fast_forward: bool = True,
    faults: Optional[FaultSpec] = None,
) -> str:
    """Content hash of one simulation's complete input set.

    ``program`` is a :class:`GeneratedProgram`, keyed by
    ``GENERATOR_VERSION``, its workload spec and its batch count, or an
    explicit program (a sequence of batches), keyed by the digest of its
    content. This is the resolved-scenario digest: the policy name must
    be registered, and the layout is versioned by ``_CACHE_FORMAT`` and
    ``SCENARIO_SCHEMA_VERSION`` — bumping either orphans every entry
    written under the old layout. ``fast_forward`` is part of the key: on
    machines whose arithmetic is not float-exact a fast-forwarded result
    may differ from a full one in last-ulp positions, so the two modes
    must never share cache entries.
    """
    if isinstance(program, GeneratedProgram):
        program_id: Any = (
            "generated", generators.GENERATOR_VERSION,
            _workload_digest(program.workload), program.batches,
        )
    else:
        program_id = digest([tuple(program)])
    return digest(
        [
            "schema", SCENARIO_SCHEMA_VERSION,
            "engine", ENGINE_VERSION, _CACHE_FORMAT,
            "machine", _machine_digest(machine),
            "program", program_id,
            "policy", POLICIES.canonical(policy),
            "core_levels", None if core_levels is None else tuple(core_levels),
            "eewa_config", eewa_config,
            "policy_params", policy_params,
            "seed", seed,
            "fast_forward", fast_forward,
            "faults", faults,
        ]
    )


# ----------------------------------------------------------------------
# cell model
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CellSpec:
    """One (workload × policy × seed) simulation request.

    ``benchmark`` names a registered workload; ``workload`` carries an
    inline :class:`~repro.workloads.spec.WorkloadSpec` instead (the cache
    key hashes the workload spec's *content*, not its name, so an inline
    spec and the registered workload it equals share cache entries).
    ``program`` overrides generation entirely and is keyed by its own
    content; ``machine`` overrides the engine's default machine (Fig. 9's
    core-count sweep). ``policy_params`` are the JSON-scalar tunables of a
    :class:`~repro.scenario.spec.PolicySpec`.
    """

    benchmark: str
    policy: str
    seed: int
    batches: Optional[int] = None
    core_levels: Optional[tuple[int, ...]] = None
    eewa_config: Optional[EEWAConfig] = None
    machine: Optional[MachineConfig] = None
    program: Optional[tuple[Batch, ...]] = None
    workload: Optional[WorkloadSpec] = None
    policy_params: Optional[tuple[tuple[str, Any], ...]] = None
    faults: Optional[FaultSpec] = None

    def program_source(self) -> ProgramSource:
        """What the cell key names this cell's program by: the explicit
        ``program``, or the generator of the inline ``workload`` or of the
        registered ``benchmark``."""
        if self.program is not None:
            return self.program
        workload = (
            self.workload if self.workload is not None
            else benchmark_spec(self.benchmark)
        )
        return GeneratedProgram(
            workload,
            workload.default_batches if self.batches is None else self.batches,
        )

    @classmethod
    def from_scenario(cls, scenario: ScenarioSpec, seed: int) -> "CellSpec":
        """One cell of a scenario (its ``seed``-th repetition)."""
        (cell,) = cls.from_scenario_seeds(scenario, (seed,))
        return cell

    @classmethod
    def from_scenario_seeds(
        cls, scenario: ScenarioSpec, seeds: Optional[Sequence[int]] = None
    ) -> list["CellSpec"]:
        """One cell per seed (default: the scenario's seeds).

        The cells share one machine, built once; a preset's machine is
        the same object for every scenario that names it (see
        :meth:`~repro.scenario.spec.MachineSpec.build`), and a cell key
        digests a machine once per object.
        """
        policy = scenario.policy
        eewa_config = None
        if policy.config is not None:
            if not isinstance(policy.config, EEWAConfig):
                raise ConfigurationError(
                    f"{policy.name}: only EEWAConfig objects can ride through "
                    "the sweep engine; use JSON params instead"
                )
            eewa_config = policy.config
        machine = scenario.build_machine()
        workload = (
            scenario.workload if isinstance(scenario.workload, WorkloadSpec) else None
        )
        return [
            cls(
                benchmark=scenario.workload_name,
                policy=policy.name,
                seed=seed,
                batches=scenario.batches,
                core_levels=policy.core_levels,
                eewa_config=eewa_config,
                machine=machine,
                workload=workload,
                policy_params=policy.params or None,
                faults=scenario.faults,
            )
            for seed in (scenario.seeds if seeds is None else seeds)
        ]


@dataclasses.dataclass(frozen=True)
class CellOutcome:
    """One finished cell: its record plus cache/bookkeeping metadata.

    ``result`` is a :class:`CellResult` however the cell was served —
    simulated, from the memo or disk cache, coalesced, or predicted.
    """

    spec: CellSpec
    key: str
    result: CellResult
    from_cache: bool
    #: Real (non-simulated) seconds spent inside the EEWA adjuster, and the
    #: number of adjustment decisions — Table III's "measured" column.
    #: Both are 0 for model outcomes.
    adjuster_wallclock_s: float = 0.0
    adjuster_decisions: int = 0
    #: Provenance: ``"sim"`` for simulator results (fresh or cached),
    #: ``"model"`` for analytic predictions served by the sweep engine's
    #: ``fidelity="auto"`` tier. A model outcome carries its cell's key
    #: and is never ``from_cache``: predictions are not stored.
    source: str = "sim"


# ----------------------------------------------------------------------
# on-disk cache
# ----------------------------------------------------------------------

_UNPICKLE_ERRORS = (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError, IndexError, KeyError, TypeError, ValueError)

#: The only classes an entry may load: a :class:`CellResult` and what it
#: holds. Any other global fails the load with ``UnpicklingError``, so a
#: file planted in (or left over in) the cache directory cannot make a
#: reader import or call anything.
_ENTRY_CLASSES = {
    (cls.__module__, cls.__qualname__): cls
    for cls in (
        CellResult, TraceRecorder, BatchTrace, DvfsTransition, MachineConfig,
        OperatingPoint, OperatingPointSpace, PowerModel, VoltageCurve,
    )
}


class _EntryUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        try:
            return _ENTRY_CLASSES[module, name]
        except KeyError:
            raise pickle.UnpicklingError(
                f"a cache entry may not load {module}.{name}"
            ) from None


_HEX = frozenset("0123456789abcdef")


@dataclasses.dataclass(frozen=True)
class CacheEntryInfo:
    """One cache entry as seen by the maintenance tooling."""

    key: str
    nbytes: int
    mtime: float


class ResultCache:
    """Sharded content-addressed pickle store, one file per entry.

    On-disk layout (``root`` is the cache directory)::

        root/<2-hex prefix>/<64-hex key>.pkl

    Each ``put`` pickles the payload to a temp file in the shard directory
    and ``os.replace``\\ s it into place, so concurrent writers racing on
    one key both land a complete entry and a crashed writer can never leave
    a torn file under the final name. A torn or unreadable entry found by
    ``get`` is treated as a miss *and deleted*, so it cannot poison later
    warm runs; so is an entry that pickles a class outside
    :data:`_ENTRY_CLASSES`. No operation reads, merges and rewrites a
    shared file, so several processes can share one root without a lock:
    the worst a race with :meth:`remove_keys` can do is turn a hit into a
    re-simulation.
    """

    def __init__(self, root: str | os.PathLike[str] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[dict[str, Any]]:
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                payload = _EntryUnpickler(fh).load()
        except FileNotFoundError:
            return None
        except _UNPICKLE_ERRORS:
            # Torn, unreadable or foreign entry (a crashed pre-atomic
            # writer, an earlier layout, a planted file): delete it so it
            # is re-simulated instead of poisoning every later warm run.
            with contextlib.suppress(OSError):
                path.unlink()
            return None
        if not isinstance(payload, dict) or payload.get("engine_version") != ENGINE_VERSION:
            return None
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Atomically persist one entry (temp file + ``os.replace``).

        Safe under concurrent writers racing on the same key: each writes
        a private temp file and the rename is atomic, so whichever
        ``os.replace`` lands last wins with a complete entry either way.
        """
        path = self._path(key)
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except FileNotFoundError:
            # The shard directory is made on the first put that needs it
            # (or again after a prune removed it), not checked on every put.
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)  # atomic: concurrent writers both win
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    # -- maintenance (repro cache) --------------------------------------

    def iter_entries(self) -> Iterator[CacheEntryInfo]:
        """Every entry with its size and mtime, in key order."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if len(shard.name) != 2 or not _HEX.issuperset(shard.name):
                continue
            for path in sorted(shard.glob("*.pkl")):
                key = path.name[: -len(".pkl")]
                if len(key) != 64 or not _HEX.issuperset(key):
                    continue
                try:
                    st = path.stat()
                except OSError:
                    continue  # removed since the listing
                yield CacheEntryInfo(key, st.st_size, st.st_mtime)

    def remove_keys(self, keys: Iterable[str]) -> int:
        """Delete entries by key; returns how many were there to delete."""
        removed = 0
        for key in sorted(keys):
            with contextlib.suppress(OSError):
                self._path(key).unlink()
                removed += 1
        return removed

    def remove_temp_files(self, older_than: float) -> int:
        """Delete ``put`` temp files last modified before ``older_than``.

        A writer that dies between ``mkstemp`` and ``os.replace`` leaves
        its temp file behind; a live writer's is only seconds old.
        Returns how many were deleted.
        """
        removed = 0
        for path in sorted(self.root.glob("??/*.tmp")):
            with contextlib.suppress(OSError):
                if path.stat().st_mtime < older_than:
                    path.unlink()
                    removed += 1
        return removed


# ----------------------------------------------------------------------
# workers
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=_PROGRAM_CACHE_ENTRIES)
def _generated_program(source: GeneratedProgram, seed: int) -> tuple[Batch, ...]:
    """Memoised generation, keyed by the workload spec's value (never by
    its name, which may be registered again with other content)."""
    return tuple(generators.generate_program(
        source.workload, batches=source.batches, seed=seed
    ))


def _simulate_cell(
    program: tuple[Batch, ...],
    policy_name: str,
    machine: MachineConfig,
    seed: int,
    core_levels: Optional[tuple[int, ...]],
    eewa_config: Optional[EEWAConfig],
    policy_params: Optional[tuple[tuple[str, Any], ...]] = None,
    fast_forward: bool = True,
    faults: Optional[FaultSpec] = None,
) -> dict[str, Any]:
    """Run one cell; module-level so worker processes can unpickle it.

    The payload holds the run's :class:`CellResult`, built here so a
    worker ships the record, not the meter and ``Task`` objects, to the
    parent.
    """
    policy = POLICIES.get(policy_name).build(
        core_levels=core_levels,
        params=dict(policy_params) if policy_params else None,
        config=eewa_config,
    )
    result = simulate(
        program, policy, machine, seed=seed, fast_forward=fast_forward,
        faults=faults,
    )
    wallclock = getattr(policy, "total_adjuster_wallclock", None)
    decisions = getattr(policy, "decisions", None)
    return {
        "engine_version": ENGINE_VERSION,
        "result": CellResult.from_sim(result),
        "adjuster_wallclock_s": wallclock() if callable(wallclock) else 0.0,
        "adjuster_decisions": len(decisions) if decisions is not None else 0,
    }


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------


@dataclasses.dataclass
class SweepStats:
    """Cumulative accounting of one sweep engine's work.

    ``cells`` counts submissions. Each one is served as one of
    ``cache_hits`` (from the on-disk cache or its in-memory memo),
    ``deduplicated`` (coalesced onto an in-flight identical cell),
    ``model_cells`` (an analytic-model prediction under
    ``fidelity="auto"``), or a queued job; ``executed`` counts the jobs
    that ran. ``cancelled`` counts tickets withdrawn before dispatch,
    coalesced ones included, so it can overlap the other counters.
    ``memo_hits`` is the subset of ``cache_hits`` served without
    touching disk: entries this engine had already read back once.
    ``chunks`` is the number of dispatch round-trips the executed cells
    were batched into.
    """

    cells: int = 0
    executed: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    cancelled: int = 0
    memo_hits: int = 0
    chunks: int = 0
    model_cells: int = 0
