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
  re-simulated. A repeated sweep with unchanged inputs executes zero
  simulations; changing *any* input — a task spec, a policy tunable, the
  machine, the seed, the engine version tag
  (:data:`repro.sim.engine.ENGINE_VERSION`), or the scenario schema
  version (:data:`repro.scenario.spec.SCENARIO_SCHEMA_VERSION`, which
  versions the key layout itself) — changes the key and misses. Entries
  written under an older schema version are therefore never served.

Cells run through :class:`repro.experiments.sweep.SweepEngine`, directly
or through :class:`repro.scenario.session.Session`.

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
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Sequence

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
from repro.workloads.benchmarks import benchmark_program
from repro.workloads.spec import WorkloadSpec

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Part of every cell key, and kept at 1 so keys do not move. The stored
#: format needs no key bump: an entry names its own layout through the
#: classes it pickles, and :data:`_ENTRY_CLASSES` admits only the current
#: one. (The simulated behaviour is versioned by ``ENGINE_VERSION`` and
#: the key layout by ``SCENARIO_SCHEMA_VERSION``.)
_CACHE_FORMAT = 1


#: Programs the generation caches below keep. The key memo shares the
#: bound: a program those caches have dropped is never keyed by identity
#: again, so a larger memo would only pin dropped programs (100-200 KB
#: each) in memory.
_PROGRAM_CACHE_ENTRIES = 256

#: Sub-digests of immutable inputs, memoised by object identity — a sweep
#: hashes the same program once per (program, policy-count) instead of
#: re-walking thousands of task specs per cell. Identity keying is sound
#: because an entry holds a strong reference to its keyed object (so its
#: id cannot be recycled while the entry lives) and every hit re-verifies
#: identity. The memo is an LRU bounded like the program caches, so it
#: holds no more programs than they do.
_BLOB_MEMO_ENTRIES = _PROGRAM_CACHE_ENTRIES
_blob_memo: OrderedDict[int, tuple[Any, str]] = OrderedDict()


def _memo_digest(value: Any) -> str:
    cached = _blob_memo.get(id(value))
    if cached is not None and cached[0] is value:
        _blob_memo.move_to_end(id(value))
        return cached[1]
    d = digest([value])
    _blob_memo[id(value)] = (value, d)
    while len(_blob_memo) > _BLOB_MEMO_ENTRIES:
        _blob_memo.popitem(last=False)
    return d


def cell_key(
    program: Sequence[Batch],
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

    This is the resolved-scenario digest: the policy name must be
    registered, and the layout is versioned by ``SCENARIO_SCHEMA_VERSION``
    — bumping it orphans every entry written under the old layout.
    ``fast_forward`` is part of the key: on machines whose arithmetic is
    not float-exact a fast-forwarded result may differ from a full one in
    last-ulp positions, so the two modes must never share cache entries.
    """
    if isinstance(program, tuple):
        program_digest = _memo_digest(program)
    else:
        # A tuple built here has a one-shot id — memoising it would only
        # fill the memo with entries no later call can ever hit.
        program_digest = digest([tuple(program)])
    return digest(
        [
            "schema", SCENARIO_SCHEMA_VERSION,
            "engine", ENGINE_VERSION, _CACHE_FORMAT,
            "machine", _memo_digest(machine),
            "program", program_digest,
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
    key hashes generated program *content*, so an inline spec and the
    registered workload it equals share cache entries). ``program``
    overrides generation entirely; ``machine`` overrides the engine's
    default machine (Fig. 9's core-count sweep). ``policy_params`` are the
    JSON-scalar tunables of a :class:`~repro.scenario.spec.PolicySpec`.
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

    @classmethod
    def from_scenario(cls, scenario: ScenarioSpec, seed: int) -> "CellSpec":
        """One cell of a scenario (its ``seed``-th repetition)."""
        policy = scenario.policy
        eewa_config = None
        if policy.config is not None:
            if not isinstance(policy.config, EEWAConfig):
                raise ConfigurationError(
                    f"{policy.name}: only EEWAConfig objects can ride through "
                    "the sweep engine; use JSON params instead"
                )
            eewa_config = policy.config
        return cls(
            benchmark=scenario.workload_name,
            policy=policy.name,
            seed=seed,
            batches=scenario.batches,
            core_levels=policy.core_levels,
            eewa_config=eewa_config,
            machine=scenario.build_machine(),
            workload=(
                scenario.workload
                if isinstance(scenario.workload, WorkloadSpec)
                else None
            ),
            policy_params=policy.params or None,
            faults=scenario.faults,
        )


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
    #: ``fidelity="model"|"auto"`` tier. Model outcomes carry the
    #: model-versioned key, never the simulation key.
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
def _generated_program(
    benchmark: str, batches: Optional[int], seed: int
) -> tuple[Batch, ...]:
    """Memoised program generation — generation is deterministic in these
    arguments, and returning the *same* tuple object across a sweep's cells
    lets the key hasher reuse its per-program digest."""
    return tuple(benchmark_program(benchmark, batches=batches, seed=seed))


@functools.lru_cache(maxsize=64)
def _generated_from_spec(
    workload: WorkloadSpec, batches: Optional[int], seed: int
) -> tuple[Batch, ...]:
    """Memoised generation for inline workload specs (frozen, hashable)."""
    from repro.workloads.generators import generate_program

    return tuple(generate_program(workload, batches=batches, seed=seed))


def _resolve_program(spec: CellSpec) -> tuple[Batch, ...]:
    if spec.program is not None:
        return spec.program
    if spec.workload is not None:
        return _generated_from_spec(spec.workload, spec.batches, spec.seed)
    return _generated_program(spec.benchmark, spec.batches, spec.seed)


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

    ``cells`` counts submissions; every submission is exactly one of
    ``executed`` (simulated), ``cache_hits`` (served from the on-disk
    cache or its in-memory memo), ``deduplicated`` (coalesced onto an
    in-flight identical cell), ``model_cells`` (served by a fresh
    analytic-model prediction under ``fidelity="model"|"auto"``), or
    ``cancelled``. ``memo_hits`` is the subset of ``cache_hits`` served
    without touching disk; ``chunks`` is the number of dispatch
    round-trips the executed cells were batched into.
    """

    cells: int = 0
    executed: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    cancelled: int = 0
    memo_hits: int = 0
    chunks: int = 0
    model_cells: int = 0
