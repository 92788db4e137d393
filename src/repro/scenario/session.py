"""The Session facade: one entry point from a scenario to results.

Every consumer — the CLI commands, the ``fig*``/``table3`` exhibit
modules, and ad-hoc API use — runs simulations the same way::

    from repro.scenario import ScenarioSpec, PolicySpec, Session

    spec = ScenarioSpec(workload="SHA-1", policy=PolicySpec("eewa"))
    with Session() as session:
        outcome = session.run(spec)                  # RunOutcome over seeds

A session holds no scenario: every method takes the scenarios it runs.
Each exhibit builds its scenario grid and runs it on one default
(in-process, uncached) session.

Sweeps go through :meth:`Session.run_grid`, which submits every
(scenario × seed) cell to the session's
:class:`~repro.experiments.sweep.SweepEngine` work-queue: deduplicated
in-flight, optionally cached on disk (one file per cell, sharded by key
prefix) and spread over a long-lived warm worker pool. Results are
bit-identical whether a session runs in-process, pooled, or from cache.
:meth:`Session.run_grid_detailed` returns the per-seed
:class:`~repro.experiments.parallel.CellOutcome` records instead (cache
provenance, adjuster wall-clock bookkeeping). The engine is
:attr:`Session.engine`, for streaming, priority and cancellation use;
``repro sweep`` and ``repro serve`` stream from it through
:func:`repro.service.server.stream_request`. A pooled session holds
worker processes and a dispatcher thread until it is closed, so use it
as a context manager::

    with Session(workers=2, cache_dir=".repro-cache") as session:
        outcomes = session.run_grid(specs)
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Sequence

from repro.scenario.spec import DEFAULT_SEEDS, ScenarioSpec
from repro.sim.engine import SimResult, simulate

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.outcome import RunOutcome
    from repro.experiments.parallel import CellOutcome, SweepStats
    from repro.sim.record import CellResult


def _parallel():
    # Imported lazily: repro.experiments.* modules import this module (the
    # exhibits are scenario grids), so a module-level import would be
    # circular through the experiments package __init__.
    from repro.experiments import parallel

    return parallel


class Session:
    """Runs scenarios; owns the cache/worker configuration.

    Parameters
    ----------
    workers:
        Worker process count: ``0``/``1`` runs in-process (the default —
        deterministic and dependency-free), ``None`` uses the CPU count.
    cache_dir:
        On-disk result cache root; ``None`` (default) disables caching.
    fast_forward:
        Engine steady-state fast-forward (default on); ``False`` forces
        full event-by-event simulation of every cell.
    fidelity:
        ``"sim"`` (default) simulates every cell; ``"auto"`` serves
        cells inside the calibrated envelope from the analytic predictor
        (:mod:`repro.model`) and simulates the rest.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = 0,
        cache_dir: str | os.PathLike[str] | None = None,
        fast_forward: bool = True,
        fidelity: str = "sim",
    ) -> None:
        from repro.experiments.sweep import SweepEngine  # see _parallel

        self._fast_forward = fast_forward
        #: The session's :class:`~repro.experiments.sweep.SweepEngine`.
        self.engine = SweepEngine(
            workers=workers, cache_dir=cache_dir, fast_forward=fast_forward,
            fidelity=fidelity,
        )

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Shut down the engine's queue and worker pool (idempotent)."""
        self.engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution -------------------------------------------------------

    def run(self, spec: ScenarioSpec) -> RunOutcome:
        """Run one scenario over its seeds → a multi-seed RunOutcome."""
        (outcome,) = self.run_grid([spec])
        return outcome

    def run_grid(self, specs: Sequence[ScenarioSpec]) -> list[RunOutcome]:
        """Run many scenarios in one fan-out, one RunOutcome per spec."""
        from repro.experiments.outcome import RunOutcome

        return [
            RunOutcome(
                benchmark=spec.workload_name,
                policy=spec.policy.name,
                results=tuple(cell.result for cell in cells),
            )
            for spec, cells in zip(specs, self.run_grid_detailed(specs))
        ]

    def run_grid_detailed(
        self, specs: Sequence[ScenarioSpec]
    ) -> list[list[CellOutcome]]:
        """Run many scenarios in one fan-out, grouped per spec.

        All cells go through a single
        :meth:`~repro.experiments.sweep.SweepEngine.run_cells` call, so
        identical cells across scenarios are simulated once and the
        process pool sees the whole sweep at once.
        """
        cell_spec = _parallel().CellSpec
        cells = []
        counts: list[int] = []
        for spec in specs:
            counts.append(len(spec.seeds))
            cells.extend(cell_spec.from_scenario_seeds(spec))
        outcomes = self.engine.run_cells(cells)
        grouped: list[list[CellOutcome]] = []
        pos = 0
        for count in counts:
            grouped.append(outcomes[pos : pos + count])
            pos += count
        return grouped

    def run_single(
        self,
        spec: ScenarioSpec,
        *,
        seed: Optional[int] = None,
        record_power_series: bool = False,
    ) -> SimResult | CellResult:
        """One seed's simulated result (default: the first seed).

        Always simulates regardless of the session's ``fidelity``: the
        per-batch trace and task rows are the contract, and the analytic
        model does not produce them. The cell runs through the session's
        engine and cache, so the result is the engine's
        :class:`~repro.sim.record.CellResult` record, which has no energy
        meter and no ``Task`` objects. ``record_power_series=True`` is the
        path that returns a full :class:`SimResult`: it runs outside the
        engine and cache, since power traces are observability extras the
        content-addressed cache does not store.
        """
        if seed is None:
            seed = spec.seeds[0]
        if record_power_series:
            # fast_forward is passed for uniformity; the engine disables it
            # anyway when recording power series.
            return simulate(
                spec.program(seed),
                spec.build_policy(),
                spec.build_machine(),
                seed=seed,
                record_power_series=True,
                fast_forward=self._fast_forward,
                faults=spec.faults,
            )
        outcome = self.engine.submit(
            _parallel().CellSpec.from_scenario(spec, seed), fidelity="sim"
        ).result()
        return outcome.result

    def modal_eewa_levels(
        self, spec: ScenarioSpec, *, seed: Optional[int] = None
    ) -> list[int]:
        """Per-core level vector of EEWA's most-used configuration.

        Runs the scenario under EEWA for one seed (default
        ``DEFAULT_SEEDS[0]``, the Fig. 7 convention) and reads the modal
        configuration off the trace. Shares its cell — and any cache entry
        — with plain EEWA runs of the same scenario and seed.
        """
        resolved = spec.with_policy("eewa")
        if seed is None:
            seed = DEFAULT_SEEDS[0]
        from repro.experiments.outcome import modal_levels_from_result

        result = self.run_single(resolved, seed=seed)
        machine = resolved.build_machine()
        return modal_levels_from_result(result, machine.num_cores, machine)

    # -- bookkeeping -----------------------------------------------------

    @property
    def stats(self) -> SweepStats:
        """Cumulative cell accounting (executed / cache hits / deduped)."""
        return self.engine.stats


__all__ = ["Session"]
