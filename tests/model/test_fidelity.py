"""Tests for the sweep engine's analytic-model tier (``fidelity`` axis).

The contracts the conformance/acceptance gates rely on:

* ``fidelity="auto"`` serves model-eligible cells in O(1) with
  ``CellOutcome.source == "model"`` and falls back to full simulation
  everywhere else — bit-identical to ``fidelity="sim"`` for every
  ineligible cell;
* predictions are never stored: a model outcome carries its cell's own
  key, an ``auto`` sweep writes cache entries only for the cells it
  simulates, and a cached simulation always wins over a prediction;
* per-submit ``fidelity`` overrides let trace consumers force a full
  simulation through a model-tier engine;
* ``sim`` and ``auto`` are the only fidelities: nothing forces the model
  onto cells its calibrated envelope does not vouch for.
"""

import pytest

from repro.core.eewa import EEWAConfig
from repro.errors import ConfigurationError, ScenarioError
from repro.experiments.parallel import CellSpec, ResultCache
from repro.experiments.sweep import FIDELITIES, SweepEngine
from repro.scenario import PolicySpec, ScenarioSpec
from repro.sim.fingerprint import trace_fingerprint

BATCHES = 3


def spec(policy="cilk", seed=11, benchmark="SHA-1", **kwargs):
    return CellSpec(
        benchmark=benchmark, policy=policy, seed=seed, batches=BATCHES,
        **kwargs,
    )


class TestFidelityValidation:
    def test_axis_values(self):
        assert FIDELITIES == ("sim", "auto")

    def test_forced_model_fidelity_is_refused(self):
        with pytest.raises(ConfigurationError, match="fidelity"):
            SweepEngine(workers=0, cache_dir=None, fidelity="model")
        with SweepEngine(workers=0, cache_dir=None) as eng:
            with pytest.raises(ConfigurationError, match="fidelity"):
                eng.submit(spec(), fidelity="model")

    def test_engine_rejects_unknown_fidelity(self):
        with pytest.raises(ConfigurationError):
            SweepEngine(workers=0, cache_dir=None, fidelity="oracle")

    def test_submit_rejects_unknown_fidelity(self):
        with SweepEngine(workers=0, cache_dir=None) as eng:
            with pytest.raises(ConfigurationError):
                eng.submit(spec(), fidelity="oracle")


class TestAutoTier:
    def test_eligible_cell_served_by_model(self):
        with SweepEngine(workers=0, cache_dir=None, fidelity="auto") as eng:
            outcome = eng.submit(spec()).result()
        assert outcome.source == "model"
        assert not outcome.from_cache
        assert eng.stats.model_cells == 1
        assert eng.stats.executed == 0

    def test_a_served_cell_is_walked_for_its_decline_once(self, monkeypatch):
        from repro.model import bounds, predict

        calls = []
        decline_reason = predict.decline_reason

        def counting(*args, **kwargs):
            calls.append(args)
            return decline_reason(*args, **kwargs)

        monkeypatch.setattr(predict, "decline_reason", counting)
        monkeypatch.setattr(bounds, "decline_reason", counting)
        with SweepEngine(workers=0, cache_dir=None, fidelity="auto") as eng:
            outcome = eng.submit(spec(policy="eewa")).result()
        assert outcome.source == "model"
        assert len(calls) == 1

    def test_ineligible_cell_bit_identical_to_sim(self):
        # wats has no analytic form: auto must fall back to the exact
        # simulation the sim engine produces.
        levels = (0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 0, 2, 2, 2, 2)
        wats = spec(policy="wats", core_levels=levels)
        with SweepEngine(workers=0, cache_dir=None, fidelity="auto") as auto_eng:
            via_auto = auto_eng.submit(wats).result()
        with SweepEngine(workers=0, cache_dir=None, fidelity="sim") as sim_eng:
            via_sim = sim_eng.submit(wats).result()
        assert via_auto.source == "sim"
        assert auto_eng.stats.model_cells == 0
        assert trace_fingerprint(via_auto.result) == trace_fingerprint(
            via_sim.result
        )
        assert via_auto.result.total_joules == via_sim.result.total_joules

    def test_auto_refuses_the_cell_sim_refuses(self):
        # An eewa policy with both JSON params and a config object: the
        # simulator refuses it, so the model may not serve it either.
        scenario = ScenarioSpec(
            workload="SHA-1",
            policy=PolicySpec("eewa", params={"headroom": 0.2}, config=EEWAConfig()),
            seeds=(11,),
            batches=4,
        )
        cell = CellSpec.from_scenario(scenario, 11)
        refusals = {}
        for fidelity in ("auto", "sim"):
            with SweepEngine(fidelity=fidelity) as eng:
                with pytest.raises(ScenarioError) as excinfo:
                    eng.submit(cell).result()
            assert eng.stats.model_cells == 0
            refusals[fidelity] = str(excinfo.value)
        assert refusals["auto"] == refusals["sim"]
        assert "either params or a config object" in refusals["sim"]

    def test_model_outcome_matches_sim_within_bounds(self):
        from repro.model.bounds import MAX_RELATIVE_ERROR

        cell = spec()
        with SweepEngine(workers=0, cache_dir=None, fidelity="auto") as eng:
            modeled = eng.submit(cell).result()
        with SweepEngine(workers=0, cache_dir=None, fidelity="sim") as eng:
            simulated = eng.submit(cell).result()
        assert modeled.result.total_time == pytest.approx(
            simulated.result.total_time, rel=MAX_RELATIVE_ERROR
        )
        assert modeled.result.total_joules == pytest.approx(
            simulated.result.total_joules, rel=MAX_RELATIVE_ERROR
        )


class TestModelCacheKeying:
    def test_model_outcome_carries_the_cell_key(self, tmp_path):
        cell = spec()
        with SweepEngine(workers=0, cache_dir=None) as eng:
            sim_key = eng.submit(cell, fidelity="sim").result().key
        with SweepEngine(
            workers=0, cache_dir=tmp_path, fidelity="auto"
        ) as eng:
            outcome = eng.submit(cell).result()
            again = eng.submit(cell).result()
            assert eng.stats.model_cells == 2  # predicted again, not read back
            assert eng.stats.cache_hits == 0
        assert outcome.source == again.source == "model"
        assert outcome.key == again.key == sim_key
        assert not outcome.from_cache and not again.from_cache
        assert ResultCache(tmp_path).get(sim_key) is None
        assert not list(ResultCache(tmp_path).iter_entries())

    def test_auto_sweep_writes_entries_only_for_simulated_cells(self, tmp_path):
        # wats has no analytic form, so auto simulates it; the cilk and
        # eewa cells are predicted and leave nothing on disk.
        levels = (0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 0, 2, 2, 2, 2)
        cells = [spec(), spec(policy="eewa"), spec(policy="wats", core_levels=levels)]
        with SweepEngine(
            workers=0, cache_dir=tmp_path, fidelity="auto"
        ) as eng:
            outcomes = eng.run_cells(cells)
            assert eng.stats.model_cells == 2
            assert eng.stats.executed == 1
        assert [o.source for o in outcomes] == ["model", "model", "sim"]
        entries = [e.key for e in ResultCache(tmp_path).iter_entries()]
        assert entries == [outcomes[2].key]

    def test_sim_results_never_shadowed(self, tmp_path):
        cell = spec()
        # Model run first, then a sim run of the same cell: the prediction
        # left no entry, so the sim run simulates, and its entry is what
        # every later run is served.
        with SweepEngine(
            workers=0, cache_dir=tmp_path, fidelity="auto"
        ) as eng:
            eng.submit(cell).result()
        with SweepEngine(
            workers=0, cache_dir=tmp_path, fidelity="sim"
        ) as eng:
            simulated = eng.submit(cell).result()
            assert not simulated.from_cache  # no prediction shadows it
            assert simulated.source == "sim"
        with SweepEngine(
            workers=0, cache_dir=tmp_path, fidelity="sim"
        ) as eng:
            warm = eng.submit(cell).result()
            assert warm.from_cache
            assert warm.source == "sim"
        with SweepEngine(
            workers=0, cache_dir=tmp_path, fidelity="auto"
        ) as eng:
            warm_model = eng.submit(cell).result()
            assert warm_model.from_cache
            # The sim entry is looked up first, so the exact result wins.
            assert warm_model.source == "sim"
            assert eng.stats.model_cells == 0  # cache hit, not recompute

    def test_sim_cache_hit_beats_model_tier(self, tmp_path):
        cell = spec()
        with SweepEngine(
            workers=0, cache_dir=tmp_path, fidelity="sim"
        ) as eng:
            eng.submit(cell).result()
        # A warm sim entry wins even under fidelity="auto": cached exact
        # results are always preferred over predictions.
        with SweepEngine(
            workers=0, cache_dir=tmp_path, fidelity="auto"
        ) as eng:
            outcome = eng.submit(cell).result()
        assert outcome.from_cache
        assert outcome.source == "sim"


class TestPerSubmitOverride:
    def test_force_sim_through_model_engine(self):
        # spec() is inside the envelope: the auto engine would predict it.
        with SweepEngine(workers=0, cache_dir=None, fidelity="auto") as eng:
            outcome = eng.submit(spec(), fidelity="sim").result()
        assert outcome.source == "sim"
        # A record with the per-batch trace, as trace consumers need.
        assert outcome.result.trace.batches

    def test_force_model_through_sim_engine(self):
        with SweepEngine(workers=0, cache_dir=None) as eng:
            outcome = eng.submit(spec(), fidelity="auto").result()
        assert outcome.source == "model"


class TestSessionFidelity:
    """The engine's scenario methods under ``fidelity="auto"``."""

    def test_run_single_always_simulates(self):
        scenario = ScenarioSpec(
            workload="SHA-1", policy=PolicySpec("cilk"), batches=BATCHES
        )
        with SweepEngine(fidelity="auto") as engine:
            result = engine.run_single(scenario)
        assert result.trace.batches  # full simulation despite auto

    def test_grid_serves_model_cells(self):
        # Every cell of this grid lies inside the envelope, so the model
        # serves all of them and nothing simulates.
        scenarios = [
            ScenarioSpec(
                workload="SHA-1", policy=PolicySpec(policy),
                batches=BATCHES, seeds=(11, 23),
            )
            for policy in ("cilk", "cilk-d", "eewa")
        ]
        with SweepEngine(fidelity="auto") as engine:
            cells = engine.run_grid_detailed(scenarios)
            assert engine.stats.executed == 0
        assert [o.source for group in cells for o in group] == ["model"] * 6
