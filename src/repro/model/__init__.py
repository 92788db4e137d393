"""Analytic companion model: O(1) cell prediction with sim-validated bounds.

The simulator answers "what happens" by replaying every event; this
package answers the same question for the *analytically expressible*
policies (cilk, cilk-d, eewa's modal steady state) directly from the cell
inputs: the CC-table math, the operating-point capacities, and the power
model's per-operating-point busy/idle watts. Every entry point takes one
:class:`~repro.experiments.parallel.CellSpec` and the program it built,
as the simulation path does. Three modules:

* :mod:`repro.model.predict` — the deterministic pure-python predictor
  (:func:`~repro.model.predict.predict_cell`) plus the structural
  eligibility test (:func:`~repro.model.predict.decline_reason`), which
  every prediction runs once;
* :mod:`repro.model.bounds` — the calibrated error envelope: the cheap
  envelope conditions the sweep engine's ``fidelity="auto"`` tier checks
  before it predicts (:func:`~repro.model.bounds.envelope_reason`), and
  the full eligibility verdict (:func:`~repro.model.bounds.classify_cell`)
  that ``repro predict`` and the validation report print;
* :mod:`repro.model.validate` — cross-validation of the model against the
  simulator over the full golden grid (30 jittered cells + 8 long-horizon
  cells, each a ``CellSpec``), the source of the calibrated envelope and
  the CI gate.

The model never shadows simulation results: the sweep engine serves a
cell from its cached simulation when there is one, and stores no
prediction. A prediction is a :class:`~repro.sim.record.CellResult` (the
cell's machine, an empty trace, no task rows) whose provenance is
visible as ``CellOutcome.source == "model"``. ``repro predict`` shows the
prediction for any cell the closed form covers, inside the calibrated
envelope or not.
"""

from repro.model.bounds import MAX_RELATIVE_ERROR, Eligibility, classify_cell
from repro.model.predict import (
    MODEL_POLICIES,
    decline_reason,
    predict_cell,
)

__all__ = [
    "MAX_RELATIVE_ERROR",
    "MODEL_POLICIES",
    "Eligibility",
    "classify_cell",
    "decline_reason",
    "predict_cell",
]
