"""Calibrated error envelope: when is the analytic model *trusted*?

:func:`repro.model.predict.decline_reason` answers the structural
question — does the closed form exist. This module answers the
operational one — is the closed form *close enough* to serve in place of
the simulator. The envelope below was calibrated by
:mod:`repro.model.validate` against the full golden grid (30 jittered
cells + 8 long-horizon cells); ``fidelity="auto"`` in the sweep engine
serves a cell from the model only when it is inside the envelope
(:func:`envelope_reason`) and the closed form exists
(:func:`~repro.model.predict.predict_cell` does not decline) — together,
what :func:`classify_cell` reports — and falls back to full simulation
otherwise.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional, Sequence

from repro.model.predict import decline_reason
from repro.runtime.task import Batch

if TYPE_CHECKING:
    from repro.experiments.parallel import CellSpec

#: The promise ``fidelity="auto"`` makes: every served prediction's
#: makespan and energy are within this relative error of the simulator
#: on the calibration grid. Enforced by ``python -m repro.model.validate``
#: (CI-gating) and by conformance check #10.
MAX_RELATIVE_ERROR = 0.02


@dataclasses.dataclass(frozen=True)
class Eligibility:
    """Verdict on one cell: serve from the model, or simulate."""

    eligible: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.eligible


def envelope_reason(cell: "CellSpec", program: Sequence[Batch]) -> Optional[str]:
    """Why the calibration grid does not cover this cell (``None`` = it
    does), whether or not the closed form exists for it.

    These conditions are cheap (no walk of the task specs), so the sweep
    engine checks them before it predicts:

    * heterogeneous machines — the golden grid calibrates homogeneous
      ladders only; big.LITTLE cells simulate until a hetero grid lands;
    * sub-core batches — with fewer tasks than cores the makespan is one
      task's runtime and steal-scan timing noise is no longer amortised.
    """
    machine = cell.machine
    if machine.is_heterogeneous:
        return "heterogeneous machines are outside the calibrated grid"
    if any(len(batch.specs) < machine.num_cores for batch in program):
        return "batch smaller than the machine; steal noise unamortised"
    return None


def classify_cell(cell: "CellSpec", program: Sequence[Batch]) -> Eligibility:
    """Classify one cell against the calibrated envelope.

    Structural declines (:func:`~repro.model.predict.decline_reason`: no
    closed form at all) come first, then :func:`envelope_reason`: cells
    the closed form covers but the calibration grid does not, so ``auto``
    refuses to vouch for them.
    """
    reason = decline_reason(cell, program) or envelope_reason(cell, program)
    return Eligibility(reason is None, reason)


__all__ = ["MAX_RELATIVE_ERROR", "Eligibility", "classify_cell", "envelope_reason"]
