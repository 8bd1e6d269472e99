"""Drift-layer knobs: the thresholds of verification and the drift penalty."""

from __future__ import annotations

from ..util.knobs import Knob, Knobs


class DriftConfig(Knobs):
    """Knobs of drift verification, healing and quarantine."""

    type_divergence_threshold = Knob(
        "REPRO_DRIFT_TYPE_THRESHOLD", 0.5,
        "per-column token-pattern similarity below which a column counts as drifted",
    )
    drift_penalty = Knob("REPRO_DRIFT_PENALTY", 1.0, "extra edge cost per unit of a source's drift rate")


#: The process-wide drift configuration every layer consults.
DRIFT = DriftConfig()
