"""Drift-layer knobs.

``DRIFT.enabled`` off skips verification, healing and quarantine; the
drift-recovery benchmark uses it as its reference leg.
"""

from __future__ import annotations

from ..util.knobs import Knob, Knobs


class DriftConfig(Knobs):
    """Knobs of drift verification, healing and quarantine."""

    enabled = Knob("REPRO_DRIFT", True, "off skips drift verification, healing and quarantine")
    type_divergence_threshold = Knob(
        "REPRO_DRIFT_TYPE_THRESHOLD", 0.5,
        "per-column token-pattern similarity below which a column counts as drifted",
    )
    drift_penalty = Knob("REPRO_DRIFT_PENALTY", 1.0, "extra edge cost per unit of a source's drift rate")


#: The process-wide drift configuration every layer consults.
DRIFT = DriftConfig()
