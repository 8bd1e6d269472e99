"""Static plan analyzer knobs.

``ANALYSIS.enabled`` off lets plans reach the evaluator unchecked; the
analysis-overhead benchmark uses it as its reference leg.
"""

from __future__ import annotations

from ..util.knobs import Knob, Knobs


class AnalysisConfig(Knobs):
    """Knobs of the static plan analyzer."""

    enabled = Knob("REPRO_ANALYSIS", True, "off skips the pre-execution plan checks")
    max_link_pairs = Knob(
        "REPRO_ANALYSIS_MAX_LINK_PAIRS", 250_000,
        "estimated pairs above which an unblocked record-link join is flagged",
    )
    max_union_parts = Knob("REPRO_ANALYSIS_MAX_UNION_PARTS", 16, "union width above which a warning fires")
    memo_capacity = Knob("REPRO_ANALYSIS_MEMO_CAPACITY", 1024, "per-engine analysis-report memo capacity")


#: The process-wide analysis configuration every layer consults.
ANALYSIS = AnalysisConfig()
