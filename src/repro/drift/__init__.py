"""Source drift: detection, wrapper verification, and self-healing.

The paper's wrappers are induced once from a copy-paste demonstration and
then trusted forever; real sources re-template, reorder fields, and emit
junk. This package closes that gap in three layers:

- :mod:`~repro.drift.verify` — every extraction is validated against the
  induced structural hypothesis (arity, landmark/example coverage,
  record-count sanity) and against Section 3.2's statistical distribution
  matching: each column's token-pattern distribution is compared to the
  induction-time :class:`~repro.learning.model.patterns.TypeSignature`;
- :mod:`~repro.drift.healing` — on detected drift, the wrapper is re-induced
  from the stored user examples (anchored by value, not position), falling
  back to the sequential-covering landmark path; on success the wrapper is
  swapped in place, ``Catalog.version`` bumps so plan/result caches
  invalidate, and a ``reinduced:<Source>`` provenance note is recorded;
- :mod:`~repro.drift.quarantine` — rows failing row-level validation are
  quarantined with provenance rather than committed; sources whose
  re-induction fails are quarantined wholesale and degrade exactly like
  failing services (rank-penalized, ``DEGRADED``-flagged, folded into
  source-graph edge costs via
  :meth:`~repro.learning.integration.learner.IntegrationLearner.absorb_drift_events`).

:mod:`~repro.drift.perturb` is the deterministic, seeded page-perturbation
harness the tests and the ``drift_recovery`` benchmark drive. ``REPRO_DRIFT=0``
(:data:`~repro.drift.config.DRIFT`) restores the prior trust-forever
behavior bit-for-bit.
"""

from __future__ import annotations

from .config import DRIFT, DriftConfig
from .healing import WrapperRecord, apply_wrapper, record_wrapper, refetch_event, reinduce_wrapper
from .perturb import PERTURBATIONS, RECOVERABLE, UNRECOVERABLE, PerturbationResult, perturb_page
from .quarantine import (
    DRIFT_EVENTS_NOTE,
    DRIFT_RESYNCS_NOTE,
    PROVENANCE_NOTE,
    QUARANTINE_NOTE,
    QuarantinedRow,
    QuarantineLog,
    add_provenance_note,
    drift_rate,
    note_drift_event,
    note_resync,
    quarantine_reason,
    quarantine_source_in_catalog,
    release_source_in_catalog,
)
from .verify import (
    InductionSnapshot,
    RowViolation,
    VerificationReport,
    example_coverage,
    snapshot_extraction,
    validate_row,
    validate_rows,
    verify_extraction,
)

__all__ = [
    "DRIFT",
    "DRIFT_EVENTS_NOTE",
    "DRIFT_RESYNCS_NOTE",
    "DriftConfig",
    "InductionSnapshot",
    "PERTURBATIONS",
    "PROVENANCE_NOTE",
    "PerturbationResult",
    "QUARANTINE_NOTE",
    "QuarantineLog",
    "QuarantinedRow",
    "RECOVERABLE",
    "RowViolation",
    "UNRECOVERABLE",
    "VerificationReport",
    "WrapperRecord",
    "add_provenance_note",
    "apply_wrapper",
    "drift_rate",
    "example_coverage",
    "note_drift_event",
    "note_resync",
    "perturb_page",
    "quarantine_reason",
    "quarantine_source_in_catalog",
    "record_wrapper",
    "refetch_event",
    "reinduce_wrapper",
    "release_source_in_catalog",
    "snapshot_extraction",
    "validate_row",
    "validate_rows",
    "verify_extraction",
]
