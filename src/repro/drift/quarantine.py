"""Quarantine: malformed rows and wholesale-drifted sources, with provenance.

Two granularities, mirroring how failing services are treated:

- **row quarantine** — extracted rows failing row-level validation are held
  in the session's :class:`QuarantineLog` with a provenance string
  (``Source[idx]``) and a reason, instead of being committed to the catalog
  where they would poison the type learner and every downstream suggestion;
- **source quarantine** — a source whose re-induction failed is marked in
  its catalog :class:`~repro.substrate.relational.catalog.SourceMetadata`
  notes, its trust is scaled down, and scans of it surface a
  :class:`~repro.resilience.degrade.Degradation` so its suggestions are
  rank-penalized and ``DEGRADED``-flagged exactly like a dead service's.

Every state change here that can alter a query answer bumps
``Catalog.version`` (a resync count moves only the drift rate, so it does
not): the fingerprint caches key results on it, so a cache can never serve
rows extracted by a wrapper that has since been declared stale,
re-induced, or quarantined. The notes live on each catalog's own metadata
and nothing else tracks them: the integration learner reads them afresh
before every suggestion batch
(:meth:`~repro.learning.integration.learner.IntegrationLearner.absorb_drift_events`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..substrate.relational.catalog import Catalog

#: metadata-notes keys the drift layer maintains on catalog sources.
QUARANTINE_NOTE = "quarantined"
DRIFT_EVENTS_NOTE = "drift_events"
DRIFT_RESYNCS_NOTE = "drift_resyncs"
PROVENANCE_NOTE = "provenance"

#: multiplicative trust hit when a source is quarantined wholesale.
QUARANTINE_TRUST_FACTOR = 0.5


@dataclass(frozen=True)
class QuarantinedRow:
    """One extracted row held out of the catalog, with provenance."""

    source: str
    row: tuple[str, ...]
    reason: str
    provenance: str

    def __str__(self) -> str:
        return f"{self.provenance}: {self.reason}"


class QuarantineLog:
    """The session's record of everything held back by verification."""

    def __init__(self) -> None:
        self._rows: list[QuarantinedRow] = []
        self._sources: dict[str, str] = {}

    # -- rows ---------------------------------------------------------------
    def add_row(self, source: str, row, reason: str, provenance: str) -> QuarantinedRow:
        entry = QuarantinedRow(
            source=source,
            row=tuple("" if cell is None else str(cell) for cell in row),
            reason=reason,
            provenance=provenance,
        )
        self._rows.append(entry)
        return entry

    def rows(self, source: str | None = None) -> list[QuarantinedRow]:
        if source is None:
            return list(self._rows)
        return [entry for entry in self._rows if entry.source == source]

    def clear_rows(self, source: str) -> int:
        """Drop a source's quarantined rows (after a successful resync)."""
        kept = [entry for entry in self._rows if entry.source != source]
        dropped = len(self._rows) - len(kept)
        self._rows = kept
        return dropped

    # -- sources -------------------------------------------------------------
    def quarantine_source(self, source: str, reason: str) -> None:
        self._sources[source] = reason

    def release_source(self, source: str) -> None:
        self._sources.pop(source, None)

    def is_quarantined(self, source: str) -> bool:
        return source in self._sources

    def sources(self) -> dict[str, str]:
        return dict(self._sources)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return (
            f"QuarantineLog({len(self._rows)} rows, "
            f"{len(self._sources)} sources)"
        )


# -- catalog-side drift bookkeeping -------------------------------------------
def note_resync(catalog: Catalog, source: str) -> None:
    """Count one resync attempt against *source* (the drift-rate denominator)."""
    notes = catalog.metadata(source).notes
    notes[DRIFT_RESYNCS_NOTE] = notes.get(DRIFT_RESYNCS_NOTE, 0) + 1


def note_drift_event(catalog: Catalog, source: str) -> None:
    """Record one detected drift; bumps the version so caches invalidate."""
    notes = catalog.metadata(source).notes
    notes[DRIFT_EVENTS_NOTE] = notes.get(DRIFT_EVENTS_NOTE, 0) + 1
    catalog.bump_version()


def add_provenance_note(catalog: Catalog, source: str, note: str) -> None:
    """Append to a source's provenance trail (e.g. ``reinduced:<Source>``)."""
    notes = catalog.metadata(source).notes
    notes.setdefault(PROVENANCE_NOTE, []).append(note)
    catalog.bump_version()


def quarantine_source_in_catalog(catalog: Catalog, source: str, reason: str) -> None:
    """Mark *source* quarantined: note + trust hit + version bump."""
    metadata = catalog.metadata(source)
    metadata.notes[QUARANTINE_NOTE] = reason
    metadata.trust = max(0.05, metadata.trust * QUARANTINE_TRUST_FACTOR)
    catalog.bump_version()


def release_source_in_catalog(catalog: Catalog, source: str) -> None:
    """Lift a source's quarantine (it healed); bumps the version."""
    notes = catalog.metadata(source).notes
    if notes.pop(QUARANTINE_NOTE, None) is not None:
        catalog.bump_version()


def quarantine_reason(catalog: Catalog, source: str) -> str | None:
    """The reason *source* is quarantined, or ``None``."""
    return catalog.metadata(source).notes.get(QUARANTINE_NOTE)


def drift_rate(catalog: Catalog, source: str) -> float:
    """Observed drift rate for a source, in [0, 1].

    Analogue of a service's failure rate: detected drift events over resync
    attempts (+1, so a single healed drift decays as clean resyncs accrue).
    """
    notes = catalog.metadata(source).notes
    events = notes.get(DRIFT_EVENTS_NOTE, 0)
    if not events:
        return 0.0
    resyncs = notes.get(DRIFT_RESYNCS_NOTE, 0)
    return min(1.0, events / (resyncs + 1))
