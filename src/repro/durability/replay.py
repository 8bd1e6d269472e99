"""Deterministic replay and the bit-identity state digest.

:func:`replay` re-applies a recovered log tail — to a *fresh* session,
or to one that loaded the tenant's snapshot — through the same public
methods the user originally called. The
REPRO005 invariants (seeded RNG, no wall-clock reads outside
``util/rng.py``) plus the write-ahead log's pinned external inputs
(pickled copy events, resync-time pages) make the rebuilt
session byte-for-byte equivalent to the one that died — which
:func:`state_digest` makes checkable: one canonical dict covering
workspace rows, committed relations, provenance, trust, MIRA edge
weights, linker weights, learned types, quarantine, views, and the
standing suggestion batch, hashed for cheap equality.

Actions that raised in the original run raise identically on replay
(same method, same arguments, same state). Replay therefore *expects*
:class:`~repro.errors.CopyCatError` from individual actions, counts
them, and keeps going — the error was part of the session's history,
not a recovery failure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import CopyCatError
from ..obs import METRICS
from .actions import apply_action
from .recorder import SessionRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.session import CopyCatSession


@dataclass
class ReplayReport:
    """What one replay did: actions applied, and which of them raised."""

    applied: int
    errors: list[tuple[int, str, str]]

    @property
    def clean(self) -> bool:
        return not self.errors


def replay(session: "CopyCatSession", actions: list[dict[str, Any]]) -> ReplayReport:
    """Re-apply *actions* to *session* (recording suppressed throughout).

    *actions* is a log tail: the whole history on an empty session, or
    the records after a snapshot on one that loaded it.
    """
    recorder = session.durability or SessionRecorder()
    applied = 0
    errors: list[tuple[int, str, str]] = []
    with recorder.replay_mode():
        for index, action in enumerate(actions):
            name = action["name"]
            try:
                apply_action(session, name, action["args"])
            except CopyCatError as exc:
                # Deterministic re-raise: the original call failed the
                # same way. Anything *other* than a session-domain error
                # is a real replay bug and propagates.
                errors.append((index, name, str(exc)))
                METRICS.inc("durability.replay_action_errors")
            applied += 1
            METRICS.inc("durability.actions_replayed")
    return ReplayReport(applied=applied, errors=errors)


def attach_recorder(session: "CopyCatSession", recorder: SessionRecorder) -> SessionRecorder:
    """Hook *recorder* onto *session* (the ``session.durability`` slot)."""
    session.durability = recorder
    recorder.session = session
    return recorder


# --------------------------------------------------------------- state digest
def _canonical(value: Any) -> Any:
    """Make *value* JSON-serializable with a stable ordering."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical(v) for v in value), key=str)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


def state_digest(session: "CopyCatSession") -> dict[str, Any]:
    """Everything user-visible (and learner-internal) a crash could lose."""
    catalog = session.catalog
    relations: dict[str, Any] = {}
    trust: dict[str, Any] = {}
    for name in catalog.relation_names():
        relation = catalog.relation(name)
        relations[name] = [list(row.values) for row in relation]
        metadata = catalog.metadata(name)
        trust[name] = {
            "trust": metadata.trust,
            "origin": metadata.origin,
            "notes": _canonical(dict(metadata.notes)),
        }

    linkers = {
        key: {"weights": dict(linker.weights), "updates": linker.updates}
        for key, linker in sorted(session._linkers.items())  # noqa: SLF001
    }

    suggestions = [
        {
            "source": s.source,
            "attrs": list(s.attribute_names),
            "values": _canonical(list(s.values)),
            "provenances": [str(p) for p in s.provenances],
        }
        for s in session._column_suggestions  # noqa: SLF001
    ]

    digest = {
        "workspace": session.workspace.render_text(),
        "relations": _canonical(relations),
        "trust": trust,
        "graph_weights": dict(session.integration_learner.graph.weights),
        "linkers": linkers,
        "types": session.type_learner.known_types(),
        "row_provenance": [str(p) for p in session._row_provenance],  # noqa: SLF001
        "query": session._query.describe() if session._query is not None else None,  # noqa: SLF001
        "suggestions": suggestions,
        "previewed": session._previewed,  # noqa: SLF001
        "views": session.view_names(),
        "cleaning_mode": session.cleaning_mode,
        "service_level": session.service_level,
        "quarantine_rows": [
            (entry.source, list(entry.row), entry.reason, entry.provenance)
            for entry in session.quarantine.rows()
        ],
        "quarantine_sources": session.quarantine.sources(),
        "catalog_version_counter": catalog.version[0],
        "wrappers": sorted(session._wrappers),  # noqa: SLF001
    }
    return digest


def digest_hash(digest: dict[str, Any]) -> str:
    """A stable hash of :func:`state_digest` output for cheap equality."""
    blob = json.dumps(_canonical(digest), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
