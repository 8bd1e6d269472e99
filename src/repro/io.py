"""Persistence: save and restore a session's learned state as JSON.

The paper's pay-as-you-go framing only pays off if effort is *reused*
(Section 1: "leverage and reuse human effort where possible"). This module
serializes everything a CopyCat session learns —

- imported **relations** with their learned schemas and source metadata
  (trust, origin URL, distrusted rows),
- the **semantic types** the model learner has acquired,
- the **source-graph edge weights** MIRA has adjusted,
- the **record-linker weights** trained from match examples —

so the next session starts where this one left off. Two things are *not*
serialized: services (live objects — re-register them from a
:class:`~repro.substrate.services.registry.ServiceRegistry` after loading;
the payload records which service names were present, for checking) and
saved mediated views' defining queries (their *materialized* relations do
persist; re-derive the definition interactively if it must evolve).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from .errors import CopyCatError
from .learning.model.patterns import PatternDistribution, TypeSignature
from .learning.model.type_learner import LearnedType, SemanticTypeLearner
from .linking.linker import LearnedLinker
from .linking.similarity import FieldPair
from .substrate.relational.catalog import Catalog, SourceMetadata
from .substrate.relational.relation import Relation
from .substrate.relational.schema import Attribute, Schema, SemanticType

FORMAT_VERSION = 1


class PersistenceError(CopyCatError):
    """The payload is malformed or from an incompatible version."""


# ---------------------------------------------------------------- schemas
def schema_to_dict(schema: Schema) -> list[dict[str, Any]]:
    return [
        {
            "name": attr.name,
            "type": attr.semantic_type.name,
            "parent": attr.semantic_type.parent,
        }
        for attr in schema
    ]


def schema_from_dict(payload: list[Mapping[str, Any]]) -> Schema:
    return Schema(
        [
            Attribute(
                entry["name"], SemanticType(entry["type"], entry.get("parent"))
            )
            for entry in payload
        ]
    )


# ---------------------------------------------------------------- relations
def relation_to_dict(relation: Relation) -> dict[str, Any]:
    return {
        "name": relation.name,
        "schema": schema_to_dict(relation.schema),
        "rows": [list(row.values) for row in relation],
    }


def relation_from_dict(payload: Mapping[str, Any]) -> Relation:
    relation = Relation(payload["name"], schema_from_dict(payload["schema"]))
    for row in payload["rows"]:
        relation.add(row)
    return relation


# ---------------------------------------------------------------- catalog
def _metadata_to_dict(metadata: SourceMetadata) -> dict[str, Any]:
    notes = dict(metadata.notes)
    if "distrusted_rows" in notes:
        notes["distrusted_rows"] = sorted(notes["distrusted_rows"])
    return {
        "origin": metadata.origin,
        "trust": metadata.trust,
        "url": metadata.url,
        "foreign_keys": {
            attr: list(target) for attr, target in metadata.foreign_keys.items()
        },
        "notes": notes,
    }


def _metadata_from_dict(payload: Mapping[str, Any]) -> SourceMetadata:
    notes = dict(payload.get("notes", {}))
    if "distrusted_rows" in notes:
        notes["distrusted_rows"] = set(notes["distrusted_rows"])
    return SourceMetadata(
        origin=payload.get("origin", "manual"),
        trust=payload.get("trust", 1.0),
        url=payload.get("url"),
        foreign_keys={
            attr: tuple(target)
            for attr, target in payload.get("foreign_keys", {}).items()
        },
        notes=notes,
    )


def catalog_to_dict(catalog: Catalog) -> dict[str, Any]:
    return {
        "relations": [
            {
                **relation_to_dict(catalog.relation(name)),
                "metadata": _metadata_to_dict(catalog.metadata(name)),
            }
            for name in catalog.relation_names()
        ],
        "service_names": catalog.service_names(),
    }


def catalog_from_dict(
    payload: Mapping[str, Any], into: Catalog | None = None
) -> Catalog:
    catalog = into or Catalog()
    for entry in payload.get("relations", []):
        catalog.add_relation(
            relation_from_dict(entry),
            _metadata_from_dict(entry.get("metadata", {})),
            replace=True,
        )
    return catalog


# ---------------------------------------------------------------- types
def _distribution_to_dict(dist: PatternDistribution) -> dict[str, Any]:
    return {
        "counts": [[list(pattern), count] for pattern, count in dist.counts],
        "total": dist.total,
    }


def _distribution_from_dict(payload: Mapping[str, Any]) -> PatternDistribution:
    return PatternDistribution(
        counts=tuple((tuple(pattern), count) for pattern, count in payload["counts"]),
        total=payload["total"],
    )


def type_learner_to_dict(learner: SemanticTypeLearner) -> dict[str, Any]:
    types = []
    for name in learner.known_types():
        learned = learner.get(name)
        signature = learned.signature
        types.append(
            {
                "name": learned.semantic_type.name,
                "parent": learned.semantic_type.parent,
                "constants": sorted(signature.constants),
                "mixed": _distribution_to_dict(signature.mixed),
                "class_level": _distribution_to_dict(signature.class_level),
                "kind_level": _distribution_to_dict(signature.kind_level),
                "n_values": signature.n_values,
                "mean_length": signature.mean_length,
                "vocabulary": sorted(signature.vocabulary),
            }
        )
    return {"recognition_threshold": learner.recognition_threshold, "types": types}


def type_learner_from_dict(
    payload: Mapping[str, Any], into: SemanticTypeLearner | None = None
) -> SemanticTypeLearner:
    learner = into or SemanticTypeLearner(
        recognition_threshold=payload.get("recognition_threshold", 0.5)
    )
    for entry in payload.get("types", []):
        signature = TypeSignature(
            constants=frozenset(entry["constants"]),
            mixed=_distribution_from_dict(entry["mixed"]),
            class_level=_distribution_from_dict(entry["class_level"]),
            kind_level=_distribution_from_dict(entry["kind_level"]),
            n_values=entry["n_values"],
            mean_length=entry["mean_length"],
            vocabulary=frozenset(entry["vocabulary"]),
        )
        learned = LearnedType(
            SemanticType(entry["name"], entry.get("parent")), signature
        )
        learner.add(learned)
    return learner


# ---------------------------------------------------------------- linkers
def linkers_to_dict(linkers: Mapping[str, LearnedLinker]) -> dict[str, Any]:
    return {
        key: {
            "field_pairs": [
                [pair.left, pair.right] for pair in linker.extractor.field_pairs
            ],
            "weights": dict(linker.weights),
            "updates": linker.updates,
        }
        for key, linker in linkers.items()
    }


def linkers_from_dict(payload: Mapping[str, Any]) -> dict[str, LearnedLinker]:
    out: dict[str, LearnedLinker] = {}
    for key, entry in payload.items():
        pairs = [FieldPair(left, right) for left, right in entry["field_pairs"]]
        linker = LearnedLinker(pairs)
        for name, weight in entry["weights"].items():
            if name in linker.weights:
                linker.weights[name] = weight
        linker.updates = entry.get("updates", 0)
        out[key] = linker
    return out


# ---------------------------------------------------------------- session state
def session_state_to_dict(session) -> dict[str, Any]:
    """Everything persistent a :class:`CopyCatSession` has learned."""
    return {
        "version": FORMAT_VERSION,
        "catalog": catalog_to_dict(session.catalog),
        "types": type_learner_to_dict(session.type_learner),
        "graph_weights": dict(session.integration_learner.graph.weights),
        "linkers": linkers_to_dict(session._linkers),  # noqa: SLF001
    }


def restore_session_state(session, payload: Mapping[str, Any]) -> None:
    """Rehydrate a session from :func:`session_state_to_dict` output.

    Services must already be registered in the session's catalog (they are
    not serialized); relation sources, types, weights and linkers are
    restored and the source graph is rebuilt.
    """
    if payload.get("version") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported state version {payload.get('version')!r}"
        )
    catalog_from_dict(payload["catalog"], into=session.catalog)
    type_learner_from_dict(payload["types"], into=session.type_learner)
    session.integration_learner.refresh()
    for key, weight in payload["graph_weights"].items():
        if key in session.integration_learner.graph.weights:
            session.integration_learner.graph.weights[key] = weight
    restored_linkers = linkers_from_dict(payload.get("linkers", {}))
    session._linkers.update(restored_linkers)  # noqa: SLF001


def save_session(session, path: str | Path) -> Path:
    """Serialize the session's learned state to a JSON file."""
    path = Path(path)
    path.write_text(json.dumps(session_state_to_dict(session), indent=2, sort_keys=True))
    return path


def load_session(session, path: str | Path) -> None:
    """Restore learned state from :func:`save_session` output."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"cannot load session state from {path}: {exc}") from exc
    restore_session_state(session, payload)
