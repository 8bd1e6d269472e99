"""The semantic-type half of the model learner.

Section 3.2: learning has "a learning phase and a recognition phase". The
learner keeps a registry of :class:`LearnedType`s; ``recognize`` produces "a
ranked list of hypotheses for the semantic type of each field", the top one
being what the workspace proposes in the column-header dropdown (the
``PR-Street`` / ``PR-City`` suggestions of Figure 1). Users can define a new
type on the fly, and "once the system learns a new semantic type, this type
will be immediately available in the same user session".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from ...cache.lru import LRUCache
from ...errors import LearningError
from ...obs import METRICS, TRACER
from ...substrate.relational.schema import SemanticType
from ...util.text import clean_cell
from .patterns import ColumnProfile, TypeSignature

#: Whole-column recognition results each learner keeps (least recently used
#: evicted first). A Figure-3 journey recognizes about 20 distinct columns.
RECOGNIZE_MEMO_CAPACITY = 256


@dataclass(frozen=True)
class LearnedType:
    """A semantic type plus its learned pattern signature."""

    semantic_type: SemanticType
    signature: TypeSignature

    @property
    def name(self) -> str:
        return self.semantic_type.name


@dataclass(frozen=True)
class TypeHypothesis:
    """One ranked recognition hypothesis for a column."""

    semantic_type: SemanticType
    score: float

    def __str__(self) -> str:
        return f"{self.semantic_type}({self.score:.3f})"


class SemanticTypeLearner:
    """Registry + learner + recognizer for semantic types.

    Recognition is memoised per learner on (cleaned column, registry
    version); every change to the registry bumps the version, so a memo
    entry never outlives the types it scored. The memo holds every type's
    score, so ``recognition_threshold`` and ``top_k`` apply after lookup.
    """

    def __init__(self, recognition_threshold: float = 0.5):
        self._types: dict[str, LearnedType] = {}
        self.recognition_threshold = recognition_threshold
        self._version = 0
        self._memo = LRUCache(RECOGNIZE_MEMO_CAPACITY, metrics_prefix="types.recognize_memo")

    # -- learning phase -----------------------------------------------------
    def learn(self, semantic_type: SemanticType | str, values: Sequence[str]) -> LearnedType:
        """Learn (or refine) a type from training *values*.

        A string name creates a new user-defined type on the fly.
        """
        if isinstance(semantic_type, str):
            semantic_type = SemanticType(semantic_type, parent="PR-Any")
        if not values:
            raise LearningError(
                f"cannot learn type {semantic_type}: no training values given"
            )
        total = len(values)
        values = [clean_cell(str(value)) for value in values]
        values = [value for value in values if value]
        if not values:
            raise LearningError(
                f"cannot learn type {semantic_type}: all {total} training "
                f"values are empty or whitespace-only (including NBSP and "
                f"zero-width characters)"
            )
        existing = self._types.get(semantic_type.name)
        with TRACER.span("types.learn") as span, METRICS.timer("types.learn_ms"):
            if existing is None:
                learned = LearnedType(semantic_type, TypeSignature.from_values(values))
            else:
                learned = replace(existing, signature=existing.signature.merged_with(values))
            if span.is_recording():
                span.set("type", semantic_type.name)
                span.set("values", len(values))
                span.set("refined", existing is not None)
        METRICS.inc("types.learn_calls")
        self.add(learned)
        return learned

    def add(self, learned: LearnedType) -> None:
        """Register *learned*, replacing any type of the same name."""
        self._types[learned.name] = learned
        self._version += 1

    def forget(self, name: str) -> None:
        self._types.pop(name, None)
        self._version += 1

    def known_types(self) -> list[str]:
        return sorted(self._types)

    def get(self, name: str) -> LearnedType:
        try:
            return self._types[name]
        except KeyError:
            raise LearningError(f"no learned type named {name!r}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._types

    # -- recognition phase --------------------------------------------------
    def recognize(self, values: Sequence[str], top_k: int | None = None) -> list[TypeHypothesis]:
        """Ranked type hypotheses for a column of *values*.

        Only hypotheses at or above ``recognition_threshold`` are returned;
        an empty list means "unknown type — invite the user to define one".
        """
        values = [clean_cell(str(value)) for value in values]
        values = [value for value in values if value]
        if not values:
            # Nothing recognizable: empty / all-whitespace columns never
            # match a learned signature, and must not crash the pipeline.
            return []
        METRICS.inc("types.recognize_calls")
        with METRICS.timer("types.recognize_ms"):
            ranked = self._ranked(values)
        hypotheses = [
            hypothesis
            for hypothesis in ranked
            if hypothesis.score >= self.recognition_threshold
        ]
        if top_k is not None:
            hypotheses = hypotheses[:top_k]
        return hypotheses

    def _ranked(self, values: list[str]) -> tuple[TypeHypothesis, ...]:
        """Every learned type's hypothesis for cleaned *values*, best first."""
        key = (tuple(values), self._version)
        ranked = self._memo.get(key)
        if ranked is None:
            profile = ColumnProfile(values)
            ranked = tuple(
                sorted(
                    (
                        TypeHypothesis(learned.semantic_type, learned.signature.score(profile))
                        for learned in self._types.values()
                    ),
                    key=lambda h: (-h.score, h.semantic_type.name),
                )
            )
            self._memo.put(key, ranked)
        return ranked

    def best_type(self, values: Sequence[str]) -> SemanticType | None:
        """The top hypothesis's type, or None below threshold."""
        ranked = self.recognize(values, top_k=1)
        return ranked[0].semantic_type if ranked else None

    def recognize_table(
        self, columns: Sequence[Sequence[str]], top_k: int = 3
    ) -> list[list[TypeHypothesis]]:
        """Recognize every column of an extracted table (Figure 1 flow)."""
        return [self.recognize(column, top_k=top_k) for column in columns]
