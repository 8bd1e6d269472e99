"""Reference structure induction: the oracle for ``StructureLearner.generalize``.

This is generalization in the order the learner used before it pruned by
consistency: the committee's candidates are *all* rescored by the data-type
expert and clustered (:meth:`StructureLearner.ranked_candidates`), then
every cluster, in rank order, is searched for column maps that project the
examples, each cluster normalizing its own records. The projection search
is kept here as it was, so it does not share the learner's core.
:meth:`StructureLearner.generalize` must return exactly (``==`` scores
included) what :func:`generalize` returns.
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence

from repro.learning.structure import (
    GeneralizationResult,
    ProjectionHypothesis,
    RelationalCandidate,
    StructureLearner,
)
from repro.learning.structure.hypotheses import _projection_preference
from repro.substrate.documents.clipboard import CopyEvent
from repro.substrate.documents.textdoc import TextDocument
from repro.substrate.documents.website import Page
from repro.util.text import normalize


def find_projections(
    candidate: RelationalCandidate,
    examples: Sequence[Sequence[str]],
    max_projections: int = 5,
) -> list[ProjectionHypothesis]:
    """Up to *max_projections* column maps of *candidate* consistent with *examples*."""
    if not examples:
        return []
    width = len(examples[0])
    if any(len(example) != width for example in examples):
        return []
    if width > candidate.n_columns:
        return []
    normalized_examples = [
        tuple(normalize(str(cell)) for cell in example) for example in examples
    ]
    normalized_records = [
        tuple(normalize(str(cell)) for cell in record) for record in candidate.records
    ]
    feasible: list[set[int]] = []
    for j in range(width):
        possible = set()
        for column in range(candidate.n_columns):
            values = {record[column] for record in normalized_records}
            if all(example[j] in values for example in normalized_examples):
                possible.add(column)
        if not possible:
            return []
        feasible.append(possible)
    found: list[ProjectionHypothesis] = []
    for mapping in permutations(range(candidate.n_columns), width):
        if any(mapping[j] not in feasible[j] for j in range(width)):
            continue
        rows = {tuple(record[c] for c in mapping) for record in normalized_records}
        if all(example in rows for example in normalized_examples):
            found.append(
                ProjectionHypothesis(
                    candidate=candidate,
                    column_map=mapping,
                    score=candidate.score + _projection_preference(mapping),
                )
            )
            if len(found) >= max_projections:
                break
    return found


def generalize(
    learner: StructureLearner,
    event: CopyEvent,
    examples: Sequence[Sequence[str]] | None = None,
) -> GeneralizationResult:
    """Rescore every candidate, then search each ranked cluster for projections."""
    if examples is None:
        examples = event.fields
    examples = [[str(cell) for cell in example] for example in examples]
    document = event.context.document
    ranked, pages_html = learner.ranked_candidates(event)
    hypotheses: list[ProjectionHypothesis] = []
    for candidate in ranked:
        hypotheses.extend(find_projections(candidate, examples))
        if len(hypotheses) >= learner.max_hypotheses:
            break
    hypotheses.sort(key=lambda h: -h.score)
    hypotheses = hypotheses[: learner.max_hypotheses]
    if (
        not hypotheses
        and learner.enable_fallback
        and isinstance(document, (Page, TextDocument))
    ):
        fallback = learner._fallback(event, examples, pages_html)  # noqa: SLF001
        if fallback is not None:
            hypotheses.append(fallback)
    return GeneralizationResult(
        source_name=event.context.source_name,
        examples=examples,
        hypotheses=hypotheses,
    )
