"""Extraction hypotheses: candidate relational descriptions and projections.

Section 3.1: the experts "output their discoveries as hypotheses about the
overall relational structure of the data on the site"; clustering then picks
"the best overall relational description", and "given one or more examples
selected by the user, the system attempts to find a most-general projection
hypothesis consistent with the example[s]".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Sequence

from ...util.text import normalize


@dataclass
class RelationalCandidate:
    """A candidate tabular view of a document: records × fields.

    ``support`` names the experts that proposed (or endorsed) it; ``score``
    accumulates expert votes and re-scoring bonuses during clustering.
    """

    records: list[list[str]]
    n_columns: int
    support: list[str] = field(default_factory=list)
    score: float = 0.0
    origin: str = ""       # human-readable: "table.listing", "ul.listing", ...
    page_urls: tuple[str, ...] = ()

    def key(self) -> tuple:
        """Identity for clustering: the normalized record set."""
        return tuple(
            tuple(normalize(cell) for cell in record) for record in self.records
        )

    def column(self, index: int) -> list[str]:
        return [record[index] for record in self.records]

    def columns(self) -> list[list[str]]:
        return [self.column(i) for i in range(self.n_columns)]

    def __repr__(self) -> str:
        return (
            f"RelationalCandidate({self.origin!r}, {len(self.records)}x"
            f"{self.n_columns}, score={self.score:.2f}, support={self.support})"
        )


@dataclass
class ProjectionHypothesis:
    """A candidate plus a column projection consistent with the examples.

    This is what the structure learner ultimately emits: "all rows of the
    best relational description, projected onto the columns the user's
    examples came from".
    """

    candidate: RelationalCandidate
    column_map: tuple[int, ...]   # example field j comes from candidate column_map[j]
    score: float = 0.0
    via_fallback: bool = False

    def rows(self) -> list[list[str]]:
        return [
            [record[c] for c in self.column_map] for record in self.candidate.records
        ]

    @property
    def n_rows(self) -> int:
        return len(self.candidate.records)

    def describe(self) -> str:
        mechanism = "landmark-rules" if self.via_fallback else "projection"
        cols = ", ".join(str(c) for c in self.column_map)
        return (
            f"{mechanism} over {self.candidate.origin or 'document'} "
            f"cols[{cols}] -> {self.n_rows} rows "
            f"(experts: {', '.join(self.candidate.support) or 'fallback'})"
        )

    def consistent_with(self, examples: Sequence[Sequence[str]]) -> bool:
        """Every example appears (normalized) among the projected rows."""
        projected = {
            tuple(normalize(cell) for cell in row) for row in self.rows()
        }
        return all(
            tuple(normalize(cell) for cell in example) in projected
            for example in examples
        )


def find_projections(
    candidate: RelationalCandidate,
    examples: Sequence[Sequence[str]],
    max_projections: int = 5,
) -> list[ProjectionHypothesis]:
    """All (up to *max_projections*) column maps consistent with *examples*.

    A column map assigns each example field to a distinct candidate column
    such that every example matches some record on all mapped columns.
    Preference order: identity-like maps first (leftmost columns, in order),
    which is the "most general / least surprising" choice.
    """
    normalized_examples = [
        tuple(normalize(str(cell)) for cell in example) for example in examples
    ]
    normalized_records = [
        tuple(normalize(str(cell)) for cell in record) for record in candidate.records
    ]
    maps = column_maps(
        normalized_records, candidate.n_columns, normalized_examples, max_projections
    )
    return project(candidate, maps)


def column_maps(
    normalized_records: Sequence[tuple[str, ...]],
    n_columns: int,
    normalized_examples: Sequence[tuple[str, ...]],
    max_projections: int = 5,
) -> list[tuple[int, ...]]:
    """:func:`find_projections`'s column maps over already-normalized cells.

    Depends only on the normalized record set, its width and the examples,
    never on a score, so a caller can decide which record sets can project
    before any of them is rescored.
    """
    if not normalized_examples:
        return []
    width = len(normalized_examples[0])
    if any(len(example) != width for example in normalized_examples):
        return []
    if width > n_columns:
        return []

    # Columns each example field could come from (prefilter to keep the
    # permutation search tiny even for wide tables).
    feasible: list[set[int]] = []
    for j in range(width):
        possible = set()
        for column in range(n_columns):
            values = {record[column] for record in normalized_records}
            if all(example[j] in values for example in normalized_examples):
                possible.add(column)
        if not possible:
            return []
        feasible.append(possible)

    found: list[tuple[int, ...]] = []
    for mapping in permutations(range(n_columns), width):
        if any(mapping[j] not in feasible[j] for j in range(width)):
            continue
        rows = {
            tuple(record[c] for c in mapping) for record in normalized_records
        }
        if all(example in rows for example in normalized_examples):
            found.append(mapping)
            if len(found) >= max_projections:
                break
    return found


def project(
    candidate: RelationalCandidate, maps: Sequence[tuple[int, ...]]
) -> list[ProjectionHypothesis]:
    """One hypothesis per column map, scored from the candidate's score."""
    return [
        ProjectionHypothesis(
            candidate=candidate,
            column_map=mapping,
            score=candidate.score + _projection_preference(mapping),
        )
        for mapping in maps
    ]


def _projection_preference(mapping: tuple[int, ...]) -> float:
    """Small bonus for natural projections: contiguous, in order, leftmost."""
    bonus = 0.0
    if all(b > a for a, b in zip(mapping, mapping[1:])):
        bonus += 0.5  # order-preserving
    if all(b == a + 1 for a, b in zip(mapping, mapping[1:])):
        bonus += 0.25  # contiguous
    bonus -= 0.01 * sum(mapping)  # prefer leftmost columns
    return bonus
