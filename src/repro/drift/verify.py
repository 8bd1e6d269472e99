"""Wrapper-extraction verification against the induction-time hypothesis.

The paper's wrappers are induced once and then trusted forever; real sources
re-template, reorder fields, and emit malformed rows. This module makes every
extraction *checkable*: at induction (commit) time we snapshot what the
wrapper produced — arity, row count, the user's example rows, and a
per-column :class:`~repro.learning.model.patterns.TypeSignature` (Section
3.2's statistical distribution matching) — and every later extraction is
verified against that snapshot:

- **row-level validation** catches individually malformed rows (wrong arity,
  all-blank, markup remnants, control characters, runaway lengths) so they
  can be quarantined instead of committed;
- **record-count sanity** catches wholesale collapse or explosion of the
  match set;
- **example (landmark) coverage** checks that the user's own example rows —
  anchored by *value*, not position — still extract;
- **per-column distribution matching** compares each extracted column's
  token-pattern distribution to the induction-time signature, which is what
  catches silent field reorders: positions still extract, but the street
  column suddenly "looks like" names.

The count and coverage bounds are the constants below; the column
threshold comes from :data:`repro.drift.config.DRIFT`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..learning.model.patterns import TypeSignature
from ..util.text import is_blank
from .config import DRIFT

#: Longest plausible extracted cell; beyond this the rule is eating template.
MAX_CELL_LEN = 200
#: fewer valid rows than this fraction of the induction-time count is
#: suspicious (template loss, truncation) ...
MIN_ROW_FRACTION = 0.5
#: ... and more than this multiple too (the rule matching chrome or
#: other columns).
MAX_ROW_MULTIPLE = 3.0
#: fraction of the user's example rows, matched by value, that must
#: still extract (the landmark-coverage check).
MIN_EXAMPLE_COVERAGE = 0.5


@dataclass(frozen=True)
class RowViolation:
    """One extracted row that failed row-level validation."""

    index: int
    row: tuple[str, ...]
    reason: str

    def __str__(self) -> str:
        return f"row {self.index}: {self.reason}"


@dataclass(frozen=True)
class InductionSnapshot:
    """What the wrapper produced when it was induced (the baseline)."""

    source: str
    arity: int
    n_rows: int
    signatures: tuple[TypeSignature, ...]
    examples: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class VerificationReport:
    """The outcome of verifying one extraction against a snapshot."""

    source: str
    n_extracted: int
    valid_rows: tuple[tuple[str, ...], ...]
    violations: tuple[RowViolation, ...]
    reasons: tuple[str, ...]
    column_scores: tuple[float | None, ...]
    example_coverage: float

    @property
    def drifted(self) -> bool:
        """True when the extraction no longer matches the induced hypothesis.

        Row-level violations alone are *not* drift — they are quarantined
        individually; drift means the wrapper itself stopped fitting.
        """
        return bool(self.reasons)


def snapshot_extraction(
    source: str,
    rows: Sequence[Sequence[str]],
    examples: Sequence[Sequence[str]] = (),
) -> InductionSnapshot:
    """Snapshot an accepted extraction as the verification baseline."""
    string_rows = [[str(cell) for cell in row] for row in rows]
    if string_rows:
        arity = len(string_rows[0])
    elif examples:
        arity = len(examples[0])
    else:
        arity = 0
    signatures = []
    for j in range(arity):
        column = [row[j] for row in string_rows if j < len(row) and not is_blank(row[j])]
        signatures.append(TypeSignature.from_values(column))
    return InductionSnapshot(
        source=source,
        arity=arity,
        n_rows=len(string_rows),
        signatures=tuple(signatures),
        examples=tuple(tuple(str(cell) for cell in example) for example in examples),
    )


def validate_row(row: Sequence[str], arity: int) -> str | None:
    """Row-level validation: the reason this row is malformed, or ``None``."""
    cells = ["" if cell is None else str(cell) for cell in row]
    if len(cells) != arity:
        return f"arity {len(cells)} != expected {arity}"
    if cells and all(is_blank(cell) for cell in cells):
        return "all cells blank"
    for position, cell in enumerate(cells):
        if "<" in cell or ">" in cell:
            return f"markup remnant in column {position}: {cell[:40]!r}"
        if len(cell) > MAX_CELL_LEN:
            return f"column {position} overlong ({len(cell)} chars)"
        if any(ord(ch) < 32 and ch != "\t" for ch in cell):
            return f"control characters in column {position}"
    return None


def validate_rows(
    rows: Sequence[Sequence[str]], arity: int
) -> tuple[list[list[str]], list[RowViolation]]:
    """Split *rows* into (valid, violations) under row-level validation."""
    valid: list[list[str]] = []
    violations: list[RowViolation] = []
    for index, row in enumerate(rows):
        reason = validate_row(row, arity)
        if reason is None:
            valid.append(["" if cell is None else str(cell) for cell in row])
        else:
            violations.append(
                RowViolation(
                    index=index,
                    row=tuple("" if cell is None else str(cell) for cell in row),
                    reason=reason,
                )
            )
    return valid, violations


def example_coverage(
    examples: Sequence[Sequence[str]], rows: Sequence[Sequence[str]]
) -> float:
    """Fraction of example rows whose values all occur somewhere in *rows*.

    Value-anchored, position-free: a reordered or re-templated page still
    covers an example as long as every one of its cell values survives.
    """
    if not examples:
        return 1.0
    haystack = {str(cell) for row in rows for cell in row}
    covered = 0
    for example in examples:
        cells = [str(cell) for cell in example if not is_blank(str(cell))]
        if cells and all(cell in haystack for cell in cells):
            covered += 1
    return covered / len(examples)


def verify_extraction(
    snapshot: InductionSnapshot,
    rows: Sequence[Sequence[str]],
    check_counts: bool = True,
    check_examples: bool = True,
) -> VerificationReport:
    """Verify one extraction against the induction-time *snapshot*.

    ``check_counts=False`` relaxes record-count sanity (used when judging a
    *re-induction*, where the source may have legitimately shrunk);
    ``check_examples=False`` likewise skips landmark coverage when the
    examples were already filtered to survivors.
    """
    valid, violations = validate_rows(rows, snapshot.arity)
    reasons: list[str] = []

    if not rows:
        reasons.append("extraction produced no rows")
    elif violations and len(violations) * 2 > len(rows):
        reasons.append(
            f"{len(violations)} of {len(rows)} extracted rows are malformed"
        )

    if check_counts and snapshot.n_rows:
        if len(valid) < MIN_ROW_FRACTION * snapshot.n_rows:
            reasons.append(
                f"row count collapsed: {len(valid)} valid vs {snapshot.n_rows} "
                f"at induction (min fraction {MIN_ROW_FRACTION:g})"
            )
        elif len(valid) > MAX_ROW_MULTIPLE * snapshot.n_rows:
            reasons.append(
                f"row count exploded: {len(valid)} valid vs {snapshot.n_rows} "
                f"at induction (max multiple {MAX_ROW_MULTIPLE:g})"
            )

    coverage = example_coverage(snapshot.examples, valid)
    if check_examples and snapshot.examples and coverage < MIN_EXAMPLE_COVERAGE:
        reasons.append(
            f"landmark coverage lost: only {coverage:.0%} of the user's "
            f"example rows still extract (min {MIN_EXAMPLE_COVERAGE:.0%})"
        )

    column_scores: list[float | None] = []
    for j, signature in enumerate(snapshot.signatures):
        column = [row[j] for row in valid if not is_blank(row[j])]
        if signature.n_values == 0 or not column:
            column_scores.append(None)
            continue
        score = signature.similarity(column)
        column_scores.append(score)
        if score < DRIFT.type_divergence_threshold:
            reasons.append(
                f"column {j} token-pattern distribution diverged "
                f"(similarity {score:.2f} < {DRIFT.type_divergence_threshold:g})"
            )

    return VerificationReport(
        source=snapshot.source,
        n_extracted=len(rows),
        valid_rows=tuple(tuple(row) for row in valid),
        violations=tuple(violations),
        reasons=tuple(reasons),
        column_scores=tuple(column_scores),
        example_coverage=coverage,
    )
