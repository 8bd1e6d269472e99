"""Columnar batches: per-column value arrays for batch-at-a-time evaluation.

A row-at-a-time evaluator would allocate a :class:`~repro.substrate.
relational.rows.Row` per tuple per operator and resolve attribute positions
through a dict on every access. A :class:`ColumnBatch` stores the same
annotated relation transposed — one plain Python list per attribute, plus a
parallel list of provenance expressions — so operators move whole columns
with list comprehensions (C-speed loops), projections become list picks,
and renames are free. Rows are materialized exactly once, at the batch →
``Result`` boundary.

Batches are immutable by contract: operators never mutate a column list in
place, so columns (and whole batches, via the scan-transpose and plan
caches) can be shared between batches without copying.
"""

from __future__ import annotations

import sys
from typing import Any, Iterable, Sequence

from ...provenance.expressions import Provenance, Var
from .rows import Row, TupleId
from .schema import Schema

AnnotatedRow = tuple[Row, Provenance]


class ColumnBatch:
    """A schema, one value list per attribute, and per-row provenance.

    ``columns[k][i]`` is row *i*'s value for attribute ``schema.names[k]``;
    ``provs[i]`` is row *i*'s provenance expression. ``n_rows`` is stored
    explicitly so zero-attribute schemas (possible after degenerate
    projections) still know their cardinality.
    """

    __slots__ = ("schema", "columns", "provs", "n_rows")

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[list[Any]],
        provs: list[Provenance],
    ):
        self.schema = schema
        self.columns = list(columns)
        self.provs = provs
        self.n_rows = len(provs)

    # -- construction --------------------------------------------------------
    @classmethod
    def from_annotated(
        cls, schema: Schema, annotated: Iterable[AnnotatedRow]
    ) -> "ColumnBatch":
        """Transpose ``(Row, Provenance)`` pairs into column arrays."""
        provs: list[Provenance] = []
        value_rows: list[tuple[Any, ...]] = []
        for row, prov in annotated:
            value_rows.append(row.values)
            provs.append(prov)
        if value_rows:
            columns = [list(col) for col in zip(*value_rows)]
        else:
            columns = [[] for _ in schema.names]
        return cls(schema, columns, provs)

    @classmethod
    def from_relation_rows(
        cls, source: str, schema: Schema, rows: Sequence[Row]
    ) -> "ColumnBatch":
        """Transpose a base relation, interning string cells.

        Every ``str`` cell goes through :func:`sys.intern` (which rejects
        ``str`` subclasses, so those pass as they are): equal values across
        rows and sources then share one object, and the scan memo holds one
        copy of each.
        """
        intern = sys.intern
        if rows:
            columns = [
                [intern(v) if type(v) is str else v for v in col]
                for col in zip(*[row.values for row in rows])
            ]
        else:
            columns = [[] for _ in schema.names]
        provs: list[Provenance] = [
            Var(TupleId(source, index)) for index in range(len(rows))
        ]
        return cls(schema, columns, provs)

    # -- protocol ------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_rows

    def column(self, name: str) -> list[Any]:
        """The value list for attribute *name*."""
        return self.columns[self.schema.position(name)]

    def row_values(self, index: int) -> tuple[Any, ...]:
        return tuple(column[index] for column in self.columns)

    # -- derivations ---------------------------------------------------------
    def gather(self, indices: Sequence[int], schema: Schema | None = None) -> "ColumnBatch":
        """A new batch keeping ``indices`` rows, in the given order."""
        provs = self.provs
        return ColumnBatch(
            schema if schema is not None else self.schema,
            [[column[i] for i in indices] for column in self.columns],
            [provs[i] for i in indices],
        )

    def with_schema(self, schema: Schema) -> "ColumnBatch":
        """Rename/retype: same columns and provenance under a new schema."""
        return ColumnBatch(schema, self.columns, self.provs)

    # -- materialization -----------------------------------------------------
    def to_annotated(self) -> list[AnnotatedRow]:
        """Materialize ``(Row, Provenance)`` pairs — the Result boundary.

        The single place columnar evaluation allocates Row objects; uses
        the trusted constructor (values are already schema-shaped).
        """
        schema = self.schema
        from_values = Row.from_values
        if not self.columns:
            return [(from_values(schema, ()), prov) for prov in self.provs]
        return [
            (from_values(schema, values), prov)
            for values, prov in zip(zip(*self.columns), self.provs)
        ]

    def __repr__(self) -> str:
        return (
            f"ColumnBatch({self.n_rows} rows × {len(self.columns)} cols, "
            f"{self.schema!r})"
        )
