"""Grouping and aggregation.

Section 5 ("Complex functions / transforms"): "Sometimes the user will want
to apply complex operations that are difficult to demonstrate: for
instance, perform an aggregation or evaluate an arithmetic expression."
This module supplies the relational side of that: a ``GroupBy`` plan node
with the standard aggregate functions, evaluated with provenance (a group's
output tuple is ⊗-derived from every input tuple in the group... which in
how-provenance is the product of the contributing variables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ...errors import EvaluationError
from ...provenance.expressions import Provenance, times
from .algebra import Plan, missing_attribute, require_attributes
from .catalog import Catalog
from .schema import ANY, NUMBER, Attribute, Schema


def _numeric(values: list[Any]) -> list[float]:
    out = []
    for value in values:
        if value is None:
            continue
        try:
            out.append(float(value))
        except (TypeError, ValueError):
            raise EvaluationError(f"non-numeric value in numeric aggregate: {value!r}")
    return out


def agg_count(values: list[Any]) -> int:
    return sum(1 for value in values if value is not None)


def agg_sum(values: list[Any]) -> float | None:
    nums = _numeric(values)
    return sum(nums) if nums else None


def agg_avg(values: list[Any]) -> float | None:
    nums = _numeric(values)
    return sum(nums) / len(nums) if nums else None


def agg_min(values: list[Any]) -> Any:
    present = [value for value in values if value is not None]
    return min(present) if present else None


def agg_max(values: list[Any]) -> Any:
    present = [value for value in values if value is not None]
    return max(present) if present else None


def agg_count_distinct(values: list[Any]) -> int:
    return len({value for value in values if value is not None})


AGGREGATES: dict[str, Callable[[list[Any]], Any]] = {
    "count": agg_count,
    "sum": agg_sum,
    "avg": agg_avg,
    "min": agg_min,
    "max": agg_max,
    "count_distinct": agg_count_distinct,
}

_NUMERIC_AGGS = {"count", "sum", "avg", "count_distinct"}


@dataclass(frozen=True)
class AggSpec:
    """One aggregate column: ``fn(attribute) AS alias``."""

    fn: str
    attribute: str
    alias: str

    def __post_init__(self) -> None:
        if self.fn not in AGGREGATES:
            raise EvaluationError(
                f"unknown aggregate {self.fn!r} (have: {sorted(AGGREGATES)})"
            )

    def __str__(self) -> str:
        return f"{self.fn}({self.attribute}) AS {self.alias}"


@dataclass(frozen=True)
class GroupBy(Plan):
    """Group rows by key attributes and compute aggregates per group.

    With an empty ``keys`` tuple the whole input is one group (global
    aggregation). Output schema: keys followed by aggregate aliases.
    """

    child: Plan
    keys: tuple[str, ...]
    aggregates: tuple[AggSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        if not self.aggregates and not self.keys:
            raise EvaluationError("GroupBy needs keys or aggregates")
        aliases = [spec.alias for spec in self.aggregates]
        if len(set(aliases) | set(self.keys)) != len(aliases) + len(self.keys):
            raise EvaluationError("duplicate output names in GroupBy")

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def derive_schema(self, catalog: Catalog, inputs: Sequence[Schema]) -> Schema:
        child_schema = inputs[0]
        require_attributes(self, child_schema, self.keys, "grouping key")
        attrs = [child_schema.attribute(key) for key in self.keys]
        for spec in self.aggregates:
            if spec.attribute not in child_schema:
                raise missing_attribute(self, spec.attribute, child_schema, f"aggregate {spec.fn}()")
            semantic = NUMBER if spec.fn in _NUMERIC_AGGS else ANY
            attrs.append(Attribute(spec.alias, semantic))
        return Schema(attrs)

    def describe(self) -> str:
        keys = ", ".join(self.keys) or "(all)"
        aggs = ", ".join(str(spec) for spec in self.aggregates)
        return f"GroupBy[{keys}; {aggs}]"


def evaluate_groupby_columnar(plan: GroupBy, child, schema: Schema):
    """Batch-at-a-time :class:`GroupBy` over a columnar child batch.

    Groups by gathering directly from the child's column arrays (no Row
    allocation, attribute positions resolved once) and produces output
    columns in place. Groups keep their first-appearance order and
    members their input order; each group's provenance is the ⊗ of its
    members'.
    """
    from .columns import ColumnBatch

    key_columns = [child.column(name) for name in plan.keys]
    agg_columns = [child.column(spec.attribute) for spec in plan.aggregates]
    groups: dict[tuple, list[int]] = {}
    order: list[tuple] = []
    for index in range(child.n_rows):
        key = tuple(column[index] for column in key_columns)
        members = groups.get(key)
        if members is None:
            groups[key] = [index]
            order.append(key)
        else:
            members.append(index)
    out_columns: list[list[Any]] = [[] for _ in schema.names]
    n_keys = len(plan.keys)
    agg_fns = [AGGREGATES[spec.fn] for spec in plan.aggregates]
    provs: list[Provenance] = []
    child_provs = child.provs
    for key in order:
        members = groups[key]
        for position, value in enumerate(key):
            out_columns[position].append(value)
        for offset, (fn, column) in enumerate(zip(agg_fns, agg_columns)):
            out_columns[n_keys + offset].append(fn([column[i] for i in members]))
        provs.append(times(*(child_provs[i] for i in members)))
    return ColumnBatch(schema, out_columns, provs)
