"""Selection predicates over rows.

Predicates are small structured objects (not bare lambdas) so that query
plans remain introspectable — the explanation machinery renders them, and
tests can assert on their structure.

Each predicate additionally *compiles* against a schema into a columnar
mask function (:func:`compile_predicate`): attribute positions are resolved
once, and evaluation runs a list comprehension over whole column arrays
instead of per-row ``matches`` dispatch. Compiled masks replicate
``matches`` exactly — ``None`` operands compare false, and an incomparable
pair (``TypeError``) is false rather than an error — so a mask agrees
bit-for-bit with calling ``matches`` on every row.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

from ...errors import EvaluationError
from .rows import Row
from .schema import Schema

#: A compiled predicate: column arrays -> boolean mask (one flag per row).
MaskFn = Callable[[list[list[Any]], int], list[bool]]

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Predicate:
    """Base class; subclasses implement :meth:`matches`."""

    def matches(self, row: Row) -> bool:
        raise NotImplementedError

    def __call__(self, row: Row) -> bool:
        return self.matches(row)

    # Combinators -------------------------------------------------------------
    def __and__(self, other: "Predicate") -> "And":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class Compare(Predicate):
    """``attribute <op> constant`` comparison."""

    attribute: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise EvaluationError(f"unknown comparison operator {self.op!r}")

    def matches(self, row: Row) -> bool:
        actual = row[self.attribute]
        if actual is None:
            return False
        try:
            return _OPS[self.op](actual, self.value)
        except TypeError:
            return False

    def __str__(self) -> str:
        return f"{self.attribute} {self.op} {self.value!r}"


def eq(attribute: str, value: Any) -> Compare:
    return Compare(attribute, "==", value)


@dataclass(frozen=True)
class AttrCompare(Predicate):
    """``left_attribute <op> right_attribute`` comparison within one row."""

    left: str
    op: str
    right: str

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise EvaluationError(f"unknown comparison operator {self.op!r}")

    def matches(self, row: Row) -> bool:
        a, b = row[self.left], row[self.right]
        if a is None or b is None:
            return False
        try:
            return _OPS[self.op](a, b)
        except TypeError:
            return False

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class IsNull(Predicate):
    attribute: str

    def matches(self, row: Row) -> bool:
        return row[self.attribute] is None

    def __str__(self) -> str:
        return f"{self.attribute} IS NULL"


@dataclass(frozen=True)
class NotNull(Predicate):
    attribute: str

    def matches(self, row: Row) -> bool:
        return row[self.attribute] is not None

    def __str__(self) -> str:
        return f"{self.attribute} IS NOT NULL"


@dataclass(frozen=True)
class Contains(Predicate):
    """Case-insensitive substring containment on a text attribute."""

    attribute: str
    needle: str

    def matches(self, row: Row) -> bool:
        value = row[self.attribute]
        if value is None:
            return False
        return self.needle.lower() in str(value).lower()

    def __str__(self) -> str:
        return f"{self.attribute} CONTAINS {self.needle!r}"


@dataclass(frozen=True)
class And(Predicate):
    parts: tuple[Predicate, ...]

    def matches(self, row: Row) -> bool:
        return all(part.matches(row) for part in self.parts)

    def __str__(self) -> str:
        return "(" + " AND ".join(str(part) for part in self.parts) + ")"


@dataclass(frozen=True)
class Or(Predicate):
    parts: tuple[Predicate, ...]

    def matches(self, row: Row) -> bool:
        return any(part.matches(row) for part in self.parts)

    def __str__(self) -> str:
        return "(" + " OR ".join(str(part) for part in self.parts) + ")"


@dataclass(frozen=True)
class Not(Predicate):
    inner: Predicate

    def matches(self, row: Row) -> bool:
        return not self.inner.matches(row)

    def __str__(self) -> str:
        return f"NOT ({self.inner})"


TRUE = And(())  # vacuous conjunction


# -- columnar compilation -----------------------------------------------------
#
# Exact-type dispatch (a subclass may override ``matches`` arbitrarily, so
# only the known leaf types compile; the evaluator runs anything else
# through ``matches`` row by row).


def _safe_op_mask(column: list[Any], op: Callable[[Any, Any], bool], const: Any) -> list[bool]:
    """``[op(v, const)]`` with ``matches`` semantics: None/TypeError -> False.

    Tries one C-speed comprehension first; a TypeError anywhere falls back
    to a per-element loop so partially-comparable columns still evaluate.
    """
    try:
        return [v is not None and bool(op(v, const)) for v in column]
    except TypeError:
        out: list[bool] = []
        for v in column:
            if v is None:
                out.append(False)
                continue
            try:
                out.append(bool(op(v, const)))
            except TypeError:
                out.append(False)
        return out


def _compile_compare(predicate: Compare, schema: Schema) -> MaskFn:
    position = schema.position(predicate.attribute)
    op = _OPS[predicate.op]
    const = predicate.value

    def mask(columns: list[list[Any]], n_rows: int) -> list[bool]:
        return _safe_op_mask(columns[position], op, const)

    return mask


def _compile_attr_compare(predicate: AttrCompare, schema: Schema) -> MaskFn:
    left = schema.position(predicate.left)
    right = schema.position(predicate.right)
    op = _OPS[predicate.op]

    def mask(columns: list[list[Any]], n_rows: int) -> list[bool]:
        a_col, b_col = columns[left], columns[right]
        try:
            return [
                a is not None and b is not None and bool(op(a, b))
                for a, b in zip(a_col, b_col)
            ]
        except TypeError:
            out: list[bool] = []
            for a, b in zip(a_col, b_col):
                if a is None or b is None:
                    out.append(False)
                    continue
                try:
                    out.append(bool(op(a, b)))
                except TypeError:
                    out.append(False)
            return out

    return mask


def _compile_is_null(predicate: IsNull, schema: Schema) -> MaskFn:
    position = schema.position(predicate.attribute)

    def mask(columns: list[list[Any]], n_rows: int) -> list[bool]:
        return [v is None for v in columns[position]]

    return mask


def _compile_not_null(predicate: NotNull, schema: Schema) -> MaskFn:
    position = schema.position(predicate.attribute)

    def mask(columns: list[list[Any]], n_rows: int) -> list[bool]:
        return [v is not None for v in columns[position]]

    return mask


def _compile_contains(predicate: Contains, schema: Schema) -> MaskFn:
    position = schema.position(predicate.attribute)
    needle = predicate.needle.lower()

    def mask(columns: list[list[Any]], n_rows: int) -> list[bool]:
        return [
            v is not None and needle in str(v).lower() for v in columns[position]
        ]

    return mask


def _compile_and(predicate: And, schema: Schema) -> MaskFn:
    parts = [_compile(part, schema) for part in predicate.parts]

    def mask(columns: list[list[Any]], n_rows: int) -> list[bool]:
        if not parts:
            return [True] * n_rows
        acc = parts[0](columns, n_rows)
        for part in parts[1:]:
            acc = [a and b for a, b in zip(acc, part(columns, n_rows))]
        return acc

    return mask


def _compile_or(predicate: Or, schema: Schema) -> MaskFn:
    parts = [_compile(part, schema) for part in predicate.parts]

    def mask(columns: list[list[Any]], n_rows: int) -> list[bool]:
        if not parts:
            return [False] * n_rows
        acc = parts[0](columns, n_rows)
        for part in parts[1:]:
            acc = [a or b for a, b in zip(acc, part(columns, n_rows))]
        return acc

    return mask


def _compile_not(predicate: Not, schema: Schema) -> MaskFn:
    inner = _compile(predicate.inner, schema)

    def mask(columns: list[list[Any]], n_rows: int) -> list[bool]:
        return [not flag for flag in inner(columns, n_rows)]

    return mask


_COMPILERS: dict[type, Callable[[Any, Schema], MaskFn]] = {
    Compare: _compile_compare,
    AttrCompare: _compile_attr_compare,
    IsNull: _compile_is_null,
    NotNull: _compile_not_null,
    Contains: _compile_contains,
    And: _compile_and,
    Or: _compile_or,
    Not: _compile_not,
}


def is_compilable(predicate: Predicate) -> bool:
    """True when every node of the tree is a known, exact predicate type."""
    compiler = _COMPILERS.get(type(predicate))
    if compiler is None:
        return False
    if type(predicate) in (And, Or):
        return all(is_compilable(part) for part in predicate.parts)
    if type(predicate) is Not:
        return is_compilable(predicate.inner)
    return True


def _compile(predicate: Predicate, schema: Schema) -> MaskFn:
    return _COMPILERS[type(predicate)](predicate, schema)


def compile_predicate(predicate: Predicate, schema: Schema) -> MaskFn | None:
    """Compile *predicate* against *schema* into a columnar mask function.

    Returns ``None`` when the tree holds an unknown predicate subclass: its
    overridden ``matches`` cannot be vectorized, so the evaluator calls it
    row by row. A built-in tree naming an attribute the schema lacks raises
    :class:`~repro.errors.UnknownAttributeError` here, at compile time.
    """
    if not is_compilable(predicate):
        return None
    return _compile(predicate, schema)
