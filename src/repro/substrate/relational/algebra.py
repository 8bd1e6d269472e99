"""Logical query plans.

Plans are immutable operator trees. The operator set matches what CopyCat's
integration learner emits (Section 4): scans of catalog sources, selections,
projections, equijoins (conjunction of all shared-attribute predicates),
*dependent joins* that feed attributes into a bound service (the Figure 2
Zipcode Resolver pattern), record-linking joins (approximate joins), unions
with null padding, and renames.

Each node has one schema rule, ``derive_schema(catalog, inputs)``: its
output schema from its children's. ``output_schema(catalog)`` applies the
rules bottom-up so the workspace and suggestion machinery can reason about
plans without executing them, and the evaluator applies the same rules as
it compiles. A rule that finds the plan malformed raises
:class:`~repro.errors.PlanAnalysisError` naming the node: ``PLAN001`` for
an unknown or wrong-kind source, ``PLAN002`` for an unknown attribute,
``PLAN003`` for a service input left unbound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ...analysis.diagnostics import ERROR, Diagnostic
from ...errors import CatalogError, EvaluationError, PlanAnalysisError, SchemaError
from .predicates import Predicate
from .rows import Row
from .schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .catalog import Catalog


def plan_error(plan: "Plan", code: str, message: str) -> PlanAnalysisError:
    """The compile-time error for *plan* failing check *code*."""
    diagnostic = Diagnostic(code, ERROR, message, operator=plan.describe())
    return PlanAnalysisError(diagnostic.render(), diagnostic)


def missing_attribute(
    plan: "Plan", name: str, schema: Schema, role: str
) -> PlanAnalysisError:
    """``PLAN002``: *role* in *plan* names *name*, which *schema* lacks."""
    return plan_error(
        plan, "PLAN002",
        f"{role} references unknown attribute {name!r} "
        f"(available: {', '.join(schema.names)})",
    )


def require_attributes(
    plan: "Plan", schema: Schema, names: Iterable[str], role: str
) -> None:
    """Raise ``PLAN002`` for the first of *names* that *schema* lacks."""
    for name in names:
        if name not in schema:
            raise missing_attribute(plan, name, schema, role)


class Plan:
    """Base class for logical plan nodes."""

    def output_schema(self, catalog: "Catalog") -> Schema:
        """The node's output schema, derived bottom-up."""
        inputs = [child.output_schema(catalog) for child in self.children()]
        return self.derive_schema(catalog, inputs)

    def derive_schema(self, catalog: "Catalog", inputs: Sequence[Schema]) -> Schema:
        """This node's output schema from its children's (*inputs*, in
        ``children()`` order); raises PlanAnalysisError on a malformed node."""
        raise NotImplementedError

    def children(self) -> tuple["Plan", ...]:
        return ()

    def sources(self) -> frozenset[str]:
        """Names of every base source/service mentioned in the plan."""
        out: set[str] = set()
        self._collect_sources(out)
        return frozenset(out)

    def _collect_sources(self, out: set[str]) -> None:
        for child in self.children():
            child._collect_sources(out)

    def describe(self) -> str:
        """One-line human-readable description (used in explanations)."""
        raise NotImplementedError

    def render(self, indent: int = 0) -> str:
        """Multi-line indented tree rendering."""
        lines = [" " * indent + self.describe()]
        for child in self.children():
            lines.append(child.render(indent + 2))
        return "\n".join(lines)


@dataclass(frozen=True)
class Scan(Plan):
    """Scan a named base relation from the catalog."""

    source: str

    def derive_schema(self, catalog: "Catalog", inputs: Sequence[Schema]) -> Schema:
        try:
            return catalog.relation(self.source).schema
        except CatalogError:
            if catalog.is_service(self.source):
                raise plan_error(
                    self, "PLAN001",
                    f"{self.source!r} is a service with binding restrictions; "
                    f"Scan reads base relations — use DependentJoin to invoke it",
                ) from None
            raise plan_error(
                self, "PLAN001",
                f"scan of unknown source {self.source!r} "
                f"(catalog has: {', '.join(catalog.source_names()) or 'nothing'})",
            ) from None

    def _collect_sources(self, out: set[str]) -> None:
        out.add(self.source)

    def describe(self) -> str:
        return f"Scan({self.source})"


@dataclass(frozen=True)
class Select(Plan):
    child: Plan
    predicate: Predicate

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def derive_schema(self, catalog: "Catalog", inputs: Sequence[Schema]) -> Schema:
        return inputs[0]

    def describe(self) -> str:
        return f"Select[{self.predicate}]"


@dataclass(frozen=True)
class Project(Plan):
    child: Plan
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def derive_schema(self, catalog: "Catalog", inputs: Sequence[Schema]) -> Schema:
        require_attributes(self, inputs[0], self.names, "projection")
        return inputs[0].project(self.names)

    def describe(self) -> str:
        return f"Project[{', '.join(self.names)}]"


@dataclass(frozen=True)
class Rename(Plan):
    child: Plan
    mapping: tuple[tuple[str, str], ...]  # (old, new) pairs

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(tuple(pair) for pair in self.mapping))

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def derive_schema(self, catalog: "Catalog", inputs: Sequence[Schema]) -> Schema:
        require_attributes(self, inputs[0], (old for old, _ in self.mapping), "rename")
        try:
            return inputs[0].rename(dict(self.mapping))
        except SchemaError as exc:
            raise plan_error(
                self, "PLAN002", f"rename produces an invalid schema: {exc}"
            ) from None

    def describe(self) -> str:
        pairs = ", ".join(f"{old}->{new}" for old, new in self.mapping)
        return f"Rename[{pairs}]"


@dataclass(frozen=True)
class Join(Plan):
    """Equijoin on the conjunction of ``conditions`` (left attr, right attr).

    The paper's default: "If sets of sources have multiple attributes in
    common, we restrict the queries to match on all the attributes (i.e., we
    take the conjunction of all possible join predicates)." (Section 4.1)
    """

    left: Plan
    right: Plan
    conditions: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "conditions", tuple(tuple(c) for c in self.conditions))
        if not self.conditions:
            raise EvaluationError("Join requires at least one equality condition")

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def derive_schema(self, catalog: "Catalog", inputs: Sequence[Schema]) -> Schema:
        left_schema, right_schema = inputs
        for left, right in self.conditions:
            if left not in left_schema:
                raise missing_attribute(self, left, left_schema, "join key (left side)")
            if right not in right_schema:
                raise missing_attribute(self, right, right_schema, "join key (right side)")
        right_join_attrs = {right for _, right in self.conditions}
        remaining = [
            attr for attr in right_schema if attr.name not in right_join_attrs
        ]
        return left_schema.concat(Schema(remaining), disambiguate=True)

    def describe(self) -> str:
        conds = " AND ".join(f"{l}={r}" for l, r in self.conditions)
        return f"Join[{conds}]"


@dataclass(frozen=True)
class DependentJoin(Plan):
    """Feed child attributes into a bound service; append its outputs.

    ``input_map`` maps each *service input* attribute to the child attribute
    providing its value — the directed arrows in the Figure 2 explanation
    pane ("The Street and City values are fed into the Zipcode Resolver").
    """

    child: Plan
    service: str
    input_map: tuple[tuple[str, str], ...]  # (service input, child attribute)

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_map", tuple(tuple(pair) for pair in self.input_map))

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def _collect_sources(self, out: set[str]) -> None:
        out.add(self.service)
        super()._collect_sources(out)

    def derive_schema(self, catalog: "Catalog", inputs: Sequence[Schema]) -> Schema:
        child_schema = inputs[0]
        try:
            service = catalog.service(self.service)
        except CatalogError:
            if self.service in catalog:
                raise plan_error(
                    self, "PLAN001",
                    f"{self.service!r} is a base relation, not a service; "
                    f"use Join/Scan instead of DependentJoin",
                ) from None
            raise plan_error(
                self, "PLAN001", f"dependent join on unknown service {self.service!r}"
            ) from None
        mapped_inputs = {service_input for service_input, _ in self.input_map}
        missing = [name for name in service.input_names if name not in mapped_inputs]
        if missing:
            raise plan_error(
                self, "PLAN003",
                f"binding pattern unsatisfied: service {self.service!r} requires "
                f"inputs {list(service.input_names)} but the input map leaves "
                f"{missing} unbound",
            )
        for service_input, child_attr in self.input_map:
            if child_attr not in child_schema:
                raise missing_attribute(
                    self, child_attr, child_schema,
                    f"binding of service input {service_input!r}",
                )
        outputs = [service.schema.attribute(name) for name in service.output_names]
        return child_schema.concat(Schema(outputs), disambiguate=True)

    def describe(self) -> str:
        binds = ", ".join(f"{svc}<-{attr}" for svc, attr in self.input_map)
        return f"DependentJoin[{self.service}; {binds}]"


@dataclass(frozen=True)
class RecordLinkJoin(Plan):
    """Approximate join: link left rows to best-matching right rows.

    ``linker`` scores a (left_row, right_row) pair; pairs scoring at or above
    ``threshold`` are linked. With ``best_only`` each left row keeps only its
    highest-scoring match (the Example 1 contact-matching behaviour).
    """

    left: Plan
    right: Plan
    linker: "RowLinker"
    threshold: float = 0.5
    best_only: bool = True

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def derive_schema(self, catalog: "Catalog", inputs: Sequence[Schema]) -> Schema:
        left_schema, right_schema = inputs
        return left_schema.concat(right_schema, disambiguate=True)

    def describe(self) -> str:
        mode = "best" if self.best_only else "all"
        return f"RecordLinkJoin[{self.linker.describe()}; >= {self.threshold}; {mode}]"


class RowLinker:
    """Interface for record-linking scorers used by :class:`RecordLinkJoin`."""

    def score(self, left: Row, right: Row) -> float:
        raise NotImplementedError

    def upper_bounds(self, left: Any, right_rows: Sequence[Any]) -> Sequence[float]:
        """Per right row, a value no less than ``score(left, row)``.

        :meth:`best_match` fully scores only the rows whose bound can
        still win. The default, ``+inf`` everywhere, bounds nothing: every
        row is scored, in order.
        """
        return [math.inf] * len(right_rows)

    def best_match(
        self, left: Any, right_rows: Sequence[Any], threshold: float = 0.0
    ) -> tuple[int, float] | None:
        """Index and score of *left*'s best right row, or None below *threshold*.

        The answer is the exhaustive scan's: the highest score, the
        earliest row among equal scores, None when that score is below
        *threshold*. Rows are visited by descending :meth:`upper_bounds`,
        ties by index, and the visit stops at the first row whose bound is
        below *threshold* or below the best score so far (or equal to it,
        from a later row): no row after it can change the answer.
        """
        bounds = self.upper_bounds(left, right_rows)
        best_j, best = -1, -math.inf
        for j in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True):
            bound = bounds[j]
            if bound < threshold or bound < best or (bound == best and j > best_j):
                break
            current = self.score(left, right_rows[j])
            if current > best or (current == best and j < best_j):
                best_j, best = j, current
        if best_j < 0 or best < threshold:
            return None
        return best_j, best

    def block_attribute_pairs(self) -> tuple[tuple[str, str], ...] | None:
        """(left attr, right attr) pairs usable as blocking keys, if any.

        When a linker compares known attribute pairs, the evaluator can
        route large record-link joins through token blocking
        (:func:`repro.linking.blocking.candidate_pairs`) instead of the
        full cross product. ``None`` (the default) means "not derivable":
        the join always scores every pair.
        """
        return None

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Union(Plan):
    """Union with null padding onto the merged (homogeneous) schema."""

    parts: tuple[Plan, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise EvaluationError("Union requires at least one input")

    def children(self) -> tuple[Plan, ...]:
        return self.parts

    def derive_schema(self, catalog: "Catalog", inputs: Sequence[Schema]) -> Schema:
        merged = inputs[0]
        for schema in inputs[1:]:
            merged = merged.merge_for_union(schema)
        return merged

    def describe(self) -> str:
        return f"Union[{len(self.parts)} inputs]"


@dataclass(frozen=True)
class Distinct(Plan):
    """Set semantics: merge duplicate rows, ⊕-combining their provenance."""

    child: Plan

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def derive_schema(self, catalog: "Catalog", inputs: Sequence[Schema]) -> Schema:
        return inputs[0]

    def describe(self) -> str:
        return "Distinct"


@dataclass(frozen=True)
class Limit(Plan):
    child: Plan
    count: int

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def derive_schema(self, catalog: "Catalog", inputs: Sequence[Schema]) -> Schema:
        return inputs[0]

    def describe(self) -> str:
        return f"Limit[{self.count}]"


def walk(plan: Plan) -> Iterable[Plan]:
    """Pre-order traversal of a plan tree."""
    yield plan
    for child in plan.children():
        yield from walk(child)
