"""Level-1 static analysis: semantic checks over the ``Plan`` algebra.

Given a plan plus the catalog (and, when available, the integration
learner's source graph), :class:`PlanAnalyzer` re-derives every operator's
output schema bottom-up and checks, *before anything executes*:

- **schema/arity soundness** — every attribute a ``Project``, ``Rename``,
  ``Select`` predicate, ``Join`` key, ``GroupBy`` key/aggregate, or
  dependent-join binding references actually exists at that point in the
  tree (``PLAN002``), and every scanned source / invoked service exists in
  the catalog with the right kind (``PLAN001``);
- **binding-pattern satisfiability** — a ``DependentJoin`` must bind every
  input its service's binding pattern (and its source-graph node, the
  paper's Section-4 binding restrictions) declares (``PLAN003``);
- **provenance soundness** — the set of leaves the analyzer visits must be
  exactly ``plan.sources()``; a node overriding ``_collect_sources``
  inconsistently would silently break explanation and trust feedback
  (``PLAN004``);
- **dispatch completeness** — nodes dispatch by class name, as in the
  evaluator; a node type with no ``_check_<name>`` method is reported
  (``PLAN005``), so new operators cannot slip past the analyzer;
- **resource warnings** — unblocked record-link joins whose estimated
  cross product exceeds ``ANALYSIS.max_link_pairs`` (``PLAN101``),
  over-wide unions (``PLAN102``), and degenerate parameters such as a
  link threshold that matches everything or a non-positive limit
  (``PLAN103``).

The analyzer never executes services or scans rows; row-count estimates
come from catalog relation sizes and are deliberately rough upper bounds
(warnings only). Errors are reserved for plans that are *wrong*, so every
plan the integration learner legitimately produces passes clean.

Schema inference is best-effort: when a subtree's schema cannot be
derived (unknown source, unknown node type), checks that would need it
are skipped instead of cascading false positives.
"""

from __future__ import annotations

from ..substrate.relational.aggregates import GroupBy
from ..substrate.relational.algebra import (
    DependentJoin,
    Distinct,
    Join,
    Limit,
    Plan,
    Project,
    RecordLinkJoin,
    Rename,
    Scan,
    Select,
    Union,
)
from ..substrate.relational.catalog import Catalog
from ..substrate.relational.predicates import (
    And,
    AttrCompare,
    Compare,
    Contains,
    IsNull,
    Not,
    NotNull,
    Or,
    Predicate,
)
from ..substrate.relational.schema import Schema, SchemaError
from .config import ANALYSIS
from .diagnostics import ERROR, WARNING, AnalysisReport, Diagnostic


def predicate_attributes(predicate: Predicate) -> frozenset[str]:
    """Every attribute name a predicate tree references.

    Unknown predicate subclasses contribute nothing (they cannot be
    introspected statically); the standard combinators recurse.
    """
    out: set[str] = set()
    _collect_predicate_attrs(predicate, out)
    return frozenset(out)


def _collect_predicate_attrs(predicate: Predicate, out: set[str]) -> None:
    if isinstance(predicate, (Compare, IsNull, NotNull, Contains)):
        out.add(predicate.attribute)
    elif isinstance(predicate, AttrCompare):
        out.add(predicate.left)
        out.add(predicate.right)
    elif isinstance(predicate, (And, Or)):
        for part in predicate.parts:
            _collect_predicate_attrs(part, out)
    elif isinstance(predicate, Not):
        _collect_predicate_attrs(predicate.inner, out)


class PlanAnalyzer:
    """Checks plans against a catalog (and optionally a source graph)."""

    def __init__(self, catalog: Catalog, graph=None):
        self.catalog = catalog
        #: the integration learner's :class:`SourceGraph`, when one exists;
        #: used to verify dependent joins against node binding patterns.
        self.graph = graph

    def check(self, plan: Plan) -> AnalysisReport:
        """Analyze *plan*; returns every diagnostic found (never raises)."""
        diags: list[Diagnostic] = []
        leaves: set[str] = set()
        self._infer(plan, diags, leaves)
        declared = set(plan.sources())
        for name in sorted(leaves - declared):
            diags.append(Diagnostic(
                "PLAN004", ERROR,
                f"leaf source {name!r} is not reported by sources(); "
                f"provenance and trust feedback over it would be unsound",
                operator=plan.describe(),
            ))
        for name in sorted(declared - leaves):
            diags.append(Diagnostic(
                "PLAN004", ERROR,
                f"sources() reports {name!r} but no leaf in the tree reads it",
                operator=plan.describe(),
            ))
        return AnalysisReport(tuple(diags))

    # -- traversal -----------------------------------------------------------
    def _infer(
        self, plan: Plan, diags: list[Diagnostic], leaves: set[str]
    ) -> Schema | None:
        """Bottom-up schema inference, appending diagnostics as it goes."""
        kind = type(plan).__name__
        checker = getattr(self, f"_check_{kind.lower()}", None)
        if checker is None:
            diags.append(Diagnostic(
                "PLAN005", ERROR,
                f"plan node type {kind!r} has no analyzer check "
                f"(repro.analysis.plan_analyzer)",
                operator=plan.describe(),
            ))
            for child in plan.children():
                self._infer(child, diags, leaves)
            return None
        return checker(plan, diags, leaves)

    def _missing_attr(
        self, plan: Plan, name: str, schema: Schema, role: str
    ) -> Diagnostic:
        return Diagnostic(
            "PLAN002", ERROR,
            f"{role} references unknown attribute {name!r} "
            f"(available: {', '.join(schema.names)})",
            operator=plan.describe(),
        )

    # -- row-count estimation (warnings only) --------------------------------
    def _estimate_rows(self, plan: Plan) -> int | None:
        """A rough upper bound on the node's output cardinality, if knowable."""
        if isinstance(plan, Scan):
            if plan.source in self.catalog and not self.catalog.is_service(plan.source):
                return len(self.catalog.relation(plan.source))
            return None
        if isinstance(plan, (Select, Project, Rename, Distinct)):
            return self._estimate_rows(plan.child)
        if isinstance(plan, Limit):
            child = self._estimate_rows(plan.child)
            bound = max(plan.count, 0)
            return bound if child is None else min(child, bound)
        if isinstance(plan, (DependentJoin, GroupBy)):
            return self._estimate_rows(plan.child)
        if isinstance(plan, Union):
            total = 0
            for part in plan.parts:
                estimate = self._estimate_rows(part)
                if estimate is None:
                    return None
                total += estimate
            return total
        if isinstance(plan, (Join, RecordLinkJoin)):
            left = self._estimate_rows(plan.left)
            right = self._estimate_rows(plan.right)
            if left is None or right is None:
                return None
            return left * right
        return None

    # -- per-operator checks --------------------------------------------------
    def _check_scan(self, plan: Scan, diags, leaves) -> Schema | None:
        leaves.add(plan.source)
        if plan.source not in self.catalog:
            diags.append(Diagnostic(
                "PLAN001", ERROR,
                f"scan of unknown source {plan.source!r} "
                f"(catalog has: {', '.join(self.catalog.source_names()) or 'nothing'})",
                operator=plan.describe(),
            ))
            return None
        if self.catalog.is_service(plan.source):
            diags.append(Diagnostic(
                "PLAN001", ERROR,
                f"{plan.source!r} is a service with binding restrictions; "
                f"Scan reads base relations — use DependentJoin to invoke it",
                operator=plan.describe(),
            ))
            return None
        return self.catalog.relation(plan.source).schema

    def _check_select(self, plan: Select, diags, leaves) -> Schema | None:
        schema = self._infer(plan.child, diags, leaves)
        if schema is not None:
            for name in sorted(predicate_attributes(plan.predicate)):
                if name not in schema:
                    diags.append(self._missing_attr(plan, name, schema, "selection predicate"))
        return schema

    def _check_project(self, plan: Project, diags, leaves) -> Schema | None:
        schema = self._infer(plan.child, diags, leaves)
        if schema is None:
            return None
        present = [name for name in plan.names if name in schema]
        for name in plan.names:
            if name not in schema:
                diags.append(self._missing_attr(plan, name, schema, "projection"))
        return schema.project(present)

    def _check_rename(self, plan: Rename, diags, leaves) -> Schema | None:
        schema = self._infer(plan.child, diags, leaves)
        if schema is None:
            return None
        mapping = {}
        for old, new in plan.mapping:
            if old not in schema:
                diags.append(self._missing_attr(plan, old, schema, "rename"))
            else:
                mapping[old] = new
        try:
            return schema.rename(mapping)
        except SchemaError as exc:
            diags.append(Diagnostic(
                "PLAN002", ERROR,
                f"rename produces an invalid schema: {exc}",
                operator=plan.describe(),
            ))
            return None

    def _check_join(self, plan: Join, diags, leaves) -> Schema | None:
        left = self._infer(plan.left, diags, leaves)
        right = self._infer(plan.right, diags, leaves)
        for left_attr, right_attr in plan.conditions:
            if left is not None and left_attr not in left:
                diags.append(self._missing_attr(plan, left_attr, left, "join key (left side)"))
            if right is not None and right_attr not in right:
                diags.append(self._missing_attr(plan, right_attr, right, "join key (right side)"))
        if left is None or right is None:
            return None
        right_join_attrs = {r for _, r in plan.conditions}
        remaining = [attr for attr in right if attr.name not in right_join_attrs]
        return left.concat(Schema(remaining), disambiguate=True)

    def _check_dependentjoin(self, plan: DependentJoin, diags, leaves) -> Schema | None:
        schema = self._infer(plan.child, diags, leaves)
        leaves.add(plan.service)
        if plan.service not in self.catalog:
            diags.append(Diagnostic(
                "PLAN001", ERROR,
                f"dependent join on unknown service {plan.service!r}",
                operator=plan.describe(),
            ))
            return None
        if not self.catalog.is_service(plan.service):
            diags.append(Diagnostic(
                "PLAN001", ERROR,
                f"{plan.service!r} is a base relation, not a service; "
                f"use Join/Scan instead of DependentJoin",
                operator=plan.describe(),
            ))
            return None
        service = self.catalog.service(plan.service)
        mapped = {service_input for service_input, _ in plan.input_map}
        missing = [name for name in service.input_names if name not in mapped]
        if missing:
            diags.append(Diagnostic(
                "PLAN003", ERROR,
                f"binding pattern unsatisfied: service {plan.service!r} "
                f"requires inputs {list(service.input_names)} but "
                f"{missing} are never bound by the input map",
                operator=plan.describe(),
            ))
        for extra in sorted(mapped - set(service.input_names)):
            diags.append(Diagnostic(
                "PLAN003", WARNING,
                f"input map binds {extra!r}, which is not an input of "
                f"service {plan.service!r} (inputs: {list(service.input_names)})",
                operator=plan.describe(),
            ))
        if schema is not None:
            for service_input, child_attr in plan.input_map:
                if child_attr not in schema:
                    diags.append(self._missing_attr(
                        plan, child_attr, schema,
                        f"binding of service input {service_input!r}",
                    ))
        # The source graph carries the paper's binding restrictions too;
        # when the learner's graph knows this service, cross-check it (the
        # catalog and graph can drift apart only through a bug).
        if self.graph is not None and self.graph.has_node(plan.service):
            node = self.graph.node(plan.service)
            graph_missing = [name for name in node.inputs if name not in mapped]
            if graph_missing:
                diags.append(Diagnostic(
                    "PLAN003", ERROR,
                    f"source-graph node {plan.service!r} declares inputs "
                    f"{list(node.inputs)}; {graph_missing} are never bound",
                    operator=plan.describe(),
                ))
        if schema is None:
            return None
        outputs = [service.schema.attribute(name) for name in service.output_names]
        return schema.concat(Schema(outputs), disambiguate=True)

    def _check_recordlinkjoin(self, plan: RecordLinkJoin, diags, leaves) -> Schema | None:
        left = self._infer(plan.left, diags, leaves)
        right = self._infer(plan.right, diags, leaves)
        if plan.threshold <= 0.0:
            diags.append(Diagnostic(
                "PLAN103", WARNING,
                f"link threshold {plan.threshold:g} accepts every pair; "
                f"the join degenerates to a cross product",
                operator=plan.describe(),
            ))
        try:
            block_pairs = plan.linker.block_attribute_pairs()
        except Exception:  # lint: allow=REPRO003 -- defensive: linker is user code
            block_pairs = None
        if block_pairs:
            for left_attr, right_attr in block_pairs:
                if left is not None and left_attr not in left:
                    diags.append(Diagnostic(
                        "PLAN002", WARNING,
                        f"blocking key {left_attr!r} missing from the left "
                        f"input (available: {', '.join(left.names)})",
                        operator=plan.describe(),
                    ))
                if right is not None and right_attr not in right:
                    diags.append(Diagnostic(
                        "PLAN002", WARNING,
                        f"blocking key {right_attr!r} missing from the right "
                        f"input (available: {', '.join(right.names)})",
                        operator=plan.describe(),
                    ))
        else:
            left_rows = self._estimate_rows(plan.left)
            right_rows = self._estimate_rows(plan.right)
            if (
                left_rows is not None
                and right_rows is not None
                and left_rows * right_rows > ANALYSIS.max_link_pairs
            ):
                diags.append(Diagnostic(
                    "PLAN101", WARNING,
                    f"record-link join scores every pair (~{left_rows}x"
                    f"{right_rows} = {left_rows * right_rows} comparisons, "
                    f"over the {ANALYSIS.max_link_pairs} limit) and the "
                    f"linker derives no blocking keys",
                    operator=plan.describe(),
                ))
        if left is None or right is None:
            return None
        return left.concat(right, disambiguate=True)

    def _check_union(self, plan: Union, diags, leaves) -> Schema | None:
        if len(plan.parts) > ANALYSIS.max_union_parts:
            diags.append(Diagnostic(
                "PLAN102", WARNING,
                f"union of {len(plan.parts)} inputs (over the "
                f"{ANALYSIS.max_union_parts} limit); consider bounding the "
                f"candidate set before unioning",
                operator=plan.describe(),
            ))
        merged: Schema | None = None
        complete = True
        for part in plan.parts:
            schema = self._infer(part, diags, leaves)
            if schema is None:
                complete = False
            elif merged is None:
                merged = schema
            else:
                merged = merged.merge_for_union(schema)
        return merged if complete else None

    def _check_distinct(self, plan: Distinct, diags, leaves) -> Schema | None:
        return self._infer(plan.child, diags, leaves)

    def _check_limit(self, plan: Limit, diags, leaves) -> Schema | None:
        if plan.count <= 0:
            diags.append(Diagnostic(
                "PLAN103", WARNING,
                f"limit of {plan.count} rows produces an empty result",
                operator=plan.describe(),
            ))
        return self._infer(plan.child, diags, leaves)

    def _check_groupby(self, plan: GroupBy, diags, leaves) -> Schema | None:
        schema = self._infer(plan.child, diags, leaves)
        if schema is None:
            return None
        ok = True
        for key in plan.keys:
            if key not in schema:
                diags.append(self._missing_attr(plan, key, schema, "grouping key"))
                ok = False
        for spec in plan.aggregates:
            if spec.attribute not in schema:
                diags.append(self._missing_attr(
                    plan, spec.attribute, schema, f"aggregate {spec.fn}()"
                ))
                ok = False
        if not ok:
            return None
        try:
            return plan.output_schema(self.catalog)
        except Exception:  # lint: allow=REPRO003 -- child schema re-derivation may differ
            return None
