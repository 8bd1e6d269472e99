"""The CopyCat session: the SCP control loop.

Wires every component of Figure 3 together — clipboard/wrappers feed the
three learners, the auto-complete generator proposes rows/columns/types, the
query engine executes with provenance, the workspace displays, and user
feedback flows back to the learners.

Typical import-mode flow (Figure 1)::

    session = CopyCatSession()
    browser = Browser(session.clipboard, site)
    browser.navigate(url)
    browser.copy_record(first_row, "Shelters")
    outcome = session.paste()          # rows generalize, types suggested
    session.accept_row_suggestions()
    session.label_column(0, "Name")
    session.commit_source()            # Shelters enters the catalog

Integration-mode flow (Figure 2)::

    session.start_integration("Shelters")
    suggestions = session.column_suggestions()
    session.preview_column(0)          # Zip column appears highlighted
    print(session.explain(0).render()) # tuple explanation pane
    session.accept_column()            # feedback -> MIRA
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..cache.tiers import CacheTiers
from ..drift import (
    QuarantineLog,
    WrapperRecord,
    add_provenance_note,
    apply_wrapper,
    note_drift_event,
    note_resync,
    quarantine_source_in_catalog,
    record_wrapper,
    refetch_event,
    reinduce_wrapper,
    release_source_in_catalog,
    validate_row,
    verify_extraction,
)
from ..durability.recorder import SessionRecorder, recorded
from ..errors import FeedbackError, NoHypothesisError, WorkspaceError
from ..obs import METRICS, TRACER
from ..learning.integration.learner import IntegrationLearner
from ..learning.integration.queries import IntegrationQuery
from ..learning.integration.source_graph import Association, SourceGraph
from ..learning.model.seed import BUILTIN_TYPES_SEED, seed_type_learner
from ..learning.model.type_learner import SemanticTypeLearner
from ..learning.structure.learner import StructureLearner
from ..learning.transforms import Transform, TransformLearner
from ..linking.linker import LearnedLinker, LinkExample
from ..linking.similarity import FieldPair
from ..provenance.explain import Explanation
from ..server.overload import LEVEL_DEGRADED, LEVEL_NORMAL
from ..substrate.documents.clipboard import Clipboard, CopyEvent
from ..substrate.relational.catalog import Catalog, SourceMetadata
from ..substrate.relational.relation import Relation
from ..substrate.relational.schema import ANY, Attribute, Schema, SemanticType
from .autocomplete import AutoCompleteGenerator
from .engine import QueryEngine
from .suggestions import ColumnSuggestion, QuerySuggestion, RowSuggestion, TypeSuggestion
from .workspace import CellState, Workspace


@dataclass
class PasteOutcome:
    """What one paste produced: rows added, and the system's suggestions."""

    tab: str
    pasted_rows: list[int]
    row_suggestion: RowSuggestion | None
    type_suggestions: list[TypeSuggestion]

    @property
    def n_suggested_rows(self) -> int:
        """How many rows the system proposed beyond the user's paste."""
        return len(self.row_suggestion.rows) if self.row_suggestion else 0


@dataclass(frozen=True)
class ResyncReport:
    """What one :meth:`CopyCatSession.resync_source` call did.

    ``action`` is one of ``"clean"`` (wrapper still fits), ``"reinduced"``
    (drift detected, wrapper healed from the stored examples),
    ``"quarantined"`` (drift unrecoverable: last-known-good rows kept,
    source degraded).
    """

    source: str
    action: str
    rows_committed: int
    rows_quarantined: int
    reasons: tuple[str, ...] = ()

    @property
    def healed(self) -> bool:
        return self.action == "reinduced"


def linker_for(
    linkers: dict[str, LearnedLinker],
    edges: dict[str, Association],
    edge: Association,
) -> LearnedLinker:
    """The linker *linkers* keeps for *edge*, made and recorded on first use."""
    if edge.key not in linkers:
        pairs = [FieldPair(left, right) for left, right in edge.conditions]
        linkers[edge.key] = LearnedLinker(pairs)
        edges[edge.key] = edge
    return linkers[edge.key]


class CopyCatSession:
    """One interactive smart-copy-and-paste session.

    Without a *type_learner* the session starts from the process's
    built-in types (:func:`~repro.learning.model.seed.builtin_types`),
    shared by every session. *seed* no longer selects them: it is accepted
    for existing callers and selects nothing in the session.

    *base_graph* is the source graph of the catalog *catalog* was forked
    from (:meth:`~repro.server.base.SharedBase.source_graph`); the session
    starts from a copy of it and discovers only its private sources' pairs.
    """

    OUTPUT_TAB = "Integration"

    def __init__(
        self,
        catalog: Catalog | None = None,
        clipboard: Clipboard | None = None,
        type_learner: SemanticTypeLearner | None = None,
        structure_learner: StructureLearner | None = None,
        seed: int = 0,
        relevance_threshold: float = 2.0,
        use_semantic_types: bool = True,
        cache_tiers: "CacheTiers | None" = None,
        base_graph: SourceGraph | None = None,
    ):
        self.catalog = catalog or Catalog()
        self.clipboard = clipboard or Clipboard()
        self.type_learner = type_learner or seed_type_learner(seed=BUILTIN_TYPES_SEED)
        self.structure_learner = structure_learner or StructureLearner(
            type_learner=self.type_learner
        )
        self._linkers: dict[str, LearnedLinker] = {}
        self._linker_edges: dict[str, Association] = {}
        self.integration_learner = IntegrationLearner(
            self.catalog,
            relevance_threshold=relevance_threshold,
            use_semantic_types=use_semantic_types,
            base_graph=base_graph,
        )
        self._bind_linker_factory()
        # cache_tiers: the session server passes one shared bundle so every
        # tenant's evaluator amortizes the fleet's plan, compile and scan
        # work; standalone sessions keep private tiers (the default).
        self.engine = QueryEngine(self.catalog, cache_tiers)
        self.autocomplete = AutoCompleteGenerator(
            self.engine,
            self.structure_learner,
            self.type_learner,
            self.integration_learner,
        )
        self.workspace = Workspace()

        self._events: dict[str, CopyEvent] = {}
        self._generalizations: dict[str, Any] = {}
        self._query: IntegrationQuery | None = None
        self._column_suggestions: list[ColumnSuggestion] = []
        self._suggestion_signature: Any = None  # state the standing batch reflects
        self._previewed: int | None = None  # index into _column_suggestions
        self._row_provenance: list[Any] = []  # per output-tab row
        self.cleaning_mode: bool = False
        self._views: dict[str, IntegrationQuery] = {}
        self._edit_history: dict[tuple[str, int], list[tuple[dict[str, Any], Any]]] = {}
        self.transform_learner = TransformLearner()
        # Drift layer: per-source wrapper records (for re-application and
        # self-healing re-induction) and the quarantine ledger.
        self.quarantine = QuarantineLog()
        self._wrappers: dict[str, WrapperRecord] = {}
        # Durability layer: when a recorder is attached (repro.durability),
        # every @recorded action below is written ahead to the tenant's
        # action log; None (the default) is the pure in-memory session.
        self.durability: SessionRecorder | None = None
        # Overload layer: the server's load controller moves sessions between
        # "normal" and "degraded" (brownout) service via set_service_level.
        self.service_level: str = LEVEL_NORMAL

    # ------------------------------------------------------------------ linkers
    def _bind_linker_factory(self) -> None:
        """Make the integration learner's linkers this session's linkers.

        Not the bound method :meth:`_linker_for`: the learner would then
        hold the session, and a dropped session would wait for the cyclic
        collector instead of being freed when its last reference goes.
        """
        self.integration_learner.linker_factory = partial(
            linker_for, self._linkers, self._linker_edges
        )

    def _linker_for(self, edge: Association) -> LearnedLinker:
        """One persistent learnable linker per (oriented) record-link edge.

        Checkpoints written while this bound method was the integration
        learner's factory load it back by name, so it stays (the load then
        rebinds the factory through :meth:`_bind_linker_factory`).
        """
        return linker_for(self._linkers, self._linker_edges, edge)

    # ================================================================ import mode
    @recorded
    def paste(self, event: CopyEvent | None = None, tab: str | None = None) -> PasteOutcome:
        """Paste the clipboard into the workspace and auto-complete.

        Adds the copied fields as user rows, replaces any standing row
        suggestions with a fresh generalization, and proposes column types.
        """
        event = event or self.clipboard.current()
        with TRACER.span("session.paste") as span, METRICS.timer("session.paste_ms"):
            self.workspace.checkpoint()
            tab_name = tab or event.context.source_name
            if not self.workspace.has_tab(tab_name):
                self.workspace.new_tab(tab_name)
            table = self.workspace.switch_to(tab_name)
            self._events[tab_name] = event

            pasted = table.append_rows(event.fields, state=CellState.USER)

            # Ignoring standing suggestions and pasting more data *is* feedback:
            # drop them and re-generalize from all committed rows.
            table.reject_rows()
            examples = table.committed_rows()
            examples = [[str(v) for v in row] for row in examples]
            with TRACER.span("session.paste.generalize"):
                suggestion = self.autocomplete.row_suggestions(event, examples)
            if suggestion is not None:
                self._generalizations[tab_name] = suggestion.generalization
                if suggestion.rows:
                    # Row-level verification of the generalized rows: junk
                    # the wrapper swept up is quarantined, never suggested.
                    arity = len(examples[0]) if examples else len(suggestion.rows[0])
                    kept = []
                    for index, row in enumerate(suggestion.rows):
                        reason = validate_row(row, arity)
                        if reason is None:
                            kept.append(row)
                        else:
                            self.quarantine.add_row(
                                tab_name, row, reason, f"{tab_name}[paste:{index}]"
                            )
                            METRICS.inc("drift.rows_quarantined")
                    suggestion.rows = kept
                table.append_rows(suggestion.rows, state=CellState.SUGGESTED)

            with TRACER.span("session.paste.suggest_types"):
                type_suggestions = self._suggest_types(tab_name)
            if span.is_recording():
                span.set("tab", tab_name)
                span.set("pasted_rows", len(pasted))
                span.set("suggested_rows", len(suggestion.rows) if suggestion else 0)
            METRICS.inc("session.pastes")
            return PasteOutcome(
                tab=tab_name,
                pasted_rows=pasted,
                row_suggestion=suggestion,
                type_suggestions=type_suggestions,
            )

    def _suggest_types(self, tab_name: str) -> list[TypeSuggestion]:
        table = self.workspace.tab(tab_name)
        columns = [table.column_values(c) for c in range(table.n_cols)]
        suggestions = self.autocomplete.type_suggestions(columns)
        for suggestion in suggestions:
            column = table.columns[suggestion.column_index]
            if column.state == CellState.USER and column.semantic_type.name != ANY.name:
                continue  # the user already chose; do not override
            if suggestion.best is not None:
                table.set_column_type(
                    suggestion.column_index,
                    suggestion.best.semantic_type,
                    alternatives=suggestion.alternatives(),
                    suggested=True,
                )
        return suggestions

    @recorded
    def accept_row_suggestions(self, tab: str | None = None, indices: Sequence[int] | None = None) -> int:
        """Accept the standing suggested rows (all by default); returns count."""
        self.workspace.checkpoint()
        table = self.workspace.tab(tab or self._current_tab())
        count = table.accept_rows(indices)
        return count

    @recorded
    def reject_row_suggestions(self, tab: str | None = None) -> RowSuggestion | None:
        """Reject the standing row suggestions: try the next hypothesis.

        Section 3.1: "If the user rejects the suggestions, the system will
        choose another hypothesis and revise the suggestions."
        """
        tab_name = tab or self._current_tab()
        table = self.workspace.tab(tab_name)
        table.reject_rows()
        generalization = self._generalizations.get(tab_name)
        if generalization is None:
            return None
        try:
            generalization.reject_current()
        except NoHypothesisError:
            return None
        suggestion = RowSuggestion(
            source_name=tab_name,
            rows=generalization.suggested_rows(),
            generalization=generalization,
        )
        table.append_rows(suggestion.rows, state=CellState.SUGGESTED)
        return suggestion

    @recorded
    def label_column(self, col: int, name: str, tab: str | None = None) -> None:
        """User renames a column header (Figure 1's manual 'Name' label)."""
        table = self.workspace.tab(tab or self._current_tab())
        table.set_column_label(col, name)

    @recorded
    def set_column_type(
        self, col: int, semantic_type: SemanticType | str, tab: str | None = None,
        learn_from_values: bool = True,
    ) -> None:
        """User fixes a column's semantic type; new names define new types.

        Section 3.2: "If this is a new type of data ... the user can define
        this new type on the fly" and the model learner "will then use the
        data available in the source to learn to recognize this new type".
        """
        table = self.workspace.tab(tab or self._current_tab())
        values = [v for v in table.column_values(col) if v is not None]
        if isinstance(semantic_type, str):
            learned = self.type_learner.learn(semantic_type, values)
            semantic_type = learned.semantic_type
        elif learn_from_values and values:
            self.type_learner.learn(semantic_type, values)
        table.set_column_type(col, semantic_type, suggested=False)

    @recorded
    def commit_source(self, tab: str | None = None, name: str | None = None) -> Relation:
        """Promote a tab to a catalog source (its description is now known)."""
        tab_name = tab or self._current_tab()
        METRICS.inc("session.sources_committed")
        table = self.workspace.tab(tab_name)
        source_name = name or tab_name
        schema = Schema(
            [Attribute(column.name, column.semantic_type) for column in table.columns]
        )
        relation = Relation(source_name, schema)
        rows = []
        for index, row in enumerate(table.committed_rows()):
            reason = validate_row(row, len(table.columns))
            if reason is None:
                rows.append(row)
                relation.add(row)
            else:
                self.quarantine.add_row(source_name, row, reason, f"{source_name}[{index}]")
                METRICS.inc("drift.rows_quarantined")
        event = self._events.get(tab_name)
        metadata = SourceMetadata(
            origin="paste", url=event.context.url if event else None
        )
        self.catalog.add_relation(relation, metadata, replace=True)
        generalization = self._generalizations.get(tab_name)
        if event is not None and generalization is not None and generalization.hypotheses:
            # Snapshot the induced wrapper — hypothesis descriptor, user
            # examples, per-column type signatures — for later verification
            # and self-healing re-induction (see resync_source).
            self._wrappers[source_name] = record_wrapper(
                source_name,
                event,
                generalization.best,
                generalization.examples,
                rows,
            )
        self.integration_learner.refresh()
        return relation

    # ============================================================== drift resync
    @recorded
    def resync_source(self, name: str) -> ResyncReport:
        """Re-extract a committed source from its live document.

        The recorded wrapper is re-applied and the extraction verified
        against the induction-time hypothesis (arity, record-count sanity,
        example coverage, per-column token-pattern distributions). On drift
        the wrapper is re-induced from the stored user examples — anchored
        by value, not position — and swapped in place; unrecoverable drift
        quarantines the source wholesale while its last-known-good rows keep
        serving, rank-penalized. Every outcome that changes what queries can
        answer bumps ``Catalog.version`` so plan/result caches invalidate.
        """
        record = self._wrappers.get(name)
        if record is None:
            raise FeedbackError(
                f"no wrapper recorded for source {name!r}: it was never committed from a paste"
            )
        with TRACER.span("session.resync_source") as span, METRICS.timer(
            "session.resync_ms"
        ):
            event = refetch_event(record)
            METRICS.inc("drift.resyncs")
            note_resync(self.catalog, name)
            structural_reason: str | None = None
            rows = None
            try:
                rows = apply_wrapper(self.structure_learner, record, event)
            except NoHypothesisError as exc:
                structural_reason = str(exc)

            if rows is not None:
                METRICS.inc("drift.verifications")
                report = verify_extraction(record.snapshot, rows)
                if not report.drifted:
                    committed, quarantined = self._commit_resync(name, report)
                    self._lift_quarantine(name)
                    METRICS.inc("drift.resyncs_clean")
                    if span.is_recording():
                        span.set("source", name)
                        span.set("action", "clean")
                    return ResyncReport(name, "clean", committed, quarantined)
                reasons = report.reasons
            else:
                reasons = (structural_reason,)

            # Drift detected: heal by re-inducing from the stored examples.
            METRICS.inc("drift.detected")
            note_drift_event(self.catalog, name)
            try:
                healed, healed_report = reinduce_wrapper(
                    self.structure_learner, record, event
                )
            except NoHypothesisError as exc:
                self.quarantine.quarantine_source(name, str(exc))
                quarantine_source_in_catalog(self.catalog, name, str(exc))
                self.integration_learner.refresh()
                METRICS.inc("drift.sources_quarantined")
                if span.is_recording():
                    span.set("source", name)
                    span.set("action", "quarantined")
                return ResyncReport(
                    name, "quarantined", 0, 0, tuple(reasons) + (str(exc),)
                )

            self._wrappers[name] = healed
            committed, quarantined = self._commit_resync(name, healed_report)
            add_provenance_note(self.catalog, name, f"reinduced:{name}")
            self._lift_quarantine(name)
            METRICS.inc("drift.reinduced")
            if span.is_recording():
                span.set("source", name)
                span.set("action", "reinduced")
                span.set("reasons", list(reasons))
            return ResyncReport(name, "reinduced", committed, quarantined, tuple(reasons))

    def _commit_resync(self, name: str, report) -> tuple[int, int]:
        """Commit a verified extraction: valid rows in, violations held out."""
        relation = Relation(name, self.catalog.relation(name).schema)
        for row in report.valid_rows:
            relation.add(list(row))
        self.quarantine.clear_rows(name)
        for violation in report.violations:
            self.quarantine.add_row(
                name, violation.row, violation.reason, f"{name}[{violation.index}]"
            )
        if report.violations:
            METRICS.inc("drift.rows_quarantined", len(report.violations))
        # Keep the metadata object (drift notes, trust) across the replace —
        # add_relation(replace=True) bumps Catalog.version, so fingerprint
        # caches can never serve rows from the superseded wrapper.
        self.catalog.add_relation(relation, self.catalog.metadata(name), replace=True)
        self.integration_learner.refresh()
        return len(relation), len(report.violations)

    def _lift_quarantine(self, name: str) -> None:
        if self.quarantine.is_quarantined(name):
            self.quarantine.release_source(name)
        release_source_in_catalog(self.catalog, name)

    # ============================================================ integration mode
    @recorded
    def start_integration(self, source: str, tab: str | None = None) -> str:
        """Open the integration output tab seeded with one source's rows."""
        self.workspace.enter_integration_mode()
        tab_name = tab or self.OUTPUT_TAB
        if self.workspace.has_tab(tab_name):
            raise WorkspaceError(f"integration tab {tab_name!r} already exists")
        table = self.workspace.new_tab(tab_name)
        self._query = self.integration_learner.base_query(source)
        result = self.engine.run(self._query.plan)
        schema = result.schema
        for attribute in schema:
            table.ensure_columns(table.n_cols + 1)
            table.set_column_label(table.n_cols - 1, attribute.name)
            table.set_column_type(table.n_cols - 1, attribute.semantic_type)
        self._row_provenance = []
        for row, prov in result.rows:
            table.append_row(list(row.values), state=CellState.USER)
            self._row_provenance.append(prov)
        self._column_suggestions = []
        self._previewed = None
        return tab_name

    @property
    def current_query(self) -> IntegrationQuery:
        """The integration query behind the output tab."""
        if self._query is None:
            raise FeedbackError("not in integration mode: call start_integration first")
        return self._query

    @recorded
    def set_service_level(self, level: str = LEVEL_NORMAL) -> str:
        """Move the session between full and degraded (brownout) service.

        Called by the server's load controller from inside the tenant's
        serialized request stream; recorded like any other action so a
        crash-replayed session passes through the same brownout windows and
        reconverges bit-for-bit. Degraded sessions reuse standing suggestion
        batches and skip dependent-join service consultations (partial,
        rank-penalized answers via the resilience degradation path).
        """
        if level not in (LEVEL_NORMAL, LEVEL_DEGRADED):
            raise FeedbackError(f"unknown service level {level!r}")
        self.service_level = level
        self.engine.set_service_level(level)
        return level

    @recorded
    def column_suggestions(
        self, k: int = 5, refresh: bool | None = None
    ) -> list[ColumnSuggestion]:
        """Ranked, executed column auto-completions for the output tab.

        With ``refresh=None`` (the default) the standing batch is reused as
        long as nothing it depends on has changed — the catalog version
        (sources, trust, link feedback), the current query, the learned
        edge weights and the health and drift penalties, the committed
        workspace rows, and ``k`` together form a signature; any feedback
        action perturbs it and forces a recompute. ``refresh=True`` forces one unconditionally,
        ``refresh=False`` reuses whatever batch is standing.
        """
        # Operational trust feedback: rebuild the graph's health penalties
        # from observed service failure rates *before* computing the
        # signature, so newly degraded health both perturbs the signature
        # (forcing a recompute) and sinks chronically failing services in
        # ranking.
        self.integration_learner.absorb_service_health()
        # Same for extraction-side trust: drift history and quarantine
        # become drift penalties before the signature is computed.
        self.integration_learner.absorb_drift_events()
        if (
            self.service_level != LEVEL_NORMAL
            and refresh is not True
            and self._column_suggestions
        ):
            # Brownout: serve the standing batch even if its signature is
            # stale — a slightly outdated suggestion beats a recompute that
            # deepens the overload. refresh=True still forces one.
            if METRICS.enabled:
                METRICS.inc("overload.brownout_reuse")
            METRICS.inc("session.suggestions_reused")
            return self._column_suggestions
        signature = self._suggestions_signature(k)
        if refresh is None:
            refresh = not (
                self._column_suggestions and signature == self._suggestion_signature
            )
            if not refresh:
                METRICS.inc("session.suggestions_reused")
        if refresh or not self._column_suggestions:
            with TRACER.span("session.column_suggestions") as span, METRICS.timer(
                "session.column_suggestions_ms"
            ):
                table = self.workspace.tab(self.OUTPUT_TAB)
                rows = table.as_dicts(committed_only=True)
                self._column_suggestions = self.autocomplete.column_suggestions(
                    self.current_query, rows, k=k
                )
                if span.is_recording():
                    span.set("k", k)
                    span.set("suggestions", len(self._column_suggestions))
            METRICS.inc("session.suggestion_batches")
            METRICS.inc("session.suggestions_produced", len(self._column_suggestions))
            self._suggestion_signature = signature
            self._previewed = None
        return self._column_suggestions

    def _suggestions_signature(self, k: int) -> tuple:
        """Everything a suggestion batch depends on, comparable with ``==``."""
        query = self.current_query
        table = self.workspace.tab(self.OUTPUT_TAB)
        graph = self.integration_learner.graph
        return (
            self.catalog.version,
            query.root,
            tuple(edge.key for edge in query.edges),
            k,
            table.as_dicts(committed_only=True),
            dict(graph.weights),
            dict(graph.health),
            dict(graph.drift),
            self.integration_learner.relevance_threshold,
        )

    @recorded
    def preview_column(self, index: int = 0) -> ColumnSuggestion:
        """Show one suggestion in the table (highlighted, like Figure 2)."""
        suggestions = self._column_suggestions or self.column_suggestions()
        if not 0 <= index < len(suggestions):
            raise FeedbackError(f"no column suggestion #{index}")
        self._clear_preview()
        suggestion = suggestions[index]
        table = self.workspace.tab(self.OUTPUT_TAB)
        for position, attr_name in enumerate(suggestion.attribute_names):
            table.add_suggested_column(
                attr_name,
                [value[position] for value in suggestion.values],
                semantic_type=suggestion.semantic_types[position],
                provenances=suggestion.provenances,
            )
        self._previewed = index
        return suggestion

    def cell_alternatives(self, row: int) -> list[tuple[Any, ...]]:
        """Alternative values for the previewed suggestion at *row*.

        Example 1: "the shelter name may be ambiguous and might return
        multiple answers: here CopyCat would show the alternatives and allow
        the integrator to select the appropriate location."
        """
        if self._previewed is None:
            raise FeedbackError("no column suggestion is previewed")
        suggestion = self._column_suggestions[self._previewed]
        if not 0 <= row < len(suggestion.alternatives):
            raise FeedbackError(f"no row {row} in the previewed suggestion")
        return list(suggestion.alternatives[row])

    @recorded
    def choose_alternative(self, row: int, choice: int) -> tuple[Any, ...]:
        """Replace the previewed suggestion's value at *row* with an
        alternative the user picked from the ambiguity dropdown."""
        alternatives = self.cell_alternatives(row)
        if not 0 <= choice < len(alternatives):
            raise FeedbackError(
                f"row {row} has {len(alternatives)} alternatives; no #{choice}"
            )
        suggestion = self._column_suggestions[self._previewed]
        chosen = alternatives[choice]
        table = self.workspace.tab(self.OUTPUT_TAB)
        start = table.n_cols - len(suggestion.attribute_names)
        for offset, value in enumerate(chosen):
            table.set_cell(row, start + offset, value, state=CellState.SUGGESTED)
        # Record the user's disambiguation so the suggestion's committed
        # values reflect it if accepted.
        new_values = list(suggestion.values)
        previous = new_values[row]
        new_values[row] = chosen
        suggestion.values = new_values
        remaining = [alt for alt in suggestion.alternatives[row] if alt != chosen]
        suggestion.alternatives[row] = remaining + [previous]
        return chosen

    def _clear_preview(self) -> None:
        table = self.workspace.tab(self.OUTPUT_TAB)
        while any(column.state == CellState.SUGGESTED for column in table.columns):
            for position, column in enumerate(table.columns):
                if column.state == CellState.SUGGESTED:
                    table.reject_column(position)
                    break
        self._previewed = None

    @recorded
    def accept_column(self, index: int | None = None) -> ColumnSuggestion:
        """Accept a column suggestion: workspace commit + MIRA feedback."""
        suggestions = self._column_suggestions or self.column_suggestions()
        if index is None:
            index = self._previewed if self._previewed is not None else 0
        if not 0 <= index < len(suggestions):
            raise FeedbackError(f"no column suggestion #{index}")
        if self._previewed != index:
            self.preview_column(index)
        suggestion = suggestions[index]
        table = self.workspace.tab(self.OUTPUT_TAB)
        for position, column in reversed(list(enumerate(table.columns))):
            if column.state == CellState.SUGGESTED:
                table.accept_column(position)
        # Feedback: accepted suggestion outranks every alternative shown.
        with TRACER.span("session.accept_column.feedback"):
            self.integration_learner.accept_query(
                suggestion.query, [s.query for s in suggestions if s is not suggestion]
            )
        METRICS.inc("session.columns_accepted")
        # Row provenance now includes the new column's derivations.
        for i, prov in enumerate(suggestion.provenances):
            if prov is not None and i < len(self._row_provenance):
                self._row_provenance[i] = prov
        self._query = suggestion.query
        self._column_suggestions = []
        self._previewed = None
        return suggestion

    @recorded
    def reject_column(self, index: int | None = None) -> None:
        """Reject a suggestion: remove it and demote its query below threshold."""
        suggestions = self._column_suggestions or self.column_suggestions()
        if index is None:
            index = self._previewed if self._previewed is not None else 0
        if not 0 <= index < len(suggestions):
            raise FeedbackError(f"no column suggestion #{index}")
        suggestion = suggestions[index]
        if self._previewed == index:
            self._clear_preview()
        better = [self._query] if self._query and self._query.edges else []
        with TRACER.span("session.reject_column.feedback"):
            self.integration_learner.reject_query(suggestion.query, better)
        METRICS.inc("session.columns_rejected")
        self._column_suggestions = [s for s in suggestions if s is not suggestion]

    # -------------------------------------------------------------- explanations
    def explain(self, row_index: int) -> Explanation:
        """The Tuple Explanation pane for one output-tab row."""
        table = self.workspace.tab(self.OUTPUT_TAB)
        # Prefer cell-level provenance of the newest (suggested) column.
        prov = None
        for col in reversed(range(table.n_cols)):
            cell = table.cell(row_index, col)
            if cell.provenance is not None:
                prov = cell.provenance
                break
        if prov is None:
            if row_index >= len(self._row_provenance):
                raise FeedbackError(f"no provenance recorded for row {row_index}")
            prov = self._row_provenance[row_index]
        plan = None
        if self._previewed is not None and self._column_suggestions:
            plan = self._column_suggestions[self._previewed].query.plan
        elif self._query is not None:
            plan = self._query.plan
        return self.engine.explain_row(prov, plan)

    # ------------------------------------------------------- record-link feedback
    @recorded
    def add_link_example(
        self,
        left_row: Mapping[str, Any],
        right_row: Mapping[str, Any],
        edge_key: str | None = None,
        is_match: bool = True,
        right_pool: Sequence[Mapping[str, Any]] | None = None,
    ) -> int:
        """Teach a record-link edge from a user-demonstrated match.

        When the user pastes the matching contact next to a shelter, that
        pair is a positive example for the linker on the relevant edge.
        Returns the number of weight updates applied.
        """
        if edge_key is None:
            link_keys = [k for k in self._linkers if "record-link" in k]
            if len(link_keys) != 1:
                raise FeedbackError(
                    "edge_key required: "
                    + (f"candidates {link_keys}" if link_keys else "no link edges active")
                )
            edge_key = link_keys[0]
        linker = self._linkers.get(edge_key)
        if linker is None:
            edge = self.integration_learner.graph.edge(edge_key)
            linker = self._linker_for(edge)
            self._linker_edges[edge_key] = edge
        pool = list(right_pool) if right_pool is not None else self._link_pool(edge_key)
        updates = linker.train(
            [LinkExample(left=dict(left_row), right=dict(right_row), is_match=is_match)],
            pool,
        )
        # Link feedback changes record-link join answers: invalidate caches.
        self.catalog.bump_version()
        return updates

    def _link_pool(self, edge_key: str) -> list[dict[str, Any]]:
        # Linkers are keyed by *oriented* edges (compilation may flip the
        # graph edge), so consult the recorded orientation, not the graph.
        edge = self._linker_edges.get(edge_key)
        if edge is None:
            edge = self.integration_learner.graph.edge(edge_key)
        right = edge.right
        if self.catalog.is_service(right):
            return []
        return [row.as_dict() for row in self.catalog.relation(right)]

    # --------------------------------------------------------- cross-source paste
    def explain_pasted_tuples(
        self, columns: Mapping[str, Sequence[Any]], k: int = 3
    ) -> list[QuerySuggestion]:
        """Steiner mode: the user pasted joined tuples; rank explanations."""
        return self.autocomplete.query_suggestions(columns, k=k)

    def adopt_query(self, suggestion: QuerySuggestion, tab: str | None = None) -> str:
        """Replace the output tab with a chosen query's full results."""
        self.workspace.enter_integration_mode()
        tab_name = tab or self.OUTPUT_TAB
        if self.workspace.has_tab(tab_name):
            # Rebuild the tab from scratch with the adopted query's output.
            self.workspace._tabs.pop(tab_name)  # noqa: SLF001 - deliberate reset
            self.workspace._order.remove(tab_name)
        table = self.workspace.new_tab(tab_name)
        self._query = suggestion.query
        result = self.engine.run(suggestion.query.plan)
        for attribute in result.schema:
            table.ensure_columns(table.n_cols + 1)
            table.set_column_label(table.n_cols - 1, attribute.name)
            table.set_column_type(table.n_cols - 1, attribute.semantic_type)
        self._row_provenance = []
        for row, prov in result.rows:
            table.append_row(list(row.values), state=CellState.USER)
            self._row_provenance.append(prov)
        return tab_name

    # ------------------------------------------------------------ data cleaning
    @recorded
    def enter_cleaning_mode(self) -> None:
        """Section 5 ("Data cleaning"): in cleaning mode "the system does
        not try to generalize any updates beyond the current tuple"."""
        self.cleaning_mode = True

    @recorded
    def exit_cleaning_mode(self) -> None:
        """Leave cleaning mode: edits may generalize again."""
        self.cleaning_mode = False

    @recorded
    def edit_cell(
        self, row: int, col: int, value: Any, tab: str | None = None
    ) -> list[Transform]:
        """Edit one cell; outside cleaning mode, try to generalize the edit.

        Returns the ranked transforms consistent with *all* edits the user
        has made to this column this session (empty in cleaning mode, or
        when no non-trivial transform explains them). The paper poses
        auto-detection of "cleaning vs generalizable change" as an open
        question; our heuristic: a single edit is treated as cleaning, and
        generalization is proposed only once two edits agree on a transform.
        """
        tab_name = tab or self._current_tab()
        table = self.workspace.tab(tab_name)
        old_row = {
            column.name: table.cell(row, c).value
            for c, column in enumerate(table.columns)
        }
        old_row["__old__"] = table.cell(row, col).value
        table.set_cell(row, col, value)
        if self.cleaning_mode:
            return []
        history = self._edit_history.setdefault((tab_name, col), [])
        history.append((old_row, value))
        if len(history) < 2:
            return []
        transforms = self.transform_learner.learn(history)
        return [t for t in transforms if t.kind != "identity"]

    def apply_edit_generalization(
        self, col: int, transform: Transform, tab: str | None = None
    ) -> int:
        """Apply a learned edit transform to every committed row's cell.

        Returns the number of cells changed. Cells already matching the
        transform's output are left untouched.
        """
        tab_name = tab or self._current_tab()
        table = self.workspace.tab(tab_name)
        changed = 0
        for row_index in range(table.n_rows):
            if not table.row_state(row_index).is_committed:
                continue
            row_dict = {
                column.name: table.cell(row_index, c).value
                for c, column in enumerate(table.columns)
            }
            row_dict["__old__"] = table.cell(row_index, col).value
            new_value = transform.apply(row_dict)
            if new_value is not None and new_value != row_dict["__old__"]:
                table.set_cell(row_index, col, new_value)
                changed += 1
        return changed

    # ------------------------------------------------- derived (transform) columns
    @recorded
    def add_derived_column(
        self,
        name: str,
        examples: Mapping[int, Any],
        tab: str | None = None,
    ) -> tuple[Transform, int]:
        """Flash-fill style: the user types a few values of a *new* column;
        the system learns the transform and auto-completes the rest.

        ``examples`` maps row index -> desired value. Returns the learned
        transform and the index of the new (suggested) column.
        """
        tab_name = tab or self._current_tab()
        table = self.workspace.tab(tab_name)
        training = []
        for row_index, target in examples.items():
            row_dict = {
                column.name: table.cell(row_index, c).value
                for c, column in enumerate(table.columns)
            }
            training.append((row_dict, target))
        transform = self.transform_learner.best(training)
        values = []
        for row_index in range(table.n_rows):
            row_dict = {
                column.name: table.cell(row_index, c).value
                for c, column in enumerate(table.columns)
            }
            values.append(transform.apply(row_dict))
        col = table.add_suggested_column(name, values)
        # The user's own example cells are theirs, not suggestions.
        for row_index in examples:
            table.cell(row_index, col).state = CellState.USER
        return transform, col

    # ----------------------------------------------------- tuple-level feedback
    @recorded
    def promote_row(self, row: int, tab: str | None = None) -> None:
        """Promote a tuple: raise trust in every source that derived it."""
        self._adjust_row_trust(row, tab, factor=1.1)

    @recorded
    def demote_row(
        self, row: int, tab: str | None = None, distrust_base_rows: bool = False
    ) -> list[str]:
        """Demote a tuple (Section 2.2: "promoting or demoting tuples").

        Trust drops for every contributing source. With
        ``distrust_base_rows`` the specific base tuples in the derivation
        are marked distrusted, so scans — and therefore *all* future
        suggestions — skip them: the integration-mode feedback reaches the
        source learners, the paper's Section-5 cooperation goal.
        """
        tab_name = tab or self.OUTPUT_TAB
        touched = self._adjust_row_trust(row, tab_name, factor=0.8)
        if distrust_base_rows:
            prov = self._provenance_for_row(row, tab_name)
            for tid in prov.variables():
                if tid.relation in self.catalog.relation_names():
                    notes = self.catalog.metadata(tid.relation).notes
                    notes.setdefault("distrusted_rows", set()).add(tid.index)
            # Distrusted rows change scan outputs: invalidate cached plans.
            self.catalog.bump_version()
        return touched

    def _provenance_for_row(self, row: int, tab_name: str):
        table = self.workspace.tab(tab_name)
        for col in reversed(range(table.n_cols)):
            cell = table.cell(row, col)
            if cell.provenance is not None:
                return cell.provenance
        if row < len(self._row_provenance) and self._row_provenance[row] is not None:
            return self._row_provenance[row]
        raise FeedbackError(f"no provenance recorded for row {row}")

    def _adjust_row_trust(self, row: int, tab: str | None, factor: float) -> list[str]:
        tab_name = tab or self.OUTPUT_TAB
        prov = self._provenance_for_row(row, tab_name)
        touched = sorted({tid.relation for tid in prov.variables()})
        for source in touched:
            if source in self.catalog:
                metadata = self.catalog.metadata(source)
                metadata.trust = max(0.05, min(1.0, metadata.trust * factor))
        # Trust feeds suggestion ranking: move the version so standing
        # suggestion batches (and version-keyed caches) refresh.
        self.catalog.bump_version()
        return touched

    # ----------------------------------------------------------- union queries
    @recorded
    def union_sources(self, sources: Sequence[str], tab: str | None = None) -> str:
        """Union several committed sources into the output tab.

        Section 2.1: pasting data from a different source into contiguous
        *rows* "expresses a union"; schemas are homogenized by null padding
        (Section 4.2).
        """
        from ..substrate.relational.algebra import Scan, Union

        if len(sources) < 2:
            raise FeedbackError("a union needs at least two sources")
        plan = Union(tuple(Scan(source) for source in sources))
        self.workspace.enter_integration_mode()
        tab_name = tab or self.OUTPUT_TAB
        if self.workspace.has_tab(tab_name):
            self.workspace._tabs.pop(tab_name)  # noqa: SLF001 - deliberate reset
            self.workspace._order.remove(tab_name)
        table = self.workspace.new_tab(tab_name)
        result = self.engine.run(plan)
        for attribute in result.schema:
            table.ensure_columns(table.n_cols + 1)
            table.set_column_label(table.n_cols - 1, attribute.name)
            table.set_column_type(table.n_cols - 1, attribute.semantic_type)
        self._row_provenance = []
        for row, prov in result.rows:
            table.append_row(list(row.values), state=CellState.USER)
            self._row_provenance.append(prov)
        return tab_name

    # ------------------------------------------------------------ mediated views
    @recorded
    def save_view(self, name: str) -> Relation:
        """Persist the current integration query as a mediated view.

        Section 1: the assembled table "could be persistently saved as an
        integrated, mediated view of the data, enabling user or application
        queries over a unified representation." The view is materialized
        into the catalog (so other queries can use it) and its defining
        query is retained so :meth:`refresh_view` can re-run it when the
        underlying sources change.
        """
        query = self.current_query
        relation = self._materialize(name, query)
        self._views[name] = query
        return relation

    @recorded
    def refresh_view(self, name: str) -> Relation:
        """Re-execute a saved view over the sources' current contents."""
        try:
            query = self._views[name]
        except KeyError:
            raise FeedbackError(f"no saved view named {name!r}") from None
        return self._materialize(name, query)

    def view_names(self) -> list[str]:
        """Names of every saved mediated view."""
        return sorted(self._views)

    def view_definition(self, name: str) -> IntegrationQuery:
        """The integration query defining a saved view."""
        try:
            return self._views[name]
        except KeyError:
            raise FeedbackError(f"no saved view named {name!r}") from None

    def _materialize(self, name: str, query: IntegrationQuery) -> Relation:
        result = self.engine.run(query.plan)
        relation = Relation(name, result.schema)
        for row, _ in result.rows:
            relation.add(list(row.values))
        self.catalog.add_relation(
            relation,
            SourceMetadata(origin="view", notes={"definition": query.describe()}),
            replace=True,
        )
        self.integration_learner.refresh()
        return relation

    # ------------------------------------------------------------- persistence
    def save(self, path) -> "Path":
        """Persist everything this session has learned (see repro.io)."""
        from ..io import save_session

        return save_session(self, path)

    def load(self, path) -> None:
        """Restore learned state saved by :meth:`save` (services must
        already be registered in this session's catalog)."""
        from ..io import load_session

        load_session(self, path)

    # ----------------------------------------------------------------- undo
    @recorded
    def undo(self) -> bool:
        """Undo the last checkpointed workspace interaction (§5)."""
        return self.workspace.undo()

    # ------------------------------------------------------------------- helpers
    def _current_tab(self) -> str:
        if self.workspace.current_tab is None:
            raise WorkspaceError("no active tab: paste something first")
        return self.workspace.current_tab

    def render(self) -> str:
        """ASCII rendering of the whole workspace (all tabs)."""
        return self.workspace.render_text()
