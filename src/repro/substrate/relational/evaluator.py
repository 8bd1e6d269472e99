"""Plan evaluation with provenance annotation.

The evaluator plays the role of ORCHESTRA in CopyCat (Section 2.3): it
executes logical plans over the catalog and annotates every answer with a
how-provenance expression, so "feedback on auto-complete data" can be
converted "into feedback over the queries that created the data".

Every plan is compiled — once per ``(plan fingerprint, catalog version)``
— into a tree of closures over per-column value arrays (:mod:`.columns`).
Compilation walks the tree once, bottom-up: it compiles a node's children,
derives the node's output schema from theirs (``node.derive_schema``, the
same rule ``output_schema`` applies), then resolves its attribute positions
and predicate mask functions (:func:`.predicates.compile_predicate`), so
execution moves whole columns per operator and allocates Rows only at the
``Result`` boundary. A malformed plan fails that walk with
:class:`~repro.errors.PlanAnalysisError` before any of it executes. Relations
at the paper's target scale ("KB or MB of data, but probably not GB")
comfortably fit in memory, so operators evaluate their inputs whole. The
exception is ``Limit``: it hands a row cap down through Project, Rename and
nested Limits to the nearest Select, which keeps at most that many rows of
its (whole) input; when its predicate has no mask function it calls
``matches`` row by row and stops once the cap is met.

Incremental evaluation (the interactivity fix): expensive nodes — joins,
dependent joins, record-link joins, unions, distinct, grouping — consult a
shared-subplan result cache keyed on ``(structural fingerprint,
catalog.version)``, so the many candidate plans produced per suggestion
refresh evaluate their common join prefix once, and a refresh with an
unchanged catalog is nearly free. Streaming nodes (scan/select/project/
rename/limit) stay uncached. Each run fingerprints its plan in one
bottom-up walk, and the compile memo and every subplan-cache probe read
their keys from it. See :mod:`repro.cache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ...cache.fingerprint import plan_fingerprints
from ...cache.tiers import CacheTiers
from ...drift.quarantine import QUARANTINE_NOTE
from ...errors import (
    EvaluationError,
    PlanAnalysisError,
    ServiceLookupFailed,
    UnknownAttributeError,
)
from ...obs import METRICS
from ...provenance.expressions import Provenance, Var, plus, times
from ...resilience.degrade import Degradation, degraded_source
from ...server.overload import LEVEL_NORMAL, check_deadline
from .algebra import (
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
    missing_attribute,
    plan_error,
)
from .catalog import Catalog
from .columns import ColumnBatch
from .predicates import Predicate, compile_predicate
from .rows import Row, TupleId
from .schema import Schema

AnnotatedRow = tuple[Row, Provenance]


@dataclass
class Result:
    """An evaluated plan: schema plus provenance-annotated rows.

    ``degraded`` records the service failures absorbed while evaluating
    (graceful degradation): the affected rows are present with null service
    outputs and a ``degraded:<Service>`` provenance marker instead of the
    whole evaluation raising.
    """

    schema: Schema
    rows: list[AnnotatedRow]
    degraded: tuple[Degradation, ...] = ()
    # Lazily-built row → ⊕-combined-provenance index shared by
    # provenance_of and merged (each lookup used to be a linear scan).
    _prov_index: dict[Row, Provenance] | None = field(
        default=None, repr=False, compare=False
    )
    _prov_order: list[Row] = field(default_factory=list, repr=False, compare=False)
    _prov_len: int = field(default=-1, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def plain_rows(self) -> list[Row]:
        return [row for row, _ in self.rows]

    def dicts(self) -> list[dict[str, Any]]:
        return [row.as_dict() for row, _ in self.rows]

    def _index(self) -> dict[Row, Provenance]:
        """The row→provenance index, (re)built when the rows changed."""
        if self._prov_index is None or self._prov_len != len(self.rows):
            order: list[Row] = []
            merged: dict[Row, Provenance] = {}
            for row, prov in self.rows:
                if row in merged:
                    merged[row] = plus(merged[row], prov)
                else:
                    merged[row] = prov
                    order.append(row)
            self._prov_index = merged
            self._prov_order = order
            self._prov_len = len(self.rows)
        return self._prov_index

    def provenance_of(self, row: Row) -> Provenance:
        """Combined provenance of every occurrence of *row* in the result."""
        prov = self._index().get(row)
        if prov is None:
            raise EvaluationError(f"row not present in result: {row!r}")
        return prov

    def merged(self) -> "Result":
        """Set-semantics view: duplicates merged, provenance ⊕-combined."""
        index = self._index()
        return Result(
            self.schema,
            [(row, index[row]) for row in self._prov_order],
            degraded=self.degraded,
        )

    @property
    def is_degraded(self) -> bool:
        return bool(self.degraded)

    def degraded_services(self) -> tuple[str, ...]:
        """Sorted names of the services whose failures this result absorbed."""
        return tuple(sorted({note.service for note in self.degraded}))


#: Node kinds worth caching: they materialize inputs and/or do superlinear
#: or service-calling work. Streaming nodes (Scan/Select/Project/Rename/
#: Limit) are excluded so cheap nodes don't churn the LRU and a capped
#: Select under a Limit is never stored as if it were whole.
_CACHEABLE_NODES = frozenset(
    {"Join", "DependentJoin", "RecordLinkJoin", "Union", "Distinct", "GroupBy"}
)

#: Nodes that hand a consumer's row cap on to their child; ``Limit`` first
#: tightens it to its own count. Every other node needs its whole input.
_CAP_PASSING = frozenset({"Project", "Rename", "Limit"})

#: Left x right pairs below which a record-link join scores the exact cross
#: product instead of blocking (blocking approximates it).
BLOCKING_MIN_PAIRS = 4096

_MISS = object()

#: A compiled plan: a closure producing the result batch for the evaluator
#: it is passed. Thunks are *context-threaded* — they capture no evaluator
#: or catalog, only compile-time-resolved positions/schemas — so one
#: compiled closure in a shared tier serves every tenant on the same cache
#: scope, each execution reading the invoking evaluator's catalog state
#: (metadata notes, service objects) and degradation list.
BatchThunk = Callable[["Evaluator"], ColumnBatch]
#: A compiled node: its closure and its output schema.
Compiled = tuple[BatchThunk, Schema]


def _batch_rows(batch: ColumnBatch) -> list[Row]:
    """Materialize plain Rows from a batch (record-link scoring only)."""
    schema = batch.schema
    from_values = Row.from_values
    if not batch.columns:
        return [from_values(schema, ()) for _ in range(batch.n_rows)]
    return [from_values(schema, values) for values in zip(*batch.columns)]


def _column_or_nulls(batch: ColumnBatch, name: str) -> list[Any]:
    """A column by name, or all-``None`` when the schema lacks it.

    Mirrors the ``row.get(attribute)`` default inside ``token_block_key``:
    a missing blocking attribute blocks nothing rather than erroring.
    """
    if name in batch.schema:
        return batch.column(name)
    return [None] * batch.n_rows


def _row_mask(predicate: Predicate, schema: Schema, cap: int | None):
    """Mask function for a predicate with no vectorized form.

    Calls ``predicate.matches`` on one Row per examined value tuple, so a
    custom subclass keeps its semantics: an attribute it reads that the
    schema lacks fails per row, only when a row is examined. Stops
    examining once *cap* rows have matched; unexamined rows are simply
    absent from the (shorter) mask.
    """
    matches = predicate.matches
    from_values = Row.from_values

    def mask_fn(columns: list[list[Any]], n_rows: int) -> list[bool]:
        mask: list[bool] = []
        kept = 0
        for values in zip(*columns) if columns else [()] * n_rows:
            flag = bool(matches(from_values(schema, values)))
            mask.append(flag)
            if flag:
                kept += 1
                if kept == cap:
                    break
        return mask

    return mask_fn


class Evaluator:
    """Compiles :class:`~repro.substrate.relational.algebra.Plan` trees
    into batch-at-a-time closures and runs them.

    Compiled closures live in the cache-tier bundle's compile memo, keyed
    on ``(scope, fingerprint, version)``, so under the session server one
    tenant's compilation is every tenant's hit. Plan nodes dispatch by
    class name: a subclass that keeps its parent's name compiles as the
    parent, one with a new name has no compiler and raises
    :class:`~repro.errors.PlanAnalysisError` ``PLAN005``.
    """

    def __init__(self, catalog: Catalog, tiers: CacheTiers | None = None):
        self.catalog = catalog
        #: every memo this evaluation stack consults. Private by default;
        #: the session server passes one shared bundle so tenants amortize
        #: each other's work.
        self.tiers = tiers if tiers is not None else CacheTiers()
        self.plan_cache = self.tiers.plan
        # Service failures absorbed during the current run() (graceful
        # degradation); attached to the Result and reset per run.
        self._degraded: list[Degradation] = []
        # Brownout service level, propagated from the owning session
        # (set_service_level): "degraded" sheds dependent-join backend
        # calls through the same null-padded degradation path below.
        self.service_level = LEVEL_NORMAL
        # Snapshot isolation: run() pins the cache scope once, so every
        # cache probe inside one evaluation addresses the same snapshot
        # even if another thread bumps the catalog mid-run.
        self._run_scope: Any = None

    def run(self, plan: Plan) -> Result:
        check_deadline("evaluator.run")
        self._degraded = []
        version = self.catalog.version
        self._run_scope = scope = self.catalog.cache_scope
        try:
            # One walk fingerprints every node: the root's token keys the
            # compile memo, each cacheable node's its subplan-cache entry.
            fingerprints = plan_fingerprints(plan)
            key = (scope, fingerprints[id(plan)], version)
            try:
                hash(key)
            except TypeError:
                key = None
            if METRICS.enabled:
                METRICS.inc("columnar.plans")
            if key is None:
                # An unhashable field: without a fingerprint the memo has
                # no sound key, so the plan compiles afresh every run.
                thunk, schema = self._compile_root(plan, fingerprints, version)
                batch = thunk(self)
            else:
                # Single-flight on the root plan: when N tenants miss the
                # shared tier on the same plan simultaneously, one computes
                # (and populates the tier) while the rest wait, then hit.
                with self.tiers.flight(key):
                    thunk, schema = self._compiled(plan, fingerprints, key)  # lint: allow=CONC004 -- single-flight deliberately computes under the per-key lock; only leaf metrics emit inside
                    batch = thunk(self)
            return Result(schema, batch.to_annotated(), degraded=tuple(self._degraded))
        finally:
            self._run_scope = None

    def _compiled(self, plan: Plan, fingerprints: dict[int, Any], key: tuple) -> Compiled:
        """The memoized closure and root schema for *plan* under ``key``."""
        compiled = self.tiers.compile.get(key, _MISS)
        if compiled is _MISS:
            compiled = self._compile_root(plan, fingerprints, key[2])
            self.tiers.compile.put(key, compiled)
        return compiled

    def _compile_root(self, plan: Plan, fingerprints: dict[int, Any], version: Any) -> Compiled:
        """Compile a whole plan, counting a failed check."""
        try:
            return self._compile(plan, fingerprints, version)
        except PlanAnalysisError:
            if METRICS.enabled:
                METRICS.inc("analysis.errors")
            raise

    # -- compilation -----------------------------------------------------------
    def _compile(
        self, plan: Plan, fingerprints: dict[int, Any], version: Any, cap: int | None = None
    ) -> Compiled:
        """Compile *plan* into ``(closure, output schema)``.

        Children compile first; the node's schema comes from theirs, so the
        walk visits each node once. *fingerprints* maps ``id(node)`` to the
        node's fingerprint (:func:`~repro.cache.fingerprint.plan_fingerprints`
        of the run's root). *cap*, when set, says the consumer needs
        at most that many leading rows (a ``Limit`` above, through
        row-preserving nodes only: Project, Rename and Limit pass it on,
        Select consumes it).
        """
        kind = type(plan).__name__
        compiler = getattr(self, f"_compile_{kind.lower()}", None)
        if compiler is None:
            raise plan_error(plan, "PLAN005", f"no evaluator for plan node {kind!r}")
        child_cap = cap if kind in _CAP_PASSING else None
        if kind == "Limit":
            child_cap = plan.count if cap is None else min(cap, plan.count)
        children = [
            self._compile(child, fingerprints, version, child_cap) for child in plan.children()
        ]
        schema = plan.derive_schema(self.catalog, [child_schema for _, child_schema in children])
        thunk = compiler(plan, schema, children, version, cap)
        if kind in _CACHEABLE_NODES:
            fingerprint = fingerprints[id(plan)]
            try:
                hash(fingerprint)
            except TypeError:
                # A node with an unhashable field has no sound cache key,
                # so it evaluates uncached.
                if METRICS.enabled:
                    METRICS.inc("analysis.fingerprint_unregistered")
            else:
                thunk = self._cached(fingerprint, version, thunk)
        return thunk, schema

    @staticmethod
    def _cached(fingerprint: Any, version: Any, inner: BatchThunk) -> BatchThunk:
        """Wrap a cacheable node's closure with the shared-subplan cache.

        Degraded evaluations are transient by nature and never stored
        (caching one would keep serving the partial result after the service
        recovers).
        """

        def thunk(ev: Evaluator) -> ColumnBatch:
            scope = ev._run_scope
            cached = ev.plan_cache.get(fingerprint, version, scope=scope)
            if cached is not None:
                return cached
            degraded_before = len(ev._degraded)
            batch = inner(ev)
            if len(ev._degraded) != degraded_before:
                if METRICS.enabled:
                    METRICS.inc("cache.plan.degraded_uncached")
            else:
                ev.plan_cache.put(fingerprint, version, batch, scope=scope)
            return batch

        return thunk

    # -- per-node compilers ---------------------------------------------------
    def _compile_scan(self, plan: Scan, schema, children, version, cap) -> BatchThunk:
        source = plan.source

        def thunk(ev: Evaluator) -> ColumnBatch:
            batch = ev._scan_batch(source, version)
            notes = ev.catalog.metadata(source).notes
            quarantined = notes.get(QUARANTINE_NOTE)
            if quarantined is not None:
                # A quarantined source serves its last-known-good rows, but
                # the result is flagged so suggestions built from it are
                # rank-penalized and DEGRADED-marked like a dead service's.
                ev._degraded.append(
                    Degradation(service=source, reason=f"source quarantined: {quarantined}")
                )
            # Cross-learner feedback (paper §5 "Feedback interaction"): tuple
            # demotions can mark specific base rows as distrusted; scans skip
            # them so every downstream suggestion reflects the feedback.
            distrusted = notes.get("distrusted_rows")
            if not distrusted:
                return batch
            return batch.gather(
                [index for index in range(batch.n_rows) if index not in distrusted]
            )

        return thunk

    def _scan_batch(self, source: str, version: Any) -> ColumnBatch:
        """The raw relation transpose, memoized per (scope, source, version).

        Notes-driven filtering (distrusted rows) and quarantine degradations
        are applied per evaluation, after the memo, so feedback that edits
        metadata without committing rows is always honored.
        """
        key = (self._run_scope, source, version)
        batch = self.tiers.scan.get(key, _MISS)
        if batch is _MISS:
            relation = self.catalog.relation(source)
            batch = ColumnBatch.from_relation_rows(
                source, relation.schema, relation.rows()
            )
            self.tiers.scan.put(key, batch)
        return batch

    def _compile_select(self, plan: Select, schema, children, version, cap) -> BatchThunk:
        # A Select drops rows, so the cap bounds only this node's own output:
        # its child must be whole, or a row failing this predicate would take
        # the place of one further down that passes it.
        [(child, child_schema)] = children
        try:
            mask_fn = compile_predicate(plan.predicate, child_schema)
        except UnknownAttributeError as exc:
            raise missing_attribute(
                plan, exc.name, child_schema, "selection predicate"
            ) from None
        if mask_fn is None:
            mask_fn = _row_mask(plan.predicate, child_schema, cap)

        def thunk(ev: Evaluator) -> ColumnBatch:
            batch = child(ev)
            mask = mask_fn(batch.columns, batch.n_rows)
            keep = [index for index, flag in enumerate(mask) if flag]
            if cap is not None:
                del keep[cap:]
            if len(keep) == batch.n_rows:
                return batch
            return batch.gather(keep)

        return thunk

    def _compile_project(self, plan: Project, schema, children, version, cap) -> BatchThunk:
        [(child, child_schema)] = children
        positions = [child_schema.position(name) for name in plan.names]

        def thunk(ev: Evaluator) -> ColumnBatch:
            batch = child(ev)
            columns = batch.columns
            return ColumnBatch(
                schema, [columns[position] for position in positions], batch.provs
            )

        return thunk

    def _compile_rename(self, plan: Rename, schema, children, version, cap) -> BatchThunk:
        [(child, _)] = children

        def thunk(ev: Evaluator) -> ColumnBatch:
            return child(ev).with_schema(schema)

        return thunk

    def _compile_limit(self, plan: Limit, schema, children, version, cap) -> BatchThunk:
        count = plan.count
        if count <= 0:
            # Nothing is pulled, so the child never runs: no service calls,
            # no scan-time degradation notes.
            empty = ColumnBatch(schema, [[] for _ in schema.names], [])
            return lambda ev: empty
        [(child, _)] = children

        def thunk(ev: Evaluator) -> ColumnBatch:
            batch = child(ev)
            if batch.n_rows <= count:
                return batch
            return batch.gather(range(count))

        return thunk

    def _compile_join(self, plan: Join, schema, children, version, cap) -> BatchThunk:
        (left, left_schema), (right, right_schema) = children
        left_positions = [
            left_schema.position(name) for name, _ in plan.conditions
        ]
        right_positions = [
            right_schema.position(name) for _, name in plan.conditions
        ]
        right_key_names = {name for _, name in plan.conditions}
        kept_right = [
            position
            for position, name in enumerate(right_schema.names)
            if name not in right_key_names
        ]

        def thunk(ev: Evaluator) -> ColumnBatch:
            left_batch, right_batch = left(ev), right(ev)
            # Hash join on the conjunction of all conditions.
            right_key_cols = [right_batch.columns[p] for p in right_positions]
            index: dict[tuple[Any, ...], list[int]] = {}
            for j in range(right_batch.n_rows):
                key = tuple(col[j] for col in right_key_cols)
                if any(part is None for part in key):
                    continue
                index.setdefault(key, []).append(j)
            left_key_cols = [left_batch.columns[p] for p in left_positions]
            left_idx: list[int] = []
            right_idx: list[int] = []
            for i in range(left_batch.n_rows):
                key = tuple(col[i] for col in left_key_cols)
                if any(part is None for part in key):
                    continue
                for j in index.get(key, ()):
                    left_idx.append(i)
                    right_idx.append(j)
            columns = [[col[i] for i in left_idx] for col in left_batch.columns]
            columns += [
                [right_batch.columns[p][j] for j in right_idx] for p in kept_right
            ]
            left_provs, right_provs = left_batch.provs, right_batch.provs
            provs = [
                times(left_provs[i], right_provs[j])
                for i, j in zip(left_idx, right_idx)
            ]
            return ColumnBatch(schema, columns, provs)

        return thunk

    def _compile_dependentjoin(
        self, plan: DependentJoin, schema, children, version, cap
    ) -> BatchThunk:
        [(child, child_schema)] = children
        # dict() keeps each duplicate service input's first position and
        # last binding.
        input_positions = [
            (svc_input, child_schema.position(child_attr))
            for svc_input, child_attr in dict(plan.input_map).items()
        ]
        service_name = plan.service

        def thunk(ev: Evaluator) -> ColumnBatch:
            batch = child(ev)
            # Resolved per evaluation (not at compile) so a re-registered
            # service object is picked up.
            service = ev.catalog.service(service_name)
            output_names = service.output_names
            input_cols = [
                (svc_input, batch.columns[position])
                for svc_input, position in input_positions
            ]
            # Identical bindings across child rows hit the service once: the
            # (outputs, ids) pair per distinct binding is computed on first
            # use and replayed for duplicates — independent of (and on top
            # of) the service's own invoke memoization.
            seen: dict[tuple[Any, ...], list[tuple[list[Any], Any]]] = {}
            keep_idx: list[int] = []
            out_cols: list[list[Any]] = [[] for _ in output_names]
            provs: list[Provenance] = []
            child_provs = batch.provs
            # Brownout: shed every backend call through the degradation
            # branch below — a fast, rank-penalized partial answer instead
            # of a queue of service round-trips. The level cannot change
            # mid-run (it is set between requests inside the tenant's
            # serialized stream).
            browned_out = ev.service_level != LEVEL_NORMAL
            for i in range(batch.n_rows):
                # Cooperative cancellation every 64 rows: cheap enough for
                # the batch loop, fine-grained enough to stop abandoned work.
                if not i & 63:
                    check_deadline("evaluator.dependent_join")
                inputs = {name: col[i] for name, col in input_cols}
                if any(value is None for value in inputs.values()):
                    continue
                try:
                    binding = tuple(sorted(inputs.items()))
                    expansions = seen.get(binding)
                except TypeError:  # unhashable input value: invoke directly
                    binding, expansions = None, None
                if expansions is None:
                    try:
                        if browned_out:
                            if METRICS.enabled:
                                METRICS.inc("overload.brownout_skips")
                            raise ServiceLookupFailed(
                                f"service {service_name!r} not consulted "
                                "under brownout",
                                service=service_name,
                                transient=True,
                            )
                        invoked = service.invoke(inputs)
                    except ServiceLookupFailed as exc:
                        # Graceful degradation: keep the row, null the
                        # service outputs, and mark its provenance with a
                        # pseudo-source naming the failed service. Failed
                        # bindings are never recorded in `seen`, so a later
                        # duplicate may recover.
                        ev._degraded.append(
                            Degradation(service=service_name, reason=str(exc))
                        )
                        if METRICS.enabled:
                            METRICS.inc("resilience.degraded_rows")
                        marker = Var(TupleId(degraded_source(service_name), 0))
                        keep_idx.append(i)
                        for column in out_cols:
                            column.append(None)
                        provs.append(times(child_provs[i], marker))
                        continue
                    expansions = []
                    for result in invoked:
                        result_id = service.result_tuple_id(result)
                        expansions.append(
                            ([result[name] for name in output_names], result_id)
                        )
                    if binding is not None:
                        seen[binding] = expansions
                for out_values, result_id in expansions:
                    keep_idx.append(i)
                    for column, value in zip(out_cols, out_values):
                        column.append(value)
                    provs.append(times(child_provs[i], Var(result_id)))
            columns = [[col[i] for i in keep_idx] for col in batch.columns]
            columns += out_cols
            return ColumnBatch(schema, columns, provs)

        return thunk

    def _compile_recordlinkjoin(
        self, plan: RecordLinkJoin, schema, children, version, cap
    ) -> BatchThunk:
        (left, _), (right, _) = children
        linker = plan.linker
        threshold = plan.threshold
        best_only = plan.best_only

        def thunk(ev: Evaluator) -> ColumnBatch:
            left_batch, right_batch = left(ev), right(ev)
            # Linkers score Rows by contract, so both sides materialize —
            # but through the trusted constructor, and blocking keys come
            # straight off the column arrays.
            left_rows = _batch_rows(left_batch)
            right_rows = _batch_rows(right_batch)
            candidates = ev._link_candidates(plan, left_batch, right_batch)
            score, best_match = linker.score, linker.best_match
            left_idx: list[int] = []
            right_idx: list[int] = []
            for i, row in enumerate(left_rows):
                # Scoring is quadratic: poll the deadline every 64 left rows
                # so an expired request stops mid-join.
                if not i & 63:
                    check_deadline("evaluator.record_link")
                if best_only:
                    # The linker's bound-ordered search: ties keep the
                    # earliest candidate.
                    js = candidates(i)
                    match = best_match(row, [right_rows[j] for j in js], threshold)
                    matched = [] if match is None else [js[match[0]]]
                else:
                    matched = [
                        j
                        for j in candidates(i)
                        if score(row, right_rows[j]) >= threshold
                    ]
                for j in matched:
                    left_idx.append(i)
                    right_idx.append(j)
            columns = [[col[i] for i in left_idx] for col in left_batch.columns]
            columns += [[col[j] for j in right_idx] for col in right_batch.columns]
            left_provs, right_provs = left_batch.provs, right_batch.provs
            provs = [
                times(left_provs[i], right_provs[j])
                for i, j in zip(left_idx, right_idx)
            ]
            return ColumnBatch(schema, columns, provs)

        return thunk

    @staticmethod
    def _link_candidates(
        plan: RecordLinkJoin, left_batch: ColumnBatch, right_batch: ColumnBatch
    ):
        """Right-row candidate indices per left index: blocked or full.

        Routes through token blocking when the linker exposes block-key
        attribute pairs and the cross product is large enough to be worth
        pruning (blocking is an approximation: pairs sharing no token are
        never scored). Otherwise every left row considers every right row.
        Key sets are computed per column, then fed to
        :func:`repro.linking.blocking.candidate_pairs_from_keys`.
        """
        n_pairs = left_batch.n_rows * right_batch.n_rows
        pairs = None
        if n_pairs >= BLOCKING_MIN_PAIRS:
            attr_pairs = plan.linker.block_attribute_pairs()
            if attr_pairs:
                from ...linking.blocking import (
                    candidate_pairs_from_keys,
                    column_token_keys,
                )

                left_keys = [
                    column_token_keys(_column_or_nulls(left_batch, left_attr))
                    for left_attr, _ in attr_pairs
                ]
                right_keys = [
                    column_token_keys(_column_or_nulls(right_batch, right_attr))
                    for _, right_attr in attr_pairs
                ]
                blocked = candidate_pairs_from_keys(left_keys, right_keys)
                pairs = {}
                for i, j in blocked:
                    pairs.setdefault(i, []).append(j)
                if METRICS.enabled:
                    METRICS.inc("cache.blocking.joins")
                    METRICS.inc("cache.blocking.pairs_pruned", n_pairs - len(blocked))
        if pairs is None:
            all_right = range(right_batch.n_rows)
            return lambda i: all_right
        empty: list[int] = []
        return lambda i: pairs.get(i, empty)

    def _compile_union(self, plan: Union, schema, children, version, cap) -> BatchThunk:
        # Position of each target attribute in each part (None => pad with
        # NULL onto the merged schema).
        mappings = [
            [
                part_schema.position(name) if name in part_schema else None
                for name in schema.names
            ]
            for _, part_schema in children
        ]

        def thunk(ev: Evaluator) -> ColumnBatch:
            columns: list[list[Any]] = [[] for _ in schema.names]
            provs: list[Provenance] = []
            for (part_thunk, _), mapping in zip(children, mappings):
                batch = part_thunk(ev)
                for k, position in enumerate(mapping):
                    if position is None:
                        columns[k].extend([None] * batch.n_rows)
                    else:
                        columns[k].extend(batch.columns[position])
                provs.extend(batch.provs)
            return ColumnBatch(schema, columns, provs)

        return thunk

    def _compile_distinct(self, plan: Distinct, schema, children, version, cap) -> BatchThunk:
        [(child, _)] = children

        def thunk(ev: Evaluator) -> ColumnBatch:
            batch = child(ev)
            columns = batch.columns
            provs = batch.provs
            # First-seen order with ⊕-merged provenance, exactly like
            # Result.merged().
            first_seen: dict[tuple[Any, ...], int] = {}
            keep: list[int] = []
            merged_provs: list[Provenance] = []
            for i in range(batch.n_rows):
                key = tuple(column[i] for column in columns)
                position = first_seen.get(key)
                if position is None:
                    first_seen[key] = len(keep)
                    keep.append(i)
                    merged_provs.append(provs[i])
                else:
                    merged_provs[position] = plus(merged_provs[position], provs[i])
            return ColumnBatch(
                batch.schema,
                [[column[i] for i in keep] for column in columns],
                merged_provs,
            )

        return thunk

    def _compile_groupby(self, plan, schema, children, version, cap) -> BatchThunk:
        from .aggregates import evaluate_groupby_columnar

        [(child, _)] = children

        def thunk(ev: Evaluator) -> ColumnBatch:
            return evaluate_groupby_columnar(plan, child(ev), schema)

        return thunk
