"""Columnar batch execution: compiled predicates, batches, interning, parity.

The contract under test: every plan compiles, and the compiled evaluator
produces *exactly* the reference interpreter's output
(:mod:`tests.reference_interpreter`) — rows, provenance expressions and
degradation notes — including the shapes a mask function does not cover
(``Limit``, custom predicates, name-reusing subclasses).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import obs
from repro.cache.tiers import CacheTiers
from repro.errors import EvaluationError, PlanAnalysisError, UnknownAttributeError
from repro.linking.blocking import (
    candidate_pairs,
    candidate_pairs_from_keys,
    column_token_keys,
    token_block_key,
)
from repro.obs import METRICS
from repro.resilience import FAULTS, FaultPolicy, FaultSpec
from repro.resilience.config import RESILIENCE
from repro.substrate.relational import (
    AggSpec,
    And,
    AttrCompare,
    Catalog,
    ColumnBatch,
    Compare,
    Contains,
    DependentJoin,
    Distinct,
    Evaluator,
    GroupBy,
    IsNull,
    Join,
    Limit,
    Not,
    NotNull,
    Or,
    Plan,
    Predicate,
    Project,
    RecordLinkJoin,
    Relation,
    Rename,
    Row,
    RowLinker,
    Scan,
    Schema,
    Select,
    Union,
    eq,
    schema_of,
)
from repro.substrate.relational.predicates import (
    TRUE,
    compile_predicate,
    is_compilable,
)
from repro.substrate.relational.schema import BindingPattern
from repro.substrate.services.base import TableBackedService
from repro.util.strings import token_jaccard
from repro.util.text import (
    INTERN,
    NORMALIZE_CACHE_CAPACITY,
    InternPool,
    normalize,
    normalize_cache_stats,
)

from .reference_interpreter import evaluate as reference


# ------------------------------------------------------------------ fixtures
@pytest.fixture()
def catalog():
    cat = Catalog()
    shelters = Relation("S", schema_of("Name", "City", "Beds"))
    shelters.extend(
        [
            ["Monarch", "Creek", 40],
            ["Tedder", "Park", 25],
            ["Norcrest", "Creek", None],
            ["Monarch", "Creek", 40],
            [None, "Park", 10],
        ]
    )
    cat.add_relation(shelters)
    damage = Relation("D", schema_of("City", "Damage"))
    damage.extend([["Creek", "minor"], ["Park", "severe"], [None, "unknown"]])
    cat.add_relation(damage)
    zips = TableBackedService(
        "Z",
        schema_of("City", "Zip"),
        BindingPattern(inputs=("City",)),
        [{"City": "Creek", "Zip": "33063"}, {"City": "Park", "Zip": "33309"}],
    )
    cat.add_service(zips)
    return cat


def snapshot(result):
    """Everything parity cares about, in a comparable shape."""
    return (
        result.schema.names,
        [(row.schema.names, row.values, str(prov)) for row, prov in result.rows],
        [(note.service, note.reason) for note in result.degraded],
    )


def assert_parity(catalog, plan, memoized=True):
    """Run *plan* compiled and on the reference interpreter; compare.

    ``memoized`` plans (every registered node type) must also leave their
    compiled closure in the evaluator's compile memo.
    """
    evaluator = Evaluator(catalog)
    compiled = evaluator.run(plan)
    expected = reference(catalog, plan)
    assert snapshot(compiled) == snapshot(expected)
    assert len(evaluator.tiers.compile) == (1 if memoized else 0)
    return compiled, expected


# ------------------------------------------------- predicate compilation unit
MIXED = Schema(["a", "b", "t"])
#: columns: ints-with-None in a, mixed types in b, text in t
COLS = [
    [3, None, 7, 1, 5],
    [2, "x", None, 4, "y"],
    ["Creek St", None, "PARK ave", "creek", ""],
]


def rows_of(columns, schema=MIXED):
    return [
        Row(schema, [column[i] for column in columns])
        for i in range(len(columns[0]))
    ]


class TestCompilePredicate:
    @pytest.mark.parametrize(
        "predicate",
        [
            Compare("a", ">", 2),
            Compare("a", "==", 7),
            Compare("a", "<=", 3),
            Compare("b", "<", 3),  # TypeError on str-vs-int rows
            AttrCompare("a", ">", "b"),
            AttrCompare("a", "!=", "b"),
            IsNull("a"),
            NotNull("b"),
            Contains("t", "cree"),
            Contains("t", "AVE"),
            And((Compare("a", ">", 0), NotNull("b"))),
            Or((IsNull("a"), Compare("a", ">=", 5))),
            Not(Contains("t", "park")),
            Or(()),
            TRUE,
            And((Or((TRUE, IsNull("t"))), Not(And((IsNull("a"), IsNull("b")))))),
        ],
    )
    def test_mask_matches_row_semantics(self, predicate):
        mask_fn = compile_predicate(predicate, MIXED)
        assert mask_fn is not None
        mask = mask_fn(COLS, len(COLS[0]))
        expected = [predicate.matches(row) for row in rows_of(COLS)]
        assert mask == expected

    def test_all_parametrized_types_are_compilable(self):
        assert is_compilable(TRUE)
        assert is_compilable(And((Compare("a", ">", 1), Not(IsNull("b")))))

    def test_unknown_subclass_is_not_compilable(self):
        class Weird(Predicate):
            def matches(self, row):
                return True

        assert not is_compilable(Weird())
        assert compile_predicate(Weird(), MIXED) is None
        # ... including buried inside a known combinator
        assert not is_compilable(And((TRUE, Weird())))
        assert compile_predicate(Not(Weird()), MIXED) is None

    def test_missing_attribute_raises_at_compile(self):
        # A built-in tree resolves every attribute as it compiles, so a
        # missing one fails before any row is read.
        with pytest.raises(UnknownAttributeError, match="nope"):
            compile_predicate(Compare("nope", "==", 1), MIXED)
        with pytest.raises(UnknownAttributeError, match="nope"):
            compile_predicate(AttrCompare("a", "<", "nope"), MIXED)

    def test_typeerror_rows_compare_false_not_raise(self):
        mask_fn = compile_predicate(Compare("b", ">", 10), MIXED)
        mask = mask_fn(COLS, len(COLS[0]))
        assert mask == [False, False, False, False, False]


# --------------------------------------------------------------- ColumnBatch
class TestColumnBatch:
    def test_roundtrip_from_annotated(self, catalog):
        annotated = catalog.relation("S").annotated()
        schema = catalog.relation("S").schema
        batch = ColumnBatch.from_annotated(schema, annotated)
        assert batch.n_rows == len(annotated)
        assert batch.column("City") == ["Creek", "Park", "Creek", "Creek", "Park"]
        back = batch.to_annotated()
        assert [(r.values, str(p)) for r, p in back] == [
            (r.values, str(p)) for r, p in annotated
        ]

    def test_gather_reorders_rows_and_provenance(self, catalog):
        schema = catalog.relation("S").schema
        batch = ColumnBatch.from_relation_rows("S", schema, catalog.relation("S").rows())
        picked = batch.gather([3, 0])
        assert picked.n_rows == 2
        assert [str(p) for p in picked.provs] == ["S#3", "S#0"]
        assert picked.row_values(0) == ("Monarch", "Creek", 40)

    def test_zero_column_batch_keeps_cardinality(self):
        batch = ColumnBatch(Schema([]), [], [p for p in range(3) for p in ()])
        assert batch.n_rows == 0
        empty = ColumnBatch.from_annotated(Schema([]), [])
        assert empty.to_annotated() == []

    def test_interning_shares_equal_strings(self, catalog):
        pool_before = len(INTERN)
        schema = catalog.relation("S").schema
        batch = ColumnBatch.from_relation_rows("S", schema, catalog.relation("S").rows())
        city = batch.column("City")
        assert city[0] is city[2]  # both "Creek", one object
        assert len(INTERN) >= pool_before


# ------------------------------------------------------- intern pool & normalize
class TestInternPool:
    def test_equal_strings_become_identical(self):
        pool = InternPool()
        a = pool.intern("main " + "street")
        b = pool.intern("main street")
        assert a is b
        assert pool.hits == 1 and pool.misses == 1

    def test_non_strings_pass_through(self):
        pool = InternPool()
        values = [None, 42, 3.5, ("t",)]
        assert [pool.intern(v) for v in values] == values
        assert len(pool) == 0
        assert pool.passes == 4

    def test_capacity_stops_admission_not_service(self):
        pool = InternPool(capacity=2)
        pool.intern("a")
        pool.intern("b")
        pool.intern("c")  # over capacity: returned as-is, not pooled
        assert len(pool) == 2
        assert pool.intern("a") is pool.intern("a")

    def test_intern_all_and_stats(self):
        pool = InternPool()
        column = ["x", "y", "x", None, 7]
        interned = pool.intern_all(column)
        assert interned == column
        assert interned[0] is interned[2]
        stats = pool.stats()
        assert stats["size"] == 2
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["passes"] == 2


class TestNormalizeCache:
    def test_normalize_still_normalizes(self):
        assert normalize("  Main   St. ") == "main st."
        assert normalize("Creek​County") == "creekcounty"

    def test_stats_count_hits_and_misses(self):
        probe = "NeVeR seen Before 9871"
        before = normalize_cache_stats()
        normalize(probe)
        normalize(probe)
        after = normalize_cache_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] >= before["hits"] + 1
        assert set(after) >= {"hits", "misses", "evictions", "size", "eviction_rate"}

    def test_eviction_rate_is_evictions_per_miss(self):
        stats = normalize_cache_stats()
        assert stats["eviction_rate"] == pytest.approx(
            stats["evictions"] / max(stats["misses"], 1)
        )

    def test_evictions_begin_past_capacity(self):
        normalize.cache_clear()
        try:
            for index in range(NORMALIZE_CACHE_CAPACITY):
                normalize(f"distinct value {index}")
            stats = normalize_cache_stats()
            assert (stats["misses"], stats["evictions"]) == (NORMALIZE_CACHE_CAPACITY, 0)
            normalize("one value more")
            stats = normalize_cache_stats()
            assert stats["evictions"] == 1
            assert stats["size"] == NORMALIZE_CACHE_CAPACITY
        finally:
            normalize.cache_clear()

    def test_normalize_results_are_interned(self):
        a = normalize("Creek  COUNTY")
        b = INTERN.intern("creek county")
        assert a is b


# ------------------------------------------------------------------- config
class TestColumnarConfig:
    def test_defaults(self):
        tiers = CacheTiers()
        assert tiers.compile.capacity > 0
        assert tiers.scan.capacity > 0


# ----------------------------------------------------------- operator parity
class JaccardLinker(RowLinker):
    def __init__(self, left_attr="Name", right_attr="Alias", blockable=True):
        self.left_attr, self.right_attr = left_attr, right_attr
        self.blockable = blockable

    def score(self, left, right):
        return token_jaccard(
            str(left.get(self.left_attr) or ""), str(right.get(self.right_attr) or "")
        )

    def block_attribute_pairs(self):
        if self.blockable:
            return ((self.left_attr, self.right_attr),)
        return None

    def describe(self):
        return "jaccard"


class TestOperatorParity:
    def test_scan(self, catalog):
        assert_parity(catalog, Scan("S"))

    def test_select_chain(self, catalog):
        plan = Select(
            Select(Scan("S"), Compare("Beds", ">", 5)), Contains("City", "cree")
        )
        assert_parity(catalog, plan)

    def test_project_and_rename(self, catalog):
        plan = Rename(Project(Scan("S"), ("City", "Name")), (("Name", "Shelter"),))
        result, _ = assert_parity(catalog, plan)
        assert result.schema.names == ("City", "Shelter")

    def test_join_skips_null_keys_both_sides(self, catalog):
        plan = Join(Scan("S"), Scan("D"), (("City", "City"),))
        result, _ = assert_parity(catalog, plan)
        assert all(row["City"] is not None for row in result.plain_rows())

    def test_join_multi_condition(self, catalog):
        plan = Join(
            Rename(Scan("S"), (("Name", "N1"),)),
            Rename(Scan("S"), (("Name", "N2"), ("Beds", "B2"))),
            (("City", "City"), ("N1", "N2")),
        )
        assert_parity(catalog, plan)

    def test_union_pads_missing_attributes(self, catalog):
        plan = Union((Project(Scan("S"), ("City", "Name")), Scan("D")))
        result, _ = assert_parity(catalog, plan)
        assert "Damage" in result.schema.names
        # S-part rows are padded with NULL damage
        assert result.rows[0][0]["Damage"] is None

    def test_distinct_merges_provenance(self, catalog):
        plan = Distinct(Project(Scan("S"), ("City",)))
        result, _ = assert_parity(catalog, plan)
        assert len(result) == 2
        # both Creek occurrences folded into a ⊕ of three scan vars
        creek_prov = str(result.provenance_of(result.plain_rows()[0]))
        assert "+" in creek_prov

    def test_groupby(self, catalog):
        plan = GroupBy(
            Scan("S"), ("City",), (AggSpec("count", "Name", "n"), AggSpec("sum", "Beds", "beds"))
        )
        assert_parity(catalog, plan)

    def test_global_aggregate(self, catalog):
        plan = GroupBy(Scan("S"), (), (AggSpec("max", "Beds", "most"),))
        assert_parity(catalog, plan)

    def test_dependent_join(self, catalog):
        plan = DependentJoin(Scan("S"), "Z", (("City", "City"),))
        result, _ = assert_parity(catalog, plan)
        assert {row["Zip"] for row in result.plain_rows()} == {"33063", "33309"}

    def test_dependent_join_null_inputs_skipped(self, catalog):
        rel = Relation("NC", schema_of("City"))
        rel.extend([["Creek"], [None], ["Park"]])
        catalog.add_relation(rel)
        plan = DependentJoin(Scan("NC"), "Z", (("City", "City"),))
        result, _ = assert_parity(catalog, plan)
        assert len(result) == 2

    def test_record_link_join_blocked_and_unblocked(self, catalog, monkeypatch):
        aliases = Relation("A", schema_of("Alias", "Contact"))
        aliases.extend(
            [["Monarch Shelter", "x"], ["Tedder", "y"], ["Norcrest Hall", "z"]]
        )
        catalog.add_relation(aliases)
        # Force the blocking route at this scale.
        monkeypatch.setattr("repro.substrate.relational.evaluator.BLOCKING_MIN_PAIRS", 1)
        for blockable in (True, False):
            plan = RecordLinkJoin(
                Scan("S"),
                Scan("A"),
                JaccardLinker(blockable=blockable),
                threshold=0.3,
                best_only=True,
            )
            assert_parity(catalog, plan)
            plan_all = RecordLinkJoin(
                Scan("S"), Scan("A"), JaccardLinker(blockable=blockable),
                threshold=0.3, best_only=False,
            )
            assert_parity(catalog, plan_all)

    def test_deep_composite_plan(self, catalog):
        plan = Distinct(
            GroupBy(
                Join(
                    Select(Scan("S"), NotNull("Name")),
                    Rename(Scan("D"), (("Damage", "Level"),)),
                    (("City", "City"),),
                ),
                ("City", "Level"),
                (AggSpec("count", "Name", "n"),),
            )
        )
        assert_parity(catalog, plan)


class TestStatefulParity:
    def test_distrusted_rows_filtered(self, catalog):
        catalog.metadata("S").notes["distrusted_rows"] = {0, 3}
        result, _ = assert_parity(catalog, Scan("S"))
        assert len(result) == 3
        assert [str(p) for _, p in result.rows] == ["S#1", "S#2", "S#4"]

    def test_quarantined_source_degrades(self, catalog):
        from repro.drift import quarantine_source_in_catalog

        quarantine_source_in_catalog(catalog, "S", "layout drift")
        columnar, row = assert_parity(catalog, Select(Scan("S"), TRUE))
        assert columnar.is_degraded and row.is_degraded

    def test_degraded_service_parity(self, catalog):
        # The circuit breaker is stateful across runs, so each leg gets a
        # freshly reset breaker — then both must trip it identically.
        service = catalog.service("Z")
        plan = DependentJoin(Scan("S"), "Z", (("City", "City"),))
        policy = FaultPolicy(seed=1, per_service={"Z": FaultSpec(persistent=True)})
        try:
            with RESILIENCE.overridden(retry_base_ms=0.0), FAULTS.injected(policy):
                service.breaker.reset()
                columnar = Evaluator(catalog).run(plan)
                service.breaker.reset()
                row = reference(catalog, plan)
            assert snapshot(columnar) == snapshot(row)
            assert columnar.is_degraded
            assert columnar.degraded_services() == ("Z",)
            for r, prov in columnar.rows:
                assert r.get("Zip") is None
                assert "degraded:Z" in str(prov)
        finally:
            service.breaker.reset()

    def test_catalog_mutation_invalidates_compiled_plans(self, catalog):
        evaluator = Evaluator(catalog)
        plan = Join(Scan("S"), Scan("D"), (("City", "City"),))
        first = evaluator.run(plan)
        catalog.relation("D").add(["Lake", "minor"])
        catalog.bump_version()
        second = evaluator.run(plan)
        assert len(second) == len(first)  # Lake matches no shelter
        catalog.relation("S").add(["Bayou", "Lake", 12])
        catalog.bump_version()
        third = evaluator.run(plan)
        assert len(third) == len(first) + 1

    def test_compiled_plans_are_memoized(self, catalog):
        evaluator = Evaluator(catalog)
        plan = Limit(Distinct(Scan("S")), 2)
        first = evaluator.run(plan)
        second = evaluator.run(plan)
        assert snapshot(first) == snapshot(second)
        stats = evaluator.tiers.compile.stats()
        assert stats["size"] == 1 and stats["hits"] == 1


class CountingOddBeds(Predicate):
    """A predicate with no mask function: counts the rows it examines."""

    def __init__(self):
        self.calls = 0

    def matches(self, row):
        self.calls += 1
        return bool(row["Beds"]) and row["Beds"] % 2 == 1

    def __str__(self):
        return "CountingOddBeds"


class ReadsNope(Predicate):
    """A custom predicate reading an attribute no test relation has."""

    def matches(self, row):
        return row["Nope"] == 1

    def __str__(self):
        return "ReadsNope"


class TestFallbacks:
    """Shapes the compiler handles by a fallback inside the one engine: a
    predicate with no mask function falls back to row-wise ``matches``,
    ``Limit`` to a row cap that stops at the nearest Select, a renamed
    subclass to the by-name dispatch error. Each must match the reference
    interpreter.
    """

    def test_limit_falls_back(self, catalog):
        assert_parity(catalog, Limit(Scan("S"), 2))
        assert_parity(catalog, Limit(Limit(Project(Scan("S"), ("City",)), 3), 2))
        assert_parity(catalog, Limit(Distinct(Project(Scan("S"), ("City",))), 1))
        assert_parity(catalog, Limit(Union((Scan("D"), Scan("D"))), 4))
        assert_parity(catalog, Limit(Scan("S"), 0))
        assert_parity(catalog, Limit(Scan("S"), -1))

    def test_limit_cap_stops_at_the_nearest_select(self, catalog):
        # A Select drops rows, so the cap must not reach below it: the first
        # Creek row (Monarch) fails the outer predicate, and the answer is
        # the first row satisfying both.
        creek, norcrest = eq("City", "Creek"), eq("Name", "Norcrest")
        result, _ = assert_parity(
            catalog, Limit(Select(Select(Scan("S"), creek), norcrest), 1)
        )
        assert [row["Name"] for row in result.plain_rows()] == ["Norcrest"]
        result, _ = assert_parity(
            catalog,
            Limit(
                Select(Project(Select(Scan("S"), creek), ("Name", "City")), norcrest),
                1,
            ),
        )
        assert [row["Name"] for row in result.plain_rows()] == ["Norcrest"]
        result, _ = assert_parity(
            catalog, Limit(Select(Select(Scan("S"), CountingOddBeds()), TRUE), 1)
        )
        assert [row["Name"] for row in result.plain_rows()] == ["Tedder"]
        result, _ = assert_parity(
            catalog, Limit(Select(Limit(Scan("S"), 5), creek), 2)
        )
        assert [row["Name"] for row in result.plain_rows()] == ["Monarch", "Norcrest"]

    def test_limit_stops_row_wise_predicate_at_the_cap(self, catalog):
        predicate = CountingOddBeds()
        plan = Limit(Rename(Select(Scan("S"), predicate), (("Name", "N"),)), 1)
        result = Evaluator(catalog).run(plan)
        assert [row["N"] for row, _ in result.rows] == ["Tedder"]
        assert predicate.calls == 2  # Monarch (40) rejected, Tedder (25) kept
        assert snapshot(result) == snapshot(reference(catalog, plan))

    def test_limit_zero_never_runs_its_child(self, catalog):
        from repro.drift import quarantine_source_in_catalog

        quarantine_source_in_catalog(catalog, "S", "layout drift")
        result, _ = assert_parity(catalog, Limit(Select(Scan("S"), TRUE), 0))
        assert len(result) == 0 and not result.is_degraded
        capped, _ = assert_parity(catalog, Limit(Select(Scan("S"), TRUE), 1))
        assert capped.is_degraded

    def test_unknown_plan_subclass_falls_back(self, catalog):
        # Nodes dispatch by class name: a renamed subclass has no compiler,
        # exactly as the reference interpreter has no method for it.
        class MyScan(Scan):
            pass

        with pytest.raises(EvaluationError, match="MyScan"):
            Evaluator(catalog).run(MyScan("S"))
        with pytest.raises(EvaluationError, match="MyScan"):
            reference(catalog, MyScan("S"))

    def test_unknown_predicate_subclass_falls_back(self, catalog):
        plan = Select(Scan("S"), CountingOddBeds())
        result, _ = assert_parity(catalog, plan)
        assert [row["Beds"] for row in result.plain_rows()] == [25]

    def test_predicate_missing_attribute_fails_per_row(self, catalog):
        # A built-in predicate is checked as the plan compiles: PLAN002,
        # even over an input with no rows.
        catalog.add_relation(Relation("E", schema_of("Name")))
        for source in ("S", "E"):
            with pytest.raises(PlanAnalysisError) as exc:
                Evaluator(catalog).run(Select(Scan(source), Compare("Nope", "==", 1)))
            assert exc.value.diagnostic.code == "PLAN002"
        # Only a custom predicate keeps the per-row path: it fails on the
        # first row it examines, and never on an empty input.
        plan = Select(Scan("S"), ReadsNope())
        with pytest.raises(UnknownAttributeError):
            Evaluator(catalog).run(plan)
        with pytest.raises(UnknownAttributeError):
            reference(catalog, plan)
        assert_parity(catalog, Select(Scan("E"), ReadsNope()))

    @staticmethod
    def _unhashable_distinct():
        # Keeps Distinct's name and adds a list field: no fingerprint can
        # be computed for it, so it has no sound cache key.
        return dataclasses.make_dataclass(
            "Distinct",
            [("tags", list, dataclasses.field(default_factory=list))],
            bases=(Distinct,),
            frozen=True,
        )

    def test_checkerless_subclass_compiles(self, catalog):
        # Keeps its parent's name, so it dispatches as a Distinct with no
        # registration of its own; the schema comes from the inherited
        # schema rule, so it compiles and is memoized.
        cls = type("Distinct", (Distinct,), {})
        plan = cls(Project(Scan("S"), ("City",)))
        evaluator = Evaluator(catalog)
        for _ in range(2):
            assert snapshot(evaluator.run(plan)) == snapshot(reference(catalog, plan))
        assert len(evaluator.tiers.compile) == 1

    def test_gapped_fingerprint_compiles_unmemoized(self, catalog):
        # A node without a fingerprint could alias two plans under any key,
        # so its compilation is never stored: each plan gets its own answer.
        cls = self._unhashable_distinct()
        evaluator = Evaluator(catalog)
        answers = []
        for child in (Project(Scan("S"), ("City",)), Scan("D")):
            plan = cls(child, ["x"])
            answers.append(snapshot(evaluator.run(plan)))
            assert answers[-1] == snapshot(reference(catalog, plan))
        assert answers[0] != answers[1]
        assert len(evaluator.tiers.compile) == 0
        assert len(evaluator.plan_cache) == 0

    def test_name_reusing_unregistered_subclass_compiles_each_run(self, catalog):
        cls = self._unhashable_distinct()
        plan = Limit(cls(Project(Scan("S"), ("City",)), ["x"]), 1)
        obs.reset()
        obs.enable()
        try:
            evaluator = Evaluator(catalog)
            for _ in range(2):
                assert snapshot(evaluator.run(plan)) == snapshot(reference(catalog, plan))
            assert len(evaluator.tiers.compile) == 0
            assert evaluator.plan_cache.stats()["size"] == 0
            assert METRICS.counter_value("analysis.fingerprint_unregistered") == 2
        finally:
            obs.disable()
            obs.reset()

    def test_name_reusing_subclass_memoized_under_own_key(self, catalog):
        # Keeps its parent's name, so it compiles (and is analyzed) as a
        # Distinct; its fingerprint keys on its own type, so the memos
        # never serve it the parent's entry, nor the parent its own.
        cls = type("Distinct", (Distinct,), {})
        evaluator = Evaluator(catalog)
        for plan in (cls(Project(Scan("S"), ("City",))), cls(Scan("D")),
                     Distinct(Project(Scan("S"), ("City",)))):
            for _ in range(2):
                assert snapshot(evaluator.run(plan)) == snapshot(reference(catalog, plan))
        assert len(evaluator.tiers.compile) == 3
        assert len(evaluator.plan_cache) == 3

    def test_every_plan_counts_as_compiled(self, catalog):
        obs.reset()
        obs.enable()
        try:
            evaluator = Evaluator(catalog)
            evaluator.run(Scan("S"))
            evaluator.run(Limit(Scan("S"), 1))
            assert METRICS.counter_value("columnar.plans") == 2
        finally:
            obs.disable()
            obs.reset()

    def test_error_parity_on_bad_aggregate(self, catalog):
        plan = GroupBy(Scan("S"), ("City",), (AggSpec("sum", "Name", "s"),))
        with pytest.raises(EvaluationError):
            Evaluator(catalog).run(plan)
        with pytest.raises(EvaluationError):
            reference(catalog, plan)


# ------------------------------------------------------------ blocking helpers
class TestBlockingHelpers:
    def test_column_token_keys_match_row_keys(self):
        rows = [{"Name": "Monarch Shelter"}, {"Name": None}, {"Name": "a bc"}]
        key_fn = token_block_key("Name")

        class D(dict):
            def get(self, k, default=None):
                return dict.get(self, k, default)

        per_row = [set(key_fn(D(r))) for r in rows]
        per_col = [set(k) for k in column_token_keys([r["Name"] for r in rows])]
        assert per_row == per_col

    def test_candidate_pairs_from_keys_equals_row_based(self):
        left = [{"Name": "creek house"}, {"Name": "park"}]
        right = [{"Alias": "creek"}, {"Alias": "park lane"}, {"Alias": "zzz"}]
        key_fns = [(token_block_key("Name"), token_block_key("Alias"))]
        row_based = candidate_pairs(left, right, key_fns)
        col_based = candidate_pairs_from_keys(
            [column_token_keys([r["Name"] for r in left])],
            [column_token_keys([r["Alias"] for r in right])],
        )
        assert row_based == col_based == [(0, 0), (1, 1)]


# -------------------------------------------------------------- stats line
class TestStatsLine:
    def test_line_shape(self):
        line = next(line for line in obs.render_summary() if line.startswith("columnar:"))
        for name in ("plans", "compile.hits", "scan.hits", "intern.size"):
            assert f" {name}=" in line
