"""Tests for the caching / incremental-evaluation subsystem (repro.cache).

Correctness contract: every cache layer must be invisible — cached results
are identical (provenance expressions included) to a cold evaluation and to
the reference interpreter, and any action that can change an answer must
invalidate.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CopyCatSession, build_scenario, obs
from repro.cache import (
    LRUCache,
    linker_token,
    plan_fingerprint,
)
from repro.cache.fingerprint import plan_fingerprints
from repro.substrate.documents import Browser
from repro.substrate.relational import (
    AttrCompare,
    Catalog,
    Compare,
    DependentJoin,
    Distinct,
    Evaluator,
    Join,
    Limit,
    Plan,
    Project,
    RecordLinkJoin,
    Relation,
    RowLinker,
    Scan,
    Select,
    Union,
    eq,
    schema_of,
    walk,
)
from repro.substrate.relational.schema import BindingPattern
from repro.substrate.services.base import FunctionService, TableBackedService

from .reference_interpreter import evaluate as reference
from .test_property_based import _FINGERPRINT_OPS, _plans


@pytest.fixture()
def catalog():
    cat = Catalog()
    shelters = Relation("S", schema_of("Name", "City"))
    shelters.extend([["Monarch", "Creek"], ["Tedder", "Park"], ["Norcrest", "Creek"]])
    cat.add_relation(shelters)
    damage = Relation("D", schema_of("City", "Damage"))
    damage.extend([["Creek", "minor"], ["Park", "severe"]])
    cat.add_relation(damage)
    zips = TableBackedService(
        "Z",
        schema_of("City", "Zip"),
        BindingPattern(inputs=("City",)),
        [{"City": "Creek", "Zip": "33063"}, {"City": "Park", "Zip": "33309"}],
    )
    cat.add_service(zips)
    return cat


def result_key(result):
    """Rows and provenance expressions, the full user-visible contract."""
    return [(tuple(row.values), str(prov)) for row, prov in result.rows]


JOIN_PLAN = Join(Scan("S"), Scan("D"), (("City", "City"),))


class TestLRUCache:
    def test_get_put_and_stats(self):
        cache = LRUCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0, "size": 1}

    def test_lru_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" becomes the eviction victim
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_clear_drops_entries_keeps_lifetime_stats(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


class TestPlanFingerprint:
    def test_equal_plans_share_fingerprints(self):
        a = Select(Join(Scan("S"), Scan("D"), (("City", "City"),)), eq("Damage", "minor"))
        b = Select(Join(Scan("S"), Scan("D"), (("City", "City"),)), eq("Damage", "minor"))
        assert a is not b
        assert plan_fingerprint(a) == plan_fingerprint(b)
        assert hash(plan_fingerprint(a)) == hash(plan_fingerprint(b))

    def test_different_plans_differ(self):
        assert plan_fingerprint(Scan("S")) != plan_fingerprint(Scan("D"))
        assert plan_fingerprint(Limit(Scan("S"), 1)) != plan_fingerprint(Limit(Scan("S"), 2))
        assert plan_fingerprint(
            Select(Scan("S"), eq("City", "Creek"))
        ) != plan_fingerprint(Select(Scan("S"), eq("City", "Park")))
        one, two = TestFingerprintAliasing.ONE, TestFingerprintAliasing.TWO
        assert str(one) == str(two)
        assert plan_fingerprint(Select(Scan("S"), one)) != plan_fingerprint(Select(Scan("S"), two))

    def test_trained_linker_fingerprints_differently(self):
        from repro.linking.linker import LearnedLinker, LinkExample
        from repro.linking.similarity import FieldPair

        a = LearnedLinker([FieldPair("Name", "Name")])
        b = LearnedLinker([FieldPair("Name", "Name")])
        # Two freshly-built linkers over the same fields are interchangeable...
        assert linker_token(a) == linker_token(b)
        # An acronym match whose hard negative outranks it under uniform
        # weights: forces a weight update.
        updates = b.train(
            [LinkExample(left={"Name": "Hollywood HS"}, right={"Name": "Hollywood High School"})],
            [{"Name": "Hollywood High School"}, {"Name": "Hollywood HS Annex"}],
        )
        assert updates > 0
        # ...but training changes the weights, hence the fingerprint.
        assert linker_token(a) != linker_token(b)

    def test_unknown_linker_falls_back_to_identity(self):
        from repro.substrate.relational import RowLinker

        class Opaque(RowLinker):
            def score(self, left, right):  # pragma: no cover
                return 0.0

        one, other = Opaque(), Opaque()
        assert linker_token(one) == linker_token(one)
        assert linker_token(one) != linker_token(other)


class TestFingerprintAliasing:
    """Two predicates that print alike must never share a cache entry."""

    # Both render as "a == b == c", over a relation with those four columns.
    ONE = AttrCompare("a == b", "==", "c")
    TWO = AttrCompare("a", "==", "b == c")

    @pytest.fixture()
    def aliasing_catalog(self):
        cat = Catalog()
        rel = Relation("R", schema_of("a == b", "c", "a", "b == c"))
        rel.extend([["x", "x", "p", "q"], ["y", "y", "r", "r"]])  # ONE: 2 rows, TWO: 1
        cat.add_relation(rel)
        tags = Relation("T", schema_of("c", "Tag"))
        tags.extend([["x", "t1"], ["y", "t2"]])
        cat.add_relation(tags)
        return cat

    def test_root_compile_memo_does_not_alias(self, aliasing_catalog):
        evaluator = Evaluator(aliasing_catalog)
        assert len(evaluator.run(Select(Scan("R"), self.ONE)).rows) == 2
        second = Select(Scan("R"), self.TWO)
        assert result_key(evaluator.run(second)) == result_key(
            Evaluator(aliasing_catalog).run(second)
        )
        assert len(evaluator.run(second).rows) == 1

    def test_plan_cache_under_join_does_not_alias(self, aliasing_catalog):
        # Different Limit counts give the roots different fingerprints, so
        # only the shared-subplan cache could serve the Join the wrong rows.
        def plan(predicate, count):
            return Limit(Join(Select(Scan("R"), predicate), Scan("T"), (("c", "c"),)), count)

        evaluator = Evaluator(aliasing_catalog)
        assert len(evaluator.run(plan(self.ONE, 10)).rows) == 2
        second = plan(self.TWO, 11)
        assert result_key(evaluator.run(second)) == result_key(
            Evaluator(aliasing_catalog).run(second)
        )
        assert len(evaluator.run(second).rows) == 1

    def test_unhashable_field_evaluates_uncached(self, catalog):
        plan = Distinct(Select(Scan("S"), Compare("City", "==", ["Creek"])))
        with pytest.raises(TypeError):
            plan_fingerprint(plan)
        obs.reset()
        obs.enable()
        try:
            evaluator = Evaluator(catalog)
            for _ in range(2):
                assert evaluator.run(plan).rows == []
            assert obs.METRICS.counter_value("analysis.fingerprint_unregistered") == 2
            assert len(evaluator.tiers.compile) == 0
            assert len(evaluator.plan_cache) == 0
        finally:
            obs.disable()
            obs.reset()


def recursive_fingerprint(plan):
    """The plain recursive definition: every node re-walks its subtree."""

    def token(value):
        if isinstance(value, Plan):
            return (type(value), *[token(getattr(value, f.name)) for f in dataclasses.fields(value)])
        if isinstance(value, tuple):
            return tuple(token(item) for item in value)
        if isinstance(value, RowLinker):
            return linker_token(value)
        return value

    return token(plan)


@st.composite
def _plans_sharing_subtrees(draw):
    """Random plans; some reuse one subtree object twice under a Union."""
    plan, _ = draw(_plans(depth=3, ops=_FINGERPRINT_OPS + ("dependent",)))
    if draw(st.booleans()):
        plan = Union((plan, Distinct(plan)))
    return plan


class TestOneWalkFingerprints:
    """``plan_fingerprints`` tokenizes each node once, bottom-up, and its
    tokens equal the recursive definition node by node."""

    @given(_plans_sharing_subtrees())
    @settings(max_examples=300, deadline=None)
    def test_one_walk_equals_the_recursive_reference(self, plan):
        tokens = plan_fingerprints(plan)
        nodes = {id(node): node for node in walk(plan)}
        assert tokens.keys() == nodes.keys()  # each distinct node tokenized once
        for key, node in nodes.items():
            assert tokens[key] == recursive_fingerprint(node)
        assert plan_fingerprint(plan) == tokens[id(plan)]

    def test_unhashable_field_poisons_only_its_ancestors(self):
        bad = Select(Scan("S"), Compare("City", "==", ["Creek"]))
        plan = Union((Distinct(bad), Distinct(Scan("D"))))
        tokens = plan_fingerprints(plan)
        for node in (plan, plan.parts[0], bad):
            with pytest.raises(TypeError):
                hash(tokens[id(node)])
        assert tokens[id(plan.parts[1])] == plan_fingerprint(plan.parts[1])

    @staticmethod
    def _train(linker):
        from repro.linking.linker import LinkExample

        updates = linker.train(
            [LinkExample(left={"Name": "Hollywood HS"}, right={"Name": "Hollywood High School"})],
            [{"Name": "Hollywood High School"}, {"Name": "Hollywood HS Annex"}],
        )
        assert updates > 0

    def test_same_link_plan_fingerprints_differently_after_training(self):
        from repro.linking.linker import LearnedLinker
        from repro.linking.similarity import FieldPair

        linker = LearnedLinker([FieldPair("Name", "Name")])
        plan = Distinct(RecordLinkJoin(Scan("L"), Scan("R"), linker))
        before = plan_fingerprint(plan)
        walked_before = plan_fingerprints(plan)[id(plan.child)]
        self._train(linker)
        assert plan_fingerprint(plan) != before
        assert plan_fingerprints(plan)[id(plan.child)] != walked_before
        assert plan_fingerprints(plan)[id(plan.child)] == recursive_fingerprint(plan.child)

    def test_evaluator_rekeys_a_link_plan_after_training(self):
        from repro.linking.linker import LearnedLinker
        from repro.linking.similarity import FieldPair

        cat = Catalog()
        for name, rows in (("L", [["Hollywood HS"]]),
                           ("R", [["Hollywood High School"], ["Hollywood HS Annex"]])):
            relation = Relation(name, schema_of("Name"))
            relation.extend(rows)
            cat.add_relation(relation)
        linker = LearnedLinker([FieldPair("Name", "Name")])
        plan = RecordLinkJoin(Scan("L"), Scan("R"), linker)
        evaluator = Evaluator(cat)
        evaluator.run(plan)
        evaluator.run(plan)
        assert len(evaluator.tiers.compile) == 1
        assert len(evaluator.plan_cache) == 1
        self._train(linker)
        after = evaluator.run(plan)
        assert len(evaluator.tiers.compile) == 2
        assert len(evaluator.plan_cache) == 2
        assert result_key(after) == result_key(reference(cat, plan))


class TestPlanCache:
    def test_cached_equals_uncached_including_provenance(self, catalog):
        plan = Union(
            (
                Project(JOIN_PLAN, ("Name", "City")),
                Project(Scan("S"), ("Name", "City")),
            )
        )
        uncached = reference(catalog, plan)
        evaluator = Evaluator(catalog)
        first = evaluator.run(plan)
        second = evaluator.run(plan)  # served from the plan cache
        assert result_key(first) == result_key(uncached)
        assert result_key(second) == result_key(uncached)
        assert evaluator.plan_cache.stats()["hits"] > 0

    def test_shared_join_prefix_evaluated_once(self, catalog):
        evaluator = Evaluator(catalog)
        evaluator.run(Project(JOIN_PLAN, ("Name",)))
        misses_after_first = evaluator.plan_cache.stats()["misses"]
        # A different plan embedding the same join prefix: the prefix hits.
        evaluator.run(Select(JOIN_PLAN, eq("Damage", "minor")))
        stats = evaluator.plan_cache.stats()
        assert stats["hits"] >= 1
        assert stats["misses"] == misses_after_first

    def test_catalog_change_invalidates(self, catalog):
        evaluator = Evaluator(catalog)
        before = evaluator.run(JOIN_PLAN)
        catalog.relation("D").add(["Creek", "moderate"])  # no explicit bump
        after = evaluator.run(JOIN_PLAN)
        # The row-count component of Catalog.version catches the append.
        assert len(after) == len(before) + 2

    def test_bump_version_invalidates(self, catalog):
        evaluator = Evaluator(catalog)
        evaluator.run(JOIN_PLAN)
        hits_before = evaluator.plan_cache.stats()["hits"]
        catalog.bump_version()
        evaluator.run(JOIN_PLAN)
        assert evaluator.plan_cache.stats()["hits"] == hits_before

    def test_distinct_served_from_cache(self, catalog):
        plan = Distinct(Project(Scan("S"), ("City",)))
        evaluator = Evaluator(catalog)
        assert result_key(evaluator.run(plan)) == result_key(evaluator.run(plan))
        assert evaluator.plan_cache.stats()["hits"] >= 1


class TestCatalogVersion:
    def test_version_bumps_on_registry_changes(self, catalog):
        v0 = catalog.version
        extra = Relation("E", schema_of("X"))
        catalog.add_relation(extra)
        v1 = catalog.version
        assert v1 != v0
        catalog.remove("E")
        assert catalog.version not in (v0, v1)

    def test_version_reflects_row_appends(self, catalog):
        v0 = catalog.version
        catalog.relation("S").add(["Lakeside", "Creek"])
        assert catalog.version != v0


class TestServiceMemo:
    def test_memo_skips_backend_and_matches(self, catalog):
        service = catalog.service("Z")
        first = service.invoke({"City": "Creek"})
        second = service.invoke({"City": "Creek"})
        assert second == first
        assert service.call_count == 2
        assert service.backend_calls == 1
        assert service.cache_stats()["hits"] == 1

    def test_memo_returns_copies(self, catalog):
        service = catalog.service("Z")
        service.invoke({"City": "Creek"})[0]["Zip"] = "corrupted"
        assert service.invoke({"City": "Creek"})[0]["Zip"] == "33063"

    def test_invalidate_cache_rehits_backend(self, catalog):
        service = catalog.service("Z")
        service.invoke({"City": "Park"})
        service.invalidate_cache()
        service.invoke({"City": "Park"})
        assert service.backend_calls == 2

    def test_unhashable_inputs_skip_memo(self):
        calls = []

        def lookup(Tags):
            calls.append(Tags)
            return {"Count": len(Tags)}

        service = FunctionService(
            "T",
            schema_of("Tags", "Count"),
            BindingPattern(inputs=("Tags",)),
            lookup,
        )
        assert service.invoke({"Tags": ["a", "b"]}) == [{"Tags": ["a", "b"], "Count": 2}]
        service.invoke({"Tags": ["a", "b"]})
        assert len(calls) == 2  # lists are unhashable: no memoization, no crash


class TestDependentJoinDedup:
    def test_duplicate_bindings_invoke_backend_once(self, catalog):
        # call_count counts memo hits too, so it sees the evaluator-side
        # dedup whether or not the service memo answers.
        catalog.relation("S").add(["Lakeside", "Creek"])  # third "Creek" row
        plan = DependentJoin(Scan("S"), "Z", (("City", "City"),))
        result = Evaluator(catalog).run(plan)
        service = catalog.service("Z")
        assert len(result) == 4
        assert service.call_count == 2  # Creek, Park: one invoke per binding
        # Duplicate bindings still carry their own row provenance.
        provs = {str(p) for _, p in result.rows}
        assert len(provs) == 4


class TestSessionSuggestionReuse:
    @pytest.fixture()
    def session(self):
        scenario = build_scenario(seed=5, n_shelters=8, noise=1)
        session = CopyCatSession(catalog=scenario.catalog, seed=1)
        browser = Browser(session.clipboard, scenario.website)
        browser.navigate(scenario.list_urls()[0])
        listing = browser.page.dom.find("table", "listing")
        rows = [n for n in listing.children if "record" in n.css_classes]
        browser.copy_record(rows[0], "Shelters")
        session.paste()
        session.accept_row_suggestions()
        for index, name in enumerate(["Name", "Street", "City"]):
            session.label_column(index, name)
        session.commit_source()
        session.start_integration("Shelters")
        return session

    def test_unchanged_state_reuses_batch(self, session):
        first = session.column_suggestions(k=4)
        assert session.column_suggestions(k=4) is first

    def test_changed_k_recomputes(self, session):
        first = session.column_suggestions(k=4)
        assert session.column_suggestions(k=2) is not first

    def test_trust_feedback_recomputes(self, session):
        first = session.column_suggestions(k=4)
        session.promote_row(0)
        assert session.column_suggestions(k=4) is not first

    def test_refresh_true_always_recomputes(self, session):
        first = session.column_suggestions(k=4)
        assert session.column_suggestions(k=4, refresh=True) is not first


class TestCacheStatsLine:
    def test_line_reports_counters_and_disabled_layers(self, catalog):
        obs.reset()
        obs.enable()
        try:
            evaluator = Evaluator(catalog)
            evaluator.run(JOIN_PLAN)
            evaluator.run(JOIN_PLAN)
            catalog.service("Z").invoke({"City": "Creek"})
            catalog.service("Z").invoke({"City": "Creek"})
            summary = obs.render_summary()
        finally:
            obs.disable()
            obs.reset()
        assert " plan.hits=1 plan.misses=1 " in next(line for line in summary if line.startswith("cache:"))
        assert " cache.hits=1 cache.misses=1 " in next(line for line in summary if line.startswith("service:"))
