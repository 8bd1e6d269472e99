"""Tests for MIRA, query compilation, and the integration learner facade."""

from __future__ import annotations

import pytest

from repro.drift.quarantine import (
    DRIFT_EVENTS_NOTE,
    DRIFT_RESYNCS_NOTE,
    QUARANTINE_NOTE,
    drift_rate,
    note_drift_event,
    note_resync,
    quarantine_source_in_catalog,
    release_source_in_catalog,
)
from repro.errors import CatalogError, IntegrationError
from repro.learning.integration import (
    Association,
    IntegrationLearner,
    MiraLearner,
    SourceGraph,
    SourceNode,
    SteinerTree,
    compile_tree,
    extend_query,
)
from repro.learning.integration.learner import (
    DRIFT_PENALTY,
    FAILURE_PENALTY,
    QUARANTINE_PENALTY,
)
from repro.obs import METRICS
from repro.substrate.relational import (
    Attribute,
    Evaluator,
    Relation,
    Schema,
    SourceMetadata,
    schema_of,
)
from repro.substrate.relational.schema import CITY, PLACE, STREET


def typed_shelters_catalog(scenario):
    cat = scenario.catalog
    shelters = Relation(
        "Shelters",
        Schema(
            [
                Attribute("Name", PLACE),
                Attribute("Street", STREET),
                Attribute("City", CITY),
            ]
        ),
    )
    for row in scenario.truth_shelter_rows():
        shelters.add(row)
    cat.add_relation(shelters, SourceMetadata(origin="paste"))
    return cat


class TestMira:
    def make_graph(self):
        graph = SourceGraph()
        for name in "ABC":
            graph.add_node(SourceNode(name, schema_of("x"), False))
        e1 = graph.add_edge(Association("A", "B", "join", (("x", "x"),)), cost=1.0)
        e2 = graph.add_edge(Association("B", "C", "join", (("x", "x"),)), cost=1.0)
        e3 = graph.add_edge(Association("A", "C", "join", (("x", "x"),)), cost=1.0)
        return graph, e1, e2, e3

    def test_rank_update_moves_only_differing_edges(self):
        graph, e1, e2, e3 = self.make_graph()
        mira = MiraLearner(graph, margin=0.5)
        preferred = frozenset({e1.key, e2.key})
        other = frozenset({e1.key, e3.key})
        before_shared = graph.cost(e1)
        assert mira.rank_update(preferred, other)
        assert graph.cost(e1) == before_shared          # shared edge untouched
        assert graph.cost(e2) < 1.0                     # preferred-only got cheaper
        assert graph.cost(e3) > 1.0                     # other-only got costlier

    def test_rank_update_satisfies_constraint(self):
        graph, e1, e2, e3 = self.make_graph()
        mira = MiraLearner(graph, margin=0.5)
        preferred = frozenset({e2.key})
        other = frozenset({e3.key})
        mira.rank_update(preferred, other)
        assert mira.cost(preferred) + mira.margin <= mira.cost(other) + 1e-9

    def test_rank_update_noop_when_satisfied(self):
        graph, e1, e2, e3 = self.make_graph()
        graph.set_cost(e2, 0.1)
        mira = MiraLearner(graph, margin=0.5)
        assert not mira.rank_update(frozenset({e2.key}), frozenset({e3.key}))

    def test_demote_pushes_above_threshold(self):
        graph, e1, _, _ = self.make_graph()
        mira = MiraLearner(graph, margin=0.5, relevance_threshold=2.0)
        assert mira.demote(frozenset({e1.key}))
        assert graph.cost(e1) >= 2.5 - 1e-9

    def test_promote_pulls_below_threshold(self):
        graph, e1, _, _ = self.make_graph()
        graph.set_cost(e1, 5.0)
        mira = MiraLearner(graph, margin=0.5, relevance_threshold=2.0)
        assert mira.promote(frozenset({e1.key}))
        assert graph.cost(e1) < 5.0
        # Aggressiveness caps each step; iterating converges below threshold.
        while mira.promote(frozenset({e1.key})):
            pass
        assert graph.cost(e1) <= 1.5 + 1e-9

    def test_min_cost_floor(self):
        graph, e1, e2, e3 = self.make_graph()
        mira = MiraLearner(graph, margin=10.0, aggressiveness=100.0, min_cost=0.05)
        mira.rank_update(frozenset({e2.key}), frozenset({e3.key}))
        assert graph.cost(e2) >= 0.05

    def test_accept_updates_against_all_alternatives(self):
        graph, e1, e2, e3 = self.make_graph()
        mira = MiraLearner(graph, margin=0.5)
        updates = mira.accept(frozenset({e1.key}), [frozenset({e2.key}), frozenset({e3.key})])
        assert updates >= 2
        assert mira.cost({e1.key}) < mira.cost({e2.key})

    def test_history_records_updates(self):
        graph, e1, _, _ = self.make_graph()
        mira = MiraLearner(graph)
        features = frozenset({e1.key})
        assert mira.demote(features)
        assert mira.cost(features) >= mira.relevance_threshold + mira.margin - 1e-9


class TestQueryCompilation:
    def test_single_node_tree(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat)
        query = learner.base_query("Shelters")
        assert query.plan.describe() == "Scan(Shelters)"
        assert query.cost == 0.0

    def test_service_tree_compiles_to_dependent_join(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat)
        graph = learner.graph
        edge = next(
            e for e in graph.edges_of("Shelters")
            if e.kind == "service" and e.other("Shelters") == "ZipcodeResolver"
        )
        tree = SteinerTree(
            nodes=frozenset({"Shelters", "ZipcodeResolver"}),
            edges=(edge,),
            cost=graph.cost(edge),
        )
        query = compile_tree(tree, cat, graph)
        assert "DependentJoin" in query.plan.describe()
        result = Evaluator(cat).run(query.plan)
        assert result.schema.names[-1] == "Zip"
        assert len(result) == len(cat.relation("Shelters"))

    def test_service_only_tree_rejected(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat)
        tree = SteinerTree(nodes=frozenset({"ZipcodeResolver"}), edges=(), cost=0.0)
        with pytest.raises(IntegrationError):
            compile_tree(tree, cat, learner.graph)

    def test_root_must_be_in_tree(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat)
        tree = SteinerTree(nodes=frozenset({"Shelters"}), edges=(), cost=0.0)
        with pytest.raises(IntegrationError):
            compile_tree(tree, cat, learner.graph, root="DamageReports")

    def test_extend_query_adds_join(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat)
        query = learner.base_query("Shelters")
        edge = next(
            e for e in learner.graph.edges_of("Shelters")
            if e.kind == "join" and e.other("Shelters") == "DamageReports"
        )
        extended = extend_query(query, edge, cat, learner.graph)
        assert extended.cost == pytest.approx(learner.graph.cost(edge))
        assert "Damage" in extended.output_schema(cat).names

    def test_extend_with_detached_edge_fails(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat)
        query = learner.base_query("Shelters")
        edge = next(
            e for e in learner.graph.edges()
            if not e.touches("Shelters")
        )
        with pytest.raises(IntegrationError):
            extend_query(query, edge, cat, learner.graph)


class TestIntegrationLearnerFacade:
    def test_column_completions_respect_threshold(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat, relevance_threshold=0.5)
        completions = learner.column_completions(learner.base_query("Shelters"), k=10)
        assert completions == []  # all default costs exceed 0.5

    def test_column_completions_include_zip(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat)
        completions = learner.column_completions(learner.base_query("Shelters"), k=10)
        zips = [c for c in completions if "Zip" in c.added_attributes]
        assert any(c.added_source == "ZipcodeResolver" for c in zips)

    def test_visible_attributes_gate_service_edges(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat)
        completions = learner.column_completions(
            learner.base_query("Shelters"), k=10, visible_attributes=["Name"]
        )
        # Street/City were removed, so the zip resolver cannot be fed.
        assert all(c.added_source != "ZipcodeResolver" for c in completions)

    def test_refresh_preserves_learned_weights(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat)
        edge = learner.graph.edges_of("Shelters")[0]
        learner.graph.set_cost(edge, 0.123)
        learner.refresh()
        assert learner.graph.cost(edge.key) == pytest.approx(0.123)

    def test_identify_terminals_by_values(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat)
        rows = fresh_scenario.truth_shelter_rows()[:3]
        mapping = learner.identify_terminals(
            {"Name": [r["Name"] for r in rows], "City": [r["City"] for r in rows]}
        )
        assert mapping["Name"] == "Shelters"

    def test_identify_terminals_unknown_attr(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat)
        with pytest.raises(Exception):
            learner.identify_terminals({"Nonexistent": ["x"]})

    def test_steiner_queries_connect_two_relations(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat)
        queries = learner.steiner_queries(["Shelters", "DamageReports"], k=3)
        assert queries
        assert queries[0].nodes >= {"Shelters", "DamageReports"}
        result = Evaluator(cat).run(queries[0].plan)
        assert len(result) > 0

    def test_feedback_changes_ranking(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat)
        base = learner.base_query("Shelters")
        completions = learner.column_completions(base, k=6)
        assert len(completions) >= 2
        # Prefer whatever is ranked last; after acceptance it must rank first.
        target = completions[-1]
        others = [c.query for c in completions if c is not target]
        learner.accept_query(target.query, others)
        new_completions = learner.column_completions(base, k=6)
        assert new_completions[0].edge.key == target.edge.key

    def test_reject_drops_suggestion_below_threshold(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat)
        base = learner.base_query("Shelters")
        completions = learner.column_completions(base, k=6)
        rejected = completions[0]
        learner.reject_query(rejected.query)
        refreshed = learner.column_completions(base, k=10)
        assert all(c.edge.key != rejected.edge.key for c in refreshed)

    def test_requery_cost_tracks_current_weights(self, fresh_scenario):
        cat = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(cat)
        base = learner.base_query("Shelters")
        completion = learner.column_completions(base, k=1)[0]
        original = learner.requery_cost(completion.query)
        learner.reject_query(completion.query)
        assert learner.requery_cost(completion.query) > original


# ------------------------------------------------------------ edge repricing
class ReferenceLearner(IntegrationLearner):
    """The two absorb methods as two separate edge sweeps, the reference the
    shared repricing path is checked against. The drift sweep here has no
    O(1) key ahead of its state compare: while drift notes are written
    through the helpers, as every step below writes them, such a key
    skipped only calls whose state compare returns 0 as well."""

    def absorb_service_health(self) -> int:
        state = tuple(
            (service.name, service.health.successes, service.health.lookups_failed)
            for service in self.catalog.services()
        )
        if state == self._health_state:
            return 0
        self._health_state = state
        changed = 0
        for edge in self.graph.edges():
            rate = 0.0
            for endpoint in (edge.left, edge.right):
                if not self.graph.node(endpoint).is_service:
                    continue
                try:
                    service = self.catalog.service(endpoint)
                except CatalogError:
                    continue
                rate = max(rate, service.health.failure_rate())
            penalty = FAILURE_PENALTY * rate
            previous = self._health_penalty.get(edge.key, 0.0)
            if abs(penalty - previous) > 1e-12:
                self.graph.weights[edge.key] = (
                    self.graph.weights.get(edge.key, edge.default_cost())
                    + penalty
                    - previous
                )
                if penalty:
                    self._health_penalty[edge.key] = penalty
                else:
                    self._health_penalty.pop(edge.key, None)
                changed += 1
        if changed and METRICS.enabled:
            METRICS.inc("resilience.health_absorbed_edges", changed)
        return changed

    def absorb_drift_events(self) -> int:
        state = tuple(
            (
                name,
                self.catalog.metadata(name).notes.get(DRIFT_EVENTS_NOTE, 0),
                self.catalog.metadata(name).notes.get(DRIFT_RESYNCS_NOTE, 0),
                QUARANTINE_NOTE in self.catalog.metadata(name).notes,
            )
            for name in self.catalog.relation_names()
        )
        if state == self._drift_state:
            return 0
        self._drift_state = state
        penalties: dict[str, float] = {}
        for name, events, _resyncs, quarantined in state:
            if quarantined:
                penalties[name] = QUARANTINE_PENALTY
            elif events:
                penalties[name] = DRIFT_PENALTY * drift_rate(self.catalog, name)
        changed = 0
        for edge in self.graph.edges():
            penalty = max(
                penalties.get(edge.left, 0.0), penalties.get(edge.right, 0.0)
            )
            previous = self._drift_penalty.get(edge.key, 0.0)
            if abs(penalty - previous) > 1e-12:
                self.graph.weights[edge.key] = (
                    self.graph.weights.get(edge.key, edge.default_cost())
                    + penalty
                    - previous
                )
                if penalty:
                    self._drift_penalty[edge.key] = penalty
                else:
                    self._drift_penalty.pop(edge.key, None)
                changed += 1
        if changed and METRICS.enabled:
            METRICS.inc("drift.penalty_absorbed_edges", changed)
        return changed


_REPRICE_STEPS = ("success", "failure", "resync", "drift", "quarantine", "release",
                  "accept", "reject", "commit")


def _apply_reprice_step(step, draw, catalog, learners, rows):
    """One catalog or feedback event, applied once to the shared catalog (or
    to each learner's own graph, for MIRA feedback)."""
    services = list(catalog.services())
    relations = catalog.relation_names()
    if step in ("success", "failure"):
        health = services[draw % len(services)].health
        if step == "success":
            health.successes += 1
        else:
            health.lookups_failed += 1 + draw % 3
    elif step == "resync":
        note_resync(catalog, relations[draw % len(relations)])
    elif step == "drift":
        note_drift_event(catalog, relations[draw % len(relations)])
    elif step == "quarantine":
        quarantine_source_in_catalog(catalog, relations[draw % len(relations)], "drifted")
    elif step == "release":
        release_source_in_catalog(catalog, relations[draw % len(relations)])
    elif step == "commit":
        extra = Relation(
            f"Extra{len(relations)}",
            Schema([Attribute("Name", PLACE), Attribute("City", CITY)]),
        )
        for row in rows[: 2 + draw % 3]:
            extra.add({"Name": row["Name"], "City": row["City"]})
        catalog.add_relation(extra, SourceMetadata(origin="paste"))
        for learner in learners:
            learner.refresh()
    else:
        keys = [edge.key for edge in learners[0].graph.edges()]
        chosen = frozenset([keys[draw % len(keys)]])
        for learner in learners:
            if step == "accept":
                learner.mira.accept(chosen, [frozenset([keys[(draw + 1) % len(keys)]])])
            else:
                learner.mira.reject(chosen)


class TestEdgeRepricing:
    def test_shared_sweep_matches_the_two_reference_sweeps(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.data.scenario import build_scenario

        @given(steps=st.lists(
            st.tuples(st.sampled_from(_REPRICE_STEPS), st.integers(0, 1000)),
            min_size=1, max_size=25,
        ))
        @settings(max_examples=60, deadline=None)
        def check(steps):
            scenario = build_scenario(seed=5, n_shelters=6, noise=1)
            catalog = typed_shelters_catalog(scenario)
            rows = scenario.truth_shelter_rows()
            learner, reference = IntegrationLearner(catalog), ReferenceLearner(catalog)
            assert learner.graph.weights == reference.graph.weights
            for step, draw in steps:
                _apply_reprice_step(step, draw, catalog, (learner, reference), rows)
                assert learner.absorb_service_health() == reference.absorb_service_health()
                assert learner.absorb_drift_events() == reference.absorb_drift_events()
                assert learner.graph.weights == reference.graph.weights

        check()

    def test_note_written_without_a_helper_is_repriced(self, fresh_scenario):
        catalog = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(catalog)
        learner.absorb_drift_events()
        edges = learner.graph.edges_of("Shelters")
        before = {edge.key: learner.graph.cost(edge) for edge in edges}
        # No helper, no version bump: the notes themselves are the state.
        catalog.metadata("Shelters").notes[QUARANTINE_NOTE] = "drifted"
        assert learner.absorb_drift_events() >= len(edges) > 0
        for edge in edges:
            assert learner.graph.cost(edge) == pytest.approx(
                before[edge.key] + QUARANTINE_PENALTY
            )
