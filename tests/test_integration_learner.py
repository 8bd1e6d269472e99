"""Tests for MIRA, query compilation, and the integration learner facade."""

from __future__ import annotations

import pytest

from repro.errors import IntegrationError
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
