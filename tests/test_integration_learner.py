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
        graph.weights[e2.key] = 0.1
        mira = MiraLearner(graph, margin=0.5)
        assert not mira.rank_update(frozenset({e2.key}), frozenset({e3.key}))

    def test_demote_pushes_above_threshold(self):
        graph, e1, _, _ = self.make_graph()
        mira = MiraLearner(graph, margin=0.5, relevance_threshold=2.0)
        assert mira.demote(frozenset({e1.key}))
        assert graph.cost(e1) >= 2.5 - 1e-9

    def test_promote_pulls_below_threshold(self):
        graph, e1, _, _ = self.make_graph()
        graph.weights[e1.key] = 5.0
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
        learner.graph.weights[edge.key] = 0.123
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


# ------------------------------------------------------------ edge cost terms
class ReferenceLearner(IntegrationLearner):
    """Health and drift penalties folded into the learned weights as
    per-edge deltas, the pricing that per-node penalty terms replaced: each
    absorb method sweeps the edges only when its state tuple moved, and
    adds the difference from the penalty the edge already carries. Costs
    agree with the term-wise graph on histories that add no edge after a
    penalty appeared (the health sweep does not run for an edge a commit
    adds) and clamp no penalized edge in MIRA (the floor then applies to a
    different quantity)."""

    def __init__(self, catalog):
        self._health_penalty: dict[str, float] = {}
        self._health_state: tuple = ()
        self._drift_penalty: dict[str, float] = {}
        self._drift_state: tuple = ()
        super().__init__(catalog)

    def _fold(self, penalty_of, absorbed) -> None:
        for edge in self.graph.edges():
            penalty = penalty_of(edge)
            previous = absorbed.get(edge.key, 0.0)
            if abs(penalty - previous) > 1e-12:
                self.graph.weights[edge.key] = (
                    self.graph.weights.get(edge.key, edge.default_cost()) + penalty - previous
                )
                if penalty:
                    absorbed[edge.key] = penalty
                else:
                    absorbed.pop(edge.key, None)

    def absorb_service_health(self) -> int:
        state = tuple(
            (service.name, service.health.successes, service.health.lookups_failed)
            for service in self.catalog.services()
        )
        if state == self._health_state:
            return 0
        self._health_state = state

        def penalty_of(edge):
            rate = 0.0
            for endpoint in (edge.left, edge.right):
                if not self.graph.node(endpoint).is_service:
                    continue
                try:
                    service = self.catalog.service(endpoint)
                except CatalogError:
                    continue
                rate = max(rate, service.health.failure_rate())
            return FAILURE_PENALTY * rate

        self._fold(penalty_of, self._health_penalty)
        return 0

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
        self._fold(
            lambda edge: max(penalties.get(edge.left, 0.0), penalties.get(edge.right, 0.0)),
            self._drift_penalty,
        )
        return 0


def catalog_penalties(catalog):
    """Health and drift penalty per source, read from the catalog here
    rather than through the learner."""
    health = {
        service.name: FAILURE_PENALTY * service.health.failure_rate()
        for service in catalog.services()
    }
    drift = {}
    for name in catalog.relation_names():
        notes = catalog.metadata(name).notes
        events = notes.get(DRIFT_EVENTS_NOTE, 0)
        if QUARANTINE_NOTE in notes:
            drift[name] = QUARANTINE_PENALTY
        elif events:
            drift[name] = DRIFT_PENALTY * min(1.0, events / (notes.get(DRIFT_RESYNCS_NOTE, 0) + 1))
    return health, drift


def costs_of(graph):
    return {edge.key: graph.cost(edge) for edge in graph.edges()}


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
    def test_cost_is_the_sum_of_its_terms(self):
        """After any history of service outcomes, drift notes, quarantines,
        MIRA feedback and commits: (a) each edge costs its learned weight
        plus the larger endpoint penalty of each kind, as the catalog says
        now; (b) no cost is below MIRA's floor; (c) costs equal the
        delta-folding reference while the history stays within its reach;
        (d) a session's suggestion signature moves whenever a cost does."""
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        from repro.core.session import CopyCatSession
        from repro.data.scenario import build_scenario

        @given(steps=st.lists(
            st.tuples(st.sampled_from(_REPRICE_STEPS), st.integers(0, 1000)),
            min_size=1, max_size=25,
        ))
        # Quarantine Shelters, accept its DamageReports join, release it:
        # a penalty folded into the learned weight would leave a cost
        # below zero here.
        @example(steps=[("quarantine", 2), ("accept", 7), ("release", 2)])
        @settings(max_examples=60, deadline=None)
        def check(steps):
            scenario = build_scenario(seed=5, n_shelters=6, noise=1)
            catalog = typed_shelters_catalog(scenario)
            rows = scenario.truth_shelter_rows()
            session = CopyCatSession(catalog=catalog, seed=1)
            session.start_integration("Shelters")
            learner, reference = session.integration_learner, ReferenceLearner(catalog)
            graph, floor = learner.graph, learner.mira.min_cost
            comparable, penalized = True, False
            signature, costs = session._suggestions_signature(5), costs_of(graph)
            for step, draw in steps:
                if step == "commit" and penalized:
                    comparable = False
                _apply_reprice_step(step, draw, catalog, (learner, reference), rows)
                learner.absorb_service_health()
                learner.absorb_drift_events()
                reference.absorb_service_health()
                reference.absorb_drift_events()
                health, drift = catalog_penalties(catalog)
                penalized_edges = set()
                for edge in graph.edges():
                    left, right = edge.left, edge.right
                    terms = (
                        max(health.get(left, 0.0), health.get(right, 0.0)),
                        max(drift.get(left, 0.0), drift.get(right, 0.0)),
                    )
                    assert graph.cost(edge) == graph.weights[edge.key] + terms[0] + terms[1]
                    assert graph.cost(edge) >= floor
                    if any(terms):
                        penalized_edges.add(edge.key)
                penalized = penalized or bool(penalized_edges)
                if step in ("accept", "reject") and any(
                    graph.weights[key] == floor for key in penalized_edges
                ):
                    comparable = False
                now = costs_of(graph)
                if comparable:
                    expected = costs_of(reference.graph)
                    assert now.keys() == expected.keys()
                    for key, cost in now.items():
                        assert cost == pytest.approx(expected[key], abs=1e-9), key
                moved = session._suggestions_signature(5)
                if now != costs:
                    assert moved != signature
                signature, costs = moved, now

        check()

    def test_note_written_without_a_helper_is_repriced(self, fresh_scenario):
        catalog = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(catalog)
        learner.absorb_drift_events()
        edges = learner.graph.edges_of("Shelters")
        assert edges
        before = {edge.key: learner.graph.cost(edge) for edge in edges}
        # No helper, no version bump: the notes themselves are the state.
        catalog.metadata("Shelters").notes[QUARANTINE_NOTE] = "drifted"
        assert learner.absorb_drift_events() == 1
        for edge in edges:
            assert learner.graph.cost(edge) == pytest.approx(
                before[edge.key] + QUARANTINE_PENALTY
            )

    def test_edge_a_commit_adds_to_a_failing_service_is_penalized(self, fresh_scenario):
        catalog = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(catalog)
        catalog.service("ZipcodeResolver").health.lookups_failed = 3
        learner.absorb_service_health()
        extra = Relation("Extra", Schema([Attribute("Street", STREET), Attribute("City", CITY)]))
        for row in fresh_scenario.truth_shelter_rows()[:3]:
            extra.add({"Street": row["Street"], "City": row["City"]})
        catalog.add_relation(extra, SourceMetadata(origin="paste"))
        learner.refresh()

        def zip_edge(source):
            return next(
                edge for edge in learner.graph.edges_of(source)
                if edge.kind == "service" and edge.other(source) == "ZipcodeResolver"
            )

        expected = 1.0 + FAILURE_PENALTY
        assert learner.graph.cost(zip_edge("Shelters")) == expected
        assert learner.graph.cost(zip_edge("Extra")) == expected
        assert learner.absorb_service_health() == 0
        assert learner.graph.cost(zip_edge("Extra")) == expected

    def test_recovery_never_takes_a_cost_below_the_floor(self, fresh_scenario):
        catalog = typed_shelters_catalog(fresh_scenario)
        learner = IntegrationLearner(catalog)
        edge = next(
            edge for edge in learner.graph.edges_of("Shelters")
            if edge.other("Shelters") == "CityZipDirectory"
        )
        health = catalog.service("CityZipDirectory").health
        health.lookups_failed = 10
        learner.absorb_service_health()
        assert learner.graph.cost(edge) == pytest.approx(1.5 + FAILURE_PENALTY)
        for _ in range(5):
            learner.mira.promote(frozenset([edge.key]))
        assert learner.graph.cost(edge) >= learner.mira.min_cost
        health.successes = 10_000
        learner.absorb_service_health()
        assert learner.graph.cost(edge) >= learner.mira.min_cost
        assert learner.graph.weights[edge.key] >= learner.mira.min_cost
