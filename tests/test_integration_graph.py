"""Tests for the source graph, association discovery, Steiner search, and
SPCSH pruning."""

from __future__ import annotations

import itertools

import pytest

from repro.errors import GraphError
from repro.learning.integration import (
    Association,
    SourceGraph,
    SourceNode,
    dijkstra,
    discover_associations,
    exact_top_k_steiner,
    minimum_spanning_tree,
    prune_graph,
    spcsh_top_k_steiner,
    types_compatible,
)
from repro.substrate.relational import schema_of
from repro.substrate.relational.schema import ANY, CITY, NAME, PLACE, STREET, ZIPCODE


def simple_graph(edge_list, costs=None):
    """Build a graph of plain relation nodes from (a, b) pairs."""
    graph = SourceGraph()
    nodes = sorted({n for pair in edge_list for n in pair})
    for name in nodes:
        graph.add_node(SourceNode(name=name, schema=schema_of("x"), is_service=False))
    for index, (a, b) in enumerate(edge_list):
        cost = None if costs is None else costs[index]
        graph.add_edge(
            Association(left=a, right=b, kind="join", conditions=(("x", "x"),)),
            cost=cost,
        )
    return graph


class TestSourceGraph:
    def test_edge_requires_nodes(self):
        graph = SourceGraph()
        graph.add_node(SourceNode("A", schema_of("x"), False))
        with pytest.raises(GraphError):
            graph.add_edge(Association("A", "B", "join", (("x", "x"),)))

    def test_self_loop_rejected(self):
        graph = SourceGraph()
        graph.add_node(SourceNode("A", schema_of("x"), False))
        with pytest.raises(GraphError):
            graph.add_edge(Association("A", "A", "join", (("x", "x"),)))

    def test_duplicate_edge_is_idempotent(self):
        graph = simple_graph([("A", "B")])
        edge = Association("A", "B", "join", (("x", "x"),))
        graph.add_edge(edge, cost=9.0)  # same key: keeps the original weight
        assert graph.n_edges == 1
        assert graph.cost(edge) == 1.0

    def test_default_costs_by_kind(self):
        assert Association("A", "B", "join", ()).default_cost() == 1.0
        assert Association("A", "B", "record-link", ()).default_cost() == 1.5
        matcher = Association("A", "B", "matcher", (), confidence=0.6)
        assert matcher.default_cost() == pytest.approx(1.8 + 0.4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError):
            Association("A", "B", "teleport", ())

    def test_edge_other_and_touches(self):
        edge = Association("A", "B", "join", ())
        assert edge.other("A") == "B"
        assert edge.touches("B")
        with pytest.raises(GraphError):
            edge.other("C")

    def test_tree_cost_sums_weights(self):
        graph = simple_graph([("A", "B"), ("B", "C")], costs=[1.5, 2.5])
        assert graph.tree_cost(graph.edges()) == pytest.approx(4.0)

    def test_render_lists_nodes_and_edges(self):
        graph = simple_graph([("A", "B")])
        text = graph.render()
        assert "[source] A(x)" in text
        assert "c=1.00" in text


class TestAssociationDiscovery:
    def test_types_compatible(self):
        assert types_compatible(CITY, CITY)
        assert types_compatible(ZIPCODE, ZIPCODE.retyped if False else ZIPCODE)
        assert types_compatible(ANY, CITY)
        assert not types_compatible(CITY, STREET)

    def test_scenario_graph_has_zip_service_edge(self, fresh_scenario):
        from repro.substrate.relational import Attribute, Relation, Schema

        cat = fresh_scenario.catalog
        shelters = Relation(
            "Shelters",
            Schema([Attribute("Name", PLACE), Attribute("Street", STREET), Attribute("City", CITY)]),
        )
        for row in fresh_scenario.truth_shelter_rows():
            shelters.add(row)
        cat.add_relation(shelters)
        graph = discover_associations(cat)
        zip_edges = [
            e for e in graph.edges_of("Shelters")
            if e.kind == "service" and e.other("Shelters") == "ZipcodeResolver"
        ]
        assert len(zip_edges) == 1
        assert set(zip_edges[0].conditions) == {("Street", "Street"), ("City", "City")}

    def test_join_edge_uses_conjunction_of_shared_attrs(self, fresh_scenario):
        from repro.substrate.relational import Attribute, Relation, Schema

        cat = fresh_scenario.catalog
        a = Relation("A1", Schema([Attribute("City", CITY), Attribute("Zip", ZIPCODE), Attribute("P", ANY)]))
        b = Relation("B1", Schema([Attribute("City", CITY), Attribute("Zip", ZIPCODE), Attribute("Q", ANY)]))
        cat.add_relation(a)
        cat.add_relation(b)
        graph = discover_associations(cat)
        joins = [
            e for e in graph.edges_of("A1") if e.kind == "join" and e.other("A1") == "B1"
        ]
        assert len(joins) == 1
        assert set(joins[0].conditions) == {("City", "City"), ("Zip", "Zip")}

    def test_semantic_types_constrain_edges(self, fresh_scenario):
        with_types = discover_associations(fresh_scenario.catalog, use_semantic_types=True)
        without = discover_associations(fresh_scenario.catalog, use_semantic_types=False)
        assert without.n_edges > with_types.n_edges

    def test_foreign_key_edges(self, fresh_scenario):
        from repro.substrate.relational import Relation, SourceMetadata, schema_of as sof

        cat = fresh_scenario.catalog
        cat.add_relation(Relation("Orders", sof("oid", "cid")))
        cat.add_relation(
            Relation("Customers", sof("cid", "name")),
            SourceMetadata(foreign_keys={"cid": ("Orders", "cid")}),
        )
        graph = discover_associations(cat)
        fk = [e for e in graph.edges_of("Customers") if e.kind == "fk"]
        assert fk and fk[0].conditions == (("cid", "cid"),)

    def test_record_link_edge_between_name_like_types(self, fresh_scenario):
        from repro.substrate.relational import Attribute, Relation, Schema

        cat = fresh_scenario.catalog
        cat.add_relation(Relation("W1", Schema([Attribute("Name", PLACE)])))
        cat.add_relation(Relation("C1", Schema([Attribute("Shelter", NAME)])))
        graph = discover_associations(cat)
        links = [e for e in graph.edges_of("W1") if e.kind == "record-link"]
        assert any(("Name", "Shelter") in e.conditions or ("Shelter", "Name") in e.conditions for e in links)


class TestSteiner:
    def test_single_terminal_is_trivial(self):
        graph = simple_graph([("A", "B")])
        trees = exact_top_k_steiner(graph, ["A"], k=2)
        assert trees[0].cost == 0.0
        assert trees[0].nodes == frozenset({"A"})

    def test_direct_edge_beats_detour(self):
        graph = simple_graph(
            [("A", "B"), ("A", "C"), ("C", "B")], costs=[1.0, 0.2, 0.2]
        )
        trees = exact_top_k_steiner(graph, ["A", "B"], k=2)
        # Detour via C costs 0.4 < direct 1.0.
        assert trees[0].nodes == frozenset({"A", "B", "C"})
        assert trees[0].cost == pytest.approx(0.4)
        assert trees[1].nodes == frozenset({"A", "B"})

    def test_steiner_node_added_when_needed(self):
        # A and B only connect through hub H.
        graph = simple_graph([("A", "H"), ("H", "B")])
        trees = exact_top_k_steiner(graph, ["A", "B"], k=1)
        assert trees[0].nodes == frozenset({"A", "B", "H"})
        assert len(trees[0].edges) == 2

    def test_disconnected_terminals_give_nothing(self):
        graph = simple_graph([("A", "B")])
        graph.add_node(SourceNode("Z", schema_of("x"), False))
        assert exact_top_k_steiner(graph, ["A", "Z"], k=3) == []

    def test_unknown_terminal(self):
        graph = simple_graph([("A", "B")])
        with pytest.raises(GraphError):
            exact_top_k_steiner(graph, ["A", "Nope"])

    def test_top_k_ordering_and_dominance(self):
        graph = simple_graph(
            [("A", "B"), ("A", "C"), ("C", "B"), ("A", "D"), ("D", "B")],
            costs=[1.0, 0.3, 0.3, 5.0, 5.0],
        )
        trees = exact_top_k_steiner(graph, ["A", "B"], k=4)
        costs = [tree.cost for tree in trees]
        assert costs == sorted(costs)
        # The D detour (cost 10) is dominated only if it superset-contains a
        # cheaper tree's nodes; {A,B,D} is not a superset of {A,B,C}, so it
        # may appear, but never before the cheaper ones.
        assert trees[0].cost == pytest.approx(0.6)

    def test_mst_none_when_disconnected(self):
        graph = simple_graph([("A", "B")])
        graph.add_node(SourceNode("Z", schema_of("x"), False))
        assert minimum_spanning_tree(graph, frozenset({"A", "Z"})) is None

    def test_mst_picks_cheapest_parallel_edge(self):
        graph = simple_graph([("A", "B")], costs=[2.0])
        graph.add_edge(
            Association("A", "B", "record-link", (("x", "x"),)), cost=0.5
        )
        tree = minimum_spanning_tree(graph, frozenset({"A", "B"}))
        assert tree.cost == pytest.approx(0.5)
        assert tree.edges[0].kind == "record-link"


class TestSpcsh:
    def grid_graph(self, n=5):
        """An n x n grid of unit-cost edges."""
        edges = []
        for r, c in itertools.product(range(n), range(n)):
            if c + 1 < n:
                edges.append((f"n{r}_{c}", f"n{r}_{c+1}"))
            if r + 1 < n:
                edges.append((f"n{r}_{c}", f"n{r+1}_{c}"))
        return simple_graph(edges)

    def test_dijkstra_distances(self):
        graph = simple_graph([("A", "B"), ("B", "C")], costs=[1.0, 2.0])
        dist = dijkstra(graph, "A")
        assert dist == {"A": 0.0, "B": 1.0, "C": 3.0}

    def test_prune_keeps_terminals_connected(self):
        graph = self.grid_graph(5)
        terminals = ["n0_0", "n4_4"]
        pruned = prune_graph(graph, terminals, stretch=1.0)
        dist = dijkstra(pruned, "n0_0")
        assert dist.get("n4_4") == pytest.approx(8.0)

    def test_prune_shrinks_graph(self):
        graph = self.grid_graph(6)
        pruned = prune_graph(graph, ["n0_0", "n0_5"], stretch=1.0)
        assert len(pruned) < len(graph)

    def test_spcsh_matches_exact_optimum_on_grid(self):
        graph = self.grid_graph(4)
        terminals = ["n0_0", "n3_3", "n0_3"]
        exact = exact_top_k_steiner(graph, terminals, k=1)
        approx = spcsh_top_k_steiner(graph, terminals, k=1, stretch=1.2)
        assert approx[0].cost == pytest.approx(exact[0].cost)

    def test_spcsh_cost_never_better_than_exact(self):
        graph = self.grid_graph(4)
        terminals = ["n0_0", "n3_0", "n0_3"]
        exact = exact_top_k_steiner(graph, terminals, k=1)
        approx = spcsh_top_k_steiner(graph, terminals, k=1)
        assert approx[0].cost >= exact[0].cost - 1e-9

    def test_feature_keys_are_edge_keys(self):
        graph = simple_graph([("A", "B")])
        tree = exact_top_k_steiner(graph, ["A", "B"], k=1)[0]
        assert tree.feature_keys() == frozenset({graph.edges()[0].key})


# ------------------------------------------------------------ graph extension
def rediscover(catalog, use_semantic_types=True):
    """From-scratch reference: every pair in sorted order, then foreign keys."""
    from repro.learning.integration.associations import _connect

    graph = SourceGraph()
    for name in catalog.source_names():
        graph.add_node(SourceGraph.node_from_catalog(catalog, name))
    nodes = graph.nodes()
    for i, left in enumerate(nodes):
        for right in nodes[i + 1:]:
            _connect(graph, left, right, use_semantic_types, 6)
    for name in catalog.source_names():
        for attr, (other, other_attr) in catalog.metadata(name).foreign_keys.items():
            if graph.has_node(other):
                graph.add_edge(Association(name, other, "fk", ((attr, other_attr),)))
    return graph


def assert_same_graph(graph, reference, weights):
    """Nodes, edges, every node's edge order, and the expected *weights*."""
    assert graph.nodes() == reference.nodes()
    assert [e.key for e in graph.edges()] == [e.key for e in reference.edges()]
    assert graph.edges() == reference.edges()
    for name in reference.node_names():
        assert [e.key for e in graph.edges_of(name)] == [
            e.key for e in reference.edges_of(name)
        ], name
    assert graph.weights == weights


def refresh_and_check(learner):
    """Refresh *learner*; its graph must equal a from-scratch discovery
    carrying the weights of every key that survived."""
    before = dict(learner.graph.weights)
    learner.refresh()
    reference = rediscover(learner.catalog, learner.use_semantic_types)
    expected = {key: before.get(key, weight) for key, weight in reference.weights.items()}
    assert_same_graph(learner.graph, reference, expected)


#: (attribute, type) pool the random relations draw from: shared names make
#: joins, Street/City feed the zip resolver, name-like types record-link.
GRAPH_ATTRS = (
    ("Name", PLACE), ("Shelter", NAME), ("Street", STREET), ("City", CITY),
    ("Zip", ZIPCODE), ("Phone", ANY), ("Name", NAME), ("City", ANY),
)


def _relation(name, picks):
    from repro.substrate.relational import Attribute, Relation, Schema

    attrs, seen = [], set()
    for index in picks:
        attr, semantic_type = GRAPH_ATTRS[index]
        if attr not in seen:
            seen.add(attr)
            attrs.append(Attribute(attr, semantic_type))
    return Relation(name, Schema(attrs))


def _graph_ops():
    from hypothesis import strategies as st

    names = st.sampled_from(["R0", "R1", "R2", "View0"])
    picks = st.lists(st.integers(0, len(GRAPH_ATTRS) - 1), min_size=1, max_size=4)
    return st.lists(
        st.one_of(
            st.tuples(st.just("commit"), names, picks),
            st.tuples(st.just("replace-same"), names, st.just(())),
            st.tuples(st.just("replace-changed"), names, picks),
            st.tuples(st.just("quarantine"), names, st.just(())),
            st.tuples(st.just("lift"), names, st.just(())),
            st.tuples(st.just("save-view"), names, picks),
            st.tuples(st.just("refresh-view"), names, st.just(())),
            st.tuples(st.just("foreign-key"), names, st.just(())),
            st.tuples(st.just("remove"), names, st.just(())),
            st.tuples(st.just("learn"), names, st.just(())),
        ),
        max_size=8,
    )


def _apply(op, catalog, learner, rng_value):
    """One catalog action as the session performs it (then refresh)."""
    from repro.drift import quarantine_source_in_catalog, release_source_in_catalog
    from repro.substrate.relational import Relation, SourceMetadata

    kind, name, picks = op
    private = name in catalog and not catalog.is_service(name)
    if kind == "commit" and name not in catalog:
        catalog.add_relation(_relation(name, picks), SourceMetadata(origin="paste"))
        if rng_value % 2:
            _apply(("foreign-key", name, ()), catalog, learner, rng_value // 2)
    elif kind == "replace-same" and private:
        old = catalog.relation(name)
        catalog.add_relation(Relation(name, old.schema), catalog.metadata(name), replace=True)
    elif kind == "replace-changed" and (private or name not in catalog):
        catalog.add_relation(_relation(name, picks), SourceMetadata(origin="paste"), replace=True)
    elif kind == "quarantine" and private:
        quarantine_source_in_catalog(catalog, name, "drifted")
    elif kind == "lift" and private:
        release_source_in_catalog(catalog, name)
    elif kind == "save-view" and (private or name not in catalog):
        catalog.add_relation(
            _relation(name, picks), SourceMetadata(origin="view"), replace=True
        )
    elif kind == "refresh-view" and private and catalog.metadata(name).origin == "view":
        old = catalog.relation(name)
        catalog.add_relation(Relation(name, old.schema), SourceMetadata(origin="view"), replace=True)
    elif kind == "foreign-key" and private:
        targets = [
            (target, attr)
            for target in catalog.relation_names() if target != name
            for attr in catalog.schema(name).names if attr in catalog.schema(target)
        ]
        if targets:
            target, attr = targets[rng_value % len(targets)]
            catalog.metadata(name).foreign_keys[attr] = (target, attr)
    elif kind == "remove" and private:
        catalog.remove(name)
    elif kind == "learn":
        # What MIRA and the health/drift penalties do between refreshes:
        # move one edge's weight, and write a feature no edge has.
        edges = learner.graph.edges()
        if edges:
            learner.graph.weights[edges[rng_value % len(edges)].key] = 0.25 + rng_value % 7
        learner.graph.weights[f"{name}--Gone[join:x=x]"] = 9.0


class TestGraphExtension:
    def test_discovery_equals_from_scratch_reference(self, fresh_scenario):
        graph = discover_associations(fresh_scenario.catalog)
        reference = rediscover(fresh_scenario.catalog)
        assert_same_graph(graph, reference, reference.weights)

    def test_random_catalog_histories_match_rediscovery(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.data.scenario import build_scenario
        from repro.learning.integration import IntegrationLearner
        from repro.server import SharedBase

        scenario = build_scenario(seed=5, n_shelters=6, noise=1)
        base = SharedBase(scenario.catalog)

        @given(
            ops=_graph_ops(),
            from_base=st.booleans(),
            use_semantic_types=st.booleans(),
            draws=st.lists(st.integers(0, 1000), min_size=8, max_size=8),
        )
        @settings(max_examples=60, deadline=None)
        def check(ops, from_base, use_semantic_types, draws):
            catalog = base.fork_catalog()
            learner = IntegrationLearner(
                catalog,
                use_semantic_types=use_semantic_types,
                base_graph=base.source_graph() if from_base and use_semantic_types else None,
            )
            refresh_and_check(learner)
            for op, draw in zip(ops, draws):
                _apply(op, catalog, learner, draw)
                refresh_and_check(learner)

        check()

    def test_refresh_of_an_unchanged_catalog_evaluates_no_pair(self, fresh_scenario, monkeypatch):
        from repro.learning.integration import IntegrationLearner, associations

        learner = IntegrationLearner(fresh_scenario.catalog)
        calls = []
        connect = associations._connect
        monkeypatch.setattr(
            associations, "_connect", lambda graph, left, right, *args: (
                calls.append((left.name, right.name)), connect(graph, left, right, *args)
            )
        )
        learner.refresh()
        assert calls == []
        fresh_scenario.catalog.add_relation(_relation("New", [0, 2, 3]))
        learner.refresh()
        others = len(fresh_scenario.catalog) - 1
        assert len(calls) == others and all("New" in pair for pair in calls)


class TestForkedSessionGraphs:
    def _sessions(self):
        from repro import CopyCatSession
        from repro.data.scenario import build_scenario
        from repro.server import SharedBase

        base = SharedBase(build_scenario(seed=5, n_shelters=6, noise=1).catalog)
        graph = base.source_graph()
        sessions = [
            CopyCatSession(catalog=base.fork_catalog(), base_graph=graph) for _ in range(2)
        ]
        return base, graph, sessions

    def test_forked_sessions_share_no_weights_or_adjacency(self):
        from repro.drift import quarantine_source_in_catalog

        base, graph, (one, two) = self._sessions()
        base_weights = dict(graph.weights)
        base_edges = {name: [e.key for e in graph.edges_of(name)] for name in graph.node_names()}
        two_weights = dict(two.integration_learner.graph.weights)
        learner = one.integration_learner
        assert learner.graph is not graph and learner.graph.weights is not graph.weights

        # MIRA: the user rejects a query over one edge.
        edge = learner.graph.edges()[0]
        assert learner.mira.demote(frozenset([edge.key]))
        # Health: a failing service's edges pay a penalty.
        service = next(iter(one.catalog.services()))
        service.health.lookups_failed += 3
        try:
            assert learner.absorb_service_health() > 0
        finally:
            service.health.lookups_failed -= 3
        # Drift: a quarantined base relation's edges pay a penalty.
        relation = one.catalog.relation_names()[0]
        quarantine_source_in_catalog(one.catalog, relation, "drifted")
        assert learner.absorb_drift_events() > 0
        # A private source extends only this session's graph.
        one.catalog.add_relation(_relation("Private", [0, 2, 3]))
        learner.refresh()

        assert learner.graph.weights != two_weights
        assert two.integration_learner.graph.weights == two_weights
        assert graph.weights == base_weights
        assert not two.integration_learner.graph.has_node("Private")
        assert not graph.has_node("Private")
        for name, keys in base_edges.items():
            assert [e.key for e in graph.edges_of(name)] == keys
            assert [e.key for e in two.integration_learner.graph.edges_of(name)] == keys
        assert base.source_graph() is graph

    def test_base_graph_is_discovered_once_under_concurrent_attaches(self, monkeypatch):
        import sys
        import threading

        from repro.data.scenario import build_scenario
        from repro.learning.integration import associations
        from repro.server import SharedBase

        base = SharedBase(build_scenario(seed=5, n_shelters=6, noise=1).catalog)
        pairs = []
        connect = associations._connect
        monkeypatch.setattr(
            associations, "_connect",
            lambda *args: (pairs.append(1), connect(*args))[1],
        )
        graphs, copies = [], []
        start = threading.Barrier(8)

        def attach():
            start.wait(timeout=10)
            graph = base.source_graph()
            graphs.append(graph)
            copies.append(graph.copy())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=attach) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        n = len(base.catalog)
        assert len(pairs) == n * (n - 1) // 2  # one discovery, not one per attach
        assert len(graphs) == 8 and all(graph is graphs[0] for graph in graphs)
        reference = rediscover(base.catalog)
        for copy in copies:
            assert_same_graph(copy, reference, reference.weights)

    def test_base_graph_lives_and_dies_with_the_base(self):
        import weakref

        base, graph, sessions = self._sessions()
        freed = weakref.ref(graph)
        del base, graph
        assert freed() is None  # the sessions hold copies, not the base's graph
        assert all(len(session.integration_learner.graph) for session in sessions)

    def test_forked_session_graph_equals_rediscovery(self):
        _, _, (one, _) = self._sessions()
        reference = rediscover(one.catalog)
        assert_same_graph(one.integration_learner.graph, reference, reference.weights)


class TestAssociationKey:
    def test_key_is_computed_once_and_survives_pickle(self):
        import pickle

        edge = Association("A", "B", "join", [["x", "y"], ("z", "z")])
        assert edge.key == "A--B[join:x=y,z=z]"
        assert edge.__dict__["key"] == edge.key
        clone = pickle.loads(pickle.dumps(edge))
        assert clone.key == edge.key
        assert clone == edge and hash(clone) == hash(edge)
        assert "key" not in repr(edge)
        assert Association("A", "B", "join", (("x", "y"), ("z", "z")), confidence=0.5) != edge
