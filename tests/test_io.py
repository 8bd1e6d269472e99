"""Tests for session-state persistence (save/load learned state)."""

from __future__ import annotations

import json

import pytest

from repro import Browser, CopyCatSession, build_scenario
from repro.drift.quarantine import quarantine_source_in_catalog
from repro.learning.integration.learner import QUARANTINE_PENALTY
from repro.io import (
    PersistenceError,
    catalog_from_dict,
    catalog_to_dict,
    linkers_from_dict,
    linkers_to_dict,
    load_session,
    relation_from_dict,
    relation_to_dict,
    save_session,
    schema_from_dict,
    schema_to_dict,
    type_learner_from_dict,
    type_learner_to_dict,
)
from repro.learning.model import SemanticTypeLearner, seed_type_learner
from repro.linking import FieldPair, LearnedLinker
from repro.substrate.relational import Catalog, Relation, SourceMetadata, schema_of
from repro.substrate.relational.schema import CITY, STREET

from .test_session import import_shelters


class TestSchemaRoundtrip:
    def test_schema_preserves_types(self):
        schema = schema_of("Street", "City", types={"Street": STREET, "City": CITY})
        back = schema_from_dict(schema_to_dict(schema))
        assert back == schema
        assert back.attribute("Street").semantic_type.parent == "PR-Text"

    def test_relation_roundtrip(self):
        relation = Relation("R", schema_of("a", "b"), [[1, "x"], [2, "y"]])
        back = relation_from_dict(relation_to_dict(relation))
        assert back.name == "R"
        assert [list(row.values) for row in back] == [[1, "x"], [2, "y"]]


class TestCatalogRoundtrip:
    def test_metadata_and_distrust_survive(self):
        catalog = Catalog()
        metadata = SourceMetadata(origin="paste", trust=0.6, url="http://x")
        metadata.notes["distrusted_rows"] = {2, 5}
        metadata.foreign_keys["cid"] = ("Orders", "cid")
        catalog.add_relation(Relation("R", schema_of("cid")), metadata)
        payload = json.loads(json.dumps(catalog_to_dict(catalog)))
        back = catalog_from_dict(payload)
        restored = back.metadata("R")
        assert restored.trust == 0.6
        assert restored.url == "http://x"
        assert restored.notes["distrusted_rows"] == {2, 5}
        assert restored.foreign_keys["cid"] == ("Orders", "cid")

    def test_services_are_recorded_but_not_serialized(self, fresh_scenario):
        payload = catalog_to_dict(fresh_scenario.catalog)
        assert "ZipcodeResolver" in payload["service_names"]
        back = catalog_from_dict(payload)
        assert back.service_names() == []


class TestTypeLearnerRoundtrip:
    def test_recognition_survives_roundtrip(self):
        learner = seed_type_learner(seed=1)
        payload = json.loads(json.dumps(type_learner_to_dict(learner)))
        back = type_learner_from_dict(payload)
        scenario = build_scenario(seed=99, n_shelters=8)
        streets = [s.address.street for s in scenario.shelters]
        original = learner.recognize(streets, top_k=1)
        restored = back.recognize(streets, top_k=1)
        assert [str(h) for h in original] == [str(h) for h in restored]

    def test_user_defined_type_survives(self):
        learner = SemanticTypeLearner()
        learner.learn("PR-FemaId", [f"FEMA-{i:05d}" for i in range(20)])
        back = type_learner_from_dict(
            json.loads(json.dumps(type_learner_to_dict(learner)))
        )
        assert back.best_type(["FEMA-33333"]).name == "PR-FemaId"


class TestLinkerRoundtrip:
    def test_weights_and_pairs_survive(self):
        linker = LearnedLinker([FieldPair("Name", "Shelter")])
        linker.weights["Name~Shelter:acronym"] = 0.9
        linker.updates = 3
        back = linkers_from_dict(
            json.loads(json.dumps(linkers_to_dict({"edge1": linker})))
        )["edge1"]
        assert back.weights["Name~Shelter:acronym"] == 0.9
        assert back.updates == 3
        assert back.extractor.field_pairs[0].left == "Name"


class TestSessionPersistence:
    def build_trained_session(self, scenario):
        session = CopyCatSession(catalog=scenario.catalog, seed=1)
        browser = Browser(session.clipboard, scenario.website)
        browser.navigate(scenario.list_urls()[0])
        import_shelters(scenario, session, browser)
        session.start_integration("Shelters")
        suggestions = session.column_suggestions(k=8)
        zip_index = next(
            i for i, s in enumerate(suggestions)
            if "Zip" in s.attribute_names and s.source == "ZipcodeResolver"
        )
        session.accept_column(zip_index)
        return session

    def test_save_and_load_full_session(self, tmp_path):
        scenario = build_scenario(seed=5, n_shelters=8, noise=1)
        session = self.build_trained_session(scenario)
        state_file = save_session(session, tmp_path / "state.json")

        # A brand-new session over a fresh world: services re-registered,
        # then learned state restored.
        fresh = build_scenario(seed=5, n_shelters=8, noise=1)
        fresh.catalog.remove("DamageReports")
        fresh.catalog.remove("RoadConditions")
        new_session = CopyCatSession(catalog=fresh.catalog, seed=2)
        load_session(new_session, state_file)

        # The pasted source came back with its learned schema.
        relation = new_session.catalog.relation("Shelters")
        assert len(relation) == 8
        assert relation.schema.attribute("Street").semantic_type.name == "PR-Street"
        # The MIRA-adjusted zip edge weight survived.
        old_weights = session.integration_learner.graph.weights
        new_weights = new_session.integration_learner.graph.weights
        zip_edges = [k for k in old_weights if "ZipcodeResolver" in k and "Shelters" in k]
        assert zip_edges
        for key in zip_edges:
            assert new_weights.get(key) == pytest.approx(old_weights[key])
        # And the restored session immediately ranks Zip first, pre-trained.
        new_session.start_integration("Shelters")
        top = new_session.column_suggestions(k=5)[0]
        assert top.source == "ZipcodeResolver"

    def test_round_trip_does_not_count_a_live_penalty_twice(self, tmp_path):
        scenario = build_scenario(seed=5, n_shelters=8, noise=1)
        session = self.build_trained_session(scenario)
        quarantine_source_in_catalog(session.catalog, "Shelters", "drifted")
        session.integration_learner.absorb_drift_events()
        state_file = save_session(session, tmp_path / "state.json")

        fresh = build_scenario(seed=5, n_shelters=8, noise=1)
        new_session = CopyCatSession(catalog=fresh.catalog, seed=2)
        load_session(new_session, state_file)
        new_session.integration_learner.absorb_drift_events()

        graph = session.integration_learner.graph
        new_graph = new_session.integration_learner.graph
        assert [edge.key for edge in new_graph.edges()] == [edge.key for edge in graph.edges()]
        for edge in graph.edges():
            assert new_graph.cost(edge) == graph.cost(edge), edge.key
        assert new_graph.drift == {"Shelters": QUARANTINE_PENALTY}

    def test_version_check(self, tmp_path):
        scenario = build_scenario(seed=5, n_shelters=4)
        session = CopyCatSession(catalog=scenario.catalog, seed=1)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(PersistenceError):
            load_session(session, path)

    def test_unreadable_file(self, tmp_path):
        scenario = build_scenario(seed=5, n_shelters=4)
        session = CopyCatSession(catalog=scenario.catalog, seed=1)
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(PersistenceError):
            load_session(session, path)
