"""Tests for the scenario builder and the query engine facade."""

from __future__ import annotations

import pytest

from repro.core.engine import QueryEngine
from repro.data import build_scenario
from repro.substrate.relational import Scan, Select, eq


class TestScenario:
    def test_deterministic_by_seed(self):
        a = build_scenario(seed=42, n_shelters=6)
        b = build_scenario(seed=42, n_shelters=6)
        assert [s.name for s in a.shelters] == [s.name for s in b.shelters]
        assert a.contacts_sheet.rows() == b.contacts_sheet.rows()

    def test_website_contains_every_shelter(self, scenario):
        page = scenario.website.fetch(scenario.list_urls()[0])
        text = page.dom.text_content()
        for shelter in scenario.shelters:
            assert shelter.name in text

    def test_contacts_sheet_has_noisy_names(self):
        scenario = build_scenario(seed=42, n_shelters=12, name_noise=1.0)
        noisy = {s.noisy_name for s in scenario.shelters}
        clean = {s.name for s in scenario.shelters}
        assert noisy != clean  # at least one name got perturbed

    def test_services_agree_with_truth(self, scenario):
        zip_svc = scenario.registry.get("ZipcodeResolver")
        for shelter in scenario.shelters:
            rows = zip_svc.invoke(
                {"Street": shelter.address.street, "City": shelter.address.city}
            )
            assert rows[0]["Zip"] == shelter.address.zip

    def test_place_resolver_knows_shelters(self, scenario):
        resolver = scenario.registry.get("PlaceResolver")
        shelter = scenario.shelters[0]
        rows = resolver.invoke({"Name": shelter.name})
        assert rows and rows[0]["Street"] == shelter.address.street

    def test_catalog_has_local_repository_sources(self, scenario):
        assert "DamageReports" in scenario.catalog.relation_names()
        assert "RoadConditions" in scenario.catalog.relation_names()

    def test_multi_page_splits_rows(self):
        scenario = build_scenario(seed=42, n_shelters=9, pages=3)
        assert len(scenario.list_urls()) == 3
        counts = []
        for url in scenario.list_urls():
            page = scenario.website.fetch(url)
            counts.append(len(page.dom.find_all("tr", "record")))
        assert sum(counts) == 9

    def test_detail_pages_exist(self, scenario):
        page = scenario.website.fetch("shelter/0")
        assert scenario.shelters[0].name in page.dom.text_content()

    def test_truth_shelter_rows_projection(self, scenario):
        rows = scenario.truth_shelter_rows()
        assert set(rows[0]) == {"Name", "Street", "City"}

    def test_shelter_by_name(self, scenario):
        shelter = scenario.shelters[0]
        assert scenario.shelter_by_name(shelter.name) is shelter
        with pytest.raises(KeyError):
            scenario.shelter_by_name("Nonexistent Place")


class TestQueryEngine:
    def test_run_counts_queries(self, fresh_scenario):
        engine = QueryEngine(fresh_scenario.catalog)
        engine.run(Scan("DamageReports"))
        engine.run(Scan("RoadConditions"))
        assert engine.queries_run == 2

    def test_distinct_merging_default(self, fresh_scenario):
        engine = QueryEngine(fresh_scenario.catalog)
        result = engine.run(Scan("DamageReports"))
        assert len(result) == len(fresh_scenario.catalog.relation("DamageReports"))

    def test_lookup_by_key(self, fresh_scenario):
        engine = QueryEngine(fresh_scenario.catalog)
        result = engine.run(Scan("DamageReports"))
        city = result.plain_rows()[0]["City"]
        matches = engine.lookup(result, {"City": city})
        assert matches and matches[0][0]["City"] == city

    def test_base_tuples(self, fresh_scenario):
        engine = QueryEngine(fresh_scenario.catalog)
        result = engine.run(Select(Scan("DamageReports"), eq("Damage", "severe")))
        for _, prov in result.rows:
            tids = engine.base_tuples(prov)
            assert all(tid.relation == "DamageReports" for tid in tids)
