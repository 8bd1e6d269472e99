"""Direct unit tests for the auto-complete generator (alignment, coverage,
ambiguity surfacing, trust tie-breaks) and the suggestion dataclasses."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.autocomplete import AutoCompleteGenerator, _soft_equal
from repro.core.engine import QueryEngine
from repro.core.suggestions import RowSuggestion, TypeSuggestion
from repro.learning.integration import IntegrationLearner
from repro.learning.structure import StructureLearner
from repro.learning.structure.learner import GeneralizationResult
from repro.learning.structure.hypotheses import ProjectionHypothesis, RelationalCandidate
from repro.substrate.relational import (
    Attribute,
    Relation,
    Row,
    Schema,
    SourceMetadata,
)
from repro.substrate.relational.evaluator import Result
from repro.substrate.relational.schema import CITY, PLACE, STREET


@pytest.fixture()
def generator(fresh_scenario, trained_types):
    catalog = fresh_scenario.catalog
    shelters = Relation(
        "Shelters",
        Schema([Attribute("Name", PLACE), Attribute("Street", STREET), Attribute("City", CITY)]),
    )
    for row in fresh_scenario.truth_shelter_rows():
        shelters.add(row)
    catalog.add_relation(shelters, SourceMetadata(origin="paste"))
    engine = QueryEngine(catalog)
    learner = IntegrationLearner(catalog)
    return fresh_scenario, AutoCompleteGenerator(
        engine, StructureLearner(type_learner=trained_types), trained_types, learner
    )


class TestColumnSuggestionAlignment:
    def test_values_align_row_by_row(self, generator):
        scenario, gen = generator
        query = gen.integration_learner.base_query("Shelters")
        workspace_rows = [
            {"Name": r["Name"], "Street": r["Street"], "City": r["City"]}
            for r in scenario.truth_shelter_rows()
        ]
        suggestions = gen.column_suggestions(query, workspace_rows, k=8)
        zips = next(
            s for s in suggestions
            if "Zip" in s.attribute_names and s.source == "ZipcodeResolver"
        )
        truth = {r["Name"]: r["Zip"] for r in scenario.truth_rows()}
        for row, value in zip(workspace_rows, zips.values):
            assert value[0] == truth[row["Name"]]

    def test_unmatchable_rows_get_none_and_lower_coverage(self, generator):
        scenario, gen = generator
        query = gen.integration_learner.base_query("Shelters")
        workspace_rows = [
            {"Name": "Nonexistent Shelter", "Street": "1 Nowhere", "City": "Nocity"}
        ]
        suggestions = gen.column_suggestions(query, workspace_rows, k=8)
        for suggestion in suggestions:
            assert suggestion.values[0] == tuple(None for _ in suggestion.attribute_names)
            assert suggestion.coverage == 0.0

    def test_ambiguous_lookups_populate_alternatives(self, generator):
        scenario, gen = generator
        query = gen.integration_learner.base_query("Shelters")
        rows = [
            {"Name": r["Name"], "Street": r["Street"], "City": r["City"]}
            for r in scenario.truth_shelter_rows()
        ]
        suggestions = gen.column_suggestions(query, rows, k=8)
        directory = next(
            (s for s in suggestions if s.source == "CityZipDirectory"), None
        )
        if directory is None:
            pytest.skip("CityZipDirectory below k")
        multi_zip_rows = [
            i for i, r in enumerate(rows)
            if len(scenario.gazetteer.zips_for_city(r["City"])) > 1
        ]
        assert any(directory.alternatives[i] for i in multi_zip_rows)

    def test_empty_workspace_rows(self, generator):
        _, gen = generator
        query = gen.integration_learner.base_query("Shelters")
        suggestions = gen.column_suggestions(query, [], k=3)
        assert all(s.coverage == 0.0 for s in suggestions)

    def test_trust_breaks_cost_ties(self, generator):
        scenario, gen = generator
        query = gen.integration_learner.base_query("Shelters")
        rows = [
            {"Name": r["Name"], "Street": r["Street"], "City": r["City"]}
            for r in scenario.truth_shelter_rows()
        ]
        baseline = [s.source for s in gen.column_suggestions(query, rows, k=8)]
        scenario.catalog.metadata("RoadConditions").trust = 0.1
        demoted = [s.source for s in gen.column_suggestions(query, rows, k=8)]
        assert demoted.index("RoadConditions") >= baseline.index("RoadConditions")


class TestSuggestionObjects:
    def test_row_suggestion_len_and_mechanism(self):
        candidate = RelationalCandidate(records=[["a"], ["b"]], n_columns=1, score=1.0)
        hypothesis = ProjectionHypothesis(candidate=candidate, column_map=(0,))
        generalization = GeneralizationResult(
            source_name="S", examples=[["a"]], hypotheses=[hypothesis]
        )
        suggestion = RowSuggestion(
            source_name="S", rows=[["b"]], generalization=generalization
        )
        assert len(suggestion) == 1
        assert "projection" in suggestion.mechanism

    def test_type_suggestion_accessors(self, trained_types):
        hypotheses = trained_types.recognize(["33063", "33442", "33301"], top_k=3)
        suggestion = TypeSuggestion(column_index=2, hypotheses=hypotheses)
        assert suggestion.best is hypotheses[0]
        assert suggestion.alternatives() == [h.semantic_type for h in hypotheses[1:]]

    def test_type_suggestion_empty(self):
        suggestion = TypeSuggestion(column_index=0, hypotheses=[])
        assert suggestion.best is None
        assert suggestion.alternatives() == []


class TestSoftEqual:
    def test_exact(self):
        assert _soft_equal("x", "x")
        assert _soft_equal(3, 3)

    def test_normalized(self):
        assert _soft_equal("Coconut  Creek", "coconut creek")

    def test_none_never_matches_value(self):
        assert not _soft_equal(None, "x")
        assert not _soft_equal("x", None)
        assert _soft_equal(None, None)

    def test_numbers_vs_strings(self):
        assert _soft_equal(33063, "33063")


def scan_alignment(result_rows, workspace_rows, shared, added):
    """Values, provenances, alternatives and coverage by the pairwise scan."""
    values, provenances, alternatives, hits = [], [], [], 0
    for workspace_row in workspace_rows:
        matches = [
            (row, prov)
            for row, prov in result_rows
            if all(_soft_equal(row.get(name), workspace_row.get(name)) for name in shared)
        ]
        if matches:
            hits += 1
            values.append(tuple(matches[0][0].get(name) for name in added))
            provenances.append(matches[0][1])
            alternatives.append([tuple(row.get(name) for name in added) for row, _ in matches[1:]])
        else:
            values.append(tuple(None for _ in added))
            provenances.append(None)
            alternatives.append([])
    return values, provenances, alternatives, hits / len(workspace_rows)


TEXT_CELLS = st.one_of(st.none(), st.sampled_from(["x", "X", " x ", "x  y", "X Y", "y", "1", "1.0"]))
MIXED_CELLS = st.one_of(TEXT_CELLS, st.integers(0, 2), st.sampled_from([1.0, 2.0]))


@st.composite
def alignment_inputs(draw):
    cells = draw(st.sampled_from([TEXT_CELLS, MIXED_CELLS]))
    result_rows = draw(st.lists(st.tuples(cells, cells, cells), max_size=8))
    workspace_rows = draw(st.lists(st.tuples(cells, cells), min_size=1, max_size=6))
    return result_rows, [{"A": a, "B": b} for a, b in workspace_rows]


class TestIndexedAlignment:
    SCHEMA = Schema([Attribute("A"), Attribute("B"), Attribute("Extra")])

    @settings(max_examples=200, deadline=None)
    @given(alignment_inputs())
    def test_matches_the_pairwise_scan(self, inputs):
        raw_rows, workspace_rows = inputs
        rows = [(Row(self.SCHEMA, values), f"p{i}") for i, values in enumerate(raw_rows)]
        result = Result(self.SCHEMA, rows)
        completion = SimpleNamespace(
            query=SimpleNamespace(plan=None, nodes=()), added_attributes=("Extra",),
            cost=1.0, added_source="S",
        )
        gen = AutoCompleteGenerator(
            SimpleNamespace(catalog=(), run=lambda plan: result),
            structure_learner=None,
            type_learner=None,
            integration_learner=SimpleNamespace(column_completions=lambda *args, **kwargs: [completion]),
        )
        base = SimpleNamespace(output_schema=lambda catalog: Schema([Attribute("A"), Attribute("B")]))
        (suggestion,) = gen.column_suggestions(base, workspace_rows)
        expected = scan_alignment(result.rows, workspace_rows, ["A", "B"], ("Extra",))
        got = (suggestion.values, suggestion.provenances, suggestion.alternatives, suggestion.coverage)
        assert got == expected


class TestQuerySuggestions:
    def test_query_suggestions_rank_by_cost(self, generator):
        scenario, gen = generator
        rows = scenario.truth_shelter_rows()[:2]
        columns = {"Name": [r["Name"] for r in rows], "RoadStatus": []}
        suggestions = gen.query_suggestions(columns, k=3)
        assert suggestions
        costs = [s.cost for s in suggestions]
        assert costs == sorted(costs)
        assert "Shelters" in suggestions[0].query.nodes
