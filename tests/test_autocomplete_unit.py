"""Direct unit tests for the auto-complete generator (alignment, coverage,
ambiguity surfacing, trust tie-breaks) and the suggestion dataclasses."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.autocomplete import AutoCompleteGenerator, _aligned_matches
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
from repro.util.text import normalize


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


def _soft_equal(a, b):
    """The pairwise definition of a match the alignment index reproduces."""
    if a == b:
        return True
    if a is None or b is None:
        return False
    return normalize(str(a)) == normalize(str(b))


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


def pairwise_matches(result_rows, workspace_rows, shared):
    """Per workspace row, the result rows that soft-equal it, by the scan."""
    return [
        [
            (row, prov)
            for row, prov in result_rows
            if all(_soft_equal(row.get(name), workspace_row.get(name)) for name in shared)
        ]
        for workspace_row in workspace_rows
    ]


def scan_alignment(result_rows, workspace_rows, shared, added):
    """Values, provenances, alternatives and coverage by the pairwise scan."""
    values, provenances, alternatives, hits = [], [], [], 0
    for matches in pairwise_matches(result_rows, workspace_rows, shared):
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


NAN = float("nan")
#: Text cells with whitespace and case variants, and numbers that are
#: ``==`` each other (``True``/``1``/``1.0``) next to text that only
#: normalizes alike (``"1"``) or does not (``"1.0"``), and NaN (one shared
#: object and one of its own, each unequal to itself).
CELLS = st.one_of(
    st.none(),
    st.sampled_from(["x", "X", " x ", "x  y", "X Y", "y", "1", "1.0", " 1 ", "True", "nan"]),
    st.sampled_from([True, False, 0, 1, 2, 1.0, 2.0, NAN, float("nan")]),
)
ATTRIBUTES = ("A", "B", "C")
SCHEMA = Schema([Attribute(name) for name in (*ATTRIBUTES, "Extra")])


#: Lists: ``[1] == [1.0]`` although their texts differ.
LISTS = st.sampled_from([["x"], [1], [1.0], ["1"]])


@st.composite
def alignment_inputs(draw):
    """Result rows over A, B, C, Extra; workspace rows over A, B, C; the
    0-3 attributes they share; at most one list cell on each side."""
    result_rows = [list(row) for row in draw(st.lists(st.tuples(CELLS, CELLS, CELLS, CELLS), max_size=8))]
    workspace_rows = [
        list(row) for row in draw(st.lists(st.tuples(CELLS, CELLS, CELLS), min_size=1, max_size=6))
    ]
    for rows in (result_rows, workspace_rows):
        where = draw(st.none() | st.tuples(st.integers(0, 63), st.integers(0, 2)))
        if rows and where is not None:
            rows[where[0] % len(rows)][where[1]] = draw(LISTS)
    shared = ATTRIBUTES[: draw(st.integers(0, 3))]
    rows = [(Row(SCHEMA, values), f"p{i}") for i, values in enumerate(result_rows)]
    return rows, [dict(zip(ATTRIBUTES, values)) for values in workspace_rows], shared


def suggest(rows, workspace_rows, shared):
    """``column_suggestions`` over a stub engine that returns *rows*."""
    result = Result(SCHEMA, rows)
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
    base = SimpleNamespace(output_schema=lambda catalog: Schema([Attribute(name) for name in shared]))
    (suggestion,) = gen.column_suggestions(base, workspace_rows)
    return suggestion


class TestIndexedAlignment:
    @settings(max_examples=300, deadline=None)
    @given(alignment_inputs())
    def test_matches_the_pairwise_scan(self, inputs):
        rows, workspace_rows, shared = inputs
        assert _aligned_matches(Result(SCHEMA, rows), workspace_rows, shared) == pairwise_matches(
            rows, workspace_rows, shared
        )
        suggestion = suggest(rows, workspace_rows, shared)
        expected = scan_alignment(rows, workspace_rows, shared, ("Extra",))
        got = (suggestion.values, suggestion.provenances, suggestion.alternatives, suggestion.coverage)
        assert got == expected

    @pytest.mark.parametrize(
        "cell, matched",
        [
            (1, [1, 1.0, True, "1", " 1 "]),
            (1.0, [1, 1.0, True, "1.0"]),
            ("1", [1, "1", " 1 "]),
            ("1.0", [1.0, "1.0"]),
            (True, [1, 1.0, True, "True"]),
            ("x", ["x", "X", " x "]),
            (None, [None]),
            (NAN, [NAN, "nan"]),
            (["x"], [["x"]]),
            ([1], [[1.0]]),
            ([1.0], [[1.0]]),
            (frozenset({1}), [{1}]),  # hashable, yet == an unhashable cell
            ({1}, [{1}]),
        ],
    )
    def test_which_cells_match(self, cell, matched):
        column = [
            1, 1.0, True, "1", "1.0", " 1 ", "True", "x", "X", " x ", None, NAN, "nan",
            ["x"], [1.0], {1},
        ]
        rows = [(Row(SCHEMA, (value, None, None, None)), i) for i, value in enumerate(column)]
        (matches,) = _aligned_matches(Result(SCHEMA, rows), [{"A": cell}], ("A",))
        got = [row.get("A") for row, _ in matches]
        assert [str(value) for value in got] == [str(value) for value in matched]
        assert matches == pairwise_matches(rows, [{"A": cell}], ("A",))[0]

    def test_empty_result_matches_nothing(self):
        suggestion = suggest([], [{"A": "x", "B": 1, "C": None}], ATTRIBUTES)
        assert suggestion.values == [(None,)]
        assert suggestion.coverage == 0.0

    def test_no_shared_attribute_matches_every_row(self):
        rows = [(Row(SCHEMA, ("x", 1, None, "e")), "p0"), (Row(SCHEMA, ("y", 2, None, "f")), "p1")]
        (matches,) = _aligned_matches(Result(SCHEMA, rows), [{"A": "z"}], ())
        assert matches == rows


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
