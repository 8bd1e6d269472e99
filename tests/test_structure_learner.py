"""Tests for the structure learner: experts, clustering, projections,
wrapper-induction fallback, and the generalization facade."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import build_scenario
from repro.errors import NoHypothesisError
from repro.learning.structure import (
    ListLayoutExpert,
    RelationalCandidate,
    StructureLearner,
    TableLayoutExpert,
    TemplateGrammarExpert,
    cluster_candidates,
    find_projections,
    induce_table,
    learn_column_rules,
    subsumes,
)
from repro.substrate.documents import (
    Browser,
    CellRange,
    Clipboard,
    SpreadsheetApp,
)


def make_browser(scenario):
    clip = Clipboard()
    browser = Browser(clip, scenario.website)
    browser.navigate(scenario.list_urls()[0])
    return browser


def listing_records(browser, style="table"):
    tag = {"table": "tr", "ul": "li", "div": "div"}[style]
    container = browser.page.dom.find(
        {"table": "table", "ul": "ul", "div": "div"}[style], "listing"
    )
    return [n for n in container.children if n.tag == tag and "record" in n.css_classes]


class TestExperts:
    def test_table_expert_extracts_rows(self, scenario):
        browser = make_browser(scenario)
        candidates = TableLayoutExpert().propose(browser.page.dom)
        assert candidates
        best = max(candidates, key=lambda c: len(c.records))
        assert len(best.records) == len(scenario.shelters)
        assert best.n_columns == 3

    def test_table_expert_skips_header_rows(self, scenario):
        browser = make_browser(scenario)
        candidates = TableLayoutExpert().propose(browser.page.dom)
        best = max(candidates, key=lambda c: len(c.records))
        names = {record[0] for record in best.records}
        assert "Name" not in names  # the <th> header row is not a record

    def test_list_expert_on_ul_style(self):
        scenario = build_scenario(seed=8, n_shelters=6, listing_style="ul", noise=0)
        browser = make_browser(scenario)
        candidates = ListLayoutExpert().propose(browser.page.dom)
        assert candidates and len(candidates[0].records) == 6

    def test_template_expert_finds_div_records(self):
        scenario = build_scenario(seed=8, n_shelters=6, listing_style="div", noise=0)
        browser = make_browser(scenario)
        candidates = TemplateGrammarExpert().propose(browser.page.dom)
        assert any(len(c.records) == 6 and c.n_columns == 3 for c in candidates)

    def test_majority_vote_drops_interleaved_ads(self):
        scenario = build_scenario(seed=8, n_shelters=9, listing_style="table", noise=2)
        browser = make_browser(scenario)
        candidates = TableLayoutExpert().propose(browser.page.dom)
        best = max(candidates, key=lambda c: len(c.records))
        assert len(best.records) == 9  # ads (1-cell rows) excluded


class TestClustering:
    def test_agreeing_experts_merge_and_boost(self):
        records = [["a", "1"], ["b", "2"], ["c", "3"]]
        c1 = RelationalCandidate(records=records, n_columns=2, support=["e1"], score=2.0, origin="x")
        c2 = RelationalCandidate(records=[list(r) for r in records], n_columns=2, support=["e2"], score=1.5, origin="y")
        merged = cluster_candidates([c1, c2])
        assert len(merged) == 1
        assert merged[0].score == pytest.approx(3.5)
        assert set(merged[0].support) == {"e1", "e2"}

    def test_distinct_candidates_stay_separate(self):
        c1 = RelationalCandidate(records=[["a"]], n_columns=1, score=1.0)
        c2 = RelationalCandidate(records=[["b"]], n_columns=1, score=2.0)
        merged = cluster_candidates([c1, c2])
        assert len(merged) == 2
        assert merged[0].records == [["b"]]  # ranked by score

    def test_subsumes(self):
        big = RelationalCandidate(records=[["a"], ["b"], ["c"]], n_columns=1)
        small = RelationalCandidate(records=[["a"], ["b"]], n_columns=1)
        assert subsumes(big, small)
        assert not subsumes(small, big)
        assert not subsumes(big, big)


class TestProjections:
    CANDIDATE = RelationalCandidate(
        records=[["A", "1", "x"], ["B", "2", "y"], ["C", "3", "z"]],
        n_columns=3,
        score=1.0,
    )

    def test_identity_projection_found(self):
        hypotheses = find_projections(self.CANDIDATE, [["A", "1"], ["B", "2"]])
        assert hypotheses
        assert hypotheses[0].column_map == (0, 1)
        assert hypotheses[0].rows() == [["A", "1"], ["B", "2"], ["C", "3"]]

    def test_reordered_projection(self):
        hypotheses = find_projections(self.CANDIDATE, [["1", "A"]])
        assert any(h.column_map == (1, 0) for h in hypotheses)

    def test_inconsistent_examples_yield_nothing(self):
        assert find_projections(self.CANDIDATE, [["A", "999"]]) == []

    def test_wider_examples_than_candidate(self):
        assert find_projections(self.CANDIDATE, [["A", "1", "x", "extra"]]) == []

    def test_ragged_examples_rejected(self):
        assert find_projections(self.CANDIDATE, [["A", "1"], ["B"]]) == []

    def test_consistency_check(self):
        hypothesis = find_projections(self.CANDIDATE, [["A", "1"]])[0]
        assert hypothesis.consistent_with([["B", "2"]])
        assert not hypothesis.consistent_with([["B", "999"]])

    def test_order_preserving_preferred(self):
        # Both (0,1) and (1,0)... only (0,1) consistent for these examples;
        # check the preference bonus ranks in-order maps first when both fit.
        candidate = RelationalCandidate(
            records=[["A", "A2"], ["B", "B2"]], n_columns=2, score=1.0
        )
        hypotheses = find_projections(candidate, [["A"]])
        assert hypotheses[0].column_map == (0,)


class TestWrapperInduction:
    HTML = (
        '<ul><li><b>Monarch</b><i>Creek</i></li>'
        '<li><b>Tedder</b><i>Park</i></li>'
        '<li><b>Norcrest</b><i>Creek2</i></li></ul>'
    )

    def test_learns_landmarks_and_extracts_all(self):
        rules = learn_column_rules(self.HTML, ["Monarch", "Tedder"])
        values = [value for _, value in rules.extract(self.HTML)]
        assert values == ["Monarch", "Tedder", "Norcrest"]

    def test_missing_example_raises(self):
        with pytest.raises(NoHypothesisError):
            learn_column_rules(self.HTML, ["NotThere"])

    def test_induce_table_aligns_rows(self):
        rows = induce_table(self.HTML, [["Monarch", "Creek"], ["Tedder", "Park"]])
        assert ["Norcrest", "Creek2"] in rows
        assert len(rows) == 3

    def test_induce_table_needs_examples(self):
        with pytest.raises(NoHypothesisError):
            induce_table(self.HTML, [])


class TestStructureLearnerFacade:
    @pytest.mark.parametrize("style", ["table", "ul", "div"])
    @pytest.mark.parametrize("noise", [0, 2])
    def test_two_examples_generalize_exactly(self, style, noise, trained_types):
        scenario = build_scenario(seed=5, n_shelters=8, listing_style=style, noise=noise)
        browser = make_browser(scenario)
        learner = StructureLearner(type_learner=trained_types)
        truth = [[r["Name"], r["Street"], r["City"]] for r in scenario.truth_shelter_rows()]
        records = listing_records(browser, style)
        event = browser.copy_record(records[0], "Shelters")
        result = learner.generalize(event, truth[:2])
        assert sorted(map(tuple, result.best.rows())) == sorted(map(tuple, truth))

    def test_multi_page_generalization(self, trained_types):
        scenario = build_scenario(seed=5, n_shelters=12, noise=1, pages=3)
        browser = make_browser(scenario)
        learner = StructureLearner(type_learner=trained_types)
        truth = [[r["Name"], r["Street"], r["City"]] for r in scenario.truth_shelter_rows()]
        records = listing_records(browser)
        event = browser.copy_record(records[0], "Shelters")
        result = learner.generalize(event, truth[:2])
        assert len(result.best.rows()) == 12
        assert "url-pattern" in result.best.candidate.support

    def test_multi_page_disabled(self, trained_types):
        scenario = build_scenario(seed=5, n_shelters=12, noise=1, pages=3)
        browser = make_browser(scenario)
        learner = StructureLearner(type_learner=trained_types, follow_url_families=False)
        truth = [[r["Name"], r["Street"], r["City"]] for r in scenario.truth_shelter_rows()]
        records = listing_records(browser)
        event = browser.copy_record(records[0], "Shelters")
        result = learner.generalize(event, truth[:2])
        assert len(result.best.rows()) == 4  # only the first page's rows

    def test_sheet_generalization(self, scenario, trained_types):
        clip = Clipboard()
        app = SpreadsheetApp(clip, scenario.contacts_workbook)
        app.open_sheet()
        event = app.copy_range(CellRange(0, 0, 0, 3))
        learner = StructureLearner(type_learner=trained_types)
        result = learner.generalize(event)
        assert len(result.best.rows()) == scenario.contacts_sheet.n_rows

    def test_reject_advances_hypothesis(self, scenario, trained_types):
        browser = make_browser(scenario)
        learner = StructureLearner(type_learner=trained_types)
        records = listing_records(browser)
        event = browser.copy_record(records[0], "Shelters")
        result = learner.generalize(event)
        if len(result.hypotheses) > 1:
            first = result.best
            second = result.reject_current()
            assert second is not first
        else:
            with pytest.raises(NoHypothesisError):
                result.reject_current()

    def test_suggested_rows_exclude_examples(self, scenario, trained_types):
        browser = make_browser(scenario)
        learner = StructureLearner(type_learner=trained_types)
        truth = [[r["Name"], r["Street"], r["City"]] for r in scenario.truth_shelter_rows()]
        records = listing_records(browser)
        event = browser.copy_record(records[0], "Shelters")
        result = learner.generalize(event, truth[:2])
        suggested = result.suggested_rows()
        assert len(suggested) == len(truth) - 2
        assert truth[0] not in suggested

    def test_unknown_document_type(self, trained_types):
        from repro.substrate.documents.clipboard import CopyEvent, SourceContext

        event = CopyEvent(
            text="x",
            context=SourceContext(app="?", source_name="S", document=object()),
        )
        learner = StructureLearner(type_learner=trained_types)
        with pytest.raises(NoHypothesisError):
            learner.generalize(event)

    def test_no_hypothesis_result_raises_on_best(self):
        from repro.learning.structure.learner import GeneralizationResult

        result = GeneralizationResult(source_name="S", examples=[])
        with pytest.raises(NoHypothesisError):
            _ = result.best


def _hypothesis_key(hypothesis):
    candidate = hypothesis.candidate
    return (
        candidate.origin,
        tuple(candidate.support),
        candidate.page_urls,
        candidate.n_columns,
        hypothesis.score,
        hypothesis.column_map,
        hypothesis.via_fallback,
        tuple(tuple(row) for row in hypothesis.rows()),
    )


def _walk(result):
    """Every hypothesis the user can reach by rejecting, in order."""
    seen = [_hypothesis_key(h) for h in result.hypotheses]
    reached = []
    if result.hypotheses:
        reached.append(_hypothesis_key(result.best))
        while not result.exhausted:
            reached.append(_hypothesis_key(result.reject_current()))
        with pytest.raises(NoHypothesisError):
            result.reject_current()
    return seen, reached


class TestGeneralizeMatchesFullRescoring:
    """``generalize`` rescores only the candidates that can project the
    examples; its hypotheses must equal a generalize that rescores every
    candidate first (``tests/reference_structure.py``)."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_the_full_rescoring_reference(self, data, trained_types):
        from repro.drift.perturb import PERTURBATIONS, perturb_page
        from repro.substrate.documents.clipboard import CopyEvent, SourceContext

        from . import reference_structure

        kind = data.draw(st.sampled_from(["page", "page", "page", "sheet", "text"]))
        scenario = build_scenario(
            seed=data.draw(st.integers(0, 40)),
            n_shelters=data.draw(st.integers(3, 9)),
            noise=data.draw(st.integers(0, 3)),
            pages=data.draw(st.integers(1, 2)),
            listing_style=data.draw(st.sampled_from(["table", "ul", "div"])),
            link_details=data.draw(st.booleans()),
        )
        if kind == "page":
            url = scenario.list_urls()[0]
            perturbation = data.draw(st.sampled_from([None, *sorted(PERTURBATIONS)]))
            if perturbation is not None:
                perturb_page(scenario.website, url, perturbation, seed=data.draw(st.integers(0, 9)))
            document, container = scenario.website.fetch(url), scenario.website
        elif kind == "sheet":
            document, container, url = scenario.contacts_sheet, scenario.contacts_workbook, None
        else:
            document, container, url = scenario.situation_report, None, None

        learner = StructureLearner(
            type_learner=trained_types, max_hypotheses=data.draw(st.integers(1, 8))
        )
        context = SourceContext(
            app="test", source_name="S", document=document, url=url, container=container
        )
        proposed = [c for c in learner._propose(CopyEvent("x", context))[0] if c.records]  # noqa: SLF001
        if proposed:
            # 1-2 examples from any record of any candidate, over one column
            # choice (clipped to each record's width).
            columns = data.draw(st.permutations(range(max(c.n_columns for c in proposed))))
            columns = columns[: data.draw(st.integers(1, min(3, len(columns))))]
            examples = []
            for _ in range(data.draw(st.integers(1, 2))):
                records = data.draw(st.sampled_from(proposed)).records
                record = records[data.draw(st.integers(0, len(records) - 1))]
                examples.append([record[c % len(record)] for c in columns])
        else:
            examples = [["nothing here"]]
        event = CopyEvent("\t".join(examples[0]), context)
        if data.draw(st.booleans()):
            examples = None  # the event's own fields are the example

        expected = reference_structure.generalize(learner, event, examples)
        actual = learner.generalize(event, examples)
        assert actual.examples == expected.examples
        assert _walk(actual) == _walk(expected)

    def test_rescores_only_candidates_that_can_project(self, scenario, trained_types):
        browser = make_browser(scenario)
        learner = StructureLearner(type_learner=trained_types)
        event = browser.copy_record(listing_records(browser)[0], "Shelters")
        rescored = []
        rescore = learner.datatype_expert.rescore
        learner.datatype_expert.rescore = lambda cs: rescored.append(list(cs)) or rescore(cs)
        proposed = learner._propose(event)[0]  # noqa: SLF001
        learner.generalize(event)
        assert 0 < len(rescored[0]) < len(proposed)
        assert all(find_projections(c, event.fields) for c in rescored[0])
        rescored.clear()
        learner.ranked_candidates(event)
        assert len(rescored[0]) == len(proposed)
