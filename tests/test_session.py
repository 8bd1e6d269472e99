"""Tests for the CopyCat session: the full SCP interaction loop."""

from __future__ import annotations

import random

import pytest

from repro.core.session import CopyCatSession
from repro.core.workspace import CellState, Mode
from repro.data import build_scenario
from repro.errors import FeedbackError, WorkspaceError
from repro.learning.model import seed_type_learner
from repro.learning.model.seed import builtin_types
from repro.substrate.documents import Browser, CellRange, SpreadsheetApp
from repro.substrate.relational.schema import STREET


@pytest.fixture()
def env():
    scenario = build_scenario(seed=5, n_shelters=10, noise=1)
    session = CopyCatSession(catalog=scenario.catalog, seed=1)
    browser = Browser(session.clipboard, scenario.website)
    browser.navigate(scenario.list_urls()[0])
    return scenario, session, browser


def listing_rows(browser):
    listing = browser.page.dom.find("table", "listing")
    return [n for n in listing.children if n.tag == "tr" and "record" in n.css_classes]


def import_shelters(scenario, session, browser, label=True):
    rows = listing_rows(browser)
    browser.copy_record(rows[0], "Shelters")
    session.paste()
    browser.copy_record(rows[1], "Shelters")
    session.paste()
    session.accept_row_suggestions()
    if label:
        for index, name in enumerate(["Name", "Street", "City"]):
            session.label_column(index, name)
    return session.commit_source()


class TestSeededTypesAreShared:
    """Every session shares the built-in types, never refinements."""

    def test_sessions_of_any_seed_hold_the_same_builtins(self, env):
        scenario, session, _ = env
        other = CopyCatSession(catalog=scenario.catalog, seed=9)
        assert session.type_learner is not other.type_learner
        names = [learned.name for learned in builtin_types()]
        assert session.type_learner.known_types() == other.type_learner.known_types() == sorted(names)
        for learned in builtin_types():
            assert session.type_learner.get(learned.name) is learned
            assert other.type_learner.get(learned.name) is learned

    def test_refinement_stays_in_its_session(self, env):
        scenario, session, browser = env
        original = seed_type_learner(seed=random.Random(1)).get("PR-Street").signature
        assert session.type_learner.get("PR-Street").signature == original
        browser.copy_record(listing_rows(browser)[0], "Shelters")
        session.paste()
        session.set_column_type(1, STREET)  # refines PR-Street from the pasted value
        assert session.type_learner.get("PR-Street").signature != original
        other = CopyCatSession(catalog=scenario.catalog, seed=1)
        assert other.type_learner.get("PR-Street").signature == original
        assert CopyCatSession(catalog=scenario.catalog, seed=9).type_learner.get("PR-Street").signature == original
        assert seed_type_learner(seed=1).get("PR-Street").signature == original
        assert other.type_learner.get("PR-Street") is seed_type_learner(seed=1).get("PR-Street")


class TestImportMode:
    def test_paste_generalizes_remaining_rows(self, env):
        scenario, session, browser = env
        rows = listing_rows(browser)
        browser.copy_record(rows[0], "Shelters")
        outcome = session.paste()
        assert outcome.tab == "Shelters"
        assert outcome.n_suggested_rows == len(scenario.shelters) - 1

    def test_second_paste_regeneralizes(self, env):
        scenario, session, browser = env
        rows = listing_rows(browser)
        browser.copy_record(rows[0], "Shelters")
        session.paste()
        browser.copy_record(rows[1], "Shelters")
        outcome = session.paste()
        table = session.workspace.tab("Shelters")
        assert len(table.committed_rows()) == 2
        assert outcome.n_suggested_rows == len(scenario.shelters) - 2

    def test_type_suggestions_match_figure1(self, env):
        scenario, session, browser = env
        rows = listing_rows(browser)
        browser.copy_record(rows[0], "Shelters")
        session.paste()
        table = session.workspace.tab("Shelters")
        # Figure 1: system suggests PR-Street and PR-City for columns 2-3.
        assert table.columns[1].semantic_type.name == "PR-Street"
        assert table.columns[2].semantic_type.name == "PR-City"
        assert table.columns[1].state == CellState.SUGGESTED

    def test_manual_type_not_overridden(self, env):
        scenario, session, browser = env
        rows = listing_rows(browser)
        browser.copy_record(rows[0], "Shelters")
        session.paste()
        session.set_column_type(1, "PR-MyStreet")
        browser.copy_record(rows[1], "Shelters")
        session.paste()
        table = session.workspace.tab("Shelters")
        assert table.columns[1].semantic_type.name == "PR-MyStreet"

    def test_user_defined_type_learned_on_the_fly(self, env):
        scenario, session, browser = env
        rows = listing_rows(browser)
        browser.copy_record(rows[0], "Shelters")
        session.paste()
        session.set_column_type(0, "PR-ShelterName")
        assert "PR-ShelterName" in session.type_learner.known_types()

    def test_commit_source_registers_relation(self, env):
        scenario, session, browser = env
        relation = import_shelters(scenario, session, browser)
        assert relation.name == "Shelters"
        assert len(relation) == len(scenario.shelters)
        assert relation.schema.names == ("Name", "Street", "City")
        assert session.catalog.metadata("Shelters").url == scenario.list_urls()[0]

    def test_commit_includes_all_accepted_rows(self, env):
        scenario, session, browser = env
        relation = import_shelters(scenario, session, browser)
        truth = {
            (r["Name"], r["Street"], r["City"])
            for r in scenario.truth_shelter_rows()
        }
        got = {(row["Name"], row["Street"], row["City"]) for row in (r.as_dict() for r in relation)}
        assert got == truth

    def test_spreadsheet_import(self, env):
        scenario, session, browser = env
        app = SpreadsheetApp(session.clipboard, scenario.contacts_workbook)
        app.open_sheet()
        app.copy_range(CellRange(0, 0, 1, 3), source_name="Contacts")
        outcome = session.paste()
        assert outcome.n_suggested_rows == scenario.contacts_sheet.n_rows - 2


class TestIntegrationMode:
    def test_start_integration_populates_output(self, env):
        scenario, session, browser = env
        import_shelters(scenario, session, browser)
        tab = session.start_integration("Shelters")
        table = session.workspace.tab(tab)
        assert session.workspace.mode == Mode.INTEGRATION
        assert table.n_rows == len(scenario.shelters)
        assert [c.name for c in table.columns] == ["Name", "Street", "City"]

    def test_start_twice_fails(self, env):
        scenario, session, browser = env
        import_shelters(scenario, session, browser)
        session.start_integration("Shelters")
        with pytest.raises(WorkspaceError):
            session.start_integration("Shelters")

    def test_zip_suggestion_present_and_correct(self, env):
        scenario, session, browser = env
        import_shelters(scenario, session, browser)
        session.start_integration("Shelters")
        suggestions = session.column_suggestions(k=8)
        zip_index = next(
            i for i, s in enumerate(suggestions)
            if "Zip" in s.attribute_names and s.source == "ZipcodeResolver"
        )
        suggestion = suggestions[zip_index]
        assert suggestion.coverage == 1.0
        truth = {r["Name"]: r["Zip"] for r in scenario.truth_rows()}
        table = session.workspace.tab(session.OUTPUT_TAB)
        for row_index, value in enumerate(suggestion.values):
            name = table.cell(row_index, 0).value
            assert value[0] == truth[name]

    def test_preview_and_accept_column(self, env):
        scenario, session, browser = env
        import_shelters(scenario, session, browser)
        session.start_integration("Shelters")
        suggestions = session.column_suggestions(k=8)
        zip_index = next(
            i for i, s in enumerate(suggestions)
            if "Zip" in s.attribute_names and s.source == "ZipcodeResolver"
        )
        session.preview_column(zip_index)
        table = session.workspace.tab(session.OUTPUT_TAB)
        assert table.columns[-1].name == "Zip"
        assert table.columns[-1].state == CellState.SUGGESTED
        session.accept_column(zip_index)
        assert table.columns[-1].state == CellState.ACCEPTED
        assert "ZipcodeResolver" in {n for n in session.current_query.nodes}

    def test_accept_feedback_reranks(self, env):
        scenario, session, browser = env
        import_shelters(scenario, session, browser)
        session.start_integration("Shelters")
        suggestions = session.column_suggestions(k=8)
        zip_index = next(
            i for i, s in enumerate(suggestions)
            if "Zip" in s.attribute_names and s.source == "ZipcodeResolver"
        )
        edge_key = suggestions[zip_index].completion.edge.key
        session.accept_column(zip_index)
        # The accepted edge's weight dropped below all alternatives'.
        weights = session.integration_learner.graph.weights
        assert weights[edge_key] < 1.0

    def test_reject_removes_suggestion_and_demotes(self, env):
        scenario, session, browser = env
        import_shelters(scenario, session, browser)
        session.start_integration("Shelters")
        suggestions = session.column_suggestions(k=8)
        first = suggestions[0]
        session.reject_column(0)
        refreshed = session.column_suggestions(k=8)
        assert all(s.completion.edge.key != first.completion.edge.key for s in refreshed)

    def test_explain_after_preview_mentions_service(self, env):
        scenario, session, browser = env
        import_shelters(scenario, session, browser)
        session.start_integration("Shelters")
        suggestions = session.column_suggestions(k=8)
        zip_index = next(
            i for i, s in enumerate(suggestions)
            if "Zip" in s.attribute_names and s.source == "ZipcodeResolver"
        )
        session.preview_column(zip_index)
        explanation = session.explain(0)
        assert explanation.uses_service("ZipcodeResolver")
        assert "-->" in explanation.render()

    def test_current_query_requires_integration_mode(self, env):
        _, session, _ = env
        with pytest.raises(FeedbackError):
            _ = session.current_query

    def test_bad_suggestion_index(self, env):
        scenario, session, browser = env
        import_shelters(scenario, session, browser)
        session.start_integration("Shelters")
        session.column_suggestions()
        with pytest.raises(FeedbackError):
            session.preview_column(99)


class TestCrossSourcePaste:
    def test_explain_pasted_tuples_finds_join_query(self, env):
        scenario, session, browser = env
        import_shelters(scenario, session, browser)
        rows = scenario.truth_rows()[:2]
        damage_by_city = {
            row["City"]: session.catalog.relation("DamageReports").column("Damage")[
                session.catalog.relation("DamageReports").column("City").index(row["City"])
            ]
            for row in rows
        }
        columns = {
            "Name": [r["Name"] for r in rows],
            "Damage": [damage_by_city[r["City"]] for r in rows],
        }
        suggestions = session.explain_pasted_tuples(columns, k=3)
        assert suggestions
        best_nodes = suggestions[0].query.nodes
        assert "Shelters" in best_nodes and "DamageReports" in best_nodes

    def test_adopt_query_rebuilds_output(self, env):
        scenario, session, browser = env
        import_shelters(scenario, session, browser)
        suggestions = session.explain_pasted_tuples(
            {
                "Name": [r["Name"] for r in scenario.truth_rows()[:2]],
                "RoadStatus": [],
            },
            k=3,
        )
        tab = session.adopt_query(suggestions[0])
        table = session.workspace.tab(tab)
        assert table.n_rows > 0
        assert session.workspace.mode == Mode.INTEGRATION


class TestAmbiguityResolution:
    """Example 1: ambiguous lookups expose alternatives the user can pick."""

    def make_previewed_directory(self, env):
        scenario, session, browser = env
        import_shelters(scenario, session, browser)
        session.start_integration("Shelters")
        suggestions = session.column_suggestions(k=8)
        index = next(
            (i for i, s in enumerate(suggestions) if s.source == "CityZipDirectory"),
            None,
        )
        if index is None:
            pytest.skip("CityZipDirectory not in top-k")
        session.preview_column(index)
        suggestion = suggestions[index]
        ambiguous = next(
            (r for r, alts in enumerate(suggestion.alternatives) if alts), None
        )
        if ambiguous is None:
            pytest.skip("no ambiguous lookup this seed")
        return scenario, session, suggestion, ambiguous

    def test_alternatives_listed(self, env):
        _, session, suggestion, row = self.make_previewed_directory(env)
        alternatives = session.cell_alternatives(row)
        assert alternatives
        assert all(len(alt) == len(suggestion.attribute_names) for alt in alternatives)

    def test_choose_alternative_updates_cell(self, env):
        _, session, suggestion, row = self.make_previewed_directory(env)
        table = session.workspace.tab(session.OUTPUT_TAB)
        col = table.n_cols - 1
        before = table.cell(row, col).value
        chosen = session.choose_alternative(row, 0)
        assert table.cell(row, col).value == chosen[-1]
        assert table.cell(row, col).value != before
        # The displaced value is still reachable as an alternative.
        assert (before,) in [tuple(a) for a in session.cell_alternatives(row)] or any(
            before in alt for alt in session.cell_alternatives(row)
        )

    def test_accept_commits_disambiguated_value(self, env):
        _, session, suggestion, row = self.make_previewed_directory(env)
        chosen = session.choose_alternative(row, 0)
        index = session._column_suggestions.index(suggestion)
        session.accept_column(index)
        table = session.workspace.tab(session.OUTPUT_TAB)
        assert table.cell(row, table.n_cols - 1).value == chosen[-1]
        assert table.row_state(row).is_committed

    def test_requires_preview(self, env):
        scenario, session, browser = env
        import_shelters(scenario, session, browser)
        session.start_integration("Shelters")
        with pytest.raises(FeedbackError):
            session.cell_alternatives(0)

    def test_bad_choice_index(self, env):
        _, session, _, row = self.make_previewed_directory(env)
        with pytest.raises(FeedbackError):
            session.choose_alternative(row, 99)
