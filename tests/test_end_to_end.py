"""End-to-end reproduction of the Section 8 demonstration task.

"The goal will be to plot shelters on a map ... achieved simply by copying
and pasting data from the sources": import the shelter list from the web,
import the contacts spreadsheet, integrate zip + geocode columns via column
auto-completions, link contacts approximately, inspect provenance, and
export the result to the Google-Maps-style mashup.
"""

from __future__ import annotations

import json

import pytest

from repro import Browser, CopyCatSession, SpreadsheetApp, build_scenario, to_map_html, to_xml
from repro.substrate.documents import CellRange
from repro.substrate.relational import DependentJoin, walk


@pytest.fixture(scope="module")
def completed_session():
    scenario = build_scenario(seed=5, n_shelters=10, noise=1)
    session = CopyCatSession(catalog=scenario.catalog, seed=1)

    # --- import the shelter list from the TV-news site -----------------------
    browser = Browser(session.clipboard, scenario.website)
    browser.navigate(scenario.list_urls()[0])
    listing = browser.page.dom.find("table", "listing")
    records = [n for n in listing.children if n.tag == "tr" and "record" in n.css_classes]
    browser.copy_record(records[0], "Shelters")
    session.paste()
    browser.copy_record(records[1], "Shelters")
    session.paste()
    session.accept_row_suggestions()
    for index, label in enumerate(["Name", "Street", "City"]):
        session.label_column(index, label)
    session.commit_source()

    # --- import the contacts spreadsheet ------------------------------------
    sheet_app = SpreadsheetApp(session.clipboard, scenario.contacts_workbook)
    sheet_app.open_sheet()
    sheet_app.copy_range(CellRange(0, 0, 1, 3), source_name="Contacts")
    session.paste()
    session.accept_row_suggestions()
    for index, label in enumerate(["Shelter", "Contact", "Phone", "Address"]):
        session.label_column(index, label)
    # The noisy shelter names may not auto-type; assert the user's override
    # is honored by typing them PR-Place explicitly.
    from repro.substrate.relational.schema import PLACE

    session.set_column_type(0, PLACE, learn_from_values=False)
    session.commit_source()

    # --- integration: zip, then geocode, then linked contacts ----------------
    session.start_integration("Shelters")

    def accept_from(source, attrs):
        suggestions = session.column_suggestions(k=10)
        index = next(
            i for i, s in enumerate(suggestions)
            if s.source == source and set(attrs) <= set(s.attribute_names)
        )
        session.preview_column(index)
        return session.accept_column(index)

    accept_from("ZipcodeResolver", ["Zip"])
    accept_from("Geocoder", ["Lat", "Lon"])
    accept_from("Contacts", ["Contact", "Phone"])
    return scenario, session


class TestDemoTask:
    def test_final_table_shape(self, completed_session):
        scenario, session = completed_session
        table = session.workspace.tab(session.OUTPUT_TAB)
        names = [c.name for c in table.columns]
        for needed in ("Name", "Street", "City", "Zip", "Lat", "Lon", "Contact", "Phone"):
            assert needed in names
        assert table.n_rows == len(scenario.shelters)

    def test_zip_and_geocode_values_match_truth(self, completed_session):
        scenario, session = completed_session
        table = session.workspace.tab(session.OUTPUT_TAB)
        truth = {r["Name"]: r for r in scenario.truth_rows()}
        name_col = table.column_index("Name")
        for row_index in range(table.n_rows):
            name = table.cell(row_index, name_col).value
            expected = truth[name]
            assert table.cell(row_index, table.column_index("Zip")).value == expected["Zip"]
            assert table.cell(row_index, table.column_index("Lat")).value == expected["Lat"]

    def test_record_link_contact_accuracy(self, completed_session):
        scenario, session = completed_session
        table = session.workspace.tab(session.OUTPUT_TAB)
        truth = {r["Name"]: r for r in scenario.truth_rows()}
        name_col = table.column_index("Name")
        phone_col = table.column_index("Phone")
        correct = 0
        linked = 0
        for row_index in range(table.n_rows):
            name = table.cell(row_index, name_col).value
            phone = table.cell(row_index, phone_col).value
            if phone is not None:
                linked += 1
                if phone == truth[name]["Phone"]:
                    correct += 1
        assert linked >= 0.8 * table.n_rows
        assert correct >= 0.8 * linked

    def test_learned_dependent_joins_bind_every_graph_input(self, completed_session):
        # A service's binding restriction is its source-graph node's inputs;
        # the learner maps every one of them when it builds a DependentJoin.
        _, session = completed_session
        learner = session.integration_learner
        query = session.current_query
        plans = [query.plan] + [c.query.plan for c in learner.column_completions(query, k=10)]
        joins = [node for plan in plans for node in walk(plan) if isinstance(node, DependentJoin)]
        assert {join.service for join in joins} >= {"ZipcodeResolver", "Geocoder"}
        for join in joins:
            bound = {service_input for service_input, _ in join.input_map}
            assert set(learner.graph.node(join.service).inputs) <= bound, join.describe()

    def test_every_cell_committed(self, completed_session):
        _, session = completed_session
        table = session.workspace.tab(session.OUTPUT_TAB)
        for row_index in range(table.n_rows):
            assert table.row_state(row_index).is_committed

    def test_provenance_spans_all_sources(self, completed_session):
        _, session = completed_session
        explanation = session.explain(0)
        text = explanation.render()
        assert "Shelters" in text
        assert "ZipcodeResolver" in text or "Geocoder" in text

    def test_export_to_map(self, completed_session):
        scenario, session = completed_session
        table = session.workspace.tab(session.OUTPUT_TAB)
        html = to_map_html(table, label_attr="Name", title="Shelter map")
        payload = html.split('id="markers">')[1].split("</script>")[0]
        markers = json.loads(payload)
        assert len(markers) == len(scenario.shelters)
        labels = {m["label"] for m in markers}
        assert labels == {s.name for s in scenario.shelters}

    def test_export_to_xml(self, completed_session):
        scenario, session = completed_session
        table = session.workspace.tab(session.OUTPUT_TAB)
        xml = to_xml(table, root="shelters", row_element="shelter")
        assert xml.count("<shelter>") == len(scenario.shelters)

    def test_learning_left_traces(self, completed_session):
        _, session = completed_session
        # The three acceptances produced MIRA updates on the shared graph.
        weights = session.integration_learner.graph.weights
        assert any(w != pytest.approx(1.0) for w in weights.values())
