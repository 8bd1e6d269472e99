"""E3 / Figure 3 — the full SCP architecture, end to end.

One benchmark run exercises every box in the architecture diagram:
application wrappers (browser + spreadsheet copies), the structure, model
and integration learners, the auto-complete generator, the provenance-
annotating query engine, the workspace, and feedback routing. The assertion
set checks that each component left its fingerprint on the session.
"""

from __future__ import annotations


from repro import CopyCatSession, build_scenario, to_map_html
from repro.core.workspace import CellState

from .common import (
    import_contacts_via_session,
    import_shelters_via_session,
    write_report,
)


def full_demo(scenario, on_copy=None):
    session = CopyCatSession(catalog=scenario.catalog, seed=1)
    if on_copy is not None:
        session.clipboard.subscribe(on_copy)
    import_shelters_via_session(scenario, session)
    import_contacts_via_session(scenario, session)
    session.start_integration("Shelters")

    def accept_from(source, attrs):
        suggestions = session.column_suggestions(k=10)
        index = next(
            i for i, s in enumerate(suggestions)
            if s.source == source and set(attrs) <= set(s.attribute_names)
        )
        session.preview_column(index)
        session.accept_column(index)

    accept_from("ZipcodeResolver", ["Zip"])
    accept_from("Geocoder", ["Lat", "Lon"])
    accept_from("Contacts", ["Contact", "Phone"])
    return session


class TestFigure3Pipeline:
    def test_every_component_participates(self):
        scenario = build_scenario(seed=5, n_shelters=10, noise=1)
        copies = []
        session = full_demo(scenario, on_copy=copies.append)

        # Wrappers: copies were monitored.
        assert len(copies) >= 3
        # Structure learner: generalizations were stored per source tab.
        assert "Shelters" in session._generalizations
        # Model learner: committed schemas carry recognized types.
        assert session.catalog.schema("Shelters").attribute("Street").semantic_type.name == "PR-Street"
        # Integration learner + MIRA: weights moved away from defaults.
        weights = session.integration_learner.graph.weights.values()
        assert any(abs(w - 1.0) > 1e-6 for w in weights)
        # Query engine: provenance-annotated queries actually ran.
        assert session.engine.queries_run >= 3
        # Workspace: the integrated table is complete.
        table = session.workspace.tab(session.OUTPUT_TAB)
        assert table.n_rows == len(scenario.shelters)
        assert {"Zip", "Lat", "Lon", "Phone"} <= {c.name for c in table.columns}
        # Feedback routing: the three accepted suggestions are accepted columns.
        accepted = {c.name for c in table.columns if c.state == CellState.ACCEPTED}
        assert {"Zip", "Lat", "Lon", "Contact", "Phone"} <= accepted
        # Export: the mashup renders.
        html = to_map_html(table, label_attr="Name")
        assert html.count('"label"') == len(scenario.shelters)

        write_report(
            "fig3_pipeline",
            [
                f"clipboard events: {len(copies)}",
                f"queries run by engine: {session.engine.queries_run}",
                f"output columns: {[c.name for c in table.columns]}",
                f"output rows: {table.n_rows}",
            ],
            series={
                "clipboard_events": len(copies),
                "queries_run": session.engine.queries_run,
                "output_columns": [c.name for c in table.columns],
                "output_rows": table.n_rows,
            },
        )

    def test_bench_full_demo(self, benchmark):
        def once():
            scenario = build_scenario(seed=5, n_shelters=10, noise=1)
            session = full_demo(scenario)
            return session.workspace.tab(session.OUTPUT_TAB).n_rows

        rows = benchmark.pedantic(once, rounds=3, iterations=1)
        assert rows == 10
