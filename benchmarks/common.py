"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's figures/claims (see
DESIGN.md's per-experiment index) and, besides timing via pytest-benchmark,
writes the rows/series it measured to ``benchmarks/reports/<name>.txt`` so
EXPERIMENTS.md can quote them — plus a machine-readable JSON sibling
(``benchmarks/reports/<name>.json``) carrying the same lines, any
structured series the benchmark passed, and a snapshot of the obs-layer
metrics captured during the run. CI diffs those JSON files across commits
(see ``benchmarks/check_regression.py``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro import Browser, CopyCatSession, SpreadsheetApp
from repro.cache import CacheTiers
from repro.obs import METRICS
from repro.substrate.documents import CellRange
from repro.substrate.relational import Attribute, Relation, Schema, SourceMetadata
from repro.substrate.relational.schema import CITY, PLACE, STREET

REPORT_DIR = Path(__file__).parent / "reports"


def write_report(
    name: str,
    lines: Iterable[str],
    series: Any | None = None,
) -> Path:
    """Persist a benchmark's measured table under benchmarks/reports/.

    Writes the human-readable ``<name>.txt`` and a ``<name>.json`` sibling:
    ``{"name", "lines", "series", "metrics"}`` where *series* is whatever
    JSON-ready structure the benchmark measured (headers + rows, sweeps,
    curves) and *metrics* is the current obs registry snapshot (empty
    when metrics were not enabled for the run).
    """
    REPORT_DIR.mkdir(exist_ok=True)
    lines = list(lines)
    path = REPORT_DIR / f"{name}.txt"
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    payload = {
        "name": name,
        "lines": lines,
        "series": series,
        "metrics": METRICS.snapshot(),
    }
    json_path = REPORT_DIR / f"{name}.json"
    json_path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path


def table_series(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> dict:
    """The standard JSON series shape for a measured table."""
    return {"headers": list(headers), "rows": [list(row) for row in rows]}


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> list[str]:
    """Fixed-width text table (the 'same rows the paper reports').

    Tolerates ragged input: rows shorter than the header (an empty cell
    list included) are padded with blanks rather than crashing the width
    computation.
    """
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [
        max([len(headers[c])] + [len(row[c]) for row in rendered if c < len(row)])
        for c in range(len(headers))
    ]
    def fmt(cells):
        padded = list(cells) + [""] * (len(widths) - len(cells))
        return "  ".join(cell.ljust(width) for cell, width in zip(padded, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rendered)
    return lines


def listing_records(browser: Browser, style: str = "table"):
    tag = {"table": "tr", "ul": "li", "div": "div"}[style]
    container_tag = {"table": "table", "ul": "ul", "div": "div"}[style]
    container = browser.page.dom.find(container_tag, "listing")
    return [n for n in container.children if n.tag == tag and "record" in n.css_classes]


def import_shelters_via_session(scenario, session: CopyCatSession, examples: int = 2):
    """Drive the Figure-1 import: paste *examples* rows, accept, label, commit."""
    browser = Browser(session.clipboard, scenario.website)
    browser.navigate(scenario.list_urls()[0])
    records = listing_records(browser)
    for record in records[:examples]:
        browser.copy_record(record, "Shelters")
        session.paste()
    session.accept_row_suggestions()
    for index, label in enumerate(["Name", "Street", "City"]):
        session.label_column(index, label)
    return session.commit_source()


def import_contacts_via_session(scenario, session: CopyCatSession):
    app = SpreadsheetApp(session.clipboard, scenario.contacts_workbook)
    app.open_sheet()
    app.copy_range(CellRange(0, 0, 1, 3), source_name="Contacts")
    session.paste()
    session.accept_row_suggestions()
    for index, label in enumerate(["Shelter", "Contact", "Phone", "Address"]):
        session.label_column(index, label)
    session.set_column_type(0, PLACE, learn_from_values=False)
    return session.commit_source()


def start_cold(session: CopyCatSession, tiers: CacheTiers) -> None:
    """Empty the session's evaluation tiers and every service memo.

    The uncached leg of the cache A/Bs calls this before each forced
    refresh, so every refresh starts cold.
    """
    tiers.clear()
    for service in session.catalog.services():
        service.invalidate_cache()


def typed_shelters_catalog(scenario):
    """Register a pre-typed Shelters relation directly (skip the UI flow)."""
    catalog = scenario.catalog
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
    catalog.add_relation(shelters, SourceMetadata(origin="paste"))
    return catalog
