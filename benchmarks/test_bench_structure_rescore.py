"""Structure induction: type recognition on a session's first page paste.

Section 3.1: the expert committee proposes candidate tables, the data-type
expert rescores them, and the learner picks "a most-general projection
hypothesis consistent with the example[s]". Only a candidate whose record
set can project the examples can become a hypothesis, so ``generalize``
rescores only those; the type recognizer's memo is per session, so on a
cold session every column it is asked about is a miss.

The gate counts memo misses of a cold session's first paste of the
Figure-1 listing (seed 5, 10 shelters, noise 1) and fails above the
distinct columns of the candidates that can project the pasted record
(3 of the page's 15; rescoring every candidate missed on all 15). It is
a count, not a time; the first paste's time is reported beside it.
"""

from __future__ import annotations

import statistics
import time

from repro import Browser, CopyCatSession, build_scenario
from repro.learning.structure import find_projections

from .common import format_table, listing_records, table_series, write_report

#: Cold sessions whose first paste is timed for the report.
TIMED_SESSIONS = 30


def _first_paste(scenario):
    """A cold session's first page paste: (memo misses, seconds, session, event)."""
    session = CopyCatSession(catalog=scenario.catalog, seed=1)
    browser = Browser(session.clipboard, scenario.website)
    browser.navigate(scenario.list_urls()[0])
    event = browser.copy_record(listing_records(browser)[0], "Shelters")
    memo = session.type_learner._memo  # noqa: SLF001 - counting its misses
    before = memo.misses
    start = time.perf_counter()
    session.paste()
    elapsed = time.perf_counter() - start
    return memo.misses - before, elapsed, session, event


def _distinct_columns(candidates) -> int:
    return len({tuple(column) for c in candidates for column in c.columns()})


class TestStructureRescore:
    def test_first_paste_recognizes_only_projecting_columns(self):
        scenario = build_scenario(seed=5, n_shelters=10, noise=1)
        misses, _, session, event = _first_paste(scenario)
        proposed = session.structure_learner._propose(event)[0]  # noqa: SLF001
        projecting = [c for c in proposed if find_projections(c, event.fields)]
        all_columns = _distinct_columns(proposed)
        bound = _distinct_columns(projecting)
        first_paste_ms = statistics.median(
            _first_paste(scenario)[1] * 1000 for _ in range(TIMED_SESSIONS)
        )

        headers = ["candidates", "projecting", "columns", "projecting columns",
                   "memo misses", "first paste ms (median)"]
        rows = [(len(proposed), len(projecting), all_columns, bound, misses,
                 f"{first_paste_ms:.2f}")]
        write_report(
            "structure_rescore",
            format_table(headers, rows)
            + ["", f"a cold session's first page paste misses the type memo "
                   f"{misses} times; the gate is the {bound} distinct columns "
                   f"of the candidates that can project the pasted record "
                   f"(of {all_columns} on the page)"],
            series={
                "table": table_series(headers, rows),
                "memo_misses": misses,
                "bound": bound,
                "page_columns": all_columns,
                "first_paste_ms": first_paste_ms,
            },
        )
        assert (all_columns, bound) == (15, 3)
        assert misses <= bound, (
            f"first paste recognized {misses} columns; only {bound} belong "
            f"to candidates that can project the example"
        )
