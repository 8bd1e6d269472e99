"""Regression tests for the benchmarks/common.py and check_regression.py helpers.

``format_table`` used to crash with an IndexError when any row's cell list
was shorter than the header row (an empty cell list included) because the
width computation indexed every row at every column. These tests pin the
fixed behavior: ragged and empty rows are padded with blanks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from common import format_table, table_series  # noqa: E402


class TestFormatTable:
    def test_empty_cell_list_row_does_not_crash(self):
        lines = format_table(["a", "bb"], [["1", "2"], []])
        assert lines[0] == "a  bb"
        # the empty row renders as blanks, padded to each column width
        assert lines[-1].strip() == ""
        assert len(lines) == 4  # header, rule, two data rows

    def test_no_rows(self):
        lines = format_table(["col"], [])
        assert lines == ["col", "---"]

    def test_single_row(self):
        lines = format_table(["name", "n"], [["shelters", 12]])
        assert lines == [
            "name      n ",
            "--------  --",
            "shelters  12",
        ]

    def test_short_row_is_padded(self):
        lines = format_table(["a", "b", "c"], [["1", "2", "3"], ["only"]])
        assert lines[2] == "1     2  3"
        assert lines[3].rstrip() == "only"

    def test_wide_cell_sets_column_width(self):
        lines = format_table(["x"], [["wider-than-header"]])
        assert lines[0] == "x".ljust(len("wider-than-header"))

    def test_non_string_cells_are_rendered(self):
        lines = format_table(["n", "f"], [[1, 2.5]])
        assert lines[2] == "1  2.5"


class TestWriteReport:
    def test_writes_txt_and_json_siblings(self, tmp_path, monkeypatch):
        import common

        monkeypatch.setattr(common, "REPORT_DIR", tmp_path)
        path = common.write_report(
            "unit_test_report",
            ["line one", "line two"],
            series=table_series(["h"], [["v"]]),
        )
        assert path == tmp_path / "unit_test_report.txt"
        assert path.read_text() == "line one\nline two\n"
        payload = json.loads((tmp_path / "unit_test_report.json").read_text())
        assert payload["name"] == "unit_test_report"
        assert payload["lines"] == ["line one", "line two"]
        assert payload["series"] == {"headers": ["h"], "rows": [["v"]]}
        assert set(payload["metrics"]) == {"counters", "gauges", "histograms"}

    def test_series_defaults_to_null(self, tmp_path, monkeypatch):
        import common

        monkeypatch.setattr(common, "REPORT_DIR", tmp_path)
        common.write_report("no_series", ["x"])
        payload = json.loads((tmp_path / "no_series.json").read_text())
        assert payload["series"] is None


class TestTableSeries:
    def test_shape(self):
        series = table_series(("a", "b"), [(1, 2), (3, 4)])
        assert series == {"headers": ["a", "b"], "rows": [[1, 2], [3, 4]]}

    def test_is_json_ready(self):
        series = table_series(["a"], [["x"]])
        assert json.loads(json.dumps(series)) == series


class TestAbSpeedups:
    def test_skips_reports_that_are_not_json_objects(self, tmp_path, capsys):
        from check_regression import ab_speedups

        (tmp_path / "a_list.json").write_text("[1, 2]")
        (tmp_path / "a_number.json").write_text("3")
        (tmp_path / "broken.json").write_text("{")
        (tmp_path / "ab.json").write_text(json.dumps({"name": "ab", "series": {"speedup": 2.5}}))
        assert ab_speedups(tmp_path) == {"ab": 2.5}
        notes = capsys.readouterr().out
        assert "skipping unreadable report a_list.json: not a JSON object" in notes
        assert "skipping unreadable report a_number.json: not a JSON object" in notes
        assert "skipping unreadable report broken.json" in notes
