"""Tests for the headless workspace model."""

from __future__ import annotations

import pytest

from repro.core.workspace import CellState, Mode, Workspace, WorkspaceTable
from repro.errors import WorkspaceError
from repro.substrate.relational.schema import CITY


class TestWorkspaceTable:
    def make_table(self):
        table = WorkspaceTable("T")
        table.append_row(["A", "1"], state=CellState.USER)
        table.append_row(["B", "2"], state=CellState.USER)
        return table

    def test_append_creates_columns(self):
        table = self.make_table()
        assert table.n_cols == 2
        assert table.columns[0].name == "Column1"

    def test_short_rows_padded(self):
        table = self.make_table()
        table.append_row(["C"])
        assert table.row_values(2) == ["C", None]

    def test_labels_and_types(self):
        table = self.make_table()
        table.set_column_label(0, "Name")
        table.set_column_type(1, CITY, suggested=True)
        assert table.columns[0].name == "Name"
        assert table.columns[1].semantic_type is CITY
        assert table.columns[1].state == CellState.SUGGESTED
        assert "PR-City?" in table.columns[1].header()

    def test_bad_indices(self):
        table = self.make_table()
        with pytest.raises(WorkspaceError):
            table.set_column_label(9, "X")
        with pytest.raises(WorkspaceError):
            table.row_values(9)
        with pytest.raises(WorkspaceError):
            table.column_index("Nope")

    def test_suggested_rows_lifecycle(self):
        table = self.make_table()
        table.append_rows([["C", "3"], ["D", "4"]], state=CellState.SUGGESTED)
        assert table.suggested_row_indices() == [2, 3]
        assert len(table.committed_rows()) == 2
        accepted = table.accept_rows()
        assert accepted == 2
        assert table.suggested_row_indices() == []
        assert len(table.committed_rows()) == 4

    def test_reject_rows_removes_them(self):
        table = self.make_table()
        table.append_rows([["C", "3"]], state=CellState.SUGGESTED)
        removed = table.reject_rows()
        assert removed == 1
        assert table.n_rows == 2

    def test_reject_committed_row_is_error(self):
        table = self.make_table()
        with pytest.raises(WorkspaceError):
            table.reject_rows([0])

    def test_suggested_column_lifecycle(self):
        table = self.make_table()
        col = table.add_suggested_column("Zip", ["33063", "33309"], semantic_type=CITY)
        assert table.columns[col].state == CellState.SUGGESTED
        assert table.row_state(0) == CellState.SUGGESTED
        table.accept_column(col)
        assert table.columns[col].state == CellState.ACCEPTED
        assert table.row_state(0).is_committed

    def test_reject_suggested_column(self):
        table = self.make_table()
        col = table.add_suggested_column("Zip", ["33063", "33309"])
        table.reject_column(col)
        assert table.n_cols == 2
        assert table.row_values(0) == ["A", "1"]

    def test_accept_non_suggested_column_fails(self):
        table = self.make_table()
        with pytest.raises(WorkspaceError):
            table.accept_column(0)

    def test_suggested_column_length_mismatch(self):
        table = self.make_table()
        with pytest.raises(WorkspaceError):
            table.add_suggested_column("Zip", ["1"])

    def test_as_dicts_committed_only(self):
        table = self.make_table()
        table.set_column_label(0, "K")
        table.set_column_label(1, "V")
        table.append_rows([["C", "3"]], state=CellState.SUGGESTED)
        dicts = table.as_dicts(committed_only=True)
        assert dicts == [{"K": "A", "V": "1"}, {"K": "B", "V": "2"}]
        assert len(table.as_dicts(committed_only=False)) == 3

    def test_column_values_committed_only(self):
        table = self.make_table()
        table.append_rows([["C", "3"]], state=CellState.SUGGESTED)
        assert table.column_values(0) == ["A", "B", "C"]
        assert table.column_values(0, committed_only=True) == ["A", "B"]

    def test_render_marks_suggestions(self):
        table = self.make_table()
        table.append_rows([["C", "3"]], state=CellState.SUGGESTED)
        text = table.render_text()
        assert "C*" in text
        assert "A " in text or "A |" in text

    def test_set_cell(self):
        table = self.make_table()
        table.set_cell(0, 1, "99")
        assert table.cell(0, 1).value == "99"


class TestWorkspace:
    def test_tabs_and_switching(self):
        ws = Workspace()
        ws.new_tab("A")
        ws.new_tab("B", switch=False)
        assert ws.current_tab == "A"
        ws.switch_to("B")
        assert ws.current.name == "B"
        assert ws.tab_names() == ["A", "B"]

    def test_duplicate_tab(self):
        ws = Workspace()
        ws.new_tab("A")
        with pytest.raises(WorkspaceError):
            ws.new_tab("A")

    def test_unknown_tab(self):
        ws = Workspace()
        with pytest.raises(WorkspaceError):
            ws.switch_to("Z")
        with pytest.raises(WorkspaceError):
            _ = ws.current

    def test_mode_transition(self):
        ws = Workspace()
        assert ws.mode == Mode.IMPORT
        ws.enter_integration_mode()
        assert ws.mode == Mode.INTEGRATION

    def test_render_includes_mode_and_tabs(self):
        ws = Workspace()
        ws.new_tab("Shelters")
        text = ws.render_text()
        assert "[mode: import]" in text
        assert "== Shelters ==" in text


class TestUndoCopies:
    """A checkpoint copies tabs, columns and cells, and shares only the
    values and provenance expressions nothing changes in place."""

    @staticmethod
    def _workspace():
        from repro.provenance.expressions import var

        ws = Workspace()
        table = ws.new_tab("Shelters")
        table.append_row(["Monarch", "Creek"])
        prov = var("Shelters", 0)
        table.add_suggested_column("Zip", ["33063"], CITY, [prov])
        table.set_column_label(1, "City")
        return ws, table, prov

    def test_undo_restores_a_cell_accepted_after_the_checkpoint(self):
        ws, table, prov = self._workspace()
        ws.checkpoint()
        table.accept_column(2)
        assert table.cell(0, 2).state == CellState.ACCEPTED
        assert ws.undo()
        restored = ws.tab("Shelters")
        assert restored.cell(0, 2).state == CellState.SUGGESTED
        assert restored.columns[2].state == CellState.SUGGESTED
        assert restored.cell(0, 2).provenance is prov  # shared, not copied

    def test_undo_restores_a_column_relabelled_after_the_checkpoint(self):
        ws, table, _ = self._workspace()
        ws.checkpoint()
        table.set_column_label(1, "Town")
        table.set_column_type(1, CITY)
        table.set_cell(0, 0, "Tedder")
        assert ws.undo()
        restored = ws.tab("Shelters")
        assert [column.name for column in restored.columns] == ["Column1", "City", "Zip"]
        assert restored.columns[1].semantic_type.name != CITY.name
        assert restored.row_values(0) == ["Monarch", "Creek", "33063"]
        assert table.row_values(0) == ["Tedder", "Creek", "33063"]

    def test_the_checkpoint_is_not_the_live_table(self):
        ws, table, _ = self._workspace()
        ws.checkpoint()
        _, saved, _, _ = ws._undo_stack[-1]  # noqa: SLF001
        copy = saved["Shelters"]
        assert copy is not table
        assert copy.columns is not table.columns
        assert all(a is not b for a, b in zip(copy.columns, table.columns))
        assert all(
            a is not b
            for copied, live in zip(copy._grid, table._grid)  # noqa: SLF001
            for a, b in zip(copied, live)
        )
        assert copy.render_text() == table.render_text()
