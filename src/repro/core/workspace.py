"""The CopyCat workspace: a headless model of the spreadsheet-like UI.

Figures 1 and 2 show the GUI this module models: a table whose cells are
user-pasted or system-suggested (highlighted), column headers carrying
names and semantic types (``Street / PR-Street``), per-source tabs in
integration mode, and a tuple-explanation pane. All user interactions are
methods here; rendering is plain text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..errors import WorkspaceError
from ..provenance.expressions import Provenance
from ..substrate.relational.schema import ANY, SemanticType


class CellState(enum.Enum):
    """Lifecycle of a workspace cell."""

    USER = "user"            # pasted or typed by the user
    SUGGESTED = "suggested"  # auto-complete proposal (highlighted in the UI)
    ACCEPTED = "accepted"    # suggestion the user accepted

    @property
    def is_committed(self) -> bool:
        return self in (CellState.USER, CellState.ACCEPTED)


class Mode(enum.Enum):
    """Section 2.1: the SCP system starts in import mode; a button or a
    cross-source paste switches it to integration mode."""

    IMPORT = "import"
    INTEGRATION = "integration"


@dataclass
class Cell:
    value: Any
    state: CellState = CellState.USER
    provenance: Provenance | None = None

    def __str__(self) -> str:
        return "" if self.value is None else str(self.value)


@dataclass
class Column:
    """A workspace column: label, semantic type, and how it got here."""

    name: str
    semantic_type: SemanticType = ANY
    state: CellState = CellState.USER
    #: Alternate semantic-type hypotheses for the header dropdown
    #: ("the other hypotheses will be available in a drop down list").
    alternatives: tuple[SemanticType, ...] = ()

    def header(self) -> str:
        type_part = (
            f" / {self.semantic_type}" if self.semantic_type.name != ANY.name else ""
        )
        marker = "?" if self.state == CellState.SUGGESTED else ""
        return f"{self.name}{type_part}{marker}"


class WorkspaceTable:
    """One tab: a grid of cells under typed, labeled columns."""

    def __init__(self, name: str):
        self.name = name
        self.columns: list[Column] = []
        self._grid: list[list[Cell]] = []

    # -- shape ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return len(self._grid)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def _check_col(self, col: int) -> None:
        if not 0 <= col < self.n_cols:
            raise WorkspaceError(f"{self.name}: no column {col}")

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.n_rows:
            raise WorkspaceError(f"{self.name}: no row {row}")

    # -- columns --------------------------------------------------------------------
    def ensure_columns(self, count: int) -> None:
        while self.n_cols < count:
            index = self.n_cols
            self.columns.append(Column(name=f"Column{index + 1}"))
            for row in self._grid:
                row.append(Cell(None))

    def set_column_label(self, col: int, name: str) -> None:
        self._check_col(col)
        self.columns[col].name = name
        self.columns[col].state = CellState.USER

    def set_column_type(
        self,
        col: int,
        semantic_type: SemanticType,
        alternatives: Iterable[SemanticType] = (),
        suggested: bool = False,
    ) -> None:
        self._check_col(col)
        column = self.columns[col]
        column.semantic_type = semantic_type
        column.alternatives = tuple(alternatives)
        column.state = CellState.SUGGESTED if suggested else CellState.USER

    def column_values(self, col: int, committed_only: bool = False) -> list[Any]:
        self._check_col(col)
        return [
            row[col].value
            for row in self._grid
            if not committed_only or row[col].state.is_committed
        ]

    def column_index(self, name: str) -> int:
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise WorkspaceError(f"{self.name}: no column named {name!r}")

    # -- rows ---------------------------------------------------------------------
    def append_row(
        self,
        values: Sequence[Any],
        state: CellState = CellState.USER,
        provenance: Provenance | None = None,
    ) -> int:
        self.ensure_columns(len(values))
        row = [Cell(value, state, provenance) for value in values]
        while len(row) < self.n_cols:
            row.append(Cell(None, state))
        self._grid.append(row)
        return self.n_rows - 1

    def append_rows(
        self, rows: Iterable[Sequence[Any]], state: CellState = CellState.USER
    ) -> list[int]:
        return [self.append_row(row, state) for row in rows]

    def row_values(self, row: int) -> list[Any]:
        self._check_row(row)
        return [cell.value for cell in self._grid[row]]

    def row_state(self, row: int) -> CellState:
        """A row's overall state: SUGGESTED if any cell still is."""
        self._check_row(row)
        states = {cell.state for cell in self._grid[row]}
        if CellState.SUGGESTED in states:
            return CellState.SUGGESTED
        if states == {CellState.ACCEPTED}:
            return CellState.ACCEPTED
        return CellState.USER

    def cell(self, row: int, col: int) -> Cell:
        self._check_row(row)
        self._check_col(col)
        return self._grid[row][col]

    def set_cell(self, row: int, col: int, value: Any, state: CellState = CellState.USER) -> None:
        cell = self.cell(row, col)
        cell.value = value
        cell.state = state

    def suggested_row_indices(self) -> list[int]:
        return [i for i in range(self.n_rows) if self.row_state(i) == CellState.SUGGESTED]

    def committed_rows(self) -> list[list[Any]]:
        return [
            self.row_values(i)
            for i in range(self.n_rows)
            if self.row_state(i).is_committed
        ]

    # -- suggestion lifecycle -----------------------------------------------------------
    def accept_rows(self, indices: Iterable[int] | None = None) -> int:
        """Accept suggested rows (all of them by default); returns count."""
        targets = list(indices) if indices is not None else self.suggested_row_indices()
        accepted = 0
        for index in targets:
            self._check_row(index)
            changed = False
            for cell in self._grid[index]:
                if cell.state == CellState.SUGGESTED:
                    cell.state = CellState.ACCEPTED
                    changed = True
            accepted += 1 if changed else 0
        return accepted

    def reject_rows(self, indices: Iterable[int] | None = None) -> int:
        """Remove suggested rows (all of them by default); returns count."""
        targets = sorted(
            indices if indices is not None else self.suggested_row_indices(),
            reverse=True,
        )
        removed = 0
        for index in targets:
            self._check_row(index)
            if self.row_state(index) != CellState.SUGGESTED:
                raise WorkspaceError(
                    f"{self.name}: row {index} is not a suggestion; cannot reject"
                )
            del self._grid[index]
            removed += 1
        return removed

    def add_suggested_column(
        self,
        name: str,
        values: Sequence[Any],
        semantic_type: SemanticType = ANY,
        provenances: Sequence[Provenance | None] | None = None,
    ) -> int:
        """Append a suggested column; values align with current rows."""
        if len(values) != self.n_rows:
            raise WorkspaceError(
                f"{self.name}: column of {len(values)} values for {self.n_rows} rows"
            )
        provenances = provenances or [None] * len(values)
        self.columns.append(
            Column(name=name, semantic_type=semantic_type, state=CellState.SUGGESTED)
        )
        for row, value, prov in zip(self._grid, values, provenances):
            row.append(Cell(value, CellState.SUGGESTED, prov))
        return self.n_cols - 1

    def accept_column(self, col: int) -> None:
        self._check_col(col)
        if self.columns[col].state != CellState.SUGGESTED:
            raise WorkspaceError(f"{self.name}: column {col} is not a suggestion")
        self.columns[col].state = CellState.ACCEPTED
        for row in self._grid:
            if row[col].state == CellState.SUGGESTED:
                row[col].state = CellState.ACCEPTED

    def reject_column(self, col: int) -> None:
        self._check_col(col)
        if self.columns[col].state != CellState.SUGGESTED:
            raise WorkspaceError(f"{self.name}: column {col} is not a suggestion")
        del self.columns[col]
        for row in self._grid:
            del row[col]

    def copy(self) -> "WorkspaceTable":
        """A copy whose columns and cells change independently of this one's.

        Cell values and provenance expressions are shared, not copied: a
        value is replaced, never changed in place, and expressions are
        immutable.
        """
        clone = WorkspaceTable(self.name)
        clone.columns = [
            Column(column.name, column.semantic_type, column.state, column.alternatives)
            for column in self.columns
        ]
        clone._grid = [
            [Cell(cell.value, cell.state, cell.provenance) for cell in row] for row in self._grid
        ]
        return clone

    # -- conversions --------------------------------------------------------------
    def as_dicts(self, committed_only: bool = True) -> list[dict[str, Any]]:
        out = []
        for i in range(self.n_rows):
            if committed_only and not self.row_state(i).is_committed:
                continue
            out.append(
                {column.name: cell.value for column, cell in zip(self.columns, self._grid[i])}
            )
        return out

    # -- rendering -----------------------------------------------------------------
    def render_text(self) -> str:
        """Deterministic ASCII rendering; suggestions are marked with ``*``."""
        headers = [column.header() for column in self.columns]
        body: list[list[str]] = []
        for i in range(self.n_rows):
            rendered = []
            for cell in self._grid[i]:
                mark = "*" if cell.state == CellState.SUGGESTED else ""
                rendered.append(f"{cell}{mark}")
            body.append(rendered)
        widths = [
            max([len(headers[c])] + [len(row[c]) for row in body]) if body else len(headers[c])
            for c in range(self.n_cols)
        ]
        def fmt(cells: list[str]) -> str:
            return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))
        lines = [f"== {self.name} ==", fmt(headers), "-+-".join("-" * w for w in widths)]
        lines.extend(fmt(row) for row in body)
        return "\n".join(lines)


class Workspace:
    """The whole workspace: tabbed tables plus the interaction mode."""

    MAX_UNDO = 50

    def __init__(self) -> None:
        self.mode: Mode = Mode.IMPORT
        self._tabs: dict[str, WorkspaceTable] = {}
        self._order: list[str] = []
        self.current_tab: str | None = None
        self._undo_stack: list[tuple[Mode, dict[str, WorkspaceTable], list[str], str | None]] = []

    def new_tab(self, name: str, switch: bool = True) -> WorkspaceTable:
        if name in self._tabs:
            raise WorkspaceError(f"tab {name!r} already exists")
        table = WorkspaceTable(name)
        self._tabs[name] = table
        self._order.append(name)
        if switch or self.current_tab is None:
            self.current_tab = name
        return table

    def tab(self, name: str) -> WorkspaceTable:
        try:
            return self._tabs[name]
        except KeyError:
            raise WorkspaceError(f"no tab named {name!r}") from None

    def has_tab(self, name: str) -> bool:
        return name in self._tabs

    @property
    def current(self) -> WorkspaceTable:
        if self.current_tab is None:
            raise WorkspaceError("workspace has no tabs yet")
        return self._tabs[self.current_tab]

    def switch_to(self, name: str) -> WorkspaceTable:
        if name not in self._tabs:
            raise WorkspaceError(f"no tab named {name!r}")
        self.current_tab = name
        return self._tabs[name]

    def tab_names(self) -> list[str]:
        return list(self._order)

    # -- undo (paper §5 "Advanced interactions": let users undo portions of
    # what they have demonstrated) ------------------------------------------
    def checkpoint(self) -> None:
        """Snapshot the workspace state; :meth:`undo` restores the latest."""
        snapshot = (
            self.mode,
            {name: table.copy() for name, table in self._tabs.items()},
            list(self._order),
            self.current_tab,
        )
        self._undo_stack.append(snapshot)
        if len(self._undo_stack) > self.MAX_UNDO:
            del self._undo_stack[0]

    @property
    def can_undo(self) -> bool:
        return bool(self._undo_stack)

    def undo(self) -> bool:
        """Restore the most recent checkpoint; False when there is none."""
        if not self._undo_stack:
            return False
        self.mode, self._tabs, self._order, self.current_tab = self._undo_stack.pop()
        return True

    def enter_integration_mode(self) -> None:
        """Section 2.1: "The user can switch the SCP system into integration
        mode by clicking on a button, or by pasting data from a different
        source into a contiguous row or column"."""
        self.mode = Mode.INTEGRATION

    def render_text(self) -> str:
        parts = [f"[mode: {self.mode.value}]"]
        parts.extend(self._tabs[name].render_text() for name in self._order)
        return "\n\n".join(parts)
