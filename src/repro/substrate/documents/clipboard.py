"""Clipboard events and the monitored clipboard bus.

Figure 3: "Copy and paste operations — between source applications and the
SCP workspace — are detected by application wrappers. Monitored operations,
as well as context information like the document being displayed in the
source application, are fed into three learner modules."

A :class:`CopyEvent` therefore carries not just the copied text but a
*source context* — a handle to the live document (page DOM, sheet) and where
the app believes the selection came from. Crucially, downstream learners are
allowed to ignore the precise selection location: "We do not need to know
exactly where the data was cut-and-pasted from" (Section 3.1); only the
document handle is contractual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ...errors import ClipboardError


@dataclass(frozen=True)
class SourceContext:
    """Where a copy came from: application, document handle, and location.

    ``document`` is the live document object (a :class:`Page`, a
    :class:`Sheet`, a :class:`Website` wrapper — whatever the app displays);
    ``locator`` is an app-specific selection descriptor (DOM paths, cell
    range) that learners may consult but must not require.
    """

    app: str
    source_name: str
    document: Any
    locator: Any = None
    url: str | None = None
    container: Any = None  # the enclosing Website / Workbook, when known


@dataclass(frozen=True)
class CopyEvent:
    """A monitored copy: selected text plus its source context.

    ``fields`` is the selection parsed the way clipboards really behave:
    tab-separated cells within a row, newline-separated rows.
    """

    text: str
    context: SourceContext

    @property
    def fields(self) -> list[list[str]]:
        rows = [line for line in self.text.split("\n") if line.strip()]
        return [[cell.strip() for cell in row.split("\t")] for row in rows]

    @property
    def is_tabular(self) -> bool:
        parsed = self.fields
        return len(parsed) > 0 and (len(parsed) > 1 or len(parsed[0]) > 1)


@dataclass(frozen=True)
class PasteEvent:
    """A paste into the SCP workspace: which copy, and where it landed."""

    copy: CopyEvent
    tab: str
    row: int
    col: int


class Clipboard:
    """The monitored clipboard: holds the latest copy, notifies listeners.

    Wrappers call :meth:`put` on every monitored copy; the SCP session calls
    :meth:`current` when the user pastes. Listeners (the learners' front
    door) receive every event in order.
    """

    def __init__(self) -> None:
        self._current: CopyEvent | None = None
        self._listeners: list[Callable[[CopyEvent], None]] = []

    def put(self, event: CopyEvent) -> CopyEvent:
        self._current = event
        for listener in self._listeners:
            listener(event)
        return event

    def current(self) -> CopyEvent:
        if self._current is None:
            raise ClipboardError("clipboard is empty: nothing has been copied")
        return self._current

    @property
    def is_empty(self) -> bool:
        return self._current is None

    def subscribe(self, listener: Callable[[CopyEvent], None]) -> None:
        self._listeners.append(listener)
