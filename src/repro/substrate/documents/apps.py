"""Simulated source applications with copy monitoring (the "wrappers").

Section 2.3: "The initial CopyCat prototype supports monitoring of copy
operations from a variety of common applications: Web browsers ... and
Microsoft Office applications like Word and Excel." Here a :class:`Browser`
displays pages of a :class:`~repro.substrate.documents.website.Website` and a
:class:`SpreadsheetApp` displays a :class:`Workbook`; both push
:class:`CopyEvent` objects onto a shared monitored clipboard when the
(simulated) user selects and copies.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ...errors import ClipboardError, DocumentError, NavigationError
from .clipboard import Clipboard, CopyEvent, SourceContext
from .dom import DomNode
from .spreadsheet import CellRange, Sheet, Workbook
from .website import Page, Website


class Browser:
    """A simulated web browser over one or more websites."""

    APP_NAME = "browser"

    def __init__(self, clipboard: Clipboard, *sites: Website):
        self.clipboard = clipboard
        self._sites: list[Website] = list(sites)
        self.current_page: Page | None = None

    def _site_for(self, url: str) -> Website:
        for site in self._sites:
            absolute = site.absolute(url)
            if (
                site.has_page(absolute)
                or site.has_form(absolute)
                or absolute.startswith(site.base_url)
            ):
                return site
        raise NavigationError(f"no registered site serves {url}")

    # -- navigation -----------------------------------------------------------
    def navigate(self, url: str) -> Page:
        site = self._site_for(url)
        self.current_page = site.fetch(url)
        return self.current_page

    def submit_form(self, action: str, values: Mapping[str, str]) -> Page:
        site = self._site_for(action)
        self.current_page = site.submit_form(action, values)
        return self.current_page

    @property
    def page(self) -> Page:
        if self.current_page is None:
            raise NavigationError("browser has no page loaded")
        return self.current_page

    # -- selection & copy ----------------------------------------------------------
    def copy_record(self, node: DomNode, source_name: str) -> CopyEvent:
        """Copy a record node: its text leaves become tab-separated fields.

        This models selecting a whole table row / list item: real browsers
        put cell boundaries on the clipboard as tabs.
        """
        leaves = node.text_leaves()
        if not leaves:
            raise ClipboardError("selection contains no text")
        text = "\t".join(leaf.text.strip() for leaf in leaves)
        return self._emit(text, source_name, locator=node.path())

    def copy_text(self, text: str, source_name: str) -> CopyEvent:
        """Copy raw text visible on the current page."""
        if text not in self.page.dom.text_content():
            raise ClipboardError(f"text {text!r} is not on the current page")
        return self._emit(text, source_name, locator=None)

    def _emit(self, text: str, source_name: str, locator: Any) -> CopyEvent:
        page = self.page
        context = SourceContext(
            app=self.APP_NAME,
            source_name=source_name,
            document=page,
            locator=locator,
            url=page.url,
            container=self._site_for(page.url),
        )
        return self.clipboard.put(CopyEvent(text=text, context=context))


class SpreadsheetApp:
    """A simulated spreadsheet application over a workbook."""

    APP_NAME = "spreadsheet"

    def __init__(self, clipboard: Clipboard, workbook: Workbook):
        self.clipboard = clipboard
        self.workbook = workbook
        self._active: Sheet | None = None

    def open_sheet(self, name: str | None = None) -> Sheet:
        self._active = (
            self.workbook.sheet(name) if name is not None else self.workbook.first_sheet
        )
        return self._active

    @property
    def sheet(self) -> Sheet:
        if self._active is None:
            raise DocumentError("no sheet is open")
        return self._active

    def copy_range(self, rng: CellRange, source_name: str | None = None) -> CopyEvent:
        sheet = self.sheet
        text = sheet.region_text(rng)
        context = SourceContext(
            app=self.APP_NAME,
            source_name=source_name or f"{self.workbook.name}:{sheet.name}",
            document=sheet,
            locator=rng,
            url=None,
            container=self.workbook,
        )
        return self.clipboard.put(CopyEvent(text=text, context=context))

    def copy_row(self, row: int, source_name: str | None = None) -> CopyEvent:
        sheet = self.sheet
        rng = CellRange(row, 0, row, sheet.n_cols - 1)
        return self.copy_range(rng, source_name)

    def copy_cells(self, refs: Iterable[tuple[int, int]], source_name: str | None = None) -> CopyEvent:
        """Copy a discontiguous set of cells as one tab-separated selection."""
        sheet = self.sheet
        refs = list(refs)
        if not refs:
            raise ClipboardError("empty selection")
        text = "\t".join(str(sheet.cell(r, c)) for r, c in refs)
        context = SourceContext(
            app=self.APP_NAME,
            source_name=source_name or f"{self.workbook.name}:{sheet.name}",
            document=sheet,
            locator=tuple(refs),
            url=None,
            container=self.workbook,
        )
        return self.clipboard.put(CopyEvent(text=text, context=context))
