"""Plain-text documents and the Word-like application wrapper.

Section 2.3: CopyCat monitors copies from "Microsoft Office applications
like Word and Excel". A :class:`TextDocument` models the Word case: a
report whose body is plain text with *repeating labeled blocks* — the
situation-report format emergency agencies actually circulate::

    SHELTER STATUS REPORT
    =====================

    Name: Monarch High School
    Street: 1445 Monarch Blvd
    City: Coconut Creek
    Capacity: 240

    Name: Tedder Community Center
    ...

The structure learner extracts records from such documents with a
label-block expert (same committee pattern as the web experts) plus the
landmark fallback over the raw text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ...errors import ClipboardError, DocumentError
from .clipboard import Clipboard, CopyEvent, SourceContext

_LABEL_LINE = re.compile(r"^\s*(?P<label>[A-Za-z][\w \-/]{0,40}?)\s*:\s*(?P<value>\S.*)$")


@dataclass
class TextDocument:
    """A named plain-text document."""

    name: str
    text: str

    def lines(self) -> list[str]:
        return self.text.split("\n")

    def paragraphs(self) -> list[str]:
        """Blank-line-separated blocks, stripped."""
        blocks = re.split(r"\n\s*\n", self.text)
        return [block.strip() for block in blocks if block.strip()]

    def labeled_blocks(self) -> list[dict[str, str]]:
        """Paragraphs made of ``Label: value`` lines, as dicts.

        Non-conforming paragraphs (headings, prose) are skipped; within a
        conforming paragraph every line must parse.
        """
        records: list[dict[str, str]] = []
        for paragraph in self.paragraphs():
            fields: dict[str, str] = {}
            conforming = True
            for line in paragraph.split("\n"):
                if not line.strip():
                    continue
                match = _LABEL_LINE.match(line)
                if match is None:
                    conforming = False
                    break
                fields[match.group("label").strip()] = match.group("value").strip()
            if conforming and len(fields) >= 2:
                records.append(fields)
        return records

    def contains(self, needle: str) -> bool:
        return needle in self.text

    def __repr__(self) -> str:
        return f"TextDocument({self.name!r}, {len(self.text)} chars)"


class WordApp:
    """A simulated word processor over text documents."""

    APP_NAME = "word"

    def __init__(self, clipboard: Clipboard, *documents: TextDocument):
        self.clipboard = clipboard
        self._documents = {doc.name: doc for doc in documents}
        self._active: TextDocument | None = None

    def open(self, name: str) -> TextDocument:
        try:
            self._active = self._documents[name]
        except KeyError:
            raise DocumentError(f"no document named {name!r}") from None
        return self._active

    @property
    def document(self) -> TextDocument:
        if self._active is None:
            raise DocumentError("no document is open")
        return self._active

    def copy_text(self, text: str, source_name: str | None = None) -> CopyEvent:
        """Copy a selection (must occur in the open document)."""
        doc = self.document
        if text not in doc.text:
            raise ClipboardError(f"selection {text!r} is not in the document")
        context = SourceContext(
            app=self.APP_NAME,
            source_name=source_name or doc.name,
            document=doc,
            locator=doc.text.find(text),
            url=None,
        )
        return self.clipboard.put(CopyEvent(text=text, context=context))

    def copy_fields(self, values: list[str], source_name: str | None = None) -> CopyEvent:
        """Copy several snippets as one tab-separated selection (a record)."""
        doc = self.document
        for value in values:
            if value not in doc.text:
                raise ClipboardError(f"selection {value!r} is not in the document")
        context = SourceContext(
            app=self.APP_NAME,
            source_name=source_name or doc.name,
            document=doc,
            locator=tuple(doc.text.find(value) for value in values),
            url=None,
        )
        return self.clipboard.put(CopyEvent(text="\t".join(values), context=context))
