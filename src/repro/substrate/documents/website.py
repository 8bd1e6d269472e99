"""Simulated multi-page web sites.

Section 3.1: "CopyCat can extract data from a web site where there are
multiple pages (e.g., pages accessible via a form), each of which may have
complex lists of data". A :class:`Website` maps URLs to :class:`Page`
objects, supports paged list families (``?page=k``), per-record detail pages,
and form endpoints that resolve submitted values to result pages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping
from urllib.parse import parse_qsl, urlencode, urlparse

from ...errors import NavigationError
from .dom import DomNode


@dataclass
class Page:
    """One addressable page: a URL, a title, and a DOM tree."""

    url: str
    dom: DomNode
    title: str = ""

    def html(self) -> str:
        return self.dom.to_html()

    def links(self) -> list[str]:
        """All hrefs on the page, in document order."""
        return [
            node.attrs["href"]
            for node in self.dom.find_all("a")
            if "href" in node.attrs
        ]


@dataclass
class Form:
    """A form endpoint: submitted fields map to a result URL."""

    action: str
    fields: tuple[str, ...]
    resolver: Callable[[Mapping[str, str]], str]

    def submit(self, values: Mapping[str, str]) -> str:
        missing = [f for f in self.fields if f not in values]
        if missing:
            raise NavigationError(f"form {self.action!r} missing fields: {missing}")
        return self.resolver(values)


class Website:
    """A URL-addressed collection of pages plus form endpoints."""

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")
        self._pages: dict[str, Page] = {}
        self._forms: dict[str, Form] = {}

    # -- building -----------------------------------------------------------
    def add_page(self, path: str, dom: DomNode, title: str = "") -> Page:
        url = self.absolute(path)
        if url in self._pages:
            raise NavigationError(f"page already exists: {url}")
        if not title:
            # Default to the document's own <title>, as a browser would.
            title_nodes = dom.find_all("title")
            if title_nodes:
                title = title_nodes[0].text_content()
        page = Page(url=url, dom=dom, title=title)
        self._pages[url] = page
        return page

    def replace_page(self, path: str, dom: DomNode, title: str = "") -> Page:
        """Swap an existing page's content in place (the site "changed").

        The URL keeps addressing the page; anything holding the old
        :class:`Page` object must re-:meth:`fetch` to see the new content —
        exactly the staleness the drift layer exists to catch.
        """
        url = self.absolute(path)
        if url not in self._pages:
            raise NavigationError(f"cannot replace missing page: {url}")
        del self._pages[url]
        return self.add_page(path, dom, title)

    def add_form(self, action: str, fields: Iterable[str], resolver: Callable[[Mapping[str, str]], str]) -> Form:
        url = self.absolute(action)
        form = Form(action=url, fields=tuple(fields), resolver=resolver)
        self._forms[url] = form
        return form

    def __getstate__(self) -> dict:
        # A copied site pickles its base URL and pages, never its form
        # resolvers (callables, often lambdas): only the user-facing
        # Browser submits forms, and no learner reads them after a copy.
        return {**vars(self), "_forms": {}}

    # -- navigation -----------------------------------------------------------
    def absolute(self, path_or_url: str) -> str:
        if path_or_url.startswith(("http://", "https://")):
            return path_or_url
        return f"{self.base_url}/{path_or_url.lstrip('/')}"

    def fetch(self, path_or_url: str) -> Page:
        url = self.absolute(path_or_url)
        try:
            return self._pages[url]
        except KeyError:
            raise NavigationError(f"404: {url}") from None

    def has_page(self, path_or_url: str) -> bool:
        return self.absolute(path_or_url) in self._pages

    def has_form(self, action: str) -> bool:
        return self.absolute(action) in self._forms

    def form(self, action: str) -> Form:
        url = self.absolute(action)
        try:
            return self._forms[url]
        except KeyError:
            raise NavigationError(f"no form at {url}") from None

    def submit_form(self, action: str, values: Mapping[str, str]) -> Page:
        return self.fetch(self.form(action).submit(values))

    def urls(self) -> list[str]:
        return sorted(self._pages)

    # -- URL families --------------------------------------------------------
    def url_family(self, url: str) -> list[str]:
        """All site URLs that differ from *url* only in one query parameter
        or one numeric path segment.

        This is what the URL-pattern expert generalizes over: given
        ``shelters?page=1``, the family is every ``shelters?page=k`` page.
        """
        url = self.absolute(url)
        family = {url}
        parsed = urlparse(url)
        params = dict(parse_qsl(parsed.query))
        for candidate in self._pages:
            if candidate == url:
                continue
            other = urlparse(candidate)
            if other.path == parsed.path and other.netloc == parsed.netloc:
                other_params = dict(parse_qsl(other.query))
                if set(other_params) == set(params):
                    diffs = [k for k in params if params[k] != other_params[k]]
                    if len(diffs) == 1:
                        family.add(candidate)
                continue
            # Numeric path-segment families: /detail/3 vs /detail/7
            if other.netloc == parsed.netloc and not parsed.query and not other.query:
                seg_a = parsed.path.split("/")
                seg_b = other.path.split("/")
                if len(seg_a) == len(seg_b):
                    diffs = [
                        i
                        for i in range(len(seg_a))
                        if seg_a[i] != seg_b[i]
                    ]
                    if (
                        len(diffs) == 1
                        and re.fullmatch(r"\d+", seg_a[diffs[0]] or "")
                        and re.fullmatch(r"\d+", seg_b[diffs[0]] or "")
                    ):
                        family.add(candidate)
        return sorted(family, key=_family_sort_key)

    def __repr__(self) -> str:
        return f"Website({self.base_url!r}, {len(self._pages)} pages)"


def _family_sort_key(url: str) -> tuple:
    """Sort URL families numerically where possible (page=2 before page=10)."""
    parsed = urlparse(url)
    params = sorted(parse_qsl(parsed.query))
    numeric = tuple(
        int(value) if re.fullmatch(r"\d+", value) else value for _, value in params
    )
    path_parts = tuple(
        int(part) if re.fullmatch(r"\d+", part) else part
        for part in parsed.path.split("/")
    )
    return (parsed.netloc, path_parts, numeric)


def paged_url(path: str, page: int) -> str:
    """Canonical paged URL: ``path?page=k``."""
    return f"{path}?{urlencode({'page': page})}"
