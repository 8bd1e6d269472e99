"""A minimal DOM tree for simulated web pages.

The structure learner (Section 3.1) "analyzes the structure of a website to
identify its relational structure"; its experts need a real tag tree to walk:
repeated sibling templates, tables, lists, attribute values, and text nodes.
This module provides that tree plus serialization, paths, and simple queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from ...errors import DocumentError

TEXT_TAG = "#text"

_VOID_TAGS = frozenset({"br", "hr", "img", "meta", "link", "input"})


@dataclass
class DomNode:
    """An element or text node.

    Text nodes use ``tag == "#text"`` and carry their content in ``text``;
    element nodes carry ``attrs`` and ``children``.
    """

    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["DomNode"] = field(default_factory=list)
    text: str = ""
    parent: "DomNode | None" = field(default=None, repr=False, compare=False)

    # -- construction ---------------------------------------------------------
    @staticmethod
    def element(tag: str, attrs: dict[str, str] | None = None, *children: "DomNode | str") -> "DomNode":
        node = DomNode(tag=tag, attrs=dict(attrs or {}))
        for child in children:
            node.append(child)
        return node

    @staticmethod
    def text_node(content: str) -> "DomNode":
        return DomNode(tag=TEXT_TAG, text=content)

    def append(self, child: "DomNode | str") -> "DomNode":
        """Append a child (strings become text nodes); returns the child."""
        if isinstance(child, str):
            child = DomNode.text_node(child)
        if child.tag == TEXT_TAG and self.tag in _VOID_TAGS:
            raise DocumentError(f"cannot add text under void tag <{self.tag}>")
        child.parent = self
        self.children.append(child)
        return child

    # -- predicates -----------------------------------------------------------
    @property
    def is_text(self) -> bool:
        return self.tag == TEXT_TAG

    # -- traversal -------------------------------------------------------------
    def iter(self) -> Iterator["DomNode"]:
        """Pre-order traversal including self."""
        yield self
        for child in self.children:
            yield from child.iter()

    def find_all(self, tag: str, cls: str | None = None) -> list["DomNode"]:
        """All descendant elements with the given tag (and optional class)."""
        out = []
        for node in self.iter():
            if node.tag == tag and (cls is None or cls in node.css_classes):
                out.append(node)
        return out

    def find(self, tag: str, cls: str | None = None) -> "DomNode":
        matches = self.find_all(tag, cls)
        if not matches:
            raise DocumentError(f"no <{tag}> node found" + (f" with class {cls!r}" if cls else ""))
        return matches[0]

    def find_where(self, predicate: Callable[["DomNode"], bool]) -> list["DomNode"]:
        return [node for node in self.iter() if predicate(node)]

    @property
    def css_classes(self) -> tuple[str, ...]:
        return tuple(self.attrs.get("class", "").split())

    # -- text extraction ---------------------------------------------------------
    def text_content(self) -> str:
        """Concatenated descendant text, whitespace-normalized."""
        parts = [node.text for node in self.iter() if node.is_text and node.text.strip()]
        return " ".join(part.strip() for part in parts)

    def text_leaves(self) -> list["DomNode"]:
        """All non-empty text nodes in document order."""
        return [node for node in self.iter() if node.is_text and node.text.strip()]

    # -- structure descriptors ------------------------------------------------
    def path(self) -> tuple[tuple[str, int], ...]:
        """Root-to-node path of (tag, sibling-index-among-same-tag) pairs."""
        steps: list[tuple[str, int]] = []
        node: DomNode | None = self
        while node is not None and node.parent is not None:
            same_tag = [child for child in node.parent.children if child.tag == node.tag]
            steps.append((node.tag, same_tag.index(node)))
            node = node.parent
        if node is not None:
            steps.append((node.tag, 0))
        return tuple(reversed(steps))

    def signature(self, depth: int = 3) -> str:
        """A shape fingerprint of the subtree, used for template detection.

        Two sibling records generated by the same page template produce the
        same signature even if their text differs.
        """
        if self.is_text:
            return "t"
        if depth <= 0:
            return self.tag
        inner = ",".join(child.signature(depth - 1) for child in self.children)
        cls = ".".join(self.css_classes)
        label = f"{self.tag}[{cls}]" if cls else self.tag
        return f"{label}({inner})"

    def resolve(self, path: tuple[tuple[str, int], ...]) -> "DomNode":
        """Follow a :meth:`path` from this (root) node."""
        if not path:
            raise DocumentError("empty path")
        root_tag, _ = path[0]
        if root_tag != self.tag:
            raise DocumentError(f"path root <{root_tag}> does not match <{self.tag}>")
        node = self
        for tag, index in path[1:]:
            same_tag = [child for child in node.children if child.tag == tag]
            if index >= len(same_tag):
                raise DocumentError(f"path step ({tag},{index}) not found under <{node.tag}>")
            node = same_tag[index]
        return node

    # -- serialization -------------------------------------------------------------
    def to_html(self, indent: int = 0, pretty: bool = False) -> str:
        if self.is_text:
            return (" " * indent if pretty else "") + self.text
        attrs = "".join(f' {key}="{value}"' for key, value in self.attrs.items())
        if self.tag in _VOID_TAGS:
            return (" " * indent if pretty else "") + f"<{self.tag}{attrs}/>"
        open_tag = f"<{self.tag}{attrs}>"
        close_tag = f"</{self.tag}>"
        if not pretty:
            inner = "".join(child.to_html() for child in self.children)
            return f"{open_tag}{inner}{close_tag}"
        pad = " " * indent
        if all(child.is_text for child in self.children):
            inner = "".join(child.text for child in self.children)
            return f"{pad}{open_tag}{inner}{close_tag}"
        lines = [pad + open_tag]
        for child in self.children:
            lines.append(child.to_html(indent + 2, pretty=True))
        lines.append(pad + close_tag)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_html()


def element(tag: str, *children: DomNode | str, **attrs: str) -> DomNode:
    """Terse builder: ``element("li", element("b", name), street, cls="row")``.

    The keyword ``cls`` maps to the HTML ``class`` attribute.
    """
    mapped = {("class" if key == "cls" else key): value for key, value in attrs.items()}
    return DomNode.element(tag, mapped, *children)


def document(*body_children: DomNode | str, title: str = "") -> DomNode:
    """An ``html`` root with ``head/title`` and a ``body``."""
    head = element("head", element("title", title))
    body = element("body", *body_children)
    return element("html", head, body)
