"""Action codecs: session calls -> JSON payloads -> session calls.

Every :func:`~repro.durability.recorder.recorded` session method is an
action. Its **encoder** runs write-ahead, before the method body, and
captures the call as a JSON-able payload; its **applier** re-invokes the
method from a decoded payload during replay. Replay goes through the
*same public methods* as the original interaction, so a replayed
session re-earns its state: the structure learner re-induces, MIRA
re-updates, provenance re-derives.

Most actions need no codec of their own. Their payload is the call's
arguments bound to the method signature, defaults filled in, and replay
calls the method with that payload as keywords. A bad call fails that
binding with ``TypeError`` before anything is written ahead. Seven
actions have hand-written encoders, because their payload is not simply
the bound arguments:

- ``paste`` resolves the implicit clipboard event and serializes the
  copied document world (:mod:`repro.durability.docs`) so replay does
  not need a live clipboard;
- ``resync_source`` snapshots the *current* content of the source's
  live page at resync time. A resync is the one action whose outcome
  depends on external state (the site may have drifted since commit);
  logging the refetched content pins that outcome, and the applier
  injects it into the replayed container before re-running the resync;
- ``set_column_type`` and ``add_derived_column`` change argument types
  (a :class:`SemanticType`, a dict keyed by row number);
- ``add_link_example``, ``accept_row_suggestions`` and ``union_sources``
  turn rows and iterables into plain dicts and lists, which their
  methods take as they are, so these three replay generically.

Methods whose arguments cannot round-trip through JSON — ``adopt_query``
(carries a live :class:`QuerySuggestion`) and
``apply_edit_generalization`` (carries a learned :class:`Transform`) —
are deliberately *not* recorded; see :data:`UNRECORDED` and the README's
durability section for the contract.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable

from ..substrate.documents.clipboard import CopyEvent, SourceContext
from ..substrate.documents.spreadsheet import Sheet, Workbook
from ..substrate.documents.textdoc import TextDocument
from ..substrate.documents.website import Page, Website
from ..substrate.relational.schema import SemanticType
from .docs import (
    SerializationError,
    dom_from_dict,
    dom_to_dict,
    locator_from_dict,
    locator_to_dict,
    page_to_dict,
    sheet_from_dict,
    sheet_to_dict,
    textdoc_from_dict,
    textdoc_to_dict,
    website_from_dict,
    website_to_dict,
    workbook_from_dict,
    workbook_to_dict,
)

#: Session methods intentionally outside the log (unserializable args or
#: read-only): documented contract, checked by the tests.
UNRECORDED = (
    "adopt_query",
    "apply_edit_generalization",
    "explain",
    "explain_pasted_tuples",
    "cell_alternatives",
)

#: Every recorded method's signature without ``self``, by action name.
_SIGNATURES: dict[str, inspect.Signature] = {}
_ENCODERS: dict[str, Callable[..., dict[str, Any]]] = {}
_APPLIERS: dict[str, Callable[[Any, dict[str, Any]], Any]] = {}


def register_action(method: Callable) -> None:
    """Make *method* an action; :func:`recorded` calls this once per method."""
    signature = inspect.signature(method)
    parameters = list(signature.parameters.values())[1:]
    _SIGNATURES[method.__name__] = signature.replace(parameters=parameters)


def _encoder(name: str):
    def register(fn):
        _ENCODERS[name] = fn
        return fn

    return register


def _applier(name: str):
    def register(fn):
        _APPLIERS[name] = fn
        return fn

    return register


def _signature(name: str) -> inspect.Signature:
    try:
        return _SIGNATURES[name]
    except KeyError:
        raise SerializationError(f"no action codec registered for {name!r}") from None


def encode_action(name: str, session: Any, args: tuple, kwargs: dict) -> dict[str, Any]:
    """The JSON payload for one method call (mirrors its signature)."""
    signature = _signature(name)
    encoder = _ENCODERS.get(name)
    if encoder is not None:
        return encoder(session, *args, **kwargs)
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def apply_action(session: Any, name: str, payload: dict[str, Any]) -> Any:
    """Re-invoke one logged action against *session* (replay path)."""
    _signature(name)  # a name read from disk must be an action, not any method
    applier = _APPLIERS.get(name)
    if applier is not None:
        return applier(session, payload)
    return getattr(session, name)(**payload)


def recordable_actions() -> tuple[str, ...]:
    """Every action name: the ``@recorded`` session methods."""
    return tuple(sorted(_SIGNATURES))


# ------------------------------------------------------------- copy events
def event_to_dict(event: CopyEvent) -> dict[str, Any]:
    context = event.context
    container = context.container
    document = context.document
    container_payload: dict[str, Any] | None = None
    if isinstance(container, Website):
        container_payload = website_to_dict(container)
    elif isinstance(container, Workbook):
        container_payload = workbook_to_dict(container)
    elif container is not None:
        raise SerializationError(
            f"unserializable copy container {type(container).__name__}"
        )

    if isinstance(document, Page):
        if isinstance(container, Website) and container.has_page(document.url):
            document_payload: dict[str, Any] = {
                "kind": "page-ref",
                "url": document.url,
            }
        else:
            document_payload = page_to_dict(document)
    elif isinstance(document, Sheet):
        if isinstance(container, Workbook) and document.name in container.sheet_names():
            document_payload = {"kind": "sheet-ref", "name": document.name}
        else:
            document_payload = sheet_to_dict(document)
    elif isinstance(document, TextDocument):
        document_payload = textdoc_to_dict(document)
    else:
        raise SerializationError(
            f"unserializable copy document {type(document).__name__}"
        )

    return {
        "text": event.text,
        "event_id": event.event_id,
        "app": context.app,
        "source_name": context.source_name,
        "url": context.url,
        "locator": locator_to_dict(context.locator),
        "document": document_payload,
        "container": container_payload,
    }


def event_from_dict(payload: dict[str, Any]) -> CopyEvent:
    container_payload = payload["container"]
    container: Any = None
    if container_payload is not None:
        if container_payload["kind"] == "website":
            container = website_from_dict(container_payload)
        elif container_payload["kind"] == "workbook":
            container = workbook_from_dict(container_payload)
        else:
            raise SerializationError(
                f"unknown container kind {container_payload['kind']!r}"
            )

    document_payload = payload["document"]
    kind = document_payload["kind"]
    if kind == "page-ref":
        document: Any = container.fetch(document_payload["url"])
    elif kind == "sheet-ref":
        document = container.sheet(document_payload["name"])
    elif kind == "page":
        document = Page(
            url=document_payload["url"],
            dom=dom_from_dict(document_payload["dom"]),
            title=document_payload["title"],
        )
    elif kind == "sheet":
        document = sheet_from_dict(document_payload)
    elif kind == "textdoc":
        document = textdoc_from_dict(document_payload)
    else:
        raise SerializationError(f"unknown document kind {kind!r}")

    context = SourceContext(
        app=payload["app"],
        source_name=payload["source_name"],
        document=document,
        locator=locator_from_dict(payload["locator"]),
        url=payload["url"],
        container=container,
    )
    return CopyEvent(
        text=payload["text"], context=context, event_id=payload["event_id"]
    )


# ------------------------------------------------------------ import mode
@_encoder("paste")
def _enc_paste(session, event=None, tab=None):
    event = event or session.clipboard.current()
    return {"event": event_to_dict(event), "tab": tab}


@_applier("paste")
def _app_paste(session, payload):
    return session.paste(event=event_from_dict(payload["event"]), tab=payload["tab"])


@_encoder("accept_row_suggestions")
def _enc_accept_rows(session, tab=None, indices=None):
    return {"tab": tab, "indices": None if indices is None else list(indices)}


@_encoder("set_column_type")
def _enc_set_column_type(session, col, semantic_type, tab=None, learn_from_values=True):
    if isinstance(semantic_type, str):
        type_payload: dict[str, Any] = {"str": semantic_type}
    else:
        type_payload = {"name": semantic_type.name, "parent": semantic_type.parent}
    return {
        "col": col,
        "semantic_type": type_payload,
        "tab": tab,
        "learn_from_values": learn_from_values,
    }


@_applier("set_column_type")
def _app_set_column_type(session, payload):
    type_payload = payload["semantic_type"]
    if "str" in type_payload:
        semantic_type: SemanticType | str = type_payload["str"]
    else:
        semantic_type = SemanticType(type_payload["name"], type_payload["parent"])
    return session.set_column_type(
        payload["col"],
        semantic_type,
        tab=payload["tab"],
        learn_from_values=payload["learn_from_values"],
    )


# ------------------------------------------------------------ drift resync
@_encoder("resync_source")
def _enc_resync_source(session, name):
    # Pin the external state this action depends on: the source page's
    # content *right now*, exactly what refetch_event is about to see.
    payload: dict[str, Any] = {"name": name, "page": None}
    record = session._wrappers.get(name)  # noqa: SLF001 - session-owned codec
    if record is not None:
        context = record.event.context
        container = context.container
        if (
            container is not None
            and context.url is not None
            and isinstance(container, Website)
            and container.has_page(context.url)
        ):
            payload["page"] = page_to_dict(container.fetch(context.url))
    return payload


@_applier("resync_source")
def _app_resync_source(session, payload):
    page_payload = payload["page"]
    name = payload["name"]
    record = session._wrappers.get(name)  # noqa: SLF001 - session-owned codec
    if page_payload is not None and record is not None:
        container = record.event.context.container
        if isinstance(container, Website):
            current = container.fetch(page_payload["url"])
            logged_dom = dom_from_dict(page_payload["dom"])
            if dom_to_dict(current.dom) != page_payload["dom"]:
                # The site had drifted by resync time: reproduce the
                # drifted content in the replayed container.
                container.replace_page(
                    page_payload["url"], logged_dom, page_payload["title"]
                )
    return session.resync_source(name)


# ------------------------------------------------------- link feedback
@_encoder("add_link_example")
def _enc_add_link_example(
    session, left_row, right_row, edge_key=None, is_match=True, right_pool=None
):
    return {
        "left_row": dict(left_row),
        "right_row": dict(right_row),
        "edge_key": edge_key,
        "is_match": is_match,
        "right_pool": None
        if right_pool is None
        else [dict(row) for row in right_pool],
    }


# ------------------------------------------------------ derived columns
@_encoder("add_derived_column")
def _enc_add_derived_column(session, name, examples, tab=None):
    return {
        "name": name,
        "examples": [[row, value] for row, value in examples.items()],
        "tab": tab,
    }


@_applier("add_derived_column")
def _app_add_derived_column(session, payload):
    examples = {row: value for row, value in payload["examples"]}
    return session.add_derived_column(payload["name"], examples, tab=payload["tab"])


# ----------------------------------------------------------- views / unions
@_encoder("union_sources")
def _enc_union_sources(session, sources, tab=None):
    return {"sources": list(sources), "tab": tab}
