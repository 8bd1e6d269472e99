"""Action codecs: session calls -> pickled arguments -> session calls.

Every :func:`~repro.durability.recorder.recorded` session method is an
action. :func:`encode_action` runs write-ahead, before the method body,
and captures the call as bytes; :func:`apply_action` re-invokes the
method from those bytes during replay. Replay goes through the *same
public methods* as the original interaction, so a replayed session
re-earns its state: the structure learner re-induces, MIRA re-updates,
provenance re-derives.

An action's payload is its call's arguments bound to the method
signature, defaults filled in, and pickled at once: a later change to
the caller's objects (a page the site replaces, a row dict the caller
edits) cannot change what was logged. A bad call fails that binding
with ``TypeError``, and an argument that does not pickle raises
:class:`SerializationError`, both before anything is written ahead.
Two actions add to the bound arguments, because their outcome depends
on state outside the call:

- ``paste`` resolves the implicit clipboard event, so the copied
  document itself is logged and replay needs no live clipboard. A
  :class:`~repro.substrate.documents.website.Website` pickles its base
  URL and pages, never its form resolvers: only the user-facing browser
  submits forms, and no learner consults them after the copy;
- ``resync_source`` pins the source's live page as it is at resync time
  (the site may have drifted since commit). Replay swaps the logged
  page into the replayed container, when it differs, before re-running
  the resync.

Two methods are deliberately *not* recorded: ``adopt_query`` takes a
:class:`QuerySuggestion`, a live object of the integration learner, and
``apply_edit_generalization`` takes a learned :class:`Transform`, which
holds lambdas; neither pickles. See :data:`UNRECORDED` and the README's
durability section for the contract.
"""

from __future__ import annotations

import inspect
import pickle
from typing import Any, Callable

from ..errors import CopyCatError
from ..substrate.documents.website import Website

#: Session methods intentionally outside the log (arguments that do not
#: pickle, or read-only): documented contract, checked by the tests.
UNRECORDED = (
    "adopt_query",
    "apply_edit_generalization",
    "explain",
    "explain_pasted_tuples",
    "cell_alternatives",
)

#: Every recorded method's signature without ``self``, by action name.
_SIGNATURES: dict[str, inspect.Signature] = {}


class SerializationError(CopyCatError):
    """An action that cannot be encoded for (or replayed from) the log."""


def register_action(method: Callable) -> None:
    """Make *method* an action; :func:`recorded` calls this once per method."""
    signature = inspect.signature(method)
    parameters = list(signature.parameters.values())[1:]
    _SIGNATURES[method.__name__] = signature.replace(parameters=parameters)


def _signature(name: str) -> inspect.Signature:
    try:
        return _SIGNATURES[name]
    except KeyError:
        raise SerializationError(f"no action codec registered for {name!r}") from None


def encode_action(name: str, session: Any, args: tuple, kwargs: dict) -> bytes:
    """The pickled payload for one method call (its bound arguments)."""
    bound = _signature(name).bind(*args, **kwargs)
    bound.apply_defaults()
    payload = bound.arguments
    if name == "paste" and payload["event"] is None:
        payload["event"] = session.clipboard.current()
    elif name == "resync_source":
        payload["page"] = _live_page(session, payload["name"])
    try:
        return pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SerializationError(f"cannot log {name}: {exc}") from exc


def apply_action(session: Any, name: str, payload: bytes) -> Any:
    """Re-invoke one logged action against *session* (replay path)."""
    _signature(name)  # a name read from disk must be an action, not any method
    arguments = pickle.loads(payload)
    if name == "resync_source":
        _restore_page(session, arguments["name"], arguments.pop("page"))
    return getattr(session, name)(**arguments)


def recordable_actions() -> tuple[str, ...]:
    """Every action name: the ``@recorded`` session methods."""
    return tuple(sorted(_SIGNATURES))


# ------------------------------------------------------------ drift resync
def _source_site(session: Any, name: str) -> tuple[Website, str] | None:
    """The website and URL a committed source was copied from, if any."""
    record = session._wrappers.get(name)  # noqa: SLF001 - session-owned codec
    if record is None:
        return None
    context = record.event.context
    if isinstance(context.container, Website) and context.url is not None:
        return context.container, context.url
    return None


def _live_page(session: Any, name: str) -> Any:
    # Pin the external state a resync depends on: the source page's
    # content *right now*, exactly what refetch_event is about to see.
    found = _source_site(session, name)
    if found is None:
        return None
    site, url = found
    return site.fetch(url) if site.has_page(url) else None


def _restore_page(session: Any, name: str, logged: Any) -> None:
    found = _source_site(session, name)
    if logged is None or found is None:
        return
    site = found[0]
    if site.fetch(logged.url).dom != logged.dom:
        # The site had drifted by resync time: reproduce the drifted
        # content in the replayed container.
        site.replace_page(logged.url, logged.dom, logged.title)
