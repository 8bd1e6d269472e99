"""Hierarchical tracing: spans, the tracer, and the disabled fast path.

A :class:`Span` records one named region of work — wall-clock time, CPU
time, free-form attributes, and child spans — so a paste, a query, or a
Steiner enumeration can be read back as a tree of where time went.

Design constraint (see ISSUE/ROADMAP): instrumentation rides the hot
paths, so the *disabled* path must cost almost nothing. The tracer is a
process-wide singleton whose ``span()`` returns one shared
:data:`NULL_SPAN` when disabled — one attribute check, no allocation, no
dict. Call sites that would compute an expensive attribute must guard on
``TRACER.enabled`` before computing it; ``Span.set`` on the null span is
a no-op but its *arguments* are still evaluated by Python.

Usage::

    from repro.obs import TRACER

    with TRACER.span("session.paste") as sp:
        ...
        sp.set("rows", len(pasted))

    @traced("engine.run")
    def run(...): ...
"""

from __future__ import annotations

import functools
import time
from contextvars import ContextVar
from typing import Any, Callable, Sequence


class Span:
    """One timed, attributed node in the trace tree."""

    __slots__ = (
        "name",
        "attributes",
        "children",
        "parent",
        "_start_wall",
        "_start_cpu",
        "wall_ms",
        "cpu_ms",
        "_tracer",
    )

    def __init__(self, name: str, tracer: "Tracer | None" = None):
        self.name = name
        self.attributes: dict[str, Any] = {}
        self.children: list[Span] = []
        self.parent: Span | None = None
        self.wall_ms: float | None = None
        self.cpu_ms: float | None = None
        self._start_wall = 0.0
        self._start_cpu = 0.0
        self._tracer = tracer

    # -- context manager -----------------------------------------------------
    def __enter__(self) -> "Span":
        self._start_wall = time.perf_counter()
        self._start_cpu = time.process_time()
        if self._tracer is not None:
            self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_ms = (time.perf_counter() - self._start_wall) * 1000.0
        self.cpu_ms = (time.process_time() - self._start_cpu) * 1000.0
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        if self._tracer is not None:
            self._tracer._pop(self)
        return False

    # -- attributes ----------------------------------------------------------
    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute; chainable."""
        self.attributes[key] = value
        return self

    def is_recording(self) -> bool:
        return True

    # -- introspection -------------------------------------------------------
    def iter(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter()

    def find(self, name: str) -> "Span | None":
        """First span named *name* in this subtree (depth-first), or None."""
        for span in self.iter():
            if span.name == name:
                return span
        return None

    def __repr__(self) -> str:
        timing = f"{self.wall_ms:.2f}ms" if self.wall_ms is not None else "open"
        return f"Span({self.name!r}, {timing}, {len(self.children)} children)"


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    def is_recording(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullSpan()"


#: Singleton handed out on every ``span()`` call while disabled.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span trees; disabled by default.

    ``finished_roots`` holds every completed top-level span in completion
    order; an exporter reads them out (and ``clear()`` resets).

    The stack of open spans lives in a :class:`~contextvars.ContextVar`,
    so each thread (and each ``contextvars`` context) nests its spans
    under its own parents: two server workers tracing at once build two
    trees, not one interleaved one. A push sets a new tuple rather than
    mutating a shared one.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.finished_roots: list[Span] = []
        self._stack: ContextVar[tuple[Span, ...]] = ContextVar("Tracer._stack", default=())

    # -- span creation -------------------------------------------------------
    def span(self, name: str):
        """Open a span (context manager). Near-free when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(name, tracer=self)

    # -- stack maintenance (called by Span) ----------------------------------
    def _push(self, span: Span) -> None:
        stack = self._stack.get()
        if stack:
            span.parent = stack[-1]
            span.parent.children.append(span)
        self._stack.set((*stack, span))

    def _pop(self, span: Span) -> None:
        # Tolerate out-of-order exits (generators, exceptions): unwind to it.
        stack = self._stack.get()
        self._stack.set(stack[: stack.index(span)] if span in stack else ())
        if span.parent is None:
            self.finished_roots.append(span)

    # -- lifecycle -----------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop finished spans, and forget open ones in every context."""
        self.finished_roots = []
        self._stack = ContextVar("Tracer._stack", default=())

    @property
    def current(self) -> Span | None:
        """The innermost open span of this context, or None."""
        stack = self._stack.get()
        return stack[-1] if stack else None

    def roots(self) -> Sequence[Span]:
        return tuple(self.finished_roots)


#: The process-wide tracer every instrumented module shares.
TRACER = Tracer()


def traced(name: str | None = None, tracer: Tracer | None = None) -> Callable:
    """Decorator: wrap a function in a span named *name* (default qualname).

    The enabled check happens per call, so enabling tracing after import
    still takes effect; the disabled path is one flag test.
    """

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = tracer if tracer is not None else TRACER
            if not t.enabled:
                return fn(*args, **kwargs)
            with t.span(label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
