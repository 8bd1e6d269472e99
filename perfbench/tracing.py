"""Outside-in layer timing for the traced benchmark run.

The program is not edited: :class:`LayerTracer` replaces public functions
and methods of each layer with timing wrappers while a traced unit of work
runs, and puts the originals back afterwards. Each thread keeps its own
span stack, so work done on the server's worker threads is attributed to
the request that caused it; every span carries the id of the request (or
journey) that was current on its thread when it started. Spans stay in
memory and are summarised when the run ends.

A span's *self* time is its duration minus the time its wrapped children
cover, so a layer's self time is the time spent in that layer's own code.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable


class LayerTracer:
    """Wraps layer entry points with spans; aggregates self time per layer."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list[tuple]] = []
        self._targets: list[tuple[Any, str, str, Callable | None]] = []
        self._saved: list[tuple[Any, str, Any]] = []
        #: byte and action counts gathered by exit hooks (not timed).
        self.counts: dict[str, float] = defaultdict(float)

    # -- registration --------------------------------------------------------
    def target(self, owner: Any, attr: str, layer: str, on_exit: Callable | None = None) -> None:
        """Time ``owner.attr`` as *layer* whenever the tracer is installed.

        *on_exit* runs after the span closes, outside the timed interval
        and under the tracer's lock, with ``(counts, args, kwargs, result)``
        to record byte or action counts.
        """
        self._targets.append((owner, attr, layer, on_exit))

    def install(self) -> None:
        """Replace every registered target with its timing wrapper."""
        for owner, attr, layer, on_exit in self._targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, on_exit))

    def uninstall(self) -> None:
        """Put the original functions back (call only when nothing runs)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- spans ---------------------------------------------------------------
    def set_request(self, request_id: str | None) -> None:
        """Mark later spans on this thread as caused by *request_id*."""
        self._local.request = request_id

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.spans = []
            local.request = getattr(local, "request", None)
            with self._lock:
                self._buffers.append(local.spans)
        return local

    def _wrap(self, original: Callable, layer: str, on_exit: Callable | None) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            frame = [0.0]  # time covered by wrapped children
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                local.spans.append((local.request, layer, start, end, duration - frame[0], len(stack)))
            if on_exit is not None:
                with tracer._lock:  # hooks run on worker threads too
                    on_exit(tracer.counts, args, kwargs, result)
            return result

        return traced

    # -- results -------------------------------------------------------------
    def spans(self) -> list[tuple]:
        """Every recorded span: (request, layer, start, end, self_s, depth)."""
        with self._lock:
            return [span for buffer in self._buffers for span in buffer]

    def summary(self) -> dict[str, tuple[float, int]]:
        """Per layer: (total self seconds, calls)."""
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for _request, layer, _start, _end, self_s, _depth in self.spans():
            entry = totals[layer]
            entry[0] += self_s
            entry[1] += 1
        return {layer: (entry[0], entry[1]) for layer, entry in totals.items()}

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (for offline study)."""
        with open(path, "w", encoding="utf-8") as handle:
            for request, layer, start, end, self_s, depth in self.spans():
                handle.write(f"{request}\t{layer}\t{start:.9f}\t{end:.9f}\t{self_s:.9f}\t{depth}\n")


def file_size(path: Any) -> int:
    """Size of *path* in bytes, 0 when it does not exist."""
    try:
        return os.stat(path).st_size
    except FileNotFoundError:
        return 0


def register_layers(tracer: LayerTracer) -> None:
    """Register the public entry points of every layer the benchmark reports."""
    import repro.durability as durability
    import repro.durability.recorder as recorder
    from repro.core.autocomplete import AutoCompleteGenerator
    from repro.core.engine import QueryEngine
    from repro.core.session import CopyCatSession
    from repro.durability.store import DurabilityStore
    from repro.learning.integration.learner import IntegrationLearner
    from repro.learning.model.type_learner import SemanticTypeLearner
    from repro.learning.structure.learner import StructureLearner
    from repro.linking.linker import LearnedLinker
    from repro.substrate.services.base import Service

    tracer.target(StructureLearner, "generalize", "structure.generalize")
    tracer.target(SemanticTypeLearner, "recognize", "model.recognize")
    tracer.target(SemanticTypeLearner, "learn", "model.learn")
    for name in ("row_suggestions", "type_suggestions", "column_suggestions", "query_suggestions"):
        tracer.target(AutoCompleteGenerator, name, "autocomplete")
    for name, value in vars(CopyCatSession).items():
        if inspect.isfunction(value) and not name.startswith("_"):
            tracer.target(CopyCatSession, name, "session")
    tracer.target(IntegrationLearner, "column_completions", "integration.completions")
    tracer.target(IntegrationLearner, "steiner_queries", "integration.steiner")
    tracer.target(IntegrationLearner, "accept_query", "integration.mira")
    tracer.target(IntegrationLearner, "reject_query", "integration.mira")
    tracer.target(LearnedLinker, "score", "linking.link")
    tracer.target(LearnedLinker, "train", "linking.link")
    tracer.target(Service, "invoke", "services.invoke")
    tracer.target(QueryEngine, "run", "engine.run")

    wal_sizes: dict[str, int] = {}

    def count_append(counts, args, _kwargs, _result):
        path = str(args[0].wal_path(args[1]))
        # The log only grows between truncations, so its growth since the
        # previous append is this record's frame.
        size = file_size(path)
        counts["durability.appends"] += 1
        counts["durability.append_bytes"] += max(0, size - wal_sizes.get(path, 0))
        wal_sizes[path] = size

    def count_truncate(_counts, args, _kwargs, _result):
        wal_sizes[str(args[0].wal_path(args[1]))] = 0

    def count_checkpoint(counts, args, _kwargs, wrote):
        if wrote:
            store, tenant = args[0], args[1]
            counts["durability.checkpoints"] += 1
            counts["durability.checkpoint_bytes"] += file_size(store.checkpoint_path(tenant))

    def count_replay(counts, args, _kwargs, _result):
        counts["durability.replayed_actions"] += len(args[1])

    tracer.target(recorder, "encode_action", "durability.encode")
    tracer.target(DurabilityStore, "append", "durability.append", count_append)
    tracer.target(DurabilityStore, "truncate_wal", "durability.checkpoint", count_truncate)
    tracer.target(DurabilityStore, "write_checkpoint", "durability.checkpoint", count_checkpoint)
    tracer.target(DurabilityStore, "recover", "durability.read")
    tracer.target(durability, "replay", "durability.replay", count_replay)
