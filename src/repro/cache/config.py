"""Cache configuration: one switch per cache layer, env-overridable.

Every cache in the subsystem (see the package docstring) is individually
disableable so correctness A/B tests and the CI cached-vs-uncached gate can
toggle layers without monkeypatching. Resolution order:

1. programmatic: ``CACHE.plan = False`` or the :meth:`CacheConfig.disabled`
   context manager (used by tests/benchmarks);
2. environment, read once at import: ``REPRO_CACHE=0`` kills every layer,
   ``REPRO_CACHE_PLAN=0`` / ``REPRO_CACHE_SERVICE=0`` /
   ``REPRO_CACHE_BLOCKING=0`` / ``REPRO_CACHE_SUGGESTIONS=0`` kill one.

Capacities (entries) are env-overridable too: ``REPRO_CACHE_PLAN_CAPACITY``,
``REPRO_CACHE_SERVICE_CAPACITY``, and for the evaluator's compiled-plan and
scan-transpose memos ``REPRO_COLUMNAR_COMPILE_CAPACITY`` /
``REPRO_COLUMNAR_SCAN_CAPACITY``.

The flags are plain attributes on a process-wide singleton (:data:`CACHE`),
mirroring how ``repro.obs`` exposes METRICS/TRACER: call sites pay one
attribute read when deciding whether to consult a cache.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

_FALSY = {"0", "false", "no", "off", ""}


def _env_flag(name: str, default: bool = True) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in _FALSY


class CacheConfig:
    """Mutable on/off switches for each cache layer."""

    #: Flag attributes, also the vocabulary accepted by :meth:`disabled`.
    LAYERS = ("plan", "service", "blocking", "suggestions")

    def __init__(self) -> None:
        master = _env_flag("REPRO_CACHE", True)
        #: shared-subplan result cache in the evaluator
        self.plan = master and _env_flag("REPRO_CACHE_PLAN", True)
        #: Service.invoke memoization
        self.service = master and _env_flag("REPRO_CACHE_SERVICE", True)
        #: blocking-aware RecordLinkJoin candidate generation
        self.blocking = master and _env_flag("REPRO_CACHE_BLOCKING", True)
        #: session-level dirty-flag suggestion reuse
        self.suggestions = master and _env_flag("REPRO_CACHE_SUGGESTIONS", True)
        #: below this many left×right pairs a RecordLinkJoin keeps the full
        #: cross even with blocking on — blocking is an approximation, so it
        #: is reserved for inputs where the quadratic scan actually hurts.
        self.blocking_min_pairs = int(os.environ.get("REPRO_CACHE_BLOCKING_MIN_PAIRS", "4096"))
        #: LRU capacities (entries), kept modest: results are small at the
        #: paper's scale and precision of invalidation does the real work.
        self.plan_capacity = int(os.environ.get("REPRO_CACHE_PLAN_CAPACITY", "512"))
        self.service_capacity = int(os.environ.get("REPRO_CACHE_SERVICE_CAPACITY", "2048"))
        #: compiled-plan memo (closures per fingerprint × version) and
        #: scan-transpose memo (column arrays per source × version).
        self.compile_capacity = int(os.environ.get("REPRO_COLUMNAR_COMPILE_CAPACITY", "512"))
        self.scan_capacity = int(os.environ.get("REPRO_COLUMNAR_SCAN_CAPACITY", "128"))

    def set_all(self, enabled: bool) -> None:
        for layer in self.LAYERS:
            setattr(self, layer, enabled)

    @contextmanager
    def disabled(self, *layers: str):
        """Temporarily disable the named layers (all, when none are named)."""
        names = layers or self.LAYERS
        for name in names:
            if name not in self.LAYERS:
                raise ValueError(f"unknown cache layer {name!r}; known: {self.LAYERS}")
        previous = {name: getattr(self, name) for name in names}
        try:
            for name in names:
                setattr(self, name, False)
            yield self
        finally:
            for name, value in previous.items():
                setattr(self, name, value)

    def snapshot(self) -> dict[str, bool]:
        return {layer: bool(getattr(self, layer)) for layer in self.LAYERS}

    def __repr__(self) -> str:
        states = ", ".join(f"{k}={'on' if v else 'off'}" for k, v in self.snapshot().items())
        return f"CacheConfig({states})"


#: The process-wide cache configuration every layer consults.
CACHE = CacheConfig()
