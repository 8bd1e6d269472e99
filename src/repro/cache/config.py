"""Cache knobs: one switch per cache layer, plus the cache capacities.

Each layer can be switched off on its own, so the cached-vs-uncached
benchmarks and the correctness A/B tests toggle layers without
monkeypatching; :meth:`CacheConfig.disabled` switches several at once.
Session-level suggestion reuse has no switch: its uncached leg is
``column_suggestions(refresh=True)``, which forces a recompute.
"""

from __future__ import annotations

from ..util.knobs import Knob, Knobs


class CacheConfig(Knobs):
    """Cache-layer switches and capacities (entries)."""

    #: the per-layer switches, also the vocabulary of :meth:`disabled`.
    LAYERS = ("plan", "service", "blocking")

    plan = Knob("REPRO_CACHE_PLAN", True, "shared-subplan result cache in the evaluator")
    service = Knob("REPRO_CACHE_SERVICE", True, "Service.invoke memoization")
    blocking = Knob("REPRO_CACHE_BLOCKING", True, "blocking-aware RecordLinkJoin candidate generation")
    # Blocking approximates the full cross, so small inputs keep the cross.
    blocking_min_pairs = Knob(
        "REPRO_CACHE_BLOCKING_MIN_PAIRS", 4096, "left x right pairs below which a join never blocks"
    )
    plan_capacity = Knob("REPRO_CACHE_PLAN_CAPACITY", 512, "plan-result LRU capacity")
    service_capacity = Knob("REPRO_CACHE_SERVICE_CAPACITY", 2048, "per-service memo LRU capacity")
    compile_capacity = Knob(
        "REPRO_COLUMNAR_COMPILE_CAPACITY", 512, "compiled-plan memo capacity (fingerprint x version)"
    )
    scan_capacity = Knob("REPRO_COLUMNAR_SCAN_CAPACITY", 128, "scan-transpose memo capacity")

    def disabled(self, *layers: str):
        """Switch the named layers (all, when none are named) off for the ``with`` block."""
        for name in layers:
            if name not in self.LAYERS:
                raise ValueError(f"unknown cache layer {name!r}; known: {self.LAYERS}")
        return self.overridden(**dict.fromkeys(layers or self.LAYERS, False))


#: The process-wide cache configuration every layer consults.
CACHE = CacheConfig()
