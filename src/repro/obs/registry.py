"""Declared metric names: the single registry every instrument must be in.

Four fast-moving layers (obs, cache, resilience, drift) each grew their
own ``METRICS`` names; nothing ever checked that a counter incremented in
one module is spelled the same way the ``--trace`` summary or a dashboard
reads it back. This registry makes the namespace explicit: every counter,
gauge, and histogram the codebase emits is declared here, and the repo
linter (REPRO002 in :mod:`repro.analysis.lint.rules`) fails CI when an
``METRICS.inc(...)`` call site uses a name no declared pattern covers.

Patterns may contain ``*``, which matches exactly one dot-free segment —
``service.*.calls`` covers ``service.ZipcodeResolver.calls``. Call sites
that build names dynamically (``"service." + self.name + ".calls"``) are
checked by shape: the literal fragments must line up with some declared
pattern.
"""

from __future__ import annotations

import re

#: Counters: monotonically increasing event counts.
DECLARED_COUNTERS: dict[str, str] = {
    # -- analysis (compile-time plan checks) -------------------------------
    "analysis.errors": "plans that failed a PLAN check while compiling",
    "analysis.fingerprint_unregistered": "plan nodes evaluated uncached (unhashable fingerprint)",
    # -- cache -------------------------------------------------------------
    "cache.blocking.joins": "record-link joins routed through token blocking",
    # -- columnar (batch execution) ----------------------------------------
    "columnar.plans": "plans executed by the evaluator",
    "columnar.compile.hits": "columnar compile-memo hits",
    "columnar.compile.misses": "columnar compile-memo misses",
    "columnar.compile.evictions": "columnar compile-memo evictions",
    "columnar.scan.hits": "scan-transpose cache hits",
    "columnar.scan.misses": "scan-transpose cache misses",
    "columnar.scan.evictions": "scan-transpose cache evictions",
    "cache.blocking.pairs_pruned": "candidate pairs blocking never scored",
    "cache.plan.degraded_uncached": "degraded results kept out of the plan cache",
    "cache.plan.hits": "plan-result cache hits",
    "cache.plan.misses": "plan-result cache misses",
    "cache.plan.evictions": "plan-result cache evictions",
    "service.cache.hits": "service memo hits",
    "service.cache.misses": "service memo misses",
    "service.cache.evictions": "service memo evictions",
    # -- drift -------------------------------------------------------------
    "drift.detected": "resyncs that failed verification",
    "drift.reinduced": "wrappers healed by re-induction",
    "drift.resyncs": "resync_source calls",
    "drift.resyncs_clean": "resyncs whose extraction verified clean",
    "drift.rows_quarantined": "individual malformed rows quarantined",
    "drift.sources_quarantined": "sources quarantined wholesale",
    "drift.verifications": "extraction verifications run",
    # -- durability (write-ahead log + checkpoint/replay) --------------------
    "durability.actions_logged": "session actions appended to a write-ahead log",
    "durability.checkpoints": "session snapshots written to checkpoint files",
    "durability.log_truncations": "write-ahead logs truncated after a checkpoint",
    "durability.sessions_recovered": "sessions rebuilt from snapshot + log tail",
    "durability.actions_replayed": "logged actions re-applied during recovery",
    "durability.replay_action_errors": "replayed actions that re-raised (as originally)",
    "durability.recovery_torn_records": "recoveries stopped at a torn final record",
    "durability.recovery_crc_failures": "recoveries stopped at a CRC/payload mismatch",
    "durability.recovery_truncated": "recoveries stopped at a garbage frame length",
    "durability.recovery_seq_gaps": "log tails dropped for a sequence gap",
    "durability.checkpoint_corrupt": "checkpoint files unreadable at recovery",
    "durability.fsync_failures": "log/checkpoint sync failures absorbed",
    "durability.faults_injected": "write faults injected by the seeded policy",
    # -- engine / session ---------------------------------------------------
    "engine.queries": "plans evaluated by the query engine",
    "session.columns_accepted": "column suggestions accepted",
    "session.columns_rejected": "column suggestions rejected",
    "session.pastes": "paste events processed",
    "session.sources_committed": "sources committed to the catalog",
    "session.suggestion_batches": "column-suggestion batches computed",
    "session.suggestions_produced": "column suggestions produced",
    "session.suggestions_reused": "suggestion batches served from the dirty-flag reuse",
    # -- learners -----------------------------------------------------------
    "experts.*.record_groups": "record groups seen per structure expert",
    "experts.*.records_seen": "records seen per structure expert",
    "experts.data-type.rescored": (
        "candidates rescored by the data-type expert: in generalize only those "
        "that can project the examples; a wrapper resync rescores all"
    ),
    "mira.updates": "MIRA weight updates",
    "mira.updates.*": "MIRA weight updates by feedback kind",
    "mira.edges_changed": "edge weights moved by MIRA updates",
    "steiner.exact_calls": "exact Steiner solver invocations",
    "steiner.heap_pushes": "Steiner search heap pushes",
    "steiner.mst_runs": "MST-approximation runs",
    "steiner.spcsh_calls": "SPCSH heuristic invocations",
    "steiner.spcsh_stretch_tightenings": "SPCSH stretch-bound tightenings",
    "steiner.subsets_explored": "terminal subsets explored by the exact solver",
    "structure.candidates": "wrapper candidates proposed",
    "structure.empty_cells_dropped": "empty cells dropped during extraction",
    "structure.expert.*.candidates": "wrapper candidates proposed per expert",
    "structure.fallback_attempts": "landmark-fallback induction attempts",
    "structure.generalize_calls": "generalize() calls on the structure learner",
    "types.learn_calls": "semantic-type learn calls",
    "types.recognize_calls": "semantic-type recognize calls",
    "types.recognize_memo.hits": "recognize calls answered from the per-learner column memo",
    "types.recognize_memo.misses": "recognize calls that scored the column against every type",
    "types.recognize_memo.evictions": "per-learner recognize memo evictions",
    "linking.feature_memo.hits": (
        "field-pair feature lookups the per-linker memo held an entry for "
        "(a partial entry that scoring completes counts too)"
    ),
    "linking.feature_memo.misses": "field-pair feature lookups scored from two string profiles",
    "linking.feature_memo.evictions": "per-linker feature memo evictions",
    # -- resilience ----------------------------------------------------------
    "resilience.backend_errors": "unexpected backend exceptions converted to lookup failures",
    "resilience.backend_errors.*": "unexpected backend exceptions by exception type",
    "resilience.breaker.closed": "circuit breakers closed after recovery",
    "resilience.breaker.half_open": "circuit breakers probing half-open",
    "resilience.breaker.opened": "circuit breakers opened",
    "resilience.breaker.short_circuits": "calls rejected by an open breaker",
    "resilience.breaker.*.closed": "per-service breaker closes",
    "resilience.breaker.*.opened": "per-service breaker opens",
    "resilience.breaker.*.short_circuits": "per-service breaker rejections",
    "resilience.deadline_expired": "invocations abandoned at the deadline",
    "resilience.degraded_results": "results carrying degradation markers",
    "resilience.degraded_rows": "rows null-padded after a service failure",
    "resilience.degraded_suggestions": "suggestions rank-penalized for degradation",
    "resilience.lookups_failed": "service lookups that exhausted their budget",
    "resilience.retries": "backend retries",
    "resilience.*.retries": "backend retries per service",
    "resilience.transient_faults": "transient backend faults observed",
    "service.calls": "service invocations",
    "service.*.calls": "invocations per service",
    "service.*.cache_hits": "memo hits per service",
    "service.*.failures": "failed lookups per service",
    "service.*.misses": "definitive empty results per service",
    # -- server (multi-tenant session manager) ------------------------------
    "server.sessions_created": "tenant sessions created by the session manager",
    "server.sessions_evicted": "sessions evicted by LRU capacity pressure",
    "server.sessions_expired": "sessions evicted by idle TTL",
    "server.requests": "requests dispatched through the session manager",
    "server.request_errors": "dispatched requests that raised",
    "server.requests_shed": "submits refused by admission control",
    "server.requests_stranded": "queued requests failed at manager shutdown",
    # -- overload protection (admission control + brownout) ------------------
    "overload.shed_queue": "submits refused with the tenant dispatch queue full",
    "overload.shed_inflight": "submits refused at the server-wide inflight watermark",
    "overload.shed_early": "submits shed by the seeded pressure ramp",
    "overload.shed_deadline": "queued requests shed at dequeue with an expired deadline",
    "overload.canceled": "requests aborted at a cooperative deadline checkpoint",
    "overload.brownout_entered": "load-controller transitions into brownout",
    "overload.brownout_exited": "load-controller recoveries out of brownout",
    "overload.brownout_reuse": "suggestion batches served stale under brownout",
    "overload.brownout_skips": "dependent-join service calls shed under brownout",
}

#: Gauges: last-value-wins readings.
DECLARED_GAUGES: dict[str, str] = {
    "cache.plan.size": "current plan-result cache entry count",
    "overload.inflight": "admitted requests currently queued or running",
    "overload.level": "brownout level (0 normal, 1 degraded)",
    "server.sessions_active": "sessions currently registered with the manager",
}

#: Histograms / timers: value reservoirs (``observe`` / ``timer``).
DECLARED_HISTOGRAMS: dict[str, str] = {
    "engine.run_ms": "plan evaluation wall time",
    "mira.tau": "MIRA update step sizes",
    "overload.queue_wait_ms": "admission-to-execution wait per pooled request",
    "server.request_ms": "per-request wall time through the session manager",
    "service.*.latency_ms": "backend latency per service",
    "session.column_suggestions_ms": "column-suggestion batch wall time",
    "session.paste_ms": "paste handling wall time",
    "session.resync_ms": "resync_source wall time",
    "steiner.spcsh_pruned_nodes": "nodes pruned per SPCSH call",
    "types.learn_ms": "semantic-type learn wall time",
    "types.recognize_ms": "semantic-type recognize wall time",
}


def declared_patterns() -> dict[str, str]:
    """Every declared pattern (all three instrument kinds) -> description."""
    return {**DECLARED_COUNTERS, **DECLARED_GAUGES, **DECLARED_HISTOGRAMS}


def _pattern_regex(pattern: str) -> re.Pattern[str]:
    # ``*`` matches one dot-free segment; everything else is literal.
    return re.compile("[^.]+".join(re.escape(part) for part in pattern.split("*")))


def is_declared(name: str) -> bool:
    """True when the *literal* metric name matches a declared pattern."""
    return any(_pattern_regex(p).fullmatch(name) for p in declared_patterns())


def declared_samples() -> list[str]:
    """One concrete sample name per pattern (``*`` -> a placeholder segment).

    Dynamically-built call-site names (literal fragments with holes) are
    validated by matching their shape against these samples.
    """
    return [pattern.replace("*", "X") for pattern in declared_patterns()]
