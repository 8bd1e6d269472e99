"""Service abstraction: relations with input binding restrictions.

Section 4 of the paper: "Services can be modeled as relations that take
input parameters (i.e., ... they have input binding restrictions). Predefined
services include record-linking functions, address resolution, geocoding, and
currency and unit conversion. We also model Web forms as services that
require inputs."

A :class:`Service` exposes a schema and a binding pattern; :meth:`invoke`
takes bound input values and returns the matching output rows. Results are
deterministic, and may contain *multiple* rows when the lookup is ambiguous —
the paper's geocoding example ("the shelter name may be ambiguous and might
return multiple answers").
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Sequence

from ...analysis.concurrency.runtime import make_lock
from ...cache.lru import LRUCache
from ...errors import (
    BindingError,
    CircuitOpenError,
    DeadlineExceededError,
    ServiceError,
    ServiceLookupFailed,
    TransientServiceError,
)
from ...obs import METRICS
from ...resilience.breaker import CircuitBreaker, ServiceHealth
from ...resilience.config import RESILIENCE
from ...resilience.faults import FAULTS
from ...resilience.retry import Deadline, RetryPolicy
from ...util.rng import derive_rng, make_rng
from ..relational.rows import TupleId
from ..relational.schema import BindingPattern, Schema

#: per-invocation budget of a backend lookup (all attempts + backoff), ms.
DEADLINE_MS = 2000.0


class Service:
    """Abstract simulated web service / Web form."""

    def __init__(self, name: str, schema: Schema, binding: BindingPattern, cost: float = 1.0):
        binding.validate(schema)
        if binding.is_free:
            raise ServiceError(f"service {name!r} must declare at least one input binding")
        self.name = name
        self.schema = schema
        self.binding = binding
        #: Default invocation cost used when the source graph seeds edge weights.
        self.cost = cost
        self._call_count = 0
        self._backend_calls = 0
        # Invoke memoization (repro.cache): full result rows per bound-input
        # tuple. Deterministic services make this safe; invalidate_cache()
        # is the explicit escape hatch for subclasses whose backing data
        # changes.
        self._memo = LRUCache(2048, metrics_prefix="service.cache")
        # Interning table assigning stable TupleIds to distinct results, so
        # provenance over service outputs is well-defined and repeatable.
        # Guarded by _lock: a service object may be shared by concurrent
        # sessions (the server's frozen base registers one instance), and
        # two tenants racing the same new result must agree on one id.
        self._result_ids: dict[tuple[Any, ...], TupleId] = {}
        self._lock = make_lock("Service._lock")
        # Resilience state (repro.resilience): a circuit breaker gating the
        # backend, an operational-health ledger the integration learner
        # reads, and a per-invocation counter seeding backoff jitter.
        self.breaker = CircuitBreaker(name)
        self.health = ServiceHealth()
        self._resilient_invocations = 0

    # -- public API ------------------------------------------------------------
    @property
    def input_names(self) -> tuple[str, ...]:
        return self.binding.inputs

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(name for name in self.schema.names if name not in self.binding.inputs)

    @property
    def call_count(self) -> int:
        """Number of :meth:`invoke` calls made (used by latency accounting)."""
        return self._call_count

    @property
    def backend_calls(self) -> int:
        """Actual backend lookups performed (invokes minus memo hits)."""
        return self._backend_calls

    def invoke(self, inputs: Mapping[str, Any]) -> list[dict[str, Any]]:
        """Invoke the service with *inputs* bound.

        Returns a list of full-schema row dicts (inputs echoed + outputs).
        An empty list is a *definitive* no-match — the dependent join treats
        it as "no answer for these inputs" and it is memoizable. A backend
        *failure* is different: transient errors are retried with seeded
        exponential backoff inside a per-invocation deadline, gated by
        this service's circuit breaker; once the budget is exhausted
        :class:`ServiceLookupFailed` is raised, and — unlike a definitive
        no-match — is **never** cached, so a flaky moment cannot
        poison the memo. Repeated successful invocations with the same
        bound inputs are served from a per-service LRU memo without
        touching the backend.
        """
        self.binding.check_bound(inputs.keys())
        with self._lock:
            self._call_count += 1
        memo_key: tuple[Any, ...] | None
        try:
            memo_key = tuple(inputs[name] for name in self.binding.inputs)
            cached = self._memo.get(memo_key)
        except TypeError:  # unhashable input value: skip memoization
            memo_key, cached = None, None
        if cached is not None:
            if METRICS.enabled:
                METRICS.inc("service.calls")
                METRICS.inc("service." + self.name + ".calls")
                METRICS.inc("service." + self.name + ".cache_hits")
            return [dict(row) for row in cached]
        start = time.perf_counter() if METRICS.enabled else 0.0
        with self._lock:
            self._backend_calls += 1
        bound = {name: inputs[name] for name in self.binding.inputs}
        try:
            results = self._resilient_lookup(bound)
        except ServiceLookupFailed:
            self.health.lookups_failed += 1
            if METRICS.enabled:
                METRICS.inc("service.calls")
                METRICS.inc("service." + self.name + ".calls")
                METRICS.inc("resilience.lookups_failed")
                METRICS.inc("service." + self.name + ".failures")
            raise  # transient failures are never memoized (no poisoning)
        if METRICS.enabled:
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            METRICS.inc("service.calls")
            METRICS.inc("service." + self.name + ".calls")
            METRICS.observe("service." + self.name + ".latency_ms", elapsed_ms)
            if not results:
                METRICS.inc("service." + self.name + ".misses")
        rows: list[dict[str, Any]] = []
        for result in results:
            row = {name: inputs[name] for name in self.binding.inputs}
            for name in self.output_names:
                if name not in result:
                    raise ServiceError(
                        f"service {self.name!r} result missing output {name!r}"
                    )
                row[name] = result[name]
            rows.append(row)
        if memo_key is not None:
            self._memo.put(memo_key, [dict(row) for row in rows])
        return rows

    # -- resilient backend path -----------------------------------------------
    #: injectable sleeper (tests replace it to run backoff schedules dry).
    _sleep = staticmethod(time.sleep)

    def _raw_lookup(self, bound: Mapping[str, Any]) -> Sequence[Mapping[str, Any]]:
        """One bare backend call, with any armed fault policy applied."""
        if FAULTS.active is not None:
            FAULTS.before_call(self, sleep=self._sleep)
        return self._lookup(bound)

    def _resilient_lookup(self, bound: Mapping[str, Any]) -> Sequence[Mapping[str, Any]]:
        """Backend call with breaker gating, retries, and a deadline.

        Raises :class:`ServiceLookupFailed` (or its ``CircuitOpenError`` /
        ``DeadlineExceededError`` refinements) once the budget is spent;
        callers that want graceful degradation catch exactly that type.
        Programming errors (:class:`BindingError`, malformed-result
        :class:`ServiceError`) propagate untouched and do not trip the
        breaker.
        """
        if not self.breaker.allow():
            self.health.short_circuits += 1
            if METRICS.enabled:
                METRICS.inc("resilience.breaker.short_circuits")
                METRICS.inc("resilience.breaker." + self.name + ".short_circuits")
            raise CircuitOpenError(
                f"service {self.name!r} circuit breaker is open", service=self.name
            )
        with self._lock:
            self._resilient_invocations += 1
        policy = RetryPolicy.from_config()
        deadline = Deadline(DEADLINE_MS)
        rng = None  # jitter stream derived lazily, only when a retry happens
        attempt = 0
        while True:
            attempt += 1
            try:
                results = self._raw_lookup(bound)
            except TransientServiceError as exc:
                self.health.failures += 1
                self.breaker.record_failure()
                if METRICS.enabled:
                    METRICS.inc("resilience.transient_faults")
                if attempt >= policy.max_attempts:
                    raise ServiceLookupFailed(
                        f"service {self.name!r} failed after {attempt} attempts: {exc}",
                        service=self.name,
                        transient=True,
                    ) from exc
                if rng is None:
                    rng = derive_rng(
                        make_rng(RESILIENCE.seed), self.name, self._resilient_invocations
                    )
                delay_ms = policy.backoff_ms(attempt, rng)
                if deadline.expired or not deadline.allows_delay(delay_ms):
                    if METRICS.enabled:
                        METRICS.inc("resilience.deadline_expired")
                    raise DeadlineExceededError(
                        f"service {self.name!r} deadline "
                        f"({deadline.budget_ms:g}ms) exhausted after "
                        f"{attempt} attempts",
                        service=self.name,
                    ) from exc
                self.health.retries += 1
                if METRICS.enabled:
                    METRICS.inc("resilience.retries")
                    METRICS.inc("resilience." + self.name + ".retries")
                if delay_ms > 0.0:
                    self._sleep(delay_ms / 1000.0)
            except ServiceLookupFailed as exc:
                # Persistent failure (dead backend): no point retrying.
                self.health.failures += 1
                self.breaker.record_failure()
                if exc.service is None:
                    exc.service = self.name
                raise
            except (BindingError, ServiceError):
                raise  # caller/contract bug, not backend weather
            except (KeyboardInterrupt, SystemExit):
                raise  # never absorb interpreter-shutdown signals
            except Exception as exc:  # backend blew up: surface as a failure
                self.health.failures += 1
                self.breaker.record_failure()
                if METRICS.enabled:
                    METRICS.inc("resilience.backend_errors")
                    METRICS.inc("resilience.backend_errors." + type(exc).__name__)
                raise ServiceLookupFailed(
                    f"service {self.name!r} backend error: {exc}",
                    service=self.name,
                ) from exc
            else:
                self.health.successes += 1
                self.breaker.record_success()
                return results

    # -- memoization ----------------------------------------------------------
    def cache_stats(self) -> dict[str, int]:
        """Per-service memo counters: hits / misses / evictions / size."""
        return self._memo.stats()

    def invalidate_cache(self) -> None:
        """Explicitly drop memoized results (backing data changed)."""
        self._memo.clear()

    def result_tuple_id(self, row: Mapping[str, Any]) -> TupleId:
        """Stable provenance id for a full-schema result *row*.

        Ids are assigned in first-seen order, under the lock: concurrent
        tenants sharing one service object always agree on the id of a
        result, though *which* result gets which ordinal depends on arrival
        order (which is why the bit-for-bit parity benchmark runs tenants
        over relations-only catalogs, where no such ordering exists).
        """
        key = tuple(row[name] for name in self.schema.names)
        with self._lock:
            tid = self._result_ids.get(key)
            if tid is None:
                tid = TupleId(self.name, len(self._result_ids))
                self._result_ids[key] = tid
        return tid

    # -- subclass hook --------------------------------------------------------
    def _lookup(self, inputs: Mapping[str, Any]) -> Sequence[Mapping[str, Any]]:
        """Produce output rows (dicts over :attr:`output_names`) for *inputs*."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.binding})"


class TableBackedService(Service):
    """A service implemented as an exact-match lookup into a fixed table.

    Rows are full-schema dicts. ``invoke`` matches on the binding inputs with
    optional value normalization (case-insensitive string compare by
    default), modeling form-backed sites and resolver services.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        binding: BindingPattern,
        table: Sequence[Mapping[str, Any]],
        cost: float = 1.0,
        normalize_keys: bool = True,
    ):
        super().__init__(name, schema, binding, cost=cost)
        self._normalize = normalize_keys
        self._index: dict[tuple[Any, ...], list[dict[str, Any]]] = {}
        for raw in table:
            missing = [name for name in schema.names if name not in raw]
            if missing:
                raise ServiceError(f"service {name!r} table row missing {missing}")
            row = {attr: raw[attr] for attr in schema.names}
            key = self._key(row)
            self._index.setdefault(key, []).append(row)

    def _normalize_value(self, value: Any) -> Any:
        if self._normalize and isinstance(value, str):
            return value.strip().lower()
        return value

    def _key(self, values: Mapping[str, Any]) -> tuple[Any, ...]:
        return tuple(self._normalize_value(values[name]) for name in self.binding.inputs)

    def _lookup(self, inputs: Mapping[str, Any]) -> Sequence[Mapping[str, Any]]:
        try:
            key = self._key(inputs)
        except KeyError as exc:
            # exc.args[0] is the missing attribute name itself; interpolating
            # the exception would add the repr's stray quotes.
            raise BindingError(
                f"service {self.name!r} missing bound input: {exc.args[0]}"
            ) from None
        return [
            {name: row[name] for name in self.output_names}
            for row in self._index.get(key, [])
        ]


class FunctionService(Service):
    """A service implemented by a pure Python function over the inputs."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        binding: BindingPattern,
        fn,
        cost: float = 1.0,
    ):
        super().__init__(name, schema, binding, cost=cost)
        self._fn = fn

    def _lookup(self, inputs: Mapping[str, Any]) -> Sequence[Mapping[str, Any]]:
        for name in self.binding.inputs:
            if name not in inputs:
                raise BindingError(
                    f"service {self.name!r} missing bound input: {name}"
                )
        result = self._fn(**inputs)
        if result is None:
            return []
        if isinstance(result, Mapping):
            return [result]
        return list(result)
