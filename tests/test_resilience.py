"""Tests for the resilience layer: faults, retries, breakers, degradation.

Covers the breaker state machine, deterministic backoff schedules, deadline
expiry mid-retry, graceful degradation through the evaluator (partial
results with ``degraded:`` provenance markers), the negative-cache
anti-poisoning guarantee, and the learner's operational trust feedback.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    BindingError,
    CircuitOpenError,
    DeadlineExceededError,
    ServiceLookupFailed,
    TransientServiceError,
)
from repro.core.autocomplete import DEGRADED_PENALTY
from repro.learning.integration.learner import FAILURE_PENALTY, IntegrationLearner
from repro.resilience import (
    CLOSED,
    FAULTS,
    HALF_OPEN,
    OPEN,
    RESILIENCE,
    CircuitBreaker,
    Deadline,
    FaultPolicy,
    FaultSpec,
    RetryPolicy,
    degraded_source,
    is_degraded_source,
)
from repro.obs import render_summary
from repro.substrate.relational import Catalog, DependentJoin, Evaluator, Relation, Scan, schema_of
from repro.substrate.relational.schema import BindingPattern
from repro.substrate.services.base import FunctionService, TableBackedService


@pytest.fixture(autouse=True)
def _quiet_ambient_faults():
    """Shield these precise-count tests from an env-armed global injector.

    The chaos CI job runs the whole suite with ``REPRO_FAULT_RATE`` set;
    these tests inject their own faults and assert exact retry/failure
    counts, so ambient faults are masked with a no-op policy for their
    duration (tests that arm ``FAULTS`` themselves nest fine).
    """
    if FAULTS.active is None:
        yield
    else:
        with FAULTS.injected(FaultPolicy(seed=0)):
            yield


class FakeClock:
    """A monotonic clock tests advance by hand (seconds)."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def make_zip_service(name: str = "Z") -> TableBackedService:
    return TableBackedService(
        name,
        schema_of("City", "Zip"),
        BindingPattern(inputs=("City",)),
        [{"City": "Creek", "Zip": "33063"}, {"City": "Park", "Zip": "33309"}],
    )


@pytest.fixture()
def catalog():
    cat = Catalog()
    shelters = Relation("S", schema_of("Name", "City"))
    shelters.extend([["Monarch", "Creek"], ["Tedder", "Park"]])
    cat.add_relation(shelters)
    cat.add_service(make_zip_service())
    return cat


# --------------------------------------------------------------------------- breaker
class TestCircuitBreaker:
    def test_closed_until_threshold(self):
        breaker = CircuitBreaker("Z", threshold=3, cooldown_ms=100.0, clock=FakeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_open_rejects_until_cooldown_then_half_open(self):
        clock = FakeClock()
        breaker = CircuitBreaker("Z", threshold=1, cooldown_ms=100.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()  # still cooling
        clock.advance(0.05)
        assert not breaker.allow()
        clock.advance(0.06)  # past the 100ms cooldown
        assert breaker.allow()  # the probe
        assert breaker.state == HALF_OPEN

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker("Z", threshold=1, cooldown_ms=10.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker("Z", threshold=5, cooldown_ms=10.0, clock=clock)
        for _ in range(5):
            breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()  # probe admitted
        breaker.record_failure()  # a single half-open failure re-opens
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.times_opened == 2

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker("Z", threshold=3, cooldown_ms=10.0, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never 3 in a row

    def test_live_threshold_from_config(self):
        breaker = CircuitBreaker("Z", clock=FakeClock())
        with RESILIENCE.overridden(breaker_threshold=2):
            breaker.record_failure()
            breaker.record_failure()
            assert breaker.state == OPEN


# ----------------------------------------------------------------------------- retry
class TestRetryPolicy:
    def test_backoff_schedule_deterministic_under_seed(self):
        policy = RetryPolicy(max_attempts=5, base_ms=1.0, multiplier=2.0, jitter=0.5)
        first = policy.schedule_ms(7, "Z", 1)
        second = policy.schedule_ms(7, "Z", 1)
        assert first == second
        assert len(first) == 4  # max_attempts - 1 sleeps
        assert policy.schedule_ms(8, "Z", 1) != first  # seed matters
        assert policy.schedule_ms(7, "Z", 2) != first  # invocation index matters

    def test_backoff_exponential_and_jitter_bounded(self):
        policy = RetryPolicy(max_attempts=6, base_ms=2.0, multiplier=2.0, jitter=0.5)
        schedule = policy.schedule_ms(1, "svc", 1)
        for attempt, delay in enumerate(schedule, start=1):
            floor = 2.0 * 2.0 ** (attempt - 1)
            assert floor <= delay <= floor * 1.5
        assert schedule[-1] > schedule[0]

    def test_no_jitter_is_pure_exponential(self):
        policy = RetryPolicy(max_attempts=4, base_ms=1.0, multiplier=3.0, jitter=0.0)
        assert policy.schedule_ms(0, "x", 0) == [1.0, 3.0, 9.0]

    def test_invalid_attempt(self):
        policy = RetryPolicy(max_attempts=3, base_ms=1.0, multiplier=2.0, jitter=0.0)
        with pytest.raises(ValueError):
            policy.backoff_ms(0, None)


class TestDeadline:
    def test_expiry_with_fake_clock(self):
        clock = FakeClock()
        deadline = Deadline(100.0, clock=clock)
        assert not deadline.expired
        assert deadline.allows_delay(50.0)
        clock.advance(0.06)
        assert deadline.remaining_ms() == pytest.approx(40.0)
        assert not deadline.allows_delay(50.0)
        clock.advance(0.05)
        assert deadline.expired


# ---------------------------------------------------------------------------- faults
class TestFaultPolicy:
    def test_draws_are_deterministic_and_independent(self):
        policy = FaultPolicy(seed=7, default=FaultSpec(transient_rate=0.5))
        outcomes = [policy._draw("Z", i) < 0.5 for i in range(200)]
        again = [policy._draw("Z", i) < 0.5 for i in range(200)]
        assert outcomes == again
        assert any(outcomes) and not all(outcomes)
        # other services see an independent schedule
        other = [policy._draw("G", i) < 0.5 for i in range(200)]
        assert other != outcomes

    def test_flapping_windows(self):
        spec = FaultSpec(flapping=((3, 5), (8, 9)))
        down = [i for i in range(10) if spec.is_flapping(i)]
        assert down == [3, 4, 8]

    def test_check_raises_by_kind(self):
        policy = FaultPolicy(
            seed=1,
            per_service={
                "dead": FaultSpec(persistent=True),
                "flaky": FaultSpec(transient_rate=1.0),
            },
        )
        with pytest.raises(ServiceLookupFailed):
            policy.check("dead", 0)
        with pytest.raises(TransientServiceError):
            policy.check("flaky", 0)
        policy.check("healthy", 0)  # no spec: no fault

    def test_latency_injected_via_sleep(self):
        slept = []
        policy = FaultPolicy(seed=1, default=FaultSpec(latency_ms=25.0))
        policy.check("Z", 0, sleep=slept.append)
        assert slept == [0.025]

    def test_wrap_and_unwrap_roundtrip(self):
        service = make_zip_service()
        policy = FaultPolicy(seed=1, default=FaultSpec(persistent=True))
        policy.wrap(service)
        with pytest.raises(ServiceLookupFailed):
            service.invoke({"City": "Creek"})
        FaultPolicy.unwrap(service)
        rows = service.invoke({"City": "Creek"})
        assert rows[0]["Zip"] == "33063"

    def test_global_injector_context_restores(self):
        policy = FaultPolicy(seed=1, default=FaultSpec(persistent=True))
        previous = FAULTS.active  # a chaos CI job may have armed one via env
        with FAULTS.injected(policy):
            assert FAULTS.active is policy
        assert FAULTS.active is previous

    def test_registry_inject_and_clear(self):
        from repro.substrate.services import Gazetteer, ServiceRegistry

        registry = ServiceRegistry(Gazetteer(seed=7)).install_conversion_services()
        registry.inject_faults(FaultPolicy(seed=1, default=FaultSpec(persistent=True)))
        assert all(s._fault_wrapped is not None for s in registry.services())
        registry.clear_faults()
        assert all(s._fault_wrapped is None for s in registry.services())


# ------------------------------------------------------------------- resilient invoke
class TestResilientInvoke:
    def test_transient_fault_recovered_by_retry(self):
        service = make_zip_service()
        # down for the first 2 backend calls, then healthy
        FaultPolicy(seed=1, default=FaultSpec(flapping=((0, 2),))).wrap(service)
        with RESILIENCE.overridden(retry_base_ms=0.0, retry_max=3):
            rows = service.invoke({"City": "Creek"})
        assert rows[0]["Zip"] == "33063"
        assert service.health.retries == 2
        assert service.health.successes == 1
        assert service.breaker.state == CLOSED

    def test_retries_exhausted_raises_lookup_failed(self):
        service = make_zip_service()
        FaultPolicy(seed=1, default=FaultSpec(transient_rate=1.0)).wrap(service)
        with RESILIENCE.overridden(retry_base_ms=0.0, retry_max=3):
            with pytest.raises(ServiceLookupFailed) as info:
                service.invoke({"City": "Creek"})
        assert info.value.transient
        assert info.value.service == "Z"
        assert service.health.failures == 3

    def test_persistent_fault_fails_without_retry(self):
        service = make_zip_service()
        FaultPolicy(seed=1, default=FaultSpec(persistent=True)).wrap(service)
        with RESILIENCE.overridden(retry_base_ms=0.0, retry_max=5):
            with pytest.raises(ServiceLookupFailed):
                service.invoke({"City": "Creek"})
        assert service.health.failures == 1  # dead backend: no retry burn
        assert service.health.retries == 0

    def test_backend_exception_wrapped(self):
        def explode(**inputs):
            raise RuntimeError("socket reset")

        service = FunctionService(
            "B", schema_of("X", "Y"), BindingPattern(inputs=("X",)), explode
        )
        with pytest.raises(ServiceLookupFailed) as info:
            service.invoke({"X": 1})
        assert "socket reset" in str(info.value)
        assert service.health.failures == 1

    def test_breaker_opens_and_short_circuits(self):
        service = make_zip_service()
        FaultPolicy(seed=1, default=FaultSpec(persistent=True)).wrap(service)
        with RESILIENCE.overridden(
            retry_base_ms=0.0, breaker_threshold=3, breaker_cooldown_ms=60_000.0
        ):
            for _ in range(3):
                with pytest.raises(ServiceLookupFailed):
                    service.invoke({"City": "Creek"})
            assert service.breaker.state == OPEN
            backend_before = service.health.failures
            with pytest.raises(CircuitOpenError):
                service.invoke({"City": "Creek"})
        assert service.health.short_circuits == 1
        assert service.health.failures == backend_before  # backend untouched

    def test_breaker_half_open_probe_recovers(self):
        service = make_zip_service()
        policy = FaultPolicy(seed=1, default=FaultSpec(persistent=True))
        policy.wrap(service)
        with RESILIENCE.overridden(
            retry_base_ms=0.0, breaker_threshold=2, breaker_cooldown_ms=0.0
        ):
            for _ in range(2):
                with pytest.raises(ServiceLookupFailed):
                    service.invoke({"City": "Creek"})
            assert service.breaker.state == OPEN
            FaultPolicy.unwrap(service)  # backend comes back
            rows = service.invoke({"City": "Creek"})  # cooldown 0: probe admitted
        assert rows[0]["Zip"] == "33063"
        assert service.breaker.state == CLOSED

    def test_deadline_expiry_mid_retry(self):
        service = make_zip_service()
        FaultPolicy(seed=1, default=FaultSpec(transient_rate=1.0)).wrap(service)
        with RESILIENCE.overridden(retry_max=5, deadline_ms=0.0):
            with pytest.raises(DeadlineExceededError):
                service.invoke({"City": "Creek"})
        assert service.health.failures == 1  # died before the first backoff sleep

    def test_backoff_sleeps_match_published_schedule(self):
        service = make_zip_service()
        slept: list[float] = []
        service._sleep = slept.append
        FaultPolicy(seed=1, default=FaultSpec(transient_rate=1.0)).wrap(service)
        with RESILIENCE.overridden(retry_max=3, retry_base_ms=4.0, seed=99):
            with pytest.raises(ServiceLookupFailed):
                service.invoke({"City": "Creek"})
            expected = RetryPolicy.from_config().schedule_ms(99, "Z", 1)
        assert [s * 1000.0 for s in slept] == pytest.approx(expected)

    def test_transient_failure_never_poisons_memo(self):
        service = make_zip_service()
        policy = FaultPolicy(seed=1, default=FaultSpec(flapping=((0, 10),)))
        policy.wrap(service)
        with RESILIENCE.overridden(retry_base_ms=0.0, retry_max=2):
            with pytest.raises(ServiceLookupFailed):
                service.invoke({"City": "Creek"})
        FaultPolicy.unwrap(service)
        # recovery: the failure was not cached, the real answer comes back
        rows = service.invoke({"City": "Creek"})
        assert rows[0]["Zip"] == "33063"
        # ... and a definitive no-match IS memoizable: backend hit only once
        assert service.invoke({"City": "Atlantis"}) == []
        before = service.backend_calls
        assert service.invoke({"City": "Atlantis"}) == []
        assert service.backend_calls == before


# --------------------------------------------------------------- binding-error messages
class TestBindingErrorMessages:
    def test_table_service_missing_input_message_has_no_stray_quotes(self):
        service = make_zip_service()
        with pytest.raises(BindingError) as info:
            service._lookup({})
        assert str(info.value) == "service 'Z' missing bound input: City"

    def test_function_service_missing_input_message(self):
        service = FunctionService(
            "F",
            schema_of("X", "Y"),
            BindingPattern(inputs=("X",)),
            lambda **kw: [{"Y": kw["X"]}],
        )
        with pytest.raises(BindingError) as info:
            service._lookup({})
        assert str(info.value) == "service 'F' missing bound input: X"


# ----------------------------------------------------------------- evaluator degradation
class TestEvaluatorDegradation:
    def test_dependent_join_degrades_instead_of_raising(self, catalog):
        service = catalog.service("Z")
        FaultPolicy(seed=1, default=FaultSpec(persistent=True)).wrap(service)
        plan = DependentJoin(Scan("S"), "Z", (("City", "City"),))
        with RESILIENCE.overridden(retry_base_ms=0.0):
            result = Evaluator(catalog).run(plan)
        assert result.is_degraded
        assert result.degraded_services() == ("Z",)
        assert result.degraded[0].service == "Z"
        # every input row survives, null-padded on the service outputs
        assert len(result.rows) == 2
        for row, prov in result.rows:
            assert row.get("Zip") is None
            assert row.get("Name") is not None
            marker_rels = {tid.relation for tid in prov.variables()}
            assert degraded_source("Z") in marker_rels

    def test_degraded_runs_never_poison_plan_cache(self, catalog):
        service = catalog.service("Z")
        FaultPolicy(seed=1, default=FaultSpec(persistent=True)).wrap(service)
        plan = DependentJoin(Scan("S"), "Z", (("City", "City"),))
        evaluator = Evaluator(catalog)
        with RESILIENCE.overridden(retry_base_ms=0.0):
            degraded = evaluator.run(plan)
        assert degraded.is_degraded
        FaultPolicy.unwrap(service)
        service.breaker.reset()
        recovered = evaluator.run(plan)  # same evaluator, same plan
        assert not recovered.is_degraded
        zips = sorted(row.get("Zip") for row, _ in recovered.rows)
        assert zips == ["33063", "33309"]

    def test_degraded_marker_helpers(self):
        assert degraded_source("Z") == "degraded:Z"
        assert is_degraded_source("degraded:Z")
        assert not is_degraded_source("Z")


# --------------------------------------------------------------- operational trust feedback
class TestHealthAbsorption:
    def _catalog_with_failing_service(self):
        cat = Catalog()
        shelters = Relation("Shelters", schema_of("Name", "City"))
        shelters.extend([["Monarch", "Creek"], ["Tedder", "Park"]])
        cat.add_relation(shelters)
        cat.add_service(make_zip_service("ZipSvc"))
        return cat

    def test_failure_rate_raises_edge_cost_once(self):
        cat = self._catalog_with_failing_service()
        learner = IntegrationLearner(cat, use_semantic_types=False)
        edges = [
            edge
            for edge in learner.graph.edges()
            if "ZipSvc" in (edge.left, edge.right)
        ]
        assert edges, "expected a service edge Shelters--ZipSvc"
        key = edges[0].key
        baseline = learner.graph.weights[key]
        service = cat.service("ZipSvc")
        service.health.lookups_failed = 3
        service.health.successes = 1
        changed = learner.absorb_service_health()
        assert changed >= 1
        expected = baseline + FAILURE_PENALTY * 0.75
        assert learner.graph.weights[key] == pytest.approx(expected)
        # re-absorbing the same health is a no-op (delta-tracked)
        assert learner.absorb_service_health() == 0
        assert learner.graph.weights[key] == pytest.approx(expected)

    def test_recovered_transients_do_not_drift_trust(self):
        """Retry-absorbed weather is not unavailability: weights stay put."""
        cat = self._catalog_with_failing_service()
        learner = IntegrationLearner(cat, use_semantic_types=False)
        service = cat.service("ZipSvc")
        FaultPolicy(seed=1, default=FaultSpec(flapping=((0, 1),))).wrap(service)
        with RESILIENCE.overridden(retry_base_ms=0.0):
            service.invoke({"City": "Creek"})  # one retry, then success
        FaultPolicy.unwrap(service)
        assert service.health.retries == 1
        assert service.health.failure_rate() == 0.0
        assert learner.absorb_service_health() == 0

    def test_recovery_lowers_the_penalty(self):
        cat = self._catalog_with_failing_service()
        learner = IntegrationLearner(cat, use_semantic_types=False)
        service = cat.service("ZipSvc")
        key = next(
            edge.key
            for edge in learner.graph.edges()
            if "ZipSvc" in (edge.left, edge.right)
        )
        baseline = learner.graph.weights[key]
        service.health.lookups_failed = 1
        learner.absorb_service_health()
        assert learner.graph.weights[key] > baseline
        service.health.successes = 999  # backend recovers
        learner.absorb_service_health()
        assert learner.graph.weights[key] == pytest.approx(
            baseline + FAILURE_PENALTY * (1 / 1000), rel=1e-6
        )

    def test_chronic_failure_sinks_below_relevance_threshold(self):
        cat = self._catalog_with_failing_service()
        learner = IntegrationLearner(cat, use_semantic_types=False)
        base = learner.base_query("Shelters")
        assert any(
            completion.added_source == "ZipSvc"
            for completion in learner.column_completions(base)
        )
        service = cat.service("ZipSvc")
        service.health.lookups_failed = 100  # rate 1.0 → +2.0 cost: past threshold
        learner.absorb_service_health()
        assert not any(
            completion.added_source == "ZipSvc"
            for completion in learner.column_completions(base)
        )


# ------------------------------------------------------------------ end-to-end session
class TestSessionUnderFaults:
    def _integration_session(self, scenario_factory):
        from benchmarks.common import (
            import_contacts_via_session,
            import_shelters_via_session,
        )
        from repro import CopyCatSession

        scenario = scenario_factory()
        session = CopyCatSession(catalog=scenario.catalog, seed=1)
        import_shelters_via_session(scenario, session)
        import_contacts_via_session(scenario, session)
        session.start_integration("Shelters")
        return session

    def test_suggestions_survive_20_percent_faults(self):
        from repro.data.scenario import build_scenario

        session = self._integration_session(
            lambda: build_scenario(seed=5, n_shelters=10, noise=1)
        )
        policy = FaultPolicy(seed=7, default=FaultSpec(transient_rate=0.2))
        with RESILIENCE.overridden(retry_base_ms=0.0), FAULTS.injected(policy):
            suggestions = session.column_suggestions(refresh=True)
        assert suggestions  # completed without raising

    def test_dead_service_suggestion_flagged_and_penalized(self):
        from repro.data.scenario import build_scenario

        session = self._integration_session(
            lambda: build_scenario(seed=5, n_shelters=10, noise=1)
        )
        policy = FaultPolicy(
            seed=7, per_service={"Geocoder": FaultSpec(persistent=True)}
        )
        with RESILIENCE.overridden(retry_base_ms=0.0), FAULTS.injected(policy):
            suggestions = session.column_suggestions(k=8, refresh=True)
        degraded = [s for s in suggestions if s.source == "Geocoder"]
        assert degraded, "degraded suggestion should still be offered"
        suggestion = degraded[0]
        assert suggestion.degraded == ("Geocoder",)
        assert "DEGRADED(Geocoder)" in suggestion.describe()
        assert suggestion.score == pytest.approx(
            suggestion.completion.cost + DEGRADED_PENALTY
        )
        # the explanation pane names the failed service
        index = suggestions.index(suggestion)
        session.preview_column(index)
        explanation = session.explain(0)
        assert explanation.degraded_services() == ["Geocoder"]
        assert any(
            contribution.kind == "degraded"
            for derivation in explanation.derivations
            for contribution in derivation.contributions
        )


# ------------------------------------------------------------------------ stats line
class TestStatsLine:
    def test_stats_line_renders(self):
        line = next(line for line in render_summary() if line.startswith("resilience:"))
        assert " breaker.opened=" in line and " retries=" in line

    def test_config_snapshot_roundtrip(self):
        snap = RESILIENCE.snapshot()
        assert set(snap) == set(RESILIENCE.KNOBS)
        with RESILIENCE.overridden(retry_max=9):
            assert RESILIENCE.retry_max == 9
        assert RESILIENCE.retry_max == snap["retry_max"]
