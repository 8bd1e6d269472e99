"""Overload protection for the session server (repro.server.overload).

Contracts under test:

- **admission control** — a submit past the per-tenant queue bound, the
  server-wide inflight watermark, or the token bucket fails fast with a
  typed :class:`Overloaded` carrying ``reason``, ``tenant``, and a
  positive ``retry_after_ms``; the early-shed ramp is seeded, so the
  same storm sheds the same requests;
- **deadline propagation** — ``submit(deadline_ms=...)`` starts the
  budget at submission (queue wait counts); an expired request is shed
  at dequeue without running, one that expires mid-run aborts at the
  next cooperative checkpoint (evaluator run, dependent-join and
  record-link loops);
  durable recorded actions are shielded — once admitted they run to
  completion;
- **fairness** — the deficit-round-robin drain yields the worker after
  ``drr_quantum`` requests so a backlogged tenant cannot starve others;
- **brownout** — the load controller flips sessions into degraded
  service with hysteresis: standing suggestion batches are reused,
  dependent-join service calls shed through the resilience degradation
  path, cache tiers shrink; recovery restores all of it;
- **unbounded knobs** — with every limit out of reach
  (``OVERLOAD.unbounded()``) dispatch never sheds and requests without a
  ``deadline_ms`` never expire; outputs match the default-knob server.
"""

from __future__ import annotations

import threading

import pytest

from repro import CopyCatSession
from repro.cache.tiers import CacheTiers
from repro.errors import FeedbackError
from repro.obs import METRICS, render_summary
from repro.resilience.retry import Deadline
from repro.server import (
    OVERLOAD,
    SERVER,
    LoadController,
    Overloaded,
    RequestExpired,
    SessionManager,
    SharedBase,
    ShedPolicy,
    TokenBucket,
    check_deadline,
    current_deadline,
    deadline_scope,
    shielded_deadline,
)
from repro.substrate.relational import (
    Catalog,
    Evaluator,
    RecordLinkJoin,
    Relation,
    RowLinker,
    Scan,
    schema_of,
)


def small_catalog() -> Catalog:
    catalog = Catalog()
    cities = Relation("Cities", schema_of("City", "Zip"))
    cities.extend([[f"City{i}", f"{33000 + i}"] for i in range(6)])
    catalog.add_relation(cities)
    return catalog


def manager_with_clock(now, **server_knobs):
    """A manager on an injected clock (``now`` is a one-element list)."""
    return SessionManager(SharedBase(small_catalog()), clock=lambda: now[0])


class Gate:
    """Blocks one worker until released; counts entries."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, session):
        self.entered.set()
        self.release.wait(timeout=10.0)
        return "gated"


# ------------------------------------------------------------- token bucket
class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=2, now=0.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)  # burst spent
        assert bucket.try_acquire(0.5)  # 0.5s * 2/s = 1 token back
        assert not bucket.try_acquire(0.5)

    def test_tokens_cap_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3, now=0.0)
        for _ in range(3):
            assert bucket.try_acquire(1000.0)
        assert not bucket.try_acquire(1000.0)

    def test_zero_rate_always_admits(self):
        bucket = TokenBucket(rate=0.0, burst=1, now=0.0)
        assert all(bucket.try_acquire(0.0) for _ in range(100))
        assert bucket.retry_after_ms() == 0.0

    def test_retry_hint_tracks_deficit(self):
        bucket = TokenBucket(rate=10.0, burst=1, now=0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        # one full token at 10/s is 100ms away
        assert bucket.retry_after_ms() == pytest.approx(100.0)


# --------------------------------------------------------------- shed policy
class TestShedPolicy:
    def test_draw_is_deterministic_and_uniform_ish(self):
        policy = ShedPolicy(seed=7)
        draws = [policy.draw("t", i) for i in range(200)]
        assert draws == [ShedPolicy(seed=7).draw("t", i) for i in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.3 < sum(draws) / len(draws) < 0.7

    def test_below_soft_never_sheds(self):
        policy = ShedPolicy(seed=7)
        assert not any(
            policy.should_shed("t", i, pressure=0.5, soft=0.75) for i in range(100)
        )

    def test_full_pressure_always_sheds(self):
        policy = ShedPolicy(seed=7)
        assert all(
            policy.should_shed("t", i, pressure=1.0, soft=0.75) for i in range(100)
        )

    def test_ramp_is_monotone_in_pressure(self):
        policy = ShedPolicy(seed=3)
        def rate(pressure):
            return sum(
                policy.should_shed("t", i, pressure, soft=0.5) for i in range(500)
            )
        assert rate(0.6) < rate(0.8) < rate(1.0)

    def test_soft_at_one_disables_the_ramp(self):
        policy = ShedPolicy(seed=3)
        assert not policy.should_shed("t", 1, pressure=1.0, soft=1.0)

    def test_different_seeds_shed_differently(self):
        a = [ShedPolicy(1).should_shed("t", i, 0.9, 0.5) for i in range(64)]
        b = [ShedPolicy(2).should_shed("t", i, 0.9, 0.5) for i in range(64)]
        assert a != b


# ----------------------------------------------------------- load controller
class TestLoadController:
    def controller(self, **knobs):
        defaults = dict(
            brownout_window=4, brownout_p95_ms=100.0, brownout_pressure=0.9,
            brownout_exit=0.3, brownout_hold=3,
        )
        defaults.update(knobs)
        self._override = OVERLOAD.overridden(**defaults)
        self._override.__enter__()
        return LoadController()

    def teardown_method(self):
        if getattr(self, "_override", None) is not None:
            self._override.__exit__(None, None, None)
            self._override = None

    def test_one_spike_never_browns_out(self):
        c = self.controller()
        assert c.observe(1.0, pressure=1.0) is None
        assert c.observe(1.0, pressure=0.0) is None
        assert c.level == "normal"

    def test_consecutive_hot_pressure_enters(self):
        c = self.controller()
        assert c.observe(1.0, 1.0) is None
        assert c.observe(1.0, 1.0) is None
        assert c.observe(1.0, 1.0) == "enter"
        assert c.level == "degraded"
        assert c.entered == 1

    def test_latency_path_needs_a_full_window(self):
        c = self.controller(brownout_hold=1)
        # Three slow observations at zero pressure: window (4) not full yet.
        for _ in range(3):
            assert c.observe(500.0, 0.0) is None
        assert c.observe(500.0, 0.0) == "enter"  # window full, p95 > 100ms

    def test_exit_needs_consecutive_cool(self):
        c = self.controller()
        for _ in range(3):
            c.observe(1.0, 1.0)
        assert c.level == "degraded"
        assert c.observe(1.0, 0.0) is None
        assert c.observe(1.0, 1.0) is None  # hot again: streak resets
        for _ in range(2):
            assert c.observe(1.0, 0.0) is None
        assert c.observe(1.0, 0.0) == "exit"
        assert c.level == "normal"
        assert c.exited == 1

    def test_window_clears_on_transition(self):
        c = self.controller(brownout_hold=1)
        for _ in range(4):
            c.observe(500.0, 0.0)
        assert c.level == "degraded"
        # The slow window must not keep the server degraded: p95 is
        # computed over post-transition observations only.
        assert c.p95_ms() == 0.0
        assert c.observe(1.0, 0.0) == "exit"


# ------------------------------------------------------ deadline propagation
class TestDeadlinePropagation:
    def test_no_scope_is_a_noop(self):
        assert current_deadline() is None
        check_deadline("anywhere")  # must not raise

    def test_expired_scope_raises_at_checkpoints(self):
        now = [0.0]
        deadline = Deadline(10.0, clock=lambda: now[0])
        with deadline_scope(deadline):
            check_deadline("early")  # within budget
            now[0] = 1.0  # 1000ms elapsed > 10ms budget
            with pytest.raises(RequestExpired) as err:
                check_deadline("late")
        assert err.value.checkpoint == "late"
        assert err.value.reason == "deadline"
        assert err.value.retry_after_ms >= 1.0

    def test_scope_nests_and_restores(self):
        a = Deadline(1000.0)
        b = Deadline(2000.0)
        with deadline_scope(a):
            with deadline_scope(b):
                assert current_deadline() is b
            assert current_deadline() is a
        assert current_deadline() is None

    def test_shield_masks_the_deadline(self):
        now = [1.0]
        deadline = Deadline(10.0, clock=lambda: now[0])
        now[0] = 2.0  # already expired
        with deadline_scope(deadline):
            with shielded_deadline():
                assert current_deadline() is None
                check_deadline("inside shield")  # must not raise
            with pytest.raises(RequestExpired):
                check_deadline("outside shield")

    def test_evaluator_aborts_an_expired_run(self):
        session = CopyCatSession(catalog=small_catalog())
        now = [0.0]
        deadline = Deadline(10.0, clock=lambda: now[0])
        now[0] = 1.0
        with deadline_scope(deadline):
            with pytest.raises(RequestExpired) as err:
                session.engine.run(Scan("Cities"))
        assert err.value.checkpoint == "evaluator.run"
        # The session survives cancellation: same query runs clean after.
        assert len(session.engine.run(Scan("Cities"))) == 6

    def test_record_link_join_polls_the_deadline(self):
        # A linker that spends the budget on its first score: the join must
        # stop at the next 64-row poll instead of scoring the whole cross.
        now = [0.0]

        class ClockLinker(RowLinker):
            calls = 0

            def score(self, left, right):
                ClockLinker.calls += 1
                now[0] = 1.0
                return 1.0

        catalog = Catalog()
        left = Relation("L", schema_of("Name"))
        left.extend([[f"n{i}"] for i in range(200)])
        right = Relation("R", schema_of("Alias"))
        right.extend([["a"], ["b"]])
        catalog.add_relation(left)
        catalog.add_relation(right)
        plan = RecordLinkJoin(Scan("L"), Scan("R"), ClockLinker())
        with deadline_scope(Deadline(10.0, clock=lambda: now[0])):
            with pytest.raises(RequestExpired) as err:
                Evaluator(catalog).run(plan)
        assert err.value.checkpoint == "evaluator.record_link"
        assert ClockLinker.calls == 64 * 2  # rows 0..63 scored, then abort


# ----------------------------------------------------------------- admission
class TestAdmission:
    def test_queue_bound_sheds_with_retry_hint(self):
        gate = Gate()
        with SERVER.overridden(workers=1):
            with OVERLOAD.overridden(queue_depth=2):
                with SessionManager(SharedBase(small_catalog())) as manager:
                    blocked = manager.submit("a", gate)
                    assert gate.entered.wait(timeout=5.0)
                    queued = [manager.submit("a", lambda s: "ok") for _ in range(2)]
                    with pytest.raises(Overloaded) as err:
                        manager.submit("a", lambda s: "nope")
                    gate.release.set()
                    assert err.value.reason == "queue"
                    assert err.value.tenant == "a"
                    assert err.value.retry_after_ms > 0.0
                    assert blocked.result(timeout=5.0) == "gated"
                    assert [f.result(timeout=5.0) for f in queued] == ["ok", "ok"]
                    assert manager.requests_shed == 1
                    assert manager.shed_reasons["queue"] == 1

    def test_inflight_watermark_sheds_server_wide(self):
        gate = Gate()
        with SERVER.overridden(workers=1):
            with OVERLOAD.overridden(max_inflight=2):
                with SessionManager(SharedBase(small_catalog())) as manager:
                    first = manager.submit("a", gate)
                    assert gate.entered.wait(timeout=5.0)
                    second = manager.submit("a", lambda s: "ok")
                    # Other tenant, empty queue — the *server* is full.
                    with pytest.raises(Overloaded) as err:
                        manager.submit("b", lambda s: "nope")
                    gate.release.set()
                    assert err.value.reason == "inflight"
                    first.result(timeout=5.0)
                    second.result(timeout=5.0)
                    # Slots released: admission works again.
                    assert manager.call("b", lambda s: "late") == "late"

    def test_token_bucket_sheds_per_tenant(self):
        now = [0.0]
        with OVERLOAD.overridden(rate=1.0, burst=2):
            with manager_with_clock(now) as manager:
                futures = [manager.submit("a", lambda s: "ok") for _ in range(2)]
                with pytest.raises(Overloaded) as err:
                    manager.submit("a", lambda s: "over")
                assert err.value.reason == "rate"
                assert err.value.retry_after_ms >= 1.0
                # Another tenant has its own bucket.
                assert manager.call("b", lambda s: "fresh") == "fresh"
                # Time refills tenant a.
                now[0] = 5.0
                assert manager.call("a", lambda s: "refilled") == "refilled"
                assert all(f.result(timeout=5.0) == "ok" for f in futures)

    def test_token_bucket_rebuilds_when_burst_changes(self):
        now = [0.0]
        with manager_with_clock(now) as manager:
            with OVERLOAD.overridden(rate=0.001, burst=1):
                assert manager.call("a", lambda s: "ok") == "ok"  # bucket now empty
            admitted = 0
            with OVERLOAD.overridden(rate=0.001, burst=5):
                for _ in range(6):
                    try:
                        manager.call("a", lambda s: None)
                        admitted += 1
                    except Overloaded as exc:
                        assert exc.reason == "rate"
        # A fresh bucket at the new burst, not the drained one at burst=1.
        assert admitted == 5

    def test_early_shed_is_seeded_deterministic(self):
        def shed_indices(seed):
            gate = Gate()
            indices = []
            with SERVER.overridden(workers=1):
                with OVERLOAD.overridden(
                    max_inflight=64, shed_soft=0.1, queue_depth=10_000, shed_seed=seed
                ):
                    with SessionManager(SharedBase(small_catalog())) as manager:
                        pending = [manager.submit("a", gate)]
                        assert gate.entered.wait(timeout=5.0)
                        for i in range(50):
                            try:
                                pending.append(manager.submit("a", lambda s: None))
                            except Overloaded as exc:
                                assert exc.reason == "early"
                                indices.append(i)
                        gate.release.set()
                        for future in pending:
                            future.result(timeout=5.0)
            return indices

        first = shed_indices(11)
        assert first  # pressure above soft: the ramp fired at least once
        assert first == shed_indices(11)  # same seed, same storm, same sheds
        assert first != shed_indices(12)

    def test_sheds_are_synchronous_and_never_execute(self):
        ran = []
        gate = Gate()
        with SERVER.overridden(workers=1):
            with OVERLOAD.overridden(queue_depth=1):
                with SessionManager(SharedBase(small_catalog())) as manager:
                    blocked = manager.submit("a", gate)
                    assert gate.entered.wait(timeout=5.0)
                    manager.submit("a", lambda s: ran.append("queued"))
                    with pytest.raises(Overloaded):
                        manager.submit("a", lambda s: ran.append("shed"))
                    gate.release.set()
                    blocked.result(timeout=5.0)
        assert ran == ["queued"]


# ------------------------------------------------------- deadline at dispatch
class TestDeadlineDispatch:
    def test_expired_in_queue_is_shed_at_dequeue(self):
        gate = Gate()
        now = [0.0]
        with SERVER.overridden(workers=1):
            with manager_with_clock(now) as manager:
                blocked = manager.submit("a", gate)
                assert gate.entered.wait(timeout=5.0)
                ran = []
                doomed = manager.submit(
                    "a", lambda s: ran.append(True), deadline_ms=50.0
                )
                now[0] = 10.0  # 10s on the clock: the 50ms budget is long gone
                gate.release.set()
                assert blocked.result(timeout=5.0) == "gated"
                with pytest.raises(RequestExpired) as err:
                    doomed.result(timeout=5.0)
                assert err.value.checkpoint == "dequeue"
                assert err.value.retry_after_ms >= 1.0
                assert ran == []  # the work never ran
                assert manager.requests_expired == 1
                assert manager.inflight == 0  # slot released

    def test_mid_run_expiry_aborts_at_a_checkpoint(self):
        now = [0.0]
        with manager_with_clock(now) as manager:
            def slow(session):
                now[0] += 10.0  # the request "takes" 10s
                check_deadline("request.body")
                return "finished"

            with pytest.raises(RequestExpired) as err:
                manager.call("a", slow, deadline_ms=100.0)
            assert err.value.checkpoint == "request.body"
            assert manager.requests_canceled == 1
            assert manager.request_errors == 0  # cancellation is not a bug
            # The worker and session survive.
            assert manager.call("a", lambda s: "ok") == "ok"

    def test_deadline_covers_real_evaluation(self):
        now = [0.0]
        with manager_with_clock(now) as manager:
            def query_after_delay(session):
                now[0] += 10.0
                return session.engine.run(Scan("Cities"))

            with pytest.raises(RequestExpired) as err:
                manager.call("a", query_after_delay, deadline_ms=100.0)
            assert err.value.checkpoint == "evaluator.run"

    def test_no_deadline_means_no_cancellation(self):
        now = [0.0]
        with manager_with_clock(now) as manager:
            def slow(session):
                now[0] += 1000.0
                check_deadline("request.body")
                return "finished"

            assert manager.call("a", slow) == "finished"


# ------------------------------------------------------------------ fairness
class TestFairness:
    def test_drain_yields_after_quantum(self):
        """A 12-deep backlog for tenant a must not run as one uninterrupted
        burst: with quantum 4, tenant b's request lands between a's turns."""
        order = []
        lock = threading.Lock()

        def tag(label):
            def fn(session):
                with lock:
                    order.append(label)
            return fn

        gate = Gate()
        with SERVER.overridden(workers=1):
            with OVERLOAD.overridden(drr_quantum=4, queue_depth=10_000):
                with SessionManager(SharedBase(small_catalog())) as manager:
                    blocked = manager.submit("a", gate)
                    assert gate.entered.wait(timeout=5.0)
                    futures = [manager.submit("a", tag("a")) for _ in range(12)]
                    futures.append(manager.submit("b", tag("b")))
                    gate.release.set()
                    blocked.result(timeout=5.0)
                    for future in futures:
                        future.result(timeout=5.0)
        b_at = order.index("b")
        assert b_at < len(order) - 1  # b did not wait out a's whole backlog
        assert order.count("a") == 12  # and everything still ran

    def test_fifo_preserved_within_a_tenant_across_turns(self):
        seen = []
        with SERVER.overridden(workers=2):
            with OVERLOAD.overridden(drr_quantum=2):
                with SessionManager(SharedBase(small_catalog())) as manager:
                    futures = [
                        manager.submit("a", lambda s, i=i: seen.append(i))
                        for i in range(20)
                    ]
                    for future in futures:
                        future.result(timeout=5.0)
        assert seen == list(range(20))


# ------------------------------------------------------------------ brownout
class TestBrownout:
    def hot_manager(self, now):
        """Tiny controller knobs so a handful of requests flips the level."""
        return SessionManager(SharedBase(small_catalog()), clock=lambda: now[0])

    def run_hot(self, manager, now, n=3, tenant="a"):
        def slow(session):
            now[0] += 10.0  # every request "takes" 10s
            return "done"
        for _ in range(n):
            manager.call(tenant, slow)

    def test_sustained_latency_enters_brownout(self):
        now = [0.0]
        with SERVER.overridden(workers=1):
            with OVERLOAD.overridden(
                brownout_window=4, brownout_hold=2, brownout_p95_ms=100.0
            ):
                with self.hot_manager(now) as manager:
                    self.run_hot(manager, now, n=6)
                    stats = manager.stats()["overload"]
                    assert stats["level"] == "degraded"
                    assert stats["brownout_entered"] == 1
                    # Next request applies the level to the session itself.
                    level = manager.call("a", lambda s: s.service_level)
                    assert level == "degraded"
                    assert manager.base.tiers.shrunk

    def test_recovery_restores_service_and_tiers(self):
        now = [0.0]
        with SERVER.overridden(workers=1):
            with OVERLOAD.overridden(
                brownout_window=4, brownout_hold=2, brownout_p95_ms=100.0,
                brownout_exit=0.9,
            ):
                with self.hot_manager(now) as manager:
                    self.run_hot(manager, now, n=6)
                    assert manager.stats()["overload"]["level"] == "degraded"
                    # Fast requests cool the controller back down.
                    for _ in range(8):
                        manager.call("a", lambda s: None)
                    stats = manager.stats()["overload"]
                    assert stats["level"] == "normal"
                    assert stats["brownout_exited"] == 1
                    assert not manager.base.tiers.shrunk
                    assert manager.call("a", lambda s: s.service_level) == "normal"

    def test_degraded_session_reuses_standing_suggestions(self):
        session = CopyCatSession(catalog=small_catalog())
        sentinel = ["standing batch"]
        session._column_suggestions = sentinel  # noqa: SLF001 - direct setup
        session.set_service_level("degraded")
        assert session.column_suggestions() is sentinel
        # An explicit refresh still recomputes (and fails loudly here,
        # since no integration is underway — proving reuse was skipped).
        with pytest.raises(FeedbackError):
            session.column_suggestions(refresh=True)

    def test_set_service_level_validates(self):
        session = CopyCatSession(catalog=small_catalog())
        with pytest.raises(FeedbackError):
            session.set_service_level("turbo")
        assert session.set_service_level("degraded") == "degraded"
        assert session.engine._evaluator.service_level == "degraded"
        assert session.set_service_level() == "normal"

    def test_degraded_evaluator_sheds_service_calls(self):
        from repro.substrate.relational.algebra import DependentJoin
        from repro.substrate.services.base import BindingPattern, TableBackedService

        catalog = Catalog()
        shelters = Relation("S", schema_of("Name", "City"))
        shelters.extend([["Monarch", "Creek"], ["Tedder", "Park"]])
        catalog.add_relation(shelters)
        catalog.add_service(
            TableBackedService(
                "Z",
                schema_of("City", "Zip"),
                BindingPattern(inputs=("City",)),
                [{"City": "Creek", "Zip": "33063"}, {"City": "Park", "Zip": "33309"}],
            )
        )
        from repro.cache.config import CACHE

        session = CopyCatSession(catalog=catalog)
        plan = DependentJoin(Scan("S"), "Z", (("City", "City"),))
        full = session.engine.run(plan)
        assert not full.is_degraded
        session.set_service_level("degraded")
        # Plan cache off for the degraded leg: a cached *full* result would
        # (correctly) be served instead of exercising the shed.
        with CACHE.disabled("plan"):
            browned = session.engine.run(plan)
        assert browned.degraded_services() == ("Z",)
        assert len(browned.rows) == len(full.rows)  # null-padded, not dropped
        assert all(row.get("Zip") is None for row, _ in browned.rows)
        session.set_service_level("normal")
        restored = session.engine.run(plan)
        assert not restored.is_degraded
        assert sorted(row.get("Zip") for row, _ in restored.rows) == [
            "33063",
            "33309",
        ]

    def test_tier_shrink_trims_and_restore_rebounds(self):
        tiers = CacheTiers()
        full = tiers.plan.capacity
        for i in range(20):
            tiers.compile.put(("k", i), i)
        tiers.shrink(4)
        assert tiers.shrunk
        assert tiers.plan.capacity == max(8, full // 4)
        assert len(tiers.compile) <= tiers.compile.capacity
        assert tiers.shrink(4) == 0  # idempotent until restore
        tiers.restore()
        assert tiers.plan.capacity == full
        assert not tiers.shrunk


# ----------------------------------------------------------- disabled parity
class TestOverloadDisabled:
    """The unprotected reference: every limit out of reach (``OVERLOAD.unbounded()``)."""

    def served_values(self, manager):
        return manager.call(
            "t", lambda s: [r.values for r, _ in s.engine.run(Scan("Cities"))]
        )

    def test_disabled_matches_enabled_on_a_normal_workload(self):
        with SessionManager(SharedBase(small_catalog()), seed=3) as manager:
            protected = self.served_values(manager)
        with OVERLOAD.unbounded():
            with SessionManager(SharedBase(small_catalog()), seed=3) as manager:
                unprotected = self.served_values(manager)
        assert protected == unprotected

    def test_disabled_never_sheds_or_cancels(self):
        gate = Gate()
        now = [0.0]
        with SERVER.overridden(workers=1), OVERLOAD.unbounded():
            with manager_with_clock(now) as manager:
                blocked = manager.submit("a", gate)
                assert gate.entered.wait(timeout=5.0)
                # Far past every default bound — still admitted, and with
                # no deadline_ms nothing can expire while it waits.
                futures = [manager.submit("a", lambda s: "ok") for _ in range(200)]
                assert manager.queue_depths()["a"] == 200
                now[0] = 1e6
                gate.release.set()
                assert blocked.result(timeout=5.0) == "gated"
                assert [f.result(timeout=5.0) for f in futures] == ["ok"] * 200
                stats = manager.stats()["overload"]
        assert manager.requests_shed == 0
        assert manager.requests_expired == 0
        assert manager.requests_canceled == 0
        assert stats["level"] == "normal" and stats["brownout_entered"] == 0


# -------------------------------------------------------------- stats & obs
class TestStatsAndObs:
    def test_stats_line_from_manager(self):
        gate = Gate()
        with SERVER.overridden(workers=1):
            with OVERLOAD.overridden(queue_depth=1):
                with SessionManager(SharedBase(small_catalog())) as manager:
                    blocked = manager.submit("a", gate)
                    assert gate.entered.wait(timeout=5.0)
                    manager.submit("a", lambda s: None)
                    with pytest.raises(Overloaded):
                        manager.submit("a", lambda s: None)
                    gate.release.set()
                    blocked.result(timeout=5.0)
                    stats = manager.stats()["overload"]
        assert stats["shed"] == 1 and stats["shed_reasons"]["queue"] == 1
        assert (stats["brownout_entered"], stats["brownout_exited"], stats["level"]) == (0, 0, "normal")

    def test_stats_line_from_metrics_and_disabled_marker(self):
        assert any(line.startswith("overload: brownout_entered=") for line in render_summary())
        with OVERLOAD.overridden(queue_depth=7):
            assert "REPRO_SERVER_QUEUE_DEPTH=7" in render_summary()[-1]

    def test_server_stats_line_includes_shed_count(self):
        gate = Gate()
        with SERVER.overridden(workers=1):
            with OVERLOAD.overridden(queue_depth=1):
                with SessionManager(SharedBase(small_catalog())) as manager:
                    blocked = manager.submit("a", gate)
                    assert gate.entered.wait(timeout=5.0)
                    manager.submit("a", lambda s: None)
                    with pytest.raises(Overloaded):
                        manager.submit("a", lambda s: None)
                    gate.release.set()
                    blocked.result(timeout=5.0)
                    stats = manager.stats()
        assert stats["overload"]["shed"] == 1

    def test_shed_metrics_are_registered(self):
        METRICS.enable()
        METRICS.reset()
        try:
            gate = Gate()
            with SERVER.overridden(workers=1):
                with OVERLOAD.overridden(queue_depth=1):
                    with SessionManager(SharedBase(small_catalog())) as manager:
                        blocked = manager.submit("a", gate)
                        assert gate.entered.wait(timeout=5.0)
                        manager.submit("a", lambda s: None)
                        with pytest.raises(Overloaded):
                            manager.submit("a", lambda s: None)
                        gate.release.set()
                        blocked.result(timeout=5.0)
            assert METRICS.counter_value("overload.shed_queue") == 1
            assert METRICS.counter_value("server.requests_shed") == 1
        finally:
            METRICS.reset()
            METRICS.disable()

    def test_config_snapshot_shape(self):
        snap = OVERLOAD.snapshot()
        assert set(snap) == set(OVERLOAD.KNOBS)
        with OVERLOAD.overridden(queue_depth=7):
            assert OVERLOAD.queue_depth == 7
        assert OVERLOAD.queue_depth == snap["queue_depth"]
        with pytest.raises(ValueError):
            with OVERLOAD.overridden(bogus=1):
                pass


# --------------------------------------------------------- queue introspection
class TestIntrospection:
    def test_queue_depths_snapshot(self):
        gate = Gate()
        with SERVER.overridden(workers=1):
            with SessionManager(SharedBase(small_catalog())) as manager:
                blocked = manager.submit("a", gate)
                assert gate.entered.wait(timeout=5.0)
                queued = [manager.submit("a", lambda s: None) for _ in range(3)]
                depths = manager.queue_depths()
                assert depths["a"] == 3
                gate.release.set()
                blocked.result(timeout=5.0)
                for future in queued:
                    future.result(timeout=5.0)
                assert manager.queue_depths()["a"] == 0

    def test_inflight_tracks_admitted_work(self):
        gate = Gate()
        with SERVER.overridden(workers=1):
            with SessionManager(SharedBase(small_catalog())) as manager:
                assert manager.inflight == 0
                blocked = manager.submit("a", gate)
                assert gate.entered.wait(timeout=5.0)
                queued = manager.submit("a", lambda s: None)
                assert manager.inflight == 2
                gate.release.set()
                blocked.result(timeout=5.0)
                queued.result(timeout=5.0)
                # Drain to a settled state: both slots released.
                manager.call("a", lambda s: None)
                assert manager.inflight == 0
