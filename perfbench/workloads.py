"""The three benchmark workloads.

Each workload is driven only through the program's public surface: the
user actions of :class:`repro.core.session.CopyCatSession`,
:meth:`repro.server.SessionManager.submit`, and the durability store and
replay entry points the manager calls. Inputs come from ``--seed`` alone.

A workload runs in *units*: one journey (``journey``) or one round of
concurrent users (``tenants``, ``durable``). The runner times the
reference loop in the quiet gap after every unit, so every sample is
tagged with the unit it was measured in.

- ``journey`` -- one user, in-memory session, the paper's Figure-3 task.
- ``tenants`` -- closed loop of users over a shared base with thousands of
  rows: shared plan reads, forced suggestion refreshes, trust feedback.
- ``durable`` -- the served journey with a durability root: every action
  written ahead, checkpoints, eviction, and recovery by replay.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import queue
import random
import shutil
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

clock = time.perf_counter

#: Columns the Figure-3 journey adds, as (source, attributes) targets.
TARGETS = (
    ("ZipcodeResolver", ("Zip",)),
    ("Geocoder", ("Lat", "Lon")),
    ("Contacts", ("Contact", "Phone")),
)
SHELTER_LABELS = ("Name", "Street", "City")
CONTACT_LABELS = ("Shelter", "Contact", "Phone", "Address")
OUTPUT_COLUMNS = {"Zip", "Lat", "Lon", "Phone"}
#: Generator threads and server workers: the machine's cores, at most 2.
WORKERS = max(1, min(2, os.cpu_count() or 1))
#: Seconds the generator waits for any one request before giving up.
REQUEST_TIMEOUT_S = 60.0
WORK_DIR = Path(__file__).resolve().parent / ".work"


class CheckFailed(Exception):
    """An output check did not hold."""


class Workload:
    """Shared bookkeeping: samples, attempted/failed counts, failures."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        #: metric -> [(raw seconds, unit index)]
        self.samples: dict[str, list[tuple[float, int]]] = defaultdict(list)
        #: per-unit counts (requests, tasks) for rates
        self.unit_ops: dict[int, int] = defaultdict(int)
        self.unit_wall: dict[int, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks = 0
        self.tier_stats: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.server_stats: dict[str, Any] = {}
        self._stack = contextlib.ExitStack()

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        self.checks += 1
        if not ok:
            self.fail(what)

    def add_tiers(self, before: dict, after: dict) -> None:
        for tier, stats in after.items():
            for key in ("hits", "misses", "evictions"):
                self.tier_stats[tier][key] += stats[key] - before.get(tier, {}).get(key, 0)

    def inputs_digest(self) -> str:
        """A fingerprint of the generated inputs (changes with the seed)."""
        return hashlib.sha256(repr(self.inputs()).encode()).hexdigest()[:16]

    def inputs(self) -> Any:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, index: int, tracer: Any) -> None:
        raise NotImplementedError

    def after_unit(self, index: int) -> None:
        """Untimed work between units (runs before the reference gap)."""

    def finish(self) -> None:
        """Output checks that run after timing."""

    def close(self) -> None:
        self._stack.close()


# ---------------------------------------------------------------- journey
def listing_records(browser) -> list:
    container = browser.page.dom.find("table", "listing")
    return [n for n in container.children if n.tag == "tr" and "record" in n.css_classes]


def pick_suggestion(suggestions, source: str, attrs) -> int:
    for index, suggestion in enumerate(suggestions):
        if suggestion.source == source and set(attrs) <= set(suggestion.attribute_names):
            return index
    raise CheckFailed(f"no {source} suggestion for {attrs}")


def web_events(scenario, clipboard) -> list:
    """The user's copies of two shelter records from the listing page."""
    from repro import Browser

    browser = Browser(clipboard, scenario.website)
    browser.navigate(scenario.list_urls()[0])
    return [browser.copy_record(record, "Shelters") for record in listing_records(browser)[:2]]


def sheet_event(scenario, clipboard):
    """The user's copy of the contact sheet's first two rows."""
    from repro import SpreadsheetApp
    from repro.substrate.documents import CellRange

    app = SpreadsheetApp(clipboard, scenario.contacts_workbook)
    app.open_sheet()
    return app.copy_range(CellRange(0, 0, 1, 3), source_name="Contacts")


class Journey(Workload):
    """One user runs the Figure-3 task in an in-memory session."""

    name = "journey"
    SCENARIOS = 8
    SHELTERS = 10
    #: samples behind latency_ms; per-layer figures are per journey
    LATENCY = ("paste_ms", "suggest_ms")
    LAYER_OP = "task_ms"
    DETAIL = (("paste_ms", "paste_ms", (0.5, 0.9)), ("suggest_ms", "suggest_ms", (0.5, 0.9)),
              ("journey_ms", "task_ms", (0.5,)))

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"journey:{seed}")
        #: (scenario seed, shelters) per scenario the user cycles through
        self.specs = [(rng.randrange(1_000_000), self.SHELTERS) for _ in range(self.SCENARIOS)]
        self.digests: dict[int, str] = {}
        self._next = None

    def inputs(self):
        return self.specs

    def setup(self) -> None:
        from repro import CopyCatSession, build_scenario
        from repro.cache.tiers import CacheTiers
        from repro.durability import digest_hash, state_digest
        from repro.substrate.relational.schema import PLACE

        self._api = (CopyCatSession, build_scenario, CacheTiers, digest_hash, state_digest, PLACE)
        # Priming: one whole journey pays the first-use costs (regex and
        # intern caches, lazily built tables) a user pays once per process.
        self._prepare(0)
        self._run(self._next, unit=-1, tracer=None)
        self._prepare(0)

    def _prepare(self, index: int) -> None:
        CopyCatSession, build_scenario, CacheTiers, *_ = self._api
        scenario_seed, shelters = self.specs[index % len(self.specs)]
        scenario = build_scenario(seed=scenario_seed, n_shelters=shelters, noise=1)
        tiers = CacheTiers()
        session = CopyCatSession(catalog=scenario.catalog, seed=1, cache_tiers=tiers)
        self._next = (index, scenario, session, tiers)

    def _run(self, prepared, unit: int, tracer) -> None:
        index, scenario, session, tiers = prepared
        *_, digest_hash, state_digest, PLACE = self._api
        before = tiers.stats()
        samples = self.samples if unit >= 0 else defaultdict(list)

        def act(metric, fn, *args, **kwargs):
            self.attempted += unit >= 0
            start = clock()
            result = fn(*args, **kwargs)
            if metric is not None:
                samples[metric].append((clock() - start, unit))
            return result

        if tracer is not None:
            tracer.set_request(f"journey-{unit}")
        start = clock()
        try:
            for event in web_events(scenario, session.clipboard):
                act("paste_ms", session.paste, event)
            act(None, session.accept_row_suggestions)
            for col, label in enumerate(SHELTER_LABELS):
                act(None, session.label_column, col, label)
            act(None, session.commit_source)
            act("paste_ms", session.paste, sheet_event(scenario, session.clipboard))
            act(None, session.accept_row_suggestions)
            for col, label in enumerate(CONTACT_LABELS):
                act(None, session.label_column, col, label)
            act(None, session.set_column_type, 0, PLACE, learn_from_values=False)
            act(None, session.commit_source)
            act(None, session.start_integration, "Shelters")
            for source, attrs in TARGETS:
                suggestions = act("suggest_ms", session.column_suggestions, k=10)
                choice = pick_suggestion(suggestions, source, attrs)
                act(None, session.preview_column, choice)
                act(None, session.accept_column, choice)
        except Exception as exc:  # noqa: BLE001 -- a failed action is counted, the run goes on
            if unit >= 0:
                self.fail(f"journey {unit}: {type(exc).__name__}: {exc}")
            return
        samples["task_ms"].append((clock() - start, unit))
        if unit < 0:
            return
        self.unit_ops[unit] += 1
        self.add_tiers(before, tiers.stats())
        table = session.workspace.tab(session.OUTPUT_TAB)
        columns = {column.name for column in table.columns}
        self.check(
            table.n_rows == len(scenario.shelters) and OUTPUT_COLUMNS <= columns,
            f"journey {unit}: {table.n_rows} rows (want {len(scenario.shelters)}), columns {sorted(columns)}",
        )
        digest = digest_hash(state_digest(session))
        key = index % len(self.specs)
        expected = self.digests.setdefault(key, digest)
        self.check(digest == expected, f"journey {unit}: state digest differs from scenario {key}'s first")

    def unit(self, index: int, tracer) -> None:
        self._run(self._next, unit=index, tracer=tracer)

    def after_unit(self, index: int) -> None:
        self._prepare(index + 1)


# ------------------------------------------------------------ served loop
class Step:
    """One request a simulated user sends (``fn`` runs on the server).

    Two kinds are handled by the generator instead: ``evict`` evicts the
    tenant, and ``check`` records an output check, ``fn`` being
    ``(ok, what failed)``.
    """

    __slots__ = ("kind", "fn")

    def __init__(self, kind: str, fn: Callable | None):
        self.kind = kind
        self.fn = fn


class ServedWorkload(Workload):
    """Closed loop: each user keeps one request outstanding.

    One generator thread (the caller) submits every user's first request,
    then submits a user's next request as soon as its previous one
    completes. A user's script is a Python generator yielding
    :class:`Step` objects and receiving each request's result.
    """

    GUARD = ("shed", "expired", "canceled", "brownout_entered", "brownout_exited")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.server_stats = {key: 0 for key in self.GUARD}
        self._knobs_set = False
        self._running: list = []  # managers not yet retired

    def start_server(self, base, **manager_kwargs):
        """A session manager over *base* with one worker per core; shut
        down by :meth:`retire` (or at the latest by :meth:`close`)."""
        from repro.server import SERVER, SessionManager

        if not self._knobs_set:
            self._stack.enter_context(SERVER.overridden(workers=WORKERS))
            self._knobs_set = True
        manager = SessionManager(base, **manager_kwargs)
        self._running.append(manager)
        return manager

    def retire(self, manager) -> None:
        """Shut *manager* down and add its overload counters to the guard."""
        manager.shutdown()
        self._running.remove(manager)
        stats = manager.stats()["overload"]
        for key in self.GUARD:
            self.server_stats[key] += stats[key]

    def scripts(self, index: int) -> dict[str, tuple[Any, Iterator[Step]]]:
        """tenant -> (its session manager, its script) for one round."""
        raise NotImplementedError

    @staticmethod
    def tier_snapshot(managers) -> dict:
        total: dict = defaultdict(lambda: defaultdict(int))
        for manager in managers:
            for tier, stats in manager.stats()["tiers"].items():
                for key in ("hits", "misses", "evictions"):
                    total[tier][key] += stats[key]
        return total

    def run_round(self, index: int, tracer, record: bool = True) -> None:
        scripts = self.scripts(index)
        done: "queue.Queue[tuple]" = queue.Queue()
        samples = self.samples if record else defaultdict(list)
        user_start: dict[str, float] = {}
        pending: dict[str, tuple] = {}
        sequence = [0]
        managers = list({id(manager): manager for manager, _ in scripts.values()}.values())
        before = self.tier_snapshot(managers)

        def submit(tenant: str, result: Any) -> bool:
            """Advance *tenant*'s script; False when it has finished."""
            manager, script = scripts[tenant]
            while True:
                try:
                    step = script.send(result)
                except StopIteration:
                    return False
                except CheckFailed as exc:
                    self.fail(f"{tenant}: {exc}")
                    return False
                if step.kind == "check":
                    ok, what = step.fn
                    self.check(ok, f"{tenant}: {what}")
                    result = None
                    continue
                if step.kind == "evict":
                    manager.evict(tenant)
                    result = None
                    continue
                break
            sequence[0] += 1
            request_id = f"{self.name}-{index}-{sequence[0]}"
            times = [0.0, 0.0]

            def body(session, fn=step.fn, times=times):
                times[0] = clock()
                if tracer is not None:
                    tracer.set_request(request_id)
                try:
                    return fn(session)
                finally:
                    times[1] = clock()

            self.attempted += record
            if tracer is not None:
                # Recovery on first attach runs inside submit, on this thread.
                tracer.set_request(request_id)
            submitted = clock()
            pending[tenant] = (step.kind, submitted, times)
            try:
                future = manager.submit(tenant, body)
            except Exception as exc:  # noqa: BLE001 -- a shed submit is a failed op
                pending.pop(tenant)
                self.fail(f"{tenant}: submit {step.kind}: {type(exc).__name__}: {exc}")
                return False
            future.add_done_callback(lambda f, tenant=tenant: done.put((tenant, clock(), f)))
            return True

        start = clock()
        active = 0
        for tenant in scripts:
            user_start[tenant] = clock()
            active += submit(tenant, None)
        requests = 0
        while active:
            try:
                tenant, finished, future = done.get(timeout=REQUEST_TIMEOUT_S)
            except queue.Empty:
                self.fail(f"round {index}: no request finished within {REQUEST_TIMEOUT_S:g}s")
                break
            kind, submitted, times = pending.pop(tenant)
            try:
                result = future.result()
            except Exception as exc:  # noqa: BLE001 -- failed, shed or expired request
                self.fail(f"{tenant}: {kind}: {type(exc).__name__}: {exc}")
                active -= 1
                continue
            if not submit(tenant, result):
                samples["task_ms"].append((finished - user_start[tenant], index))
                active -= 1
            if kind == "probe":
                continue
            requests += 1
            samples["request_ms"].append((finished - submitted, index))
            samples[f"{kind}_ms"].append((finished - submitted, index))
            samples["queue_wait_ms"].append((times[0] - submitted, index))
            samples["execute_ms"].append((times[1] - times[0], index))
        if record:
            self.unit_ops[index] += requests
            self.unit_wall[index] = clock() - start
            self.add_tiers(before, self.tier_snapshot(managers))

    def unit(self, index: int, tracer) -> None:
        self.run_round(index, tracer)

    def close(self) -> None:
        for manager in list(self._running):
            self.retire(manager)
        super().close()


# ---------------------------------------------------------------- tenants
class Tenants(ServedWorkload):
    """Users of a shared base with thousands of rows, closed loop.

    Every user runs the same shape of script -- which plans and rows it
    touches is seeded, how many of each kind is not -- so every seed asks
    for the same amount of work.
    """

    name = "tenants"
    LATENCY = ("request_ms",)
    LAYER_OP = "request_ms"
    DETAIL = (("request_ms", "request_ms", (0.5, 0.9)), ("plan_ms", "plan_ms", (0.5, 0.9)),
              ("suggest_ms", "suggest_ms", (0.5,)))
    USERS = 4
    SHELTERS = 2500
    CITIES = 40
    CONTACTS = 24
    #: (beds range, street token, status excluded) of the shared plans:
    #: equal-width bed ranges over uniform beds, and tokens and statuses of
    #: equal frequency, so every plan selects about the same rows and the
    #: seed's choice of plans does not change the work
    PLANS = tuple(
        (beds, token, status)
        for beds in (10, 25, 40, 55)
        for token, status in (("Main", "full"), ("Oak", "standby"), ("Creek", "open"))
    )
    BED_RANGE = 15
    #: one user's script after start_integration: plan reads (P), forced
    #: suggestion refreshes (S), promote (+) and demote (-) feedback. Most
    #: requests are shared reads, so the median lands among them, and the
    #: reads after the feedback miss, so the 90th percentile lands there.
    SHAPE = "PPPPSPPPPPPSPPPPP+S-PPPP"
    MANAGER_SEED = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"tenants:{seed}")
        self.catalog_seed = rng.randrange(1_000_000)
        self.user_scripts = [self._script(rng) for _ in range(self.USERS)]
        #: (tenant, script index, outputs) of one user per round
        self._kept: list[tuple[str, int, list]] = []
        #: the same, with outputs reduced to a digest after the round
        self.kept: list[tuple[str, int, str]] = []

    def inputs(self):
        return (self.catalog_seed, self.user_scripts)

    def _script(self, rng: random.Random) -> list[tuple]:
        """Plan reads before the feedback hit the shared base-scope entries;
        feedback bumps the tenant's catalog version, so the reads after it
        miss. Those touch distinct plans, so each of them is a miss."""
        first = self.SHAPE.index("+")
        after = iter(rng.sample(range(len(self.PLANS)), self.SHAPE[first:].count("P")))
        ops: list[tuple] = [("start",)]
        for position, kind in enumerate(self.SHAPE):
            if kind == "P":
                ops.append(("plan", next(after) if position > first else rng.randrange(len(self.PLANS))))
            elif kind == "S":
                ops.append(("suggest",))
            else:
                ops.append(("promote" if kind == "+" else "demote", rng.randrange(self.CONTACTS)))
        return ops

    def build_catalog(self):
        from repro.substrate.relational import Catalog, Relation, schema_of

        rng = random.Random(self.catalog_seed)
        cities = [f"City{i:02d}" for i in range(self.CITIES)]
        streets = [f"{n} {w} St" for n in range(30) for w in ("Main", "Oak", "Creek")]
        catalog = Catalog()
        shelters = Relation("Shelters", schema_of("Place", "Town", "Street", "Beds", "Phone", "Status"))
        shelters.extend(
            [
                f"Shelter {i}",
                rng.choice(cities),
                rng.choice(streets),
                rng.randint(5, 80),
                f"555-{rng.randint(1000, 9999)}",
                rng.choice(["open", "full", "standby"]),
            ]
            for i in range(self.SHELTERS)
        )
        zips = Relation("Zips", schema_of("City", "Zip"))
        zips.extend([city, f"{33000 + i}"] for i, city in enumerate(cities))
        contacts = Relation("Contacts", schema_of("Contact", "City"))
        contacts.extend([f"Coordinator {i}", cities[i % (self.CITIES // 2)]] for i in range(self.CONTACTS))
        for relation in (shelters, zips, contacts):
            catalog.add_relation(relation)
        return catalog

    def build_plans(self) -> list:
        from repro.substrate.relational import (
            And, Compare, Contains, Distinct, Join, NotNull, Project, Rename, Scan, Select,
        )

        plans = []
        for beds, token, status in self.PLANS:
            in_range = And((Compare("Beds", ">", beds), Compare("Beds", "<=", beds + self.BED_RANGE)))
            base = Select(Scan("Shelters"), in_range)
            base = Select(base, And((NotNull("Phone"), Compare("Status", "!=", status))))
            base = Select(base, Contains("Street", token))
            base = Rename(Project(base, ("Place", "Town", "Street", "Beds")), (("Place", "Shelter"),))
            plans.append(Distinct(Project(Join(base, Scan("Zips"), (("Town", "City"),)), ("Town", "Zip"))))
        return plans

    def request(self, op: tuple) -> Callable:
        """The server request for one script op; returns a comparable output."""
        kind = op[0]
        if kind == "start":
            return lambda s: s.start_integration("Contacts")
        if kind == "plan":
            plan = self.plans[op[1]]
            return lambda s: _result_snapshot(s.engine.run(plan))
        if kind == "suggest":
            return lambda s: [
                (c.source, tuple(c.attribute_names), c.values) for c in s.column_suggestions(k=4, refresh=True)
            ]
        if kind == "promote":
            return lambda s: s.promote_row(op[1])
        return lambda s: s.demote_row(op[1], distrust_base_rows=True)

    def setup(self) -> None:
        from repro.server import SharedBase

        self.plans = self.build_plans()
        self.manager = self.start_server(SharedBase(self.build_catalog()), seed=self.MANAGER_SEED)
        # Priming: one round fills the shared tiers with the base-scope
        # plans every fresh tenant reads first.
        self._open_round(-1)
        self.run_round(-1, None, record=False)
        self.after_unit(-1)

    def _tenants(self, index: int) -> list[str]:
        return [f"r{index}-u{user}" for user in range(self.USERS)]

    def _open_round(self, index: int) -> None:
        for tenant in self._tenants(index):
            self.manager.session(tenant)  # session construction stays out of the round

    def scripts(self, index: int) -> dict[str, tuple[Any, Iterator[Step]]]:
        keep = index % self.USERS if index >= 0 else -1
        return {
            tenant: (self.manager, self._user(tenant, user, user == keep))
            for user, tenant in enumerate(self._tenants(index))
        }

    def _user(self, tenant: str, user: int, keep: bool) -> Iterator[Step]:
        outputs = []
        for op in self.user_scripts[user]:
            outputs.append((yield Step(op[0], self.request(op))))
        if keep:
            self._kept.append((tenant, user, outputs))

    def after_unit(self, index: int) -> None:
        for tenant in self._tenants(index):
            self.manager.evict(tenant)
        # Keep only a digest: plan outputs carry large provenance graphs.
        self.kept.extend((tenant, user, _digest(outputs)) for tenant, user, outputs in self._kept)
        self._kept.clear()
        self._open_round(index + 1)

    def finish(self) -> None:
        """Isolation check: sampled users' request sequences, re-run in a
        plain single-threaded session seeded the way the manager seeds the
        tenant, must give identical outputs."""
        self.retire(self.manager)
        from repro import CopyCatSession
        from repro.util.rng import seed_for

        kept = self.kept
        sample = [kept[i] for i in sorted({0, len(kept) // 2, len(kept) - 1})] if kept else []
        for tenant, user, digest in sample:
            session = CopyCatSession(catalog=self.build_catalog(), seed=seed_for(self.MANAGER_SEED, tenant))
            isolated = [self.request(op)(session) for op in self.user_scripts[user]]
            self.check(_digest(isolated) == digest, f"{tenant}: outputs differ from an isolated session")


def _result_snapshot(result):
    return (
        result.schema.names,
        [(row.values, prov) for row, prov in result.rows],
        result.degraded,
    )


def _digest(outputs) -> str:
    """Provenance expressions compare by their children in order, which is
    exactly what their repr spells out, so equal digests mean equal outputs."""
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


# ---------------------------------------------------------------- durable
class Durable(ServedWorkload):
    """The served journey, written ahead to a durability root, then
    evicted (checkpointed) and recovered by replay on the next request.

    One user per round, each with a scenario of its own served by a
    session manager of its own (a scenario's services live in its base
    catalog), so a run averages over dozens of scenarios instead of
    hinging on one.
    """

    name = "durable"
    LATENCY = ("paste_ms",)
    LAYER_OP = "task_ms"
    DETAIL = (("request_ms", "request_ms", (0.5, 0.9)), ("paste_ms", "paste_ms", (0.5, 0.9)),
              ("suggest_ms", "suggest_ms", (0.5, 0.9)), ("recover_ms", "recover_ms", (0.5,)))
    SHELTERS = 10
    FEEDBACK = 40  # trust-feedback actions after the journey (crosses 64)

    def user_inputs(self, index: int) -> tuple[int, list[tuple[bool, int]]]:
        """(scenario seed, feedback actions) of the user of round *index*."""
        rng = random.Random(f"durable:{self.seed}:{index}")
        scenario_seed = rng.randrange(1_000_000)
        return scenario_seed, [(rng.random() < 0.5, rng.randrange(self.SHELTERS)) for _ in range(self.FEEDBACK)]

    def inputs(self):
        return [self.user_inputs(index) for index in range(4)]

    def setup(self) -> None:
        from repro import Clipboard, build_scenario
        from repro.durability import DURABILITY, digest_hash, state_digest
        from repro.server import SharedBase
        from repro.substrate.relational.schema import PLACE

        self._api = (digest_hash, state_digest, PLACE, Clipboard, build_scenario, SharedBase)
        self.checkpoint_interval = DURABILITY.checkpoint_interval
        self.root = WORK_DIR / f"durable-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self._stack.callback(_remove_root, self.root)
        # Priming: one user's whole lifecycle pays the first-use costs.
        self._open(-1)
        self.run_round(-1, None, record=False)
        self.after_unit(-1)

    def _open(self, index: int) -> None:
        """Build the next round's scenario and server (untimed)."""
        *_, build_scenario, SharedBase = self._api
        scenario_seed, feedback = self.user_inputs(index)
        scenario = build_scenario(seed=scenario_seed, n_shelters=self.SHELTERS, noise=1)
        root = self.root / f"r{index}"
        manager = self.start_server(SharedBase(scenario.catalog), durability_root=root)
        self.current = (f"r{index}", manager, scenario, feedback, root)

    def scripts(self, index: int) -> dict[str, tuple[Any, Iterator[Step]]]:
        tenant, manager, scenario, feedback, _root = self.current
        return {tenant: (manager, self._user(scenario, feedback))}

    def _user(self, scenario, feedback) -> Iterator[Step]:
        digest_hash, state_digest, PLACE, Clipboard, *_ = self._api
        clipboard = Clipboard()
        for event in web_events(scenario, clipboard):
            yield Step("paste", lambda s, e=event: s.paste(e))
        yield Step("action", lambda s: s.accept_row_suggestions())
        for col, label in enumerate(SHELTER_LABELS):
            yield Step("action", lambda s, c=col, l=label: s.label_column(c, l))
        yield Step("action", lambda s: s.commit_source())
        event = sheet_event(scenario, clipboard)
        yield Step("paste", lambda s: s.paste(event))
        yield Step("action", lambda s: s.accept_row_suggestions())
        for col, label in enumerate(CONTACT_LABELS):
            yield Step("action", lambda s, c=col, l=label: s.label_column(c, l))
        yield Step("action", lambda s: s.set_column_type(0, PLACE, learn_from_values=False))
        yield Step("action", lambda s: s.commit_source())
        yield Step("action", lambda s: s.start_integration("Shelters"))
        for source, attrs in TARGETS:
            suggestions = yield Step("suggest", lambda s: s.column_suggestions(k=10))
            choice = pick_suggestion(suggestions, source, attrs)
            yield Step("action", lambda s, c=choice: s.preview_column(c))
            yield Step("action", lambda s, c=choice: s.accept_column(c))
        for promote, row in feedback:
            if promote:
                yield Step("action", lambda s, r=row: s.promote_row(r))
            else:
                yield Step("action", lambda s, r=row: s.demote_row(r))
        # Bookkeeping request (not a user action, kept out of the samples).
        before, recorded = yield Step(
            "probe", lambda s: (digest_hash(state_digest(s)), s.durability.actions_recorded)
        )
        yield Step("check", (recorded >= self.checkpoint_interval, f"{recorded} actions never checkpointed"))
        yield Step("evict", None)
        # The next request attaches the tenant again: checkpoint + replay.
        after = yield Step("recover", lambda s: digest_hash(state_digest(s)))
        yield Step("check", (before == after, "recovered state differs from the state before eviction"))

    def after_unit(self, index: int) -> None:
        _tenant, manager, _scenario, _feedback, root = self.current
        self.retire(manager)
        shutil.rmtree(root, ignore_errors=True)
        self._open(index + 1)


def _remove_root(root: Path) -> None:
    shutil.rmtree(root, ignore_errors=True)
    with contextlib.suppress(OSError):
        root.parent.rmdir()  # only when no other run still uses it


WORKLOADS = {cls.name: cls for cls in (Journey, Tenants, Durable)}
