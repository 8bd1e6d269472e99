"""Concurrency pass tests: CONC rules, the static model, the runtime
lockset tracker, stale-suppression reporting, and the src/ clean gate."""

from __future__ import annotations

import threading
from pathlib import Path

from repro.analysis.concurrency import (
    RACECHECK,
    LockTracker,
    TrackedLock,
    TrackedRLock,
    build_model,
    build_model_from_paths,
    conc_stats_line,
    find_cycle,
    make_lock,
    make_rlock,
)
from repro.analysis.concurrency.rules import CONC_RULES
from repro.analysis.lint.engine import ALL_CODES, Linter, parse_source

SRC = Path(__file__).resolve().parent.parent / "src"


def conc_lint(tmp_path, sources: dict[str, str]):
    """Write *sources* (name -> text) and run the CONC rules over them."""
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
    linter = Linter(file_rules=(), project_rules=CONC_RULES,
                    stale_prefixes=("CONC",))
    return linter.run([tmp_path])


def model_of(tmp_path, sources: dict[str, str]):
    files = []
    for name, text in sources.items():
        path = tmp_path / name
        path.write_text(text)
        files.append(parse_source(path))
    return build_model(files)


def run_thread(fn):
    t = threading.Thread(target=fn)
    t.start()
    t.join()


# -- CONC001: lock-order inversions -------------------------------------------

class TestConc001:
    def test_inversion_fires(self, tmp_path):
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading\n"
            "class A:\n"
            "    def __init__(self):\n"
            "        self.l1 = threading.Lock()\n"
            "        self.l2 = threading.Lock()\n"
            "    def ab(self):\n"
            "        with self.l1:\n"
            "            with self.l2:\n"
            "                pass\n"
            "    def ba(self):\n"
            "        with self.l2:\n"
            "            with self.l1:\n"
            "                pass\n"
        )})
        codes = [d.code for d in diags]
        assert "CONC001" in codes
        assert any("inversion" in d.message for d in diags)

    def test_self_deadlock_fires(self, tmp_path):
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading\n"
            "class B:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "    def f(self):\n"
            "        with self.lock:\n"
            "            with self.lock:\n"
            "                pass\n"
        )})
        assert [d.code for d in diags] == ["CONC001"]
        assert "re-acquired" in diags[0].message

    def test_rlock_reentry_is_clean(self, tmp_path):
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading\n"
            "class B:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.RLock()\n"
            "    def f(self):\n"
            "        with self.lock:\n"
            "            with self.lock:\n"
            "                pass\n"
        )})
        assert diags == []

    def test_consistent_order_is_clean(self, tmp_path):
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading\n"
            "class A:\n"
            "    def __init__(self):\n"
            "        self.l1 = threading.Lock()\n"
            "        self.l2 = threading.Lock()\n"
            "    def ab(self):\n"
            "        with self.l1:\n"
            "            with self.l2:\n"
            "                pass\n"
            "    def ab_again(self):\n"
            "        with self.l1:\n"
            "            with self.l2:\n"
            "                pass\n"
        )})
        assert diags == []

    def test_transitive_inversion_across_classes(self, tmp_path):
        # P.f takes P.lock then calls Q.g (takes Q.lock); Q.h takes Q.lock
        # then calls back into P.f — a cross-class cycle.
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading\n"
            "class P:\n"
            "    def __init__(self, q: 'Q'):\n"
            "        self.lock = threading.Lock()\n"
            "        self.q = q\n"
            "    def f(self):\n"
            "        with self.lock:\n"
            "            self.q.g()\n"
            "class Q:\n"
            "    def __init__(self, p: P):\n"
            "        self.lock = threading.Lock()\n"
            "        self.p = p\n"
            "    def g(self):\n"
            "        with self.lock:\n"
            "            pass\n"
            "    def h(self):\n"
            "        with self.lock:\n"
            "            self.p.f()\n"
        )})
        assert "CONC001" in [d.code for d in diags]


# -- CONC002: blocking calls under a lock -------------------------------------

class TestConc002:
    def test_sleep_under_lock_fires(self, tmp_path):
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading, time\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "    def f(self):\n"
            "        with self.lock:\n"
            "            time.sleep(0.1)\n"
        )})
        assert [d.code for d in diags] == ["CONC002"]
        assert "sleep" in diags[0].message

    def test_transitive_blocking_via_helper(self, tmp_path):
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading, time\n"
            "def slow():\n"
            "    time.sleep(1)\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "    def f(self):\n"
            "        with self.lock:\n"
            "            slow()\n"
        )})
        assert [d.code for d in diags] == ["CONC002"]
        assert "via" in diags[0].message

    def test_acquire_release_region(self, tmp_path):
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading, time\n"
            "LOCK = threading.Lock()\n"
            "def f():\n"
            "    LOCK.acquire()\n"
            "    time.sleep(1)\n"
            "    LOCK.release()\n"
            "def g():\n"
            "    LOCK.acquire()\n"
            "    LOCK.release()\n"
            "    time.sleep(1)\n"
        )})
        assert [d.code for d in diags] == ["CONC002"]
        assert diags[0].path.endswith(":5")

    def test_contextmanager_lock_export(self, tmp_path):
        # guard() holds the lock at its yield, so the caller's body runs
        # under it — the sleep inside `with self.guard()` must fire.
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading, time\n"
            "from contextlib import contextmanager\n"
            "class G:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "    @contextmanager\n"
            "    def guard(self):\n"
            "        with self.lock:\n"
            "            yield\n"
            "    def user(self):\n"
            "        with self.guard():\n"
            "            time.sleep(1)\n"
        )})
        assert [d.code for d in diags] == ["CONC002"]

    def test_sleep_outside_lock_clean(self, tmp_path):
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading, time\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "    def f(self):\n"
            "        with self.lock:\n"
            "            pass\n"
            "        time.sleep(0.1)\n"
        )})
        assert diags == []

    def test_suppression_consumed_no_stale_warning(self, tmp_path):
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading, time\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "    def f(self):\n"
            "        with self.lock:\n"
            "            time.sleep(0.1)  # lint: allow=CONC002 -- test fixture\n"
        )})
        assert diags == []


# -- CONC003: inconsistently guarded attributes -------------------------------

class TestConc003:
    def test_unguarded_write_fires(self, tmp_path):
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading\n"
            "class E:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "        self.count = 0\n"
            "    def locked_inc(self):\n"
            "        with self.lock:\n"
            "            self.count += 1\n"
            "    def racy(self):\n"
            "        self.count = 5\n"
        )})
        assert [d.code for d in diags] == ["CONC003"]
        assert diags[0].path.endswith(":10")

    def test_init_writes_exempt(self, tmp_path):
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading\n"
            "class E:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "        self.count = 0\n"
            "    def locked_inc(self):\n"
            "        with self.lock:\n"
            "            self.count += 1\n"
        )})
        assert diags == []

    def test_all_guarded_clean(self, tmp_path):
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading\n"
            "class E:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "        self.count = 0\n"
            "    def a(self):\n"
            "        with self.lock:\n"
            "            self.count += 1\n"
            "    def b(self):\n"
            "        with self.lock:\n"
            "            self.count = 0\n"
        )})
        assert diags == []


# -- CONC004: METRICS mutation under a lock -----------------------------------

class TestConc004:
    def test_metrics_under_lock_fires(self, tmp_path):
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading\n"
            "from repro.obs import METRICS\n"
            "class F:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "    def f(self):\n"
            "        with self.lock:\n"
            "            METRICS.inc('x')\n"
        )})
        assert [d.code for d in diags] == ["CONC004"]

    def test_metrics_after_lock_clean(self, tmp_path):
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading\n"
            "from repro.obs import METRICS\n"
            "class F:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "    def f(self):\n"
            "        with self.lock:\n"
            "            pass\n"
            "        METRICS.inc('x')\n"
        )})
        assert diags == []

    def test_metrics_own_lock_excluded(self, tmp_path):
        # the registry's own lock is exactly where METRICS mutation lives.
        diags = conc_lint(tmp_path, {"m.py": (
            "import threading\n"
            "class Metrics:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._counters = {}\n"
            "METRICS = Metrics()\n"
            "def emit():\n"
            "    with METRICS._lock:\n"
            "        METRICS.inc('x')\n"
        )})
        assert diags == []


# -- CONC005: @recorded methods acquiring server locks ------------------------

class TestConc005:
    SERVER = (
        "import threading\n"
        "class Mgr:\n"
        "    def __init__(self):\n"
        "        self.lock = threading.Lock()\n"
        "    def do(self):\n"
        "        with self.lock:\n"
        "            pass\n"
    )

    def test_recorded_acquiring_server_lock_fires(self, tmp_path):
        diags = conc_lint(tmp_path, {
            "server_mgr.py": self.SERVER,
            "session.py": (
                "from server_mgr import Mgr\n"
                "class Sess:\n"
                "    @recorded\n"
                "    def act(self, m: Mgr):\n"
                "        m.do()\n"
            ),
        })
        assert [d.code for d in diags] == ["CONC005"]
        assert "'act'" in diags[0].message

    def test_recorded_without_server_lock_clean(self, tmp_path):
        diags = conc_lint(tmp_path, {
            "server_mgr.py": self.SERVER,
            "session.py": (
                "class Sess:\n"
                "    @recorded\n"
                "    def act(self):\n"
                "        return 1\n"
            ),
        })
        assert diags == []


# -- the static model itself ---------------------------------------------------

class TestStaticModel:
    def test_make_lock_literal_names_win(self, tmp_path):
        model = model_of(tmp_path, {"m.py": (
            "from repro.analysis.concurrency.runtime import make_lock\n"
            "GLOBAL = make_lock('mod.GLOBAL')\n"
            "class H:\n"
            "    def __init__(self):\n"
            "        self.mutex = make_lock('H.renamed')\n"
        )})
        assert "mod.GLOBAL" in model.locks
        assert "H.renamed" in model.locks
        assert model.locks["H.renamed"].kind == "Lock"

    def test_dataclass_field_lock(self, tmp_path):
        model = model_of(tmp_path, {"m.py": (
            "import threading\n"
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Slot:\n"
            "    lock: threading.Lock = field(default_factory=threading.Lock)\n"
        )})
        assert "Slot.lock" in model.locks

    def test_unparseable_annotation_degrades_gracefully(self, tmp_path):
        # syntactically valid file, but the *string annotation* is not
        # parseable as a type — the model must build, not raise.
        model = model_of(tmp_path, {"m.py": (
            "import threading\n"
            "class K:\n"
            "    def __init__(self, dep: 'Foo['):\n"
            "        self.lock = threading.Lock()\n"
            "        self.dep = dep\n"
            "    def f(self):\n"
            "        with self.lock:\n"
            "            self.dep.anything()\n"
        )})
        assert "K.lock" in model.locks

    def test_src_tree_has_expected_locks_and_edges(self):
        model = build_model_from_paths([SRC])
        names = model.lock_names()
        for expected in (
            "SessionManager._registry_lock",
            "SessionManager._counters_lock",
            "_Entry.lock",
            "CacheTiers._flight_master",
            "CacheTiers.<flight>",
            "LRUCache._lock",
            "Metrics._lock",
            "SessionRecorder._lock",
            "LoadController._lock",
        ):
            assert expected in names, expected
        edges = model.edge_set()
        assert ("SessionManager._registry_lock",
                "SessionManager._counters_lock") in edges
        assert find_cycle(edges) is None

    def test_server_locks_classified(self):
        model = build_model_from_paths([SRC])
        server = model.server_locks()
        assert "SessionManager._registry_lock" in server
        assert "LRUCache._lock" not in server


# -- the src/ tree is conc-clean (tier-1 gate) ---------------------------------

class TestSrcCleanGate:
    def test_src_tree_conc_clean(self):
        linter = Linter(file_rules=(), project_rules=CONC_RULES,
                        stale_prefixes=("CONC",))
        assert linter.run([SRC / "repro"]) == []

    def test_cli_entrypoint_exits_zero(self, capsys):
        from repro.analysis.concurrency.rules import main

        assert main([str(SRC)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("conc: clean")

    def test_cli_entrypoint_reports_findings(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text(
            "import threading, time\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "    def f(self):\n"
            "        with self.lock:\n"
            "            time.sleep(0.1)\n"
        )
        from repro.analysis.concurrency.rules import main

        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "CONC002" in out and "finding" in out


# -- runtime: tracked locks + Eraser locksets ----------------------------------

class TestFindCycle:
    def test_finds_cycle(self):
        cycle = find_cycle([("a", "b"), ("b", "c"), ("c", "a")])
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b", "c"}

    def test_acyclic_returns_none(self):
        assert find_cycle([("a", "b"), ("b", "c"), ("a", "c")]) is None


class TestTrackedLocks:
    def test_order_edges_recorded(self):
        tracker = LockTracker()
        with RACECHECK.overridden(enabled=True):
            a = TrackedLock("A", tracker=tracker)
            b = TrackedLock("B", tracker=tracker)
            with a:
                with b:
                    pass
        assert tracker.edges == {("A", "B"): 1}
        assert tracker.acquisitions == {"A": 1, "B": 1}
        assert tracker.held() == ()

    def test_same_name_self_edge_skipped(self):
        # two instances of one class share a lock *name*; nesting them is
        # not a self-deadlock and must not record a self-edge.
        tracker = LockTracker()
        with RACECHECK.overridden(enabled=True):
            a1 = TrackedLock("LRUCache._lock", tracker=tracker)
            a2 = TrackedLock("LRUCache._lock", tracker=tracker)
            with a1:
                with a2:
                    pass
        assert tracker.edges == {}

    def test_rlock_reentry_records_once(self):
        tracker = LockTracker()
        with RACECHECK.overridden(enabled=True):
            r = TrackedRLock("R", tracker=tracker)
            b = TrackedLock("B", tracker=tracker)
            with r:
                with r:
                    with b:
                        pass
        assert tracker.edges == {("R", "B"): 1}
        assert tracker.acquisitions["R"] == 1

    def test_factories_latch_on_config(self):
        with RACECHECK.overridden(enabled=True):
            assert isinstance(make_lock("X"), TrackedLock)
            assert isinstance(make_rlock("X"), TrackedRLock)
        with RACECHECK.overridden(enabled=False):
            assert isinstance(make_lock("X"), type(threading.Lock()))


class TestCheckAgainst:
    def test_consistent_order_passes(self):
        tracker = LockTracker()
        tracker.edges = {("A", "B"): 3}
        assert tracker.check_against({("A", "B"), ("B", "C")}) == []

    def test_inversion_detected(self):
        tracker = LockTracker()
        tracker.edges = {("B", "A"): 1}
        problems = tracker.check_against({("A", "B")})
        assert problems and "inverts" in problems[0]

    def test_observed_cycle_detected(self):
        tracker = LockTracker()
        tracker.edges = {("A", "B"): 1, ("B", "A"): 1}
        problems = tracker.check_against(set(), static_locks=("A", "B"))
        assert problems and "cyclic" in problems[0]

    def test_unknown_locks_ignored(self):
        # test scaffolding locks the model never heard of don't count.
        tracker = LockTracker()
        tracker.edges = {("test1", "test2"): 1, ("test2", "test1"): 1}
        assert tracker.check_against({("A", "B")}) == []


class TestEraserLocksets:
    def test_single_thread_unlocked_is_fine(self):
        tracker = LockTracker()
        for _ in range(3):
            tracker.note_access("F.x", owner=None)
        assert tracker.violations == []

    def test_two_thread_unguarded_write_violates(self):
        tracker = LockTracker()
        tracker.note_access("F.x", owner=None)
        run_thread(lambda: tracker.note_access("F.x", owner=None))
        assert len(tracker.violations) == 1
        assert "F.x" in tracker.violations[0]
        # reported once per field, not per access:
        run_thread(lambda: tracker.note_access("F.x", owner=None))
        assert len(tracker.violations) == 1

    def test_consistent_lock_is_clean(self):
        tracker = LockTracker()

        def guarded_access():
            tracker.note_acquire("L")
            tracker.note_access("F.y", owner=None)
            tracker.note_release("L")

        guarded_access()
        run_thread(guarded_access)
        assert tracker.violations == []

    def test_initialization_handoff_allowed(self):
        # Eraser refinement: unlocked writes before publication are fine
        # as long as every post-publication access holds the lock.
        tracker = LockTracker()
        tracker.note_access("F.z", owner=None)          # init, no lock
        tracker.note_access("F.z", owner=None)          # still same thread

        def guarded():
            tracker.note_acquire("L")
            tracker.note_access("F.z", owner=None)
            tracker.note_release("L")

        tracker.note_acquire("L")                        # publisher locks too
        tracker.note_access("F.z", owner=None)
        tracker.note_release("L")
        run_thread(guarded)
        assert tracker.violations == []

    def test_reads_never_escalate(self):
        tracker = LockTracker()
        tracker.note_access("F.r", owner=None, write=False)
        run_thread(lambda: tracker.note_access("F.r", owner=None, write=False))
        assert tracker.violations == []

    def test_reset_clears_everything(self):
        tracker = LockTracker()
        tracker.note_acquire("A")
        tracker.note_access("F.x", owner=None)
        tracker.note_release("A")
        tracker.reset()
        assert tracker.stats() == {
            "locks": 0, "acquisitions": 0, "edges": 0,
            "fields": 0, "violations": 0,
        }


class TestStatsLine:
    def test_off_line(self):
        with RACECHECK.overridden(enabled=False):
            assert conc_stats_line() == "conc: racecheck off"

    def test_on_line_uses_tracker(self):
        tracker = LockTracker()
        tracker.note_acquire("A")
        tracker.note_release("A")
        with RACECHECK.overridden(enabled=True):
            line = conc_stats_line(tracker)
        assert line.startswith("conc: racecheck on")
        assert "1 locks" in line and "1 acquisitions" in line


# -- lint engine: suppression parsing + stale reporting ------------------------

class TestSuppressionParsing:
    def test_multiple_codes_with_trailing_comment(self, tmp_path):
        path = tmp_path / "s.py"
        path.write_text(
            "x = 1  # lint: allow=REPRO001, CONC002 -- justified, see PR 10\n"
        )
        sf = parse_source(path)
        assert sf.is_suppressed("REPRO001", 1)
        assert sf.is_suppressed("CONC002", 1)
        assert not sf.is_suppressed("REPRO002", 1)

    def test_bare_allow_suppresses_everything(self, tmp_path):
        path = tmp_path / "s.py"
        path.write_text("x = 1  # lint: allow\n")
        sf = parse_source(path)
        assert sf.suppressions[1] is ALL_CODES
        assert sf.is_suppressed("ANY999", 1)

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        path = tmp_path / "s.py"
        path.write_text(
            '"""Docs: write `# lint: allow=REPRO003` on the line."""\n'
            "x = 1\n"
        )
        sf = parse_source(path)
        assert sf.suppressions == {}


class TestStaleSuppressions:
    def test_stale_named_allow_warns(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1  # lint: allow=CONC001\n")
        linter = Linter(file_rules=(), project_rules=CONC_RULES,
                        stale_prefixes=("CONC",))
        diags = linter.run([tmp_path])
        assert [d.code for d in diags] == ["LINT001"]
        assert "CONC001" in diags[0].message
        assert diags[0].severity == "warning"

    def test_bare_allow_never_stale(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1  # lint: allow\n")
        linter = Linter(file_rules=(), project_rules=CONC_RULES,
                        stale_prefixes=("CONC",))
        assert linter.run([tmp_path]) == []

    def test_foreign_prefix_not_policed(self, tmp_path):
        # a REPRO allow is invisible to the CONC run (and vice versa):
        # each family only polices codes its own rules could consume.
        (tmp_path / "m.py").write_text("x = 1  # lint: allow=REPRO003\n")
        linter = Linter(file_rules=(), project_rules=CONC_RULES,
                        stale_prefixes=("CONC",))
        assert linter.run([tmp_path]) == []

    def test_consumed_allow_not_stale(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "import threading, time\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "    def f(self):\n"
            "        with self.lock:\n"
            "            time.sleep(0.1)  # lint: allow=CONC002 -- fixture\n"
        )
        linter = Linter(file_rules=(), project_rules=CONC_RULES,
                        stale_prefixes=("CONC",))
        assert linter.run([tmp_path]) == []

    def test_repro_stale_allow_warns_in_default_linter(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1  # lint: allow=REPRO005\n")
        diags = Linter().run([tmp_path])
        assert [d.code for d in diags] == ["LINT001"]


# -- REPRO006: UNRECORDED methods stay out of the log ---------------------------

class TestRepro006:
    def test_registered_recorded_method_clean(self, tmp_path):
        from repro.durability.actions import recordable_actions

        name = recordable_actions()[0]
        (tmp_path / "session.py").write_text(
            "class CopyCatSession:\n"
            "    @recorded\n"
            f"    def {name}(self):\n"
            "        return 1\n"
        )
        assert Linter().run([tmp_path]) == []

    def test_unrecorded_listed_method_fires(self, tmp_path):
        from repro.durability.actions import UNRECORDED

        name = UNRECORDED[0]
        (tmp_path / "session.py").write_text(
            "class CopyCatSession:\n"
            "    @recorded\n"
            f"    def {name}(self):\n"
            "        return 1\n"
        )
        diags = Linter().run([tmp_path])
        assert [d.code for d in diags] == ["REPRO006"]
        assert "UNRECORDED" in diags[0].message

    def test_real_session_module_is_clean(self):
        # the shipped CopyCatSession records none of the UNRECORDED methods.
        assert Linter().run([SRC / "repro" / "core" / "session.py"]) == []
