"""Tests for the static-analysis subsystem (repro.analysis).

Level 1 (plan analyzer): every check has a positive case (a malformed
plan is rejected with a precise diagnostic) and the clean plans the
integration learner legitimately produces pass untouched — enforced
globally by the ``REPRO_ANALYSIS=0`` parity test at the bottom.

Level 2 (repo linter): every REPRO rule has a firing case, a suppressed
case, and the whole ``src/`` tree must lint clean.
"""

from __future__ import annotations

import gc
from pathlib import Path

import pytest

from repro import CopyCatSession, build_scenario, obs
from repro.analysis import (
    ANALYSIS,
    AnalysisReport,
    PlanAnalyzer,
    predicate_attributes,
)
from repro.analysis.lint import Linter, parse_source
from repro.analysis.lint.engine import main as lint_main
from repro.errors import CopyCatError, PlanAnalysisError
from repro.learning.integration.source_graph import SourceGraph, SourceNode
from repro.obs.registry import declared_samples, is_declared
from repro.substrate.documents import Browser
from repro.substrate.relational import (
    AggSpec,
    Catalog,
    DependentJoin,
    Distinct,
    GroupBy,
    Join,
    Limit,
    Project,
    RecordLinkJoin,
    Relation,
    Rename,
    RowLinker,
    Scan,
    Select,
    Union,
    eq,
    schema_of,
)
from repro.substrate.relational.schema import BindingPattern
from repro.substrate.services.base import TableBackedService

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def catalog():
    cat = Catalog()
    shelters = Relation("S", schema_of("Name", "City"))
    shelters.extend([["Monarch", "Creek"], ["Tedder", "Park"], ["Norcrest", "Creek"]])
    cat.add_relation(shelters)
    damage = Relation("D", schema_of("City", "Damage"))
    damage.extend([["Creek", "minor"], ["Park", "severe"]])
    cat.add_relation(damage)
    zips = TableBackedService(
        "Z",
        schema_of("City", "Zip"),
        BindingPattern(inputs=("City",)),
        [{"City": "Creek", "Zip": "33063"}, {"City": "Park", "Zip": "33309"}],
    )
    cat.add_service(zips)
    return cat


@pytest.fixture()
def analyzer(catalog):
    return PlanAnalyzer(catalog)


def codes(report: AnalysisReport) -> list[str]:
    return [d.code for d in report.diagnostics]


class PlainLinker(RowLinker):
    """A linker with no derivable blocking keys (block pairs stay None)."""

    def score(self, left, right):  # pragma: no cover - never evaluated
        return 0.0


class TestAnalysisConfig:
    def test_disabled_restores(self):
        assert ANALYSIS.enabled
        with ANALYSIS.disabled():
            assert not ANALYSIS.enabled
        assert ANALYSIS.enabled

    def test_overridden_knob_and_restore_on_error(self):
        with pytest.raises(RuntimeError):
            with ANALYSIS.overridden(max_union_parts=2):
                assert ANALYSIS.max_union_parts == 2
                raise RuntimeError("boom")
        assert ANALYSIS.max_union_parts != 2

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError):
            with ANALYSIS.overridden(nope=1):
                pass  # pragma: no cover


class TestPredicateAttributes:
    def test_collects_through_combinators(self):
        from repro.substrate.relational.predicates import And, Not, NotNull

        pred = And((eq("A", 1), Not(NotNull("B"))))
        assert predicate_attributes(pred) == {"A", "B"}


class TestPlanAnalyzerClean:
    def test_valid_plans_pass(self, analyzer):
        plans = [
            Scan("S"),
            Select(Scan("D"), eq("Damage", "minor")),
            Project(Join(Scan("S"), Scan("D"), (("City", "City"),)), ("Name", "Damage")),
            Rename(Scan("S"), (("Name", "Shelter"),)),
            DependentJoin(Scan("S"), "Z", (("City", "City"),)),
            Union((Project(Scan("S"), ("City",)), Project(Scan("D"), ("City",)))),
            Distinct(Limit(Scan("S"), 2)),
            GroupBy(Scan("D"), ("Damage",), (AggSpec("count", "City", "n"),)),
        ]
        for plan in plans:
            report = analyzer.check(plan)
            assert report.diagnostics == (), plan.describe()

    def test_report_render_clean(self, analyzer):
        assert analyzer.check(Scan("S")).render() == "analysis: clean"


class TestPlanAnalyzerErrors:
    def test_unknown_source(self, analyzer):
        report = analyzer.check(Scan("Missing"))
        assert codes(report) == ["PLAN001"]
        assert "Missing" in report.errors[0].message
        assert "catalog has" in report.errors[0].message

    def test_scan_of_service(self, analyzer):
        report = analyzer.check(Scan("Z"))
        assert codes(report) == ["PLAN001"]
        assert "DependentJoin" in report.errors[0].message

    def test_bad_projection(self, analyzer):
        report = analyzer.check(Project(Scan("S"), ("Name", "Zip")))
        assert codes(report) == ["PLAN002"]
        assert "'Zip'" in report.errors[0].message
        assert "Name, City" in report.errors[0].message  # available attrs listed

    def test_bad_selection_predicate(self, analyzer):
        report = analyzer.check(Select(Scan("S"), eq("Damage", "minor")))
        assert codes(report) == ["PLAN002"]

    def test_bad_join_keys_both_sides(self, analyzer):
        report = analyzer.check(Join(Scan("S"), Scan("D"), (("Zip", "Zip"),)))
        assert codes(report) == ["PLAN002", "PLAN002"]

    def test_bad_rename(self, analyzer):
        report = analyzer.check(Rename(Scan("S"), (("Street", "Road"),)))
        assert codes(report) == ["PLAN002"]

    def test_error_above_error_does_not_cascade(self, analyzer):
        # The projection over an unknown source reports only the scan
        # problem: no schema means the projection check is skipped.
        report = analyzer.check(Project(Scan("Missing"), ("Name",)))
        assert codes(report) == ["PLAN001"]

    def test_dependent_join_on_relation(self, analyzer):
        report = analyzer.check(DependentJoin(Scan("S"), "D", (("City", "City"),)))
        assert codes(report) == ["PLAN001"]
        assert "not a service" in report.errors[0].message

    def test_dependent_join_unbound_input(self, analyzer):
        report = analyzer.check(DependentJoin(Scan("S"), "Z", ()))
        assert "PLAN003" in codes(report)
        assert "'City'" in report.errors[0].message

    def test_dependent_join_extra_binding_warns(self, analyzer):
        plan = DependentJoin(Scan("S"), "Z", (("City", "City"), ("Bogus", "Name")))
        report = analyzer.check(plan)
        assert report.ok
        assert [d.code for d in report.warnings] == ["PLAN003"]

    def test_dependent_join_binding_from_missing_attr(self, analyzer):
        report = analyzer.check(DependentJoin(Scan("D"), "Z", (("City", "Town"),)))
        assert codes(report) == ["PLAN002"]

    def test_groupby_unknown_key_and_aggregate(self, analyzer):
        plan = GroupBy(Scan("S"), ("Zip",), (AggSpec("count", "Damage", "n"),))
        report = analyzer.check(plan)
        assert codes(report) == ["PLAN002", "PLAN002"]

    def test_multiple_errors_all_reported(self, analyzer):
        plan = Join(Project(Scan("S"), ("Nope",)), Scan("Missing"), (("City", "City"),))
        found = codes(analyzer.check(plan))
        assert "PLAN001" in found and "PLAN002" in found


class TestGraphBindingCrossCheck:
    def test_graph_declared_inputs_enforced(self, catalog):
        graph = SourceGraph()
        graph.add_node(SourceNode(
            name="Z", schema=schema_of("City", "State", "Zip"),
            is_service=True, inputs=("City", "State"),
        ))
        analyzer = PlanAnalyzer(catalog, graph=graph)
        # The catalog's binding pattern (City) is satisfied, but the source
        # graph says the node also needs State: the stricter view wins.
        report = analyzer.check(DependentJoin(Scan("S"), "Z", (("City", "City"),)))
        assert codes(report) == ["PLAN003"]
        assert "source-graph" in report.errors[0].message

    def test_graph_without_node_is_ignored(self, catalog):
        analyzer = PlanAnalyzer(catalog, graph=SourceGraph())
        report = analyzer.check(DependentJoin(Scan("S"), "Z", (("City", "City"),)))
        assert report.diagnostics == ()


class TestPlanAnalyzerWarnings:
    def test_over_wide_union(self, analyzer):
        parts = tuple(Project(Scan("S"), ("City",)) for _ in range(3))
        with ANALYSIS.overridden(max_union_parts=2):
            report = analyzer.check(Union(parts))
        assert report.ok
        assert [d.code for d in report.warnings] == ["PLAN102"]

    def test_unblocked_link_join_blowup(self, analyzer):
        plan = RecordLinkJoin(Scan("S"), Scan("D"), PlainLinker())
        with ANALYSIS.overridden(max_link_pairs=1):
            report = analyzer.check(plan)
        assert report.ok
        assert [d.code for d in report.warnings] == ["PLAN101"]
        # Under the default budget the same plan is fine (3x2 pairs).
        assert analyzer.check(plan).diagnostics == ()

    def test_degenerate_link_threshold(self, analyzer):
        plan = RecordLinkJoin(Scan("S"), Scan("D"), PlainLinker(), threshold=0.0)
        report = analyzer.check(plan)
        assert [d.code for d in report.warnings] == ["PLAN103"]

    def test_blocking_key_missing_warns(self, analyzer):
        from repro.linking.linker import LearnedLinker
        from repro.linking.similarity import FieldPair

        plan = RecordLinkJoin(Scan("S"), Scan("D"), LearnedLinker([FieldPair("Name", "Road")]))
        report = analyzer.check(plan)
        assert report.ok
        assert {d.code for d in report.warnings} == {"PLAN002"}

    def test_nonpositive_limit(self, analyzer):
        report = analyzer.check(Limit(Scan("S"), 0))
        assert [d.code for d in report.warnings] == ["PLAN103"]


class TestProvenanceSoundness:
    def test_lying_collect_sources_detected(self, catalog):
        # Keeps the name "Scan", so the analyzer dispatches it as a Scan.
        def lying_collect(self, out):
            out.add("Ghost")  # lies: hides the real source, invents one

        SneakyScan = type("Scan", (Scan,), {"_collect_sources": lying_collect})
        try:
            report = PlanAnalyzer(catalog).check(SneakyScan("S"))
            assert codes(report) == ["PLAN004", "PLAN004"]
            messages = " ".join(d.message for d in report.errors)
            assert "'S'" in messages and "'Ghost'" in messages
        finally:
            del SneakyScan
            gc.collect()


class TestUnregisteredNodeTypes:
    def test_unknown_node_reports_both_gaps(self, catalog):
        # A new class name has no analyzer check: one PLAN005, and the
        # analyzer still descends into the children it can check.
        class Mystery(Distinct):
            pass

        try:
            report = PlanAnalyzer(catalog).check(Mystery(Project(Scan("S"), ("Zip",))))
            assert codes(report) == ["PLAN005", "PLAN002"]
            assert "'Mystery'" in report.errors[0].message
        finally:
            del Mystery
            gc.collect()


class TestEngineIntegration:
    def test_engine_rejects_malformed_plan(self, catalog):
        from repro.core.engine import QueryEngine

        engine = QueryEngine(catalog)
        with pytest.raises(PlanAnalysisError) as exc:
            engine.run(Project(Scan("S"), ("Name", "Zip")))
        assert any(d.code == "PLAN002" for d in exc.value.diagnostics)
        assert "'Zip'" in str(exc.value)

    def test_disabled_reproduces_runtime_error(self, catalog):
        from repro.core.engine import QueryEngine

        engine = QueryEngine(catalog)
        with ANALYSIS.disabled():
            with pytest.raises(CopyCatError) as exc:
                engine.run(Project(Scan("S"), ("Name", "Zip")))
        assert not isinstance(exc.value, PlanAnalysisError)

    def test_verdicts_memoized_on_fingerprint(self, catalog):
        from repro.core.engine import QueryEngine

        engine = QueryEngine(catalog)
        plan = Join(Scan("S"), Scan("D"), (("City", "City"),))
        engine.run(plan)
        engine.run(plan)
        assert engine._analysis_memo.hits >= 1

    def test_graph_supplier_consulted(self, catalog):
        from repro.core.engine import QueryEngine

        graph = SourceGraph()
        graph.add_node(SourceNode(
            name="Z", schema=schema_of("City", "State", "Zip"),
            is_service=True, inputs=("City", "State"),
        ))
        engine = QueryEngine(catalog)
        engine.graph_supplier = lambda: graph
        with pytest.raises(PlanAnalysisError):
            engine.run(DependentJoin(Scan("S"), "Z", (("City", "City"),)))

    def test_metrics_and_stats_line(self, catalog):
        from repro.core.engine import QueryEngine

        obs.reset()
        obs.enable()
        try:
            engine = QueryEngine(catalog)
            engine.run(Limit(Scan("S"), 0))  # warning, not an error
            assert obs.METRICS.counter_value("analysis.plans_checked") == 1
            assert obs.METRICS.counter_value("analysis.warnings") == 1
            line = next(line for line in obs.render_summary() if line.startswith("analysis:"))
            assert " plans_checked=1 " in line and line.endswith(" warnings=1")
        finally:
            obs.disable()
            obs.reset()


def _build_session():
    scenario = build_scenario(seed=5, n_shelters=8, noise=1)
    session = CopyCatSession(catalog=scenario.catalog, seed=1)
    browser = Browser(session.clipboard, scenario.website)
    browser.navigate(scenario.list_urls()[0])
    listing = browser.page.dom.find("table", "listing")
    rows = [n for n in listing.children if "record" in n.css_classes]
    browser.copy_record(rows[0], "Shelters")
    session.paste()
    session.accept_row_suggestions()
    for index, name in enumerate(["Name", "Street", "City"]):
        session.label_column(index, name)
    session.commit_source()
    session.start_integration("Shelters")
    return session


def _suggestion_trace(session):
    first = [s.describe() for s in session.column_suggestions(k=4)]
    again = [s.describe() for s in session.column_suggestions(k=4)]  # cached batch
    return first, again


class TestAnalysisParity:
    def test_disabled_is_bit_for_bit_identical(self):
        """REPRO_ANALYSIS=0 must reproduce pre-analysis behavior exactly,
        including results served from the suggestion/plan caches."""
        enabled_first, enabled_again = _suggestion_trace(_build_session())
        with ANALYSIS.disabled():
            disabled_first, disabled_again = _suggestion_trace(_build_session())
        assert enabled_first == disabled_first
        assert enabled_again == disabled_again
        assert enabled_first == enabled_again  # the cached batch is identical


# -- Level 2: the repo linter -------------------------------------------------

def lint_file(tmp_path, text, name="sample.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return Linter().run([path])


class TestLintSuppression:
    def test_parse_suppressions(self, tmp_path):
        path = tmp_path / "s.py"
        path.write_text(
            "x = 1  # lint: allow\n"
            "y = 2  # lint: allow=REPRO001, REPRO003 justified because reasons\n"
        )
        sf = parse_source(path)
        assert sf.is_suppressed("REPRO999", 1)
        assert sf.is_suppressed("REPRO001", 2) and sf.is_suppressed("REPRO003", 2)
        assert not sf.is_suppressed("REPRO002", 2)


class TestRepro001EnvReads:
    def test_fires_outside_config(self, tmp_path):
        diags = lint_file(tmp_path, "import os\nX = os.environ.get('A')\n")
        assert [d.code for d in diags] == ["REPRO001"]
        assert diags[0].path.endswith("sample.py:2")

    def test_from_import_alias_detected(self, tmp_path):
        diags = lint_file(tmp_path, "from os import getenv\nX = getenv('A')\n")
        assert [d.code for d in diags] == ["REPRO001"]

    def test_config_module_exempt(self, tmp_path):
        # Only the knobs module may read the environment; a layer's
        # config.py declares Knobs instead, and a stray knobs.py elsewhere
        # is not exempt either.
        text = "import os\nX = os.environ.get('A')\n"
        for name in ("config.py", "knobs.py", "notrepro/util/knobs.py"):
            assert [d.code for d in lint_file(tmp_path, text, name=name)] == ["REPRO001"]
        assert lint_file(tmp_path, text, name="repro/util/knobs.py") == []

    def test_suppressed(self, tmp_path):
        diags = lint_file(
            tmp_path, "import os\nX = os.environ.get('A')  # lint: allow=REPRO001\n"
        )
        assert diags == []


class TestRepro002MetricNames:
    def test_undeclared_literal_fires(self, tmp_path):
        diags = lint_file(tmp_path, "METRICS.inc('totally.bogus')\n")
        assert [d.code for d in diags] == ["REPRO002"]
        assert "totally.bogus" in diags[0].message

    def test_declared_literal_and_wildcards_pass(self, tmp_path):
        text = (
            "METRICS.inc('cache.plan.hits')\n"
            "METRICS.observe('engine.run_ms', 1.0)\n"
            "METRICS.inc('service.' + name + '.calls')\n"
            "METRICS.inc(f'resilience.breaker.{name}.opened')\n"
        )
        assert lint_file(tmp_path, text) == []

    def test_dynamic_name_with_no_declared_shape_fires(self, tmp_path):
        diags = lint_file(tmp_path, "METRICS.inc('nope.' + name + '.calls')\n")
        assert [d.code for d in diags] == ["REPRO002"]

    def test_fully_dynamic_name_skipped(self, tmp_path):
        assert lint_file(tmp_path, "METRICS.inc(name)\n") == []

    def test_registry_helpers(self):
        assert is_declared("cache.plan.hits")
        assert is_declared("service.Geocoder.calls")
        assert not is_declared("service.Geo.coder.calls")  # * is one segment
        assert not is_declared("totally.bogus")
        assert "service.X.calls" in declared_samples()


class TestRepro003OverbroadExcept:
    def test_silent_swallow_fires(self, tmp_path):
        text = "try:\n    x()\nexcept Exception:\n    pass\n"
        diags = lint_file(tmp_path, text)
        assert [d.code for d in diags] == ["REPRO003"]

    def test_bare_except_fires(self, tmp_path):
        diags = lint_file(tmp_path, "try:\n    x()\nexcept:\n    y = 1\n")
        assert [d.code for d in diags] == ["REPRO003"]

    def test_reraise_passes(self, tmp_path):
        text = "try:\n    x()\nexcept Exception:\n    raise\n"
        assert lint_file(tmp_path, text) == []

    def test_recording_failure_passes(self, tmp_path):
        text = "try:\n    x()\nexcept Exception:\n    METRICS.inc('cache.plan.misses')\n"
        assert lint_file(tmp_path, text) == []

    def test_narrow_except_passes(self, tmp_path):
        text = "try:\n    x()\nexcept ValueError:\n    pass\n"
        assert lint_file(tmp_path, text) == []

    def test_suppressed_with_justification(self, tmp_path):
        text = (
            "try:\n    x()\n"
            "except Exception:  # lint: allow=REPRO003 -- probing optional dep\n"
            "    pass\n"
        )
        assert lint_file(tmp_path, text) == []


class TestRepro005Determinism:
    def test_unseeded_random_fires(self, tmp_path):
        diags = lint_file(tmp_path, "import random\nx = random.random()\n")
        assert [d.code for d in diags] == ["REPRO005"]

    def test_argless_random_instance_fires(self, tmp_path):
        diags = lint_file(tmp_path, "import random\nr = random.Random()\n")
        assert [d.code for d in diags] == ["REPRO005"]

    def test_seeded_random_instance_passes(self, tmp_path):
        assert lint_file(tmp_path, "import random\nr = random.Random(7)\n") == []

    def test_wall_clock_fires(self, tmp_path):
        diags = lint_file(
            tmp_path,
            "import time, datetime\nt = time.time()\nd = datetime.now()\n",
        )
        assert [d.code for d in diags] == ["REPRO005", "REPRO005"]

    def test_rng_module_exempt(self, tmp_path):
        text = "import random\nx = random.random()\n"
        assert lint_file(tmp_path, text, name="rng.py") == []


class TestLinterDriver:
    def test_unparseable_file_reported(self, tmp_path):
        diags = lint_file(tmp_path, "def broken(:\n")
        assert [d.code for d in diags] == ["REPRO000"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(clean)]) == 0
        assert "lint: clean" in capsys.readouterr().out
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import os\nX = os.environ.get('A')\n")
        assert lint_main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "REPRO001" in out and "finding(s)" in out

    def test_src_tree_lints_clean(self):
        """The invariant gate itself: the repo's own source must pass."""
        assert Linter().run([SRC / "repro"]) == []
