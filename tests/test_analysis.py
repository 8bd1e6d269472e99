"""Tests for the static-analysis subsystem.

Plan checks: every PLAN code a plan can fail while it compiles has a
positive case — a malformed plan is rejected by ``engine.run`` with a
precise diagnostic before any of it executes (no scan is read) — and the
clean plans pass untouched. PLAN004 is a property over generated plans
(``tests/test_property_based.py``).

Repo linter: every REPRO rule has a firing case, a suppressed case, and
the whole ``src/`` tree must lint clean.
"""

from __future__ import annotations

import gc
from pathlib import Path

import pytest

from repro import obs
from repro.analysis.lint import Linter, parse_source
from repro.analysis.lint.engine import main as lint_main
from repro.core.engine import QueryEngine
from repro.errors import PlanAnalysisError
from repro.obs.registry import declared_samples, is_declared
from repro.substrate.relational import (
    AggSpec,
    Catalog,
    DependentJoin,
    Distinct,
    GroupBy,
    Join,
    Limit,
    Project,
    Relation,
    Rename,
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


def rejected(catalog, plan):
    """The diagnostic ``engine.run(plan)`` fails with; nothing executed."""
    engine = QueryEngine(catalog)
    with pytest.raises(PlanAnalysisError) as exc:
        engine.run(plan)
    assert len(engine._evaluator.tiers.scan) == 0  # no scan thunk ran
    assert str(exc.value) == exc.value.diagnostic.render()
    return exc.value.diagnostic


class TestPlanAnalyzerClean:
    def test_valid_plans_pass(self, catalog):
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
        engine = QueryEngine(catalog)
        for plan in plans:
            result = engine.run(plan)
            assert result.schema == plan.output_schema(catalog), plan.describe()


class TestPlanAnalyzerErrors:
    def test_unknown_source(self, catalog):
        diagnostic = rejected(catalog, Scan("Missing"))
        assert diagnostic.code == "PLAN001"
        assert "Missing" in diagnostic.message
        assert "catalog has" in diagnostic.message

    def test_scan_of_service(self, catalog):
        diagnostic = rejected(catalog, Scan("Z"))
        assert diagnostic.code == "PLAN001"
        assert "DependentJoin" in diagnostic.message

    def test_bad_projection(self, catalog):
        diagnostic = rejected(catalog, Project(Scan("S"), ("Name", "Zip")))
        assert diagnostic.code == "PLAN002"
        assert diagnostic.operator == "Project[Name, Zip]"
        assert "'Zip'" in diagnostic.message
        assert "available: Name, City" in diagnostic.message

    def test_bad_selection_predicate(self, catalog):
        diagnostic = rejected(catalog, Select(Scan("S"), eq("Damage", "minor")))
        assert diagnostic.code == "PLAN002"
        assert "'Damage'" in diagnostic.message

    def test_bad_join_keys_both_sides(self, catalog):
        # Both keys are missing; the left side is checked first.
        diagnostic = rejected(catalog, Join(Scan("S"), Scan("D"), (("Zip", "Zip"),)))
        assert diagnostic.code == "PLAN002"
        assert "join key (left side)" in diagnostic.message

    def test_bad_rename(self, catalog):
        # Schema.rename ignores unknown names; the schema rule does not.
        plan = Rename(Scan("S"), (("Street", "Road"),))
        diagnostic = rejected(catalog, plan)
        assert diagnostic.code == "PLAN002"
        assert "'Street'" in diagnostic.message
        with pytest.raises(PlanAnalysisError):
            plan.output_schema(catalog)

    def test_error_above_error_does_not_cascade(self, catalog):
        # The projection over an unknown source reports only the scan
        # problem: the walk stops at the first node that fails.
        diagnostic = rejected(catalog, Project(Scan("Missing"), ("Name",)))
        assert diagnostic.code == "PLAN001"

    def test_dependent_join_on_relation(self, catalog):
        diagnostic = rejected(catalog, DependentJoin(Scan("S"), "D", (("City", "City"),)))
        assert diagnostic.code == "PLAN001"
        assert "not a service" in diagnostic.message

    def test_dependent_join_unbound_input(self, catalog):
        diagnostic = rejected(catalog, DependentJoin(Scan("S"), "Z", ()))
        assert diagnostic.code == "PLAN003"
        assert "'City'" in diagnostic.message

    def test_dependent_join_binding_from_missing_attr(self, catalog):
        diagnostic = rejected(catalog, DependentJoin(Scan("D"), "Z", (("City", "Town"),)))
        assert diagnostic.code == "PLAN002"
        assert "'Town'" in diagnostic.message

    def test_groupby_unknown_key_and_aggregate(self, catalog):
        # Both are missing; the grouping key is checked first.
        plan = GroupBy(Scan("S"), ("Zip",), (AggSpec("count", "Damage", "n"),))
        diagnostic = rejected(catalog, plan)
        assert diagnostic.code == "PLAN002"
        assert "grouping key references unknown attribute 'Zip'" in diagnostic.message

    def test_multiple_errors_all_reported(self, catalog):
        # Only the first error is reported: children compile bottom-up,
        # left before right, so the projection fails before the scan.
        plan = Join(Project(Scan("S"), ("Nope",)), Scan("Missing"), (("City", "City"),))
        diagnostic = rejected(catalog, plan)
        assert diagnostic.code == "PLAN002"
        assert "'Nope'" in diagnostic.message


class TestUnregisteredNodeTypes:
    def test_unknown_node_reports_both_gaps(self, catalog):
        # A new class name has no compiler: PLAN005, found before its
        # (also malformed) child is compiled.
        class Mystery(Distinct):
            pass

        try:
            diagnostic = rejected(catalog, Mystery(Project(Scan("S"), ("Zip",))))
            assert diagnostic.code == "PLAN005"
            assert "'Mystery'" in diagnostic.message
        finally:
            del Mystery
            gc.collect()


class TestEngineIntegration:
    def test_engine_rejects_malformed_plan(self, catalog):
        engine = QueryEngine(catalog)
        with pytest.raises(PlanAnalysisError) as exc:
            engine.run(Project(Scan("S"), ("Name", "Zip")))
        assert exc.value.diagnostic.code == "PLAN002"
        assert "'Zip'" in str(exc.value)

    def test_metrics_and_stats_line(self, catalog):
        obs.reset()
        obs.enable()
        try:
            engine = QueryEngine(catalog)
            engine.run(Limit(Scan("S"), 0))
            with pytest.raises(PlanAnalysisError):
                engine.run(Project(Scan("S"), ("Zip",)))
            assert obs.METRICS.counter_value("analysis.errors") == 1
            line = next(line for line in obs.render_summary() if line.startswith("analysis:"))
            assert " errors=1" in line
        finally:
            obs.disable()
            obs.reset()


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


class TestRepro007HashOrderSums:
    @pytest.mark.parametrize(
        "expr",
        [
            "sum({a, b, c})",
            "sum({x * 0.1 for x in xs})",
            "sum(set(xs))",
            "sum(frozenset(xs))",
            "sum(w[k] for k in a.keys() & b.keys())",
            "sum([w[k] for k in a.keys() | set(extra)])",
            "sum(w[k] for k in set(a) - set(b))",
            "sum(a.keys() - b)",
        ],
    )
    def test_sum_over_a_set_fires(self, tmp_path, expr):
        diags = lint_file(tmp_path, f"total = {expr}\n")
        assert [d.code for d in diags] == ["REPRO007"]

    @pytest.mark.parametrize(
        "expr",
        [
            "sum(sorted(set(xs)))",
            "sum(w[k] for k in sorted(a.keys() & b.keys()))",
            "sum(w.values())",
            "sum(x for x in xs)",
            "len({a, b})",
        ],
    )
    def test_ordered_sums_pass(self, tmp_path, expr):
        assert lint_file(tmp_path, f"total = {expr}\n") == []

    def test_suppressed_on_the_call_line(self, tmp_path):
        text = "n = sum(  # lint: allow=REPRO007 -- integers\n    c[k] for k in a.keys() & b.keys()\n)\n"
        assert lint_file(tmp_path, text) == []


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
