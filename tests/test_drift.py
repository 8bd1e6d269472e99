"""Tests for the drift layer: verification, self-healing, quarantine.

Covers the verification primitives (row validation, record-count sanity,
example coverage, per-column distribution matching), the seeded perturbation
harness, the session resync loop across every perturbation kind, quarantine
degradation through the evaluator and the source graph, cache invalidation
across drift events, row verification at paste and commit time, and the
hardening satellites (unicode-safe tokenization, landmark extraction, type learner
guards, and the sequential-covering fallback under perturbed pages).
"""

from __future__ import annotations

import pytest

from repro import Browser, CopyCatSession, build_scenario
from repro.drift import (
    PERTURBATIONS,
    RECOVERABLE,
    UNRECOVERABLE,
    drift_rate,
    example_coverage,
    note_drift_event,
    note_resync,
    perturb_page,
    quarantine_reason,
    quarantine_source_in_catalog,
    release_source_in_catalog,
    snapshot_extraction,
    validate_row,
    validate_rows,
    verify_extraction,
)
from repro.errors import DocumentError, FeedbackError, LearningError, NavigationError, NoHypothesisError
from repro.drift.verify import TYPE_DIVERGENCE_THRESHOLD
from repro.learning.integration.learner import DRIFT_PENALTY, QUARANTINE_PENALTY
from repro.learning.structure.learner import StructureLearner
from repro.learning.structure.wrapper_induction import LandmarkRule, induce_table
from repro.obs import METRICS, render_summary
from repro.substrate.relational.algebra import Scan
from repro.util.text import clean_cell, is_blank, normalize, strip_invisible, tokenize

ROWS = [
    ["Coconut Creek High", "1400 NW 44th Ave", "Coconut Creek"],
    ["Boyd Anderson High", "3050 NW 41st St", "Lauderdale Lakes"],
    ["Deerfield Beach High", "910 SW 15th St", "Deerfield Beach"],
    ["Monarch High", "5050 Wiles Rd", "Coconut Creek"],
]


def import_shelters(scenario, session, examples=2, name="Shelters"):
    """Drive the Figure-1 import flow against a scenario's listing page."""
    browser = Browser(session.clipboard, scenario.website)
    browser.navigate(scenario.list_urls()[0])
    listing = browser.page.dom.find("table", "listing")
    records = [n for n in listing.children if "record" in n.css_classes]
    for record in records[:examples]:
        browser.copy_record(record, name)
        session.paste()
    session.accept_row_suggestions()
    for index, label in enumerate(["Name", "Street", "City"]):
        session.label_column(index, label)
    return session.commit_source()


def fresh_import(seed=5, n_shelters=8, **session_kwargs):
    scenario = build_scenario(seed=seed, n_shelters=n_shelters)
    session = CopyCatSession(catalog=scenario.catalog, seed=1, **session_kwargs)
    relation = import_shelters(scenario, session)
    return scenario, session, relation


class TestDriftConstants:
    def test_defaults(self):
        assert 0 < TYPE_DIVERGENCE_THRESHOLD < 1
        assert DRIFT_PENALTY > 0
        assert QUARANTINE_PENALTY > 2.0  # above the relevance threshold


class TestRowValidation:
    def test_valid_row(self):
        assert validate_row(["a", "b", "c"], 3) is None

    def test_arity_mismatch(self):
        assert "arity 2" in validate_row(["a", "b"], 3)

    def test_all_blank(self):
        assert validate_row(["", "  ", " "], 3) == "all cells blank"

    def test_markup_remnant(self):
        assert "markup remnant" in validate_row(["<b>404</b>", "x", "y"], 3)

    def test_overlong_cell(self):
        assert "overlong" in validate_row(["a" * 500, "x", "y"], 3)

    def test_control_characters(self):
        assert "control characters" in validate_row(["a\x00b", "x", "y"], 3)
        assert validate_row(["a\tb", "x", "y"], 3) is None  # tab is fine

    def test_validate_rows_split(self):
        valid, violations = validate_rows(ROWS + [["", "", ""]], 3)
        assert len(valid) == len(ROWS)
        assert len(violations) == 1 and violations[0].index == len(ROWS)


class TestVerification:
    def test_identical_extraction_is_clean(self):
        snapshot = snapshot_extraction("S", ROWS, examples=ROWS[:2])
        report = verify_extraction(snapshot, ROWS)
        assert not report.drifted
        assert report.example_coverage == 1.0
        threshold = TYPE_DIVERGENCE_THRESHOLD
        assert all(
            score is None or score > threshold for score in report.column_scores
        )

    def test_column_reorder_diverges(self):
        snapshot = snapshot_extraction("S", ROWS, examples=ROWS[:2])
        rotated = [row[1:] + row[:1] for row in ROWS]
        report = verify_extraction(snapshot, rotated)
        assert report.drifted
        assert any("diverged" in reason for reason in report.reasons)

    def test_count_collapse_and_relaxation(self):
        snapshot = snapshot_extraction("S", ROWS * 3)
        report = verify_extraction(snapshot, ROWS[:2])
        assert any("collapsed" in reason for reason in report.reasons)
        relaxed = verify_extraction(snapshot, ROWS[:2], check_counts=False)
        assert not any("collapsed" in r for r in relaxed.reasons)

    def test_count_explosion(self):
        snapshot = snapshot_extraction("S", ROWS[:2])
        report = verify_extraction(snapshot, ROWS * 10)
        assert any("exploded" in reason for reason in report.reasons)

    def test_empty_extraction_is_drift(self):
        snapshot = snapshot_extraction("S", ROWS)
        report = verify_extraction(snapshot, [])
        assert report.drifted and "no rows" in report.reasons[0]

    def test_example_coverage_is_value_anchored(self):
        # Examples survive a reorder: coverage keys on values, not positions.
        rotated = [row[1:] + row[:1] for row in ROWS]
        assert example_coverage(ROWS[:2], rotated) == 1.0
        assert example_coverage(ROWS[:2], ROWS[2:]) == 0.0

    def test_majority_junk_is_drift(self):
        snapshot = snapshot_extraction("S", ROWS)
        junk = [["", "", ""]] * 5 + ROWS[:2]
        report = verify_extraction(snapshot, junk, check_counts=False)
        assert any("malformed" in reason for reason in report.reasons)


class TestPerturbations:
    def test_registry_partition(self):
        assert set(RECOVERABLE) | set(UNRECOVERABLE) == set(PERTURBATIONS)
        assert not set(RECOVERABLE) & set(UNRECOVERABLE)

    def test_unknown_kind_rejected(self):
        scenario = build_scenario(seed=5, n_shelters=4)
        with pytest.raises(DocumentError, match="unknown perturbation"):
            perturb_page(scenario.website, scenario.list_urls()[0], "nope")

    def test_replace_missing_page_rejected(self):
        scenario = build_scenario(seed=5, n_shelters=4)
        from repro.substrate.documents.dom import document

        with pytest.raises(NavigationError, match="cannot replace"):
            scenario.website.replace_page("no/such/page", document())

    @pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
    def test_deterministic_in_seed(self, kind):
        htmls = []
        for _ in range(2):
            scenario = build_scenario(seed=5, n_shelters=6)
            url = scenario.list_urls()[0]
            result = perturb_page(scenario.website, url, kind, seed=11)
            htmls.append((scenario.website.fetch(url).html(), result.expected_rows))
        assert htmls[0] == htmls[1]

    def test_stale_page_handle(self):
        scenario = build_scenario(seed=5, n_shelters=4)
        url = scenario.list_urls()[0]
        before = scenario.website.fetch(url)
        perturb_page(scenario.website, url, "retemplate", seed=1)
        after = scenario.website.fetch(url)
        assert after is not before  # old handles are stale, as on the web


class TestResync:
    @pytest.mark.parametrize("kind", sorted(RECOVERABLE))
    def test_recoverable_drift_heals(self, kind):
        scenario, session, _ = fresh_import()
        result = perturb_page(scenario.website, scenario.list_urls()[0], kind, seed=3)
        report = session.resync_source("Shelters")
        assert report.action in ("clean", "reinduced")
        committed = {
            tuple(str(v) for v in row.values)
            for row in scenario.catalog.relation("Shelters")
        }
        assert committed == set(result.expected_rows)
        assert not session.quarantine.is_quarantined("Shelters")

    @pytest.mark.parametrize("kind", sorted(UNRECOVERABLE))
    def test_unrecoverable_drift_quarantines(self, kind):
        scenario, session, relation = fresh_import()
        last_good = {tuple(str(v) for v in row.values) for row in relation}
        perturb_page(scenario.website, scenario.list_urls()[0], kind, seed=3)
        report = session.resync_source("Shelters")
        assert report.action == "quarantined"
        assert session.quarantine.is_quarantined("Shelters")
        assert quarantine_reason(scenario.catalog, "Shelters") is not None
        # Last-known-good rows keep serving (degraded, not gone).
        served = {
            tuple(str(v) for v in row.values)
            for row in scenario.catalog.relation("Shelters")
        }
        assert served == last_good
        assert scenario.catalog.metadata("Shelters").trust < 1.0

    def test_clean_resync_without_drift(self):
        scenario, session, relation = fresh_import()
        before = {tuple(str(v) for v in row.values) for row in relation}
        report = session.resync_source("Shelters")
        assert report.action == "clean" and report.rows_quarantined == 0
        after = {
            tuple(str(v) for v in row.values)
            for row in scenario.catalog.relation("Shelters")
        }
        assert after == before

    def test_junk_rows_quarantined_with_provenance(self):
        scenario, session, _ = fresh_import()
        perturb_page(
            scenario.website, scenario.list_urls()[0], "inject_junk_rows", seed=3
        )
        report = session.resync_source("Shelters")
        assert report.action == "clean"
        assert report.rows_quarantined >= 2
        entries = session.quarantine.rows("Shelters")
        assert entries and all(e.provenance.startswith("Shelters[") for e in entries)
        committed = [
            tuple(str(v) for v in row.values)
            for row in scenario.catalog.relation("Shelters")
        ]
        for row in committed:  # zero garbage committed
            assert validate_row(list(row), 3) is None

    def test_reinduction_records_provenance_note(self):
        scenario, session, _ = fresh_import()
        perturb_page(scenario.website, scenario.list_urls()[0], "retemplate", seed=3)
        report = session.resync_source("Shelters")
        assert report.healed
        notes = scenario.catalog.metadata("Shelters").notes
        assert "reinduced:Shelters" in notes.get("provenance", [])

    def test_drift_event_bumps_catalog_version(self):
        scenario, session, _ = fresh_import()
        before = scenario.catalog.version
        perturb_page(scenario.website, scenario.list_urls()[0], "retemplate", seed=3)
        session.resync_source("Shelters")
        assert scenario.catalog.version != before

    def test_quarantine_heals_on_recovery(self):
        scenario, session, _ = fresh_import()
        url = scenario.list_urls()[0]
        original = scenario.website.fetch(url)
        perturb_page(scenario.website, url, "blank_page", seed=3)
        assert session.resync_source("Shelters").action == "quarantined"
        # The site comes back: the next resync lifts the quarantine.
        scenario.website.replace_page(url, original.dom, title=original.title)
        report = session.resync_source("Shelters")
        assert report.action == "clean"
        assert not session.quarantine.is_quarantined("Shelters")
        assert quarantine_reason(scenario.catalog, "Shelters") is None

    def test_resync_without_wrapper_raises(self):
        session = CopyCatSession()
        with pytest.raises(FeedbackError, match="no wrapper recorded"):
            session.resync_source("Nope")

    def test_resync_counters(self):
        METRICS.enable()
        METRICS.reset()
        try:
            scenario, session, _ = fresh_import()
            session.resync_source("Shelters")
            perturb_page(scenario.website, scenario.list_urls()[0], "retemplate", seed=3)
            session.resync_source("Shelters")
            assert METRICS.counter_value("drift.resyncs") == 2
            assert METRICS.counter_value("drift.resyncs_clean") == 1
            assert METRICS.counter_value("drift.detected") == 1
            assert METRICS.counter_value("drift.reinduced") == 1
            line = next(line for line in render_summary() if line.startswith("drift:"))
            assert " reinduced=1 " in line and " resyncs=2 " in line
        finally:
            METRICS.reset()
            METRICS.disable()


class TestQuarantineDegradation:
    def test_scan_of_quarantined_source_is_degraded(self):
        scenario, session, _ = fresh_import()
        perturb_page(scenario.website, scenario.list_urls()[0], "blank_page", seed=3)
        session.resync_source("Shelters")
        result = session.engine.run(Scan("Shelters"))
        assert result.is_degraded
        assert "Shelters" in result.degraded_services()
        assert any("quarantined" in note.reason for note in result.degraded)

    def test_absorb_drift_events_penalizes_edges(self, fresh_scenario):
        catalog = fresh_scenario.catalog
        session = CopyCatSession(catalog=catalog, seed=1)
        import_shelters(fresh_scenario, session)
        learner = session.integration_learner
        edges = [
            e for e in learner.graph.edges() if "Shelters" in (e.left, e.right)
        ]
        assert edges, "scenario should link Shelters to other sources"
        before = {e.key: learner.graph.weights[e.key] for e in edges}
        quarantine_source_in_catalog(catalog, "Shelters", "test")
        assert learner.absorb_drift_events() >= len(edges)
        for edge in edges:
            assert learner.graph.weights[edge.key] == pytest.approx(
                before[edge.key] + QUARANTINE_PENALTY
            )
        # Recovery restores the original weights (delta-tracked).
        release_source_in_catalog(catalog, "Shelters")
        learner.absorb_drift_events()
        for edge in edges:
            assert learner.graph.weights[edge.key] == pytest.approx(before[edge.key])

    def test_column_suggestions_fold_quarantine_into_edge_costs(self, fresh_scenario):
        session = CopyCatSession(catalog=fresh_scenario.catalog, seed=1)
        import_shelters(fresh_scenario, session)
        session.start_integration("Shelters")
        learner = session.integration_learner
        edges = [e for e in learner.graph.edges() if "Shelters" in (e.left, e.right)]
        before = {e.key: learner.graph.weights[e.key] for e in edges}
        quarantine_source_in_catalog(fresh_scenario.catalog, "Shelters", "test")
        session.column_suggestions(refresh=True)
        for edge in edges:
            assert learner.graph.weights[edge.key] == pytest.approx(
                before[edge.key] + QUARANTINE_PENALTY
            )

    def test_drift_rate_decays_with_clean_resyncs(self, fresh_scenario):
        catalog = fresh_scenario.catalog
        session = CopyCatSession(catalog=catalog, seed=1)
        import_shelters(fresh_scenario, session)
        note_resync(catalog, "Shelters")
        note_drift_event(catalog, "Shelters")
        first = drift_rate(catalog, "Shelters")
        assert first == pytest.approx(0.5)
        for _ in range(8):
            note_resync(catalog, "Shelters")
        assert drift_rate(catalog, "Shelters") < first

    def test_absorb_is_noop_when_state_unchanged(self, fresh_scenario):
        session = CopyCatSession(catalog=fresh_scenario.catalog, seed=1)
        import_shelters(fresh_scenario, session)
        learner = session.integration_learner
        learner.absorb_drift_events()
        assert learner.absorb_drift_events() == 0


class TestCacheInvalidationAcrossDrift:
    def test_cached_equals_fresh_across_drift_event(self):
        scenario, session, _ = fresh_import(n_shelters=8)
        session.start_integration("Shelters")
        first = session.column_suggestions()
        assert first
        # The standing batch is reused while nothing changed...
        again = session.column_suggestions()
        assert again is first
        # ...but a drift event (re-induction bumps Catalog.version) forces a
        # recompute, and the recomputed batch matches a forced-fresh one.
        perturb_page(scenario.website, scenario.list_urls()[0], "reorder_fields", seed=3)
        report = session.resync_source("Shelters")
        assert report.healed
        cached = session.column_suggestions()
        assert cached is not first
        fresh = session.column_suggestions(refresh=True)
        key = lambda batch: [
            (s.completion.describe(), s.values) for s in batch
        ]
        assert key(cached) == key(fresh)


class TestImportVerification:
    def test_import_commits_exactly_the_truth(self):
        # A clean page verifies row by row: the committed source is the
        # scenario's shelters, in order, and nothing is quarantined.
        scenario = build_scenario(seed=5, n_shelters=8)
        session = CopyCatSession(catalog=scenario.catalog, seed=1)
        relation = import_shelters(scenario, session)
        truth = [
            tuple(str(row[column]) for column in scenario.shelter_columns)
            for row in scenario.truth_shelter_rows()
        ]
        assert [tuple(str(v) for v in row.values) for row in relation] == truth
        assert session.quarantine.rows() == []

    def test_paste_quarantines_swept_up_junk(self):
        scenario = build_scenario(seed=5, n_shelters=8)
        perturbed = perturb_page(scenario.website, scenario.list_urls()[0], "inject_junk_rows", seed=3)
        session = CopyCatSession(catalog=scenario.catalog, seed=1)
        relation = import_shelters(scenario, session)
        committed = tuple(tuple(str(v) for v in row.values) for row in relation)
        assert committed == perturbed.expected_rows
        held = session.quarantine.rows("Shelters")
        assert held and all("[paste:" in entry.provenance for entry in held)

    def test_commit_quarantines_malformed_workspace_rows(self):
        scenario, session, relation = fresh_import()
        session.workspace.tab("Shelters").append_rows([["<td>junk</td>", "1 Main St", "Creek"]])
        recommitted = session.commit_source("Shelters")
        assert len(recommitted) == len(relation)
        [held] = session.quarantine.rows("Shelters")
        assert held.row == ("<td>junk</td>", "1 Main St", "Creek")
        assert "markup remnant" in held.reason


class TestTextHardening:
    def test_strip_invisible_and_clean_cell(self):
        assert strip_invisible("a​b﻿c") == "abc"
        assert clean_cell("  padded  ") == "padded"
        assert clean_cell("​  ⁠") == ""

    def test_is_blank(self):
        assert is_blank(None) and is_blank("") and is_blank("   ​ ")
        assert not is_blank("x") and not is_blank(0)

    def test_tokenize_zero_width_is_separator(self):
        kinds = [(t.kind, t.text) for t in tokenize("Café 12​3")]
        assert ("word", "Café") in kinds
        assert ("number", "12") in kinds and ("number", "3") in kinds

    def test_normalize_collapses_unicode_whitespace(self):
        assert normalize("A  B​C") == "a bc"

    def test_landmark_extract_drops_and_counts_empty_cells(self):
        METRICS.enable()
        METRICS.reset()
        try:
            rule = LandmarkRule(left="<td>", right="</td>")
            html = "<td>one</td><td> </td><td>​</td><td>two</td>"
            values = [value for _, value in rule.extract(html)]
            assert values == ["one", "two"]
            assert METRICS.counter_value("structure.empty_cells_dropped") == 2
        finally:
            METRICS.reset()
            METRICS.disable()

    def test_landmark_induction_non_ascii(self):
        html = (
            "<ul><li><b>Café Réfuge</b> 12 Rue Émile</li>"
            "<li><b>Marché Noël</b> 4 Place Ibère</li>"
            "<li><b>École Centrale</b> 99 Avenue Foch</li></ul>"
        )
        rows = induce_table(
            html,
            [["Café Réfuge", "12 Rue Émile"], ["Marché Noël", "4 Place Ibère"]],
        )
        assert ["École Centrale", "99 Avenue Foch"] in rows

    def test_blank_example_raises_precise_error(self):
        with pytest.raises(NoHypothesisError, match="blank example value"):
            induce_table("<td>x</td>", [[" ​"]])


class TestTypeLearnerGuards:
    def test_learn_no_values(self, trained_types):
        with pytest.raises(LearningError, match="no training values"):
            trained_types.learn("PR-Thing", [])

    def test_learn_all_whitespace(self, trained_types):
        with pytest.raises(LearningError, match="empty or whitespace-only"):
            trained_types.learn("PR-Thing", ["  ", " ", "​⁠"])

    def test_recognize_blank_columns_return_empty(self, trained_types):
        assert trained_types.recognize([]) == []
        assert trained_types.recognize(["", " ", " ​"]) == []

    def test_recognize_ignores_blank_cells(self, trained_types):
        ranked = trained_types.recognize(["Coconut Creek", "", "Lauderdale Lakes"])
        assert ranked  # blanks don't poison an otherwise clean column


class TestFallbackUnderPerturbation:
    """Satellite: the sequential-covering fallback under perturbed pages."""

    def fallback_session(self, scenario):
        learner = StructureLearner(
            type_learner=None, experts=[], crawl_detail_pages=False
        )
        return CopyCatSession(
            catalog=scenario.catalog, seed=1, structure_learner=learner
        )

    def test_fallback_wrapper_survives_retemplate(self):
        scenario = build_scenario(seed=5, n_shelters=8)
        session = self.fallback_session(scenario)
        import_shelters(scenario, session)
        record = session._wrappers["Shelters"]
        assert record.via_fallback
        perturb_page(scenario.website, scenario.list_urls()[0], "retemplate", seed=3)
        report = session.resync_source("Shelters")
        # Landmark rules re-learn from the stored examples on the new page:
        # either the re-application already fits or re-induction heals it.
        assert report.action in ("clean", "reinduced")
        assert report.rows_committed > 0

    def test_fallback_wrapper_wipe_quarantines(self):
        scenario = build_scenario(seed=5, n_shelters=8)
        session = self.fallback_session(scenario)
        import_shelters(scenario, session)
        perturb_page(scenario.website, scenario.list_urls()[0], "wipe_values", seed=3)
        report = session.resync_source("Shelters")
        assert report.action == "quarantined"
        assert any("example" in r or "no longer present" in r for r in report.reasons)

    def test_reinduce_no_surviving_examples_raises(self):
        from repro.drift import refetch_event, reinduce_wrapper

        scenario, session, _ = fresh_import()
        record = session._wrappers["Shelters"]
        perturb_page(scenario.website, scenario.list_urls()[0], "blank_page", seed=3)
        with pytest.raises(NoHypothesisError):
            reinduce_wrapper(
                session.structure_learner, record, refetch_event(record)
            )


def eager_signatures(rows, examples=()):
    """The baseline profile as commits computed it before it was lazy."""
    from repro.learning.model.patterns import TypeSignature

    string_rows = [[str(cell) for cell in row] for row in rows]
    if string_rows:
        arity = len(string_rows[0])
    elif examples:
        arity = len(examples[0])
    else:
        arity = 0
    signatures = []
    for j in range(arity):
        column = [row[j] for row in string_rows if j < len(row) and not is_blank(row[j])]
        signatures.append(TypeSignature.from_values(column))
    return tuple(signatures)


def counting_from_values(calls):
    from unittest import mock

    from repro.learning.model.patterns import TypeSignature

    profile = TypeSignature.from_values

    def counted(values):
        calls.append(len(values))
        return profile(values)

    return mock.patch.object(TypeSignature, "from_values", staticmethod(counted))


class TestLazyBaseline:
    @pytest.mark.parametrize("rows, examples", [
        (ROWS, ROWS[:2]),
        ([["", "  ", "x"], ["a", "", ""], ["", "", ""], ["b", " ", "y"]], ()),
        ([["1"], ["2", "extra"], [""], ["3"]], ()),
        ([], ROWS[:1]),
        ([], ()),
    ], ids=["rows", "blank-heavy", "ragged", "zero-rows-with-examples", "zero-rows"])
    def test_signatures_equal_the_eager_profile(self, rows, examples):
        snapshot = snapshot_extraction("S", rows, examples=examples)
        assert "signatures" not in vars(snapshot)
        assert snapshot.signatures == eager_signatures(rows, examples)
        assert len(snapshot.signatures) == snapshot.arity
        assert snapshot.signatures is snapshot.signatures  # profiled once

    def test_commit_profiles_nothing_and_resync_profiles_once(self):
        scenario = build_scenario(seed=5, n_shelters=8)
        session = CopyCatSession(catalog=scenario.catalog, seed=1)
        calls = []
        with counting_from_values(calls):
            import_shelters(scenario, session)
        assert calls == []
        snapshot = session._wrappers["Shelters"].snapshot  # noqa: SLF001
        assert "signatures" not in vars(snapshot)
        with counting_from_values(calls):
            assert session.resync_source("Shelters").action == "clean"
        assert len(calls) == snapshot.arity == 3
        assert snapshot.signatures == eager_signatures(snapshot.rows)

    @pytest.mark.parametrize("profiled", [False, True], ids=["before-resync", "after-resync"])
    def test_checkpoint_recovers_to_the_live_digest(self, tmp_path, profiled):
        from repro.durability import DurabilityStore, digest_hash, recover_session, state_digest

        def world():
            return build_scenario(seed=5, n_shelters=6, noise=1)

        live_world = world()
        session = CopyCatSession(catalog=live_world.catalog, seed=1)
        store = DurabilityStore(tmp_path)
        recorder, _ = recover_session(session, "t", store, checkpoint_interval=64)
        import_shelters(live_world, session)
        if profiled:
            session.resync_source("Shelters")
        snapshot = session._wrappers["Shelters"].snapshot  # noqa: SLF001
        assert ("signatures" in vars(snapshot)) == profiled
        assert recorder.checkpoint()
        perturb_page(live_world.website, live_world.list_urls()[0], "retemplate", seed=3)
        session.resync_source("Shelters")
        live = digest_hash(state_digest(session))
        store.close()

        restored = CopyCatSession(catalog=world().catalog, seed=1)
        with DurabilityStore(tmp_path) as store2:
            _, report = recover_session(restored, "t", store2)
        assert report is not None and report.applied == 1  # the resync after the checkpoint
        assert digest_hash(state_digest(restored)) == live
