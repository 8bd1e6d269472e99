"""Committing a source: the work grows with the source, not the catalog.

Section 4.1: the integration learner keeps a weighted source graph and
adds association edges as sources are imported. A commit extends that
graph: only the pairs of sources that involve the new one are evaluated
(``_connect``), and the edges of every other pair are kept. The drift
baseline of the committed wrapper is profiled (``TypeSignature.from_values``
per column) when a resync first verifies it, not at commit. A session
forked from a ``SharedBase`` starts from a copy of the base's graph, which
is discovered once.

The gate drives the Figure-3 session (seed 5, 10 shelters, noise 1) and
counts, for each ``commit_source``, the pairs evaluated and the columns
profiled: pairs may not exceed the other sources in the catalog, and
commits profile nothing. It also attaches two tenants to a
``SessionManager`` over that scenario's catalog: the first attach
discovers the base graph, and a later one may evaluate no pair. These are
counts, not times; each commit's time is reported beside it.
"""

from __future__ import annotations

import time
from unittest import mock

from repro import CopyCatSession, SessionManager, SharedBase, build_scenario
from repro.learning.integration import associations
from repro.learning.model.patterns import TypeSignature

from .common import (
    format_table,
    import_contacts_via_session,
    import_shelters_via_session,
    table_series,
    write_report,
)


def _counting():
    """Patches counting pairs evaluated and columns profiled."""
    counts = {"pairs": 0, "profiled": 0}
    connect, profile = associations._connect, TypeSignature.from_values  # noqa: SLF001

    def counted_connect(*args, **kwargs):
        counts["pairs"] += 1
        return connect(*args, **kwargs)

    def counted_profile(values):
        counts["profiled"] += 1
        return profile(values)

    patches = (mock.patch.object(associations, "_connect", counted_connect),
               mock.patch.object(TypeSignature, "from_values", staticmethod(counted_profile)))
    return patches, counts


def _figure3_commits():
    """Per commit: (source, other sources, pairs evaluated, columns profiled, ms)."""
    scenario = build_scenario(seed=5, n_shelters=10, noise=1)
    session = CopyCatSession(catalog=scenario.catalog, seed=1)
    commit = CopyCatSession.commit_source
    commits = []

    def counted_commit(self, *args, **kwargs):
        (connect_patch, profile_patch), counts = _counting()
        with connect_patch, profile_patch:
            start = time.perf_counter()
            relation = commit(self, *args, **kwargs)
            elapsed_ms = (time.perf_counter() - start) * 1000
        commits.append((relation.name, len(self.catalog) - 1, counts["pairs"],
                        counts["profiled"], elapsed_ms))
        return relation

    with mock.patch.object(CopyCatSession, "commit_source", counted_commit):
        import_shelters_via_session(scenario, session)
        import_contacts_via_session(scenario, session)
    return commits


def _tenant_attaches():
    """Pairs evaluated by a manager's first and second tenant attach."""
    scenario = build_scenario(seed=5, n_shelters=10, noise=1)
    manager = SessionManager(SharedBase(scenario.catalog))
    attaches = []
    try:
        for tenant in ("first", "second"):
            (connect_patch, profile_patch), counts = _counting()
            with connect_patch, profile_patch:
                manager.session(tenant)
            attaches.append((tenant, counts["pairs"]))
    finally:
        manager.shutdown()
    return attaches, len(scenario.catalog)


class TestCommitWork:
    def test_commit_evaluates_only_the_new_sources_pairs(self):
        commits = _figure3_commits()
        attaches, n_base = _tenant_attaches()
        headers = ["commit", "other sources", "pairs evaluated", "columns profiled",
                   "commit ms"]
        rows = [(*commit[:4], f"{commit[4]:.2f}") for commit in commits]
        attach_headers = ["tenant attach", "pairs evaluated"]
        write_report(
            "commit_work",
            format_table(headers, rows)
            + [""]
            + format_table(attach_headers, attaches)
            + ["", f"each commit_source of the Figure-3 session may evaluate at most "
                   f"one pair per other source and profile no column; over a "
                   f"{n_base}-source SharedBase the first tenant attach discovers "
                   f"the base graph and a later attach may evaluate no pair"],
            series={
                "commits": table_series(headers, rows),
                "attaches": table_series(attach_headers, attaches),
                "base_sources": n_base,
            },
        )
        assert [commit[0] for commit in commits] == ["Shelters", "Contacts"]
        for source, others, pairs, profiled, _ in commits:
            assert pairs <= others, (
                f"committing {source} evaluated {pairs} source pairs; "
                f"only {others} involve it"
            )
            assert profiled == 0, (
                f"committing {source} profiled {profiled} columns for a drift "
                f"baseline nothing has verified yet"
            )
        (_, first), (_, later) = attaches
        assert first <= n_base * (n_base - 1) // 2
        assert later == 0, f"a tenant forked from a discovered base evaluated {later} pairs"
