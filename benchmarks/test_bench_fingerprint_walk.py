"""Plan fingerprinting: one walk per evaluator run.

Section 4: after every accepted column the auto-complete generator runs a
ranked batch of candidate queries through the engine. Each run keys the
compile memo on its root plan's fingerprint and every cacheable node
(joins, unions, distinct, grouping) on its own, so fingerprints are
needed for many nodes of the same tree. ``plan_fingerprints`` computes
them in one bottom-up walk; walking each cacheable node's subtree again
tokenizes the shared join prefix once per cached ancestor.

The gate drives the Figure-3 session (seed 5, 10 shelters, noise 1) and
counts, for every ``Evaluator.run`` inside its three column-suggestion
batches, the plan nodes tokenized. It fails when a run tokenizes more
nodes than its plan has. It is a count, not a time; each batch's time is
reported beside it.
"""

from __future__ import annotations

import time
from unittest import mock

from repro import CopyCatSession, build_scenario
from repro.cache import fingerprint
from repro.substrate.relational import Evaluator, walk

from .common import (
    format_table,
    import_contacts_via_session,
    import_shelters_via_session,
    table_series,
    write_report,
)

#: The three columns the Figure-3 user accepts, one batch each.
TARGETS = (("ZipcodeResolver", ["Zip"]), ("Geocoder", ["Lat", "Lon"]),
           ("Contacts", ["Contact", "Phone"]))


def _counting():
    """Patches counting node tokenizations; fills (tokenized, plan nodes) per run."""
    runs: list[tuple[int, int]] = []
    tokenized = [0]
    tokenize, run = fingerprint._tokenize, Evaluator.run  # noqa: SLF001

    def counted_tokenize(plan, tokens):
        tokenized[0] += 1
        return tokenize(plan, tokens)

    def counted_run(evaluator, plan):
        before = tokenized[0]
        result = run(evaluator, plan)
        runs.append((tokenized[0] - before, len({id(node) for node in walk(plan)})))
        return result

    patches = (mock.patch.object(fingerprint, "_tokenize", counted_tokenize),
               mock.patch.object(Evaluator, "run", counted_run))
    return patches, runs


def _figure3_batches():
    """Per batch: (runs, plan nodes, nodes tokenized, worst run, batch ms)."""
    scenario = build_scenario(seed=5, n_shelters=10, noise=1)
    session = CopyCatSession(catalog=scenario.catalog, seed=1)
    import_shelters_via_session(scenario, session)
    import_contacts_via_session(scenario, session)
    session.start_integration("Shelters")
    batches = []
    for source, attrs in TARGETS:
        (tokenize_patch, run_patch), runs = _counting()
        with tokenize_patch, run_patch:
            start = time.perf_counter()
            suggestions = session.column_suggestions(k=10)
            elapsed_ms = (time.perf_counter() - start) * 1000
        index = next(
            i for i, s in enumerate(suggestions)
            if s.source == source and set(attrs) <= set(s.attribute_names)
        )
        session.preview_column(index)
        session.accept_column(index)
        batches.append((
            source,
            len(runs),
            sum(nodes for _, nodes in runs),
            sum(tokenized for tokenized, _ in runs),
            max((tokenized - nodes for tokenized, nodes in runs), default=0),
            elapsed_ms,
        ))
    return batches


class TestFingerprintWalk:
    def test_each_run_tokenizes_each_plan_node_once(self):
        batches = _figure3_batches()
        headers = ["batch for", "runs", "plan nodes", "nodes tokenized",
                   "worst run (tokenized - nodes)", "batch ms"]
        rows = [(*batch[:5], f"{batch[5]:.2f}") for batch in batches]
        write_report(
            "fingerprint_walk",
            format_table(headers, rows)
            + ["", "every Evaluator.run of the Figure-3 session's three "
                   "column-suggestion batches may tokenize at most the "
                   "distinct nodes of its plan"],
            series={"table": table_series(headers, rows)},
        )
        assert all(runs > 0 for _, runs, *_ in batches)
        for source, runs, nodes, tokenized, worst, _ in batches:
            assert worst <= 0, (
                f"the {source} batch tokenized {tokenized} plan nodes over {runs} "
                f"runs of {nodes} nodes; one run tokenized {worst} more than its plan has"
            )
