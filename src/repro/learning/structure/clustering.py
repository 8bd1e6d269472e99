"""Candidate clustering: combine expert hypotheses into one ranked list.

Section 3.1: "These experts discover similarities between the various pieces
of data on the site, and output their discoveries as hypotheses about the
overall relational structure of the data on the site. Next, via a clustering
approach, the algorithm produces its guess as to the best overall relational
description of the data on the site."

Clustering here is agreement-based: candidates from different experts that
describe the *same* record set (after normalization) merge into one cluster
whose score is the sum of the members' scores — independent experts agreeing
is the strongest structural signal.
"""

from __future__ import annotations

from typing import Sequence

from .hypotheses import RelationalCandidate


def cluster_candidates(
    candidates: Sequence[RelationalCandidate],
) -> list[RelationalCandidate]:
    """Merge identical-record-set candidates; return score-ranked clusters."""
    keys = [candidate.key() for candidate in candidates]
    return [cluster for _, cluster in keyed_clusters(candidates, keys)]


def keyed_clusters(
    candidates: Sequence[RelationalCandidate], keys: Sequence[tuple]
) -> list[tuple[tuple, RelationalCandidate]]:
    """:func:`cluster_candidates` over the candidates' precomputed
    :meth:`~RelationalCandidate.key` values, each cluster paired with its key."""
    clusters: dict[tuple, RelationalCandidate] = {}
    order: list[tuple] = []
    for candidate, key in zip(candidates, keys):
        if not key:
            continue
        if key in clusters:
            merged = clusters[key]
            merged.score += candidate.score
            for expert in candidate.support:
                if expert not in merged.support:
                    merged.support.append(expert)
            if candidate.origin and candidate.origin not in merged.origin:
                merged.origin = f"{merged.origin}|{candidate.origin}"
        else:
            clusters[key] = RelationalCandidate(
                records=[list(record) for record in candidate.records],
                n_columns=candidate.n_columns,
                support=list(candidate.support),
                score=candidate.score,
                origin=candidate.origin,
                page_urls=candidate.page_urls,
            )
            order.append(key)
    ranked = [(key, clusters[key]) for key in order]
    ranked.sort(key=lambda entry: (-entry[1].score, -len(entry[1].records), entry[1].origin))
    return ranked


def subsumes(larger: RelationalCandidate, smaller: RelationalCandidate) -> bool:
    """True if *larger*'s record set strictly contains *smaller*'s.

    Used to prefer a whole-list candidate over a partial one (Figure 1's
    "the entire list, or ... just the shelters in Coconut Creek").
    """
    if larger.n_columns != smaller.n_columns:
        return False
    larger_set = set(larger.key())
    smaller_set = set(smaller.key())
    return smaller_set < larger_set
