"""MIRA: online weight learning from ranking feedback.

Section 4.2: "CopyCat's transformation and integration learner takes the
feedback constraints and changes the weights on the source graph edges,
which in turn will change the queries' relative rankings. To accomplish
this, it uses a machine learning algorithm called MIRA ... MIRA first
compares the nodes and edges among the graphs. It adjusts weights *only* on
edges that differ between the graphs, such that the queries' costs, when
recomputed, will satisfy the ordering constraints provided by feedback."

Feedback → constraints: "If the user accepts a group of auto-completions,
they should be given a higher ranking than all alternative auto-completions;
if the user rejects a group of auto-completions, these should be given a
rank below the relevance threshold."

Each constraint update is the closed-form passive-aggressive step (Crammer
et al. 2006): move the weight vector the minimum distance that satisfies the
violated margin constraint, capped by the aggressiveness parameter C.
Because the update direction is the *difference* of the two queries' feature
vectors, shared edges cancel — only differing edges move, exactly as the
paper specifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ...obs import METRICS
from .source_graph import SourceGraph

Features = frozenset[str]


@dataclass
class MiraUpdate:
    """Record of one applied update (for tests and explanations)."""

    kind: str                       # "rank" | "demote" | "promote"
    tau: float
    changed: dict[str, float]       # edge key -> new weight


class MiraLearner:
    """Adjusts source-graph edge weights to satisfy feedback constraints."""

    def __init__(
        self,
        graph: SourceGraph,
        margin: float = 0.5,
        aggressiveness: float = 2.0,
        min_cost: float = 0.05,
        relevance_threshold: float = 2.0,
    ):
        self.graph = graph
        self.margin = margin
        self.aggressiveness = aggressiveness
        self.min_cost = min_cost
        self.relevance_threshold = relevance_threshold

    # -- cost under current weights -----------------------------------------------
    def cost(self, features: Iterable[str]) -> float:
        # Sorted, so the float sum is the same in every process: set
        # iteration order follows the hash seed.
        return sum(self.graph.weights.get(key, 0.0) for key in sorted(features))

    def _record(self, update: MiraUpdate) -> None:
        if METRICS.enabled:
            METRICS.inc("mira.updates")
            METRICS.inc("mira.updates." + update.kind)
            METRICS.inc("mira.edges_changed", len(update.changed))
            METRICS.observe("mira.tau", update.tau)

    # -- constraint updates ----------------------------------------------------------
    def rank_update(self, preferred: Features, other: Features) -> bool:
        """Enforce cost(preferred) + margin ≤ cost(other).

        Shared features cancel in the difference vector, so only edges in
        the symmetric difference receive weight changes.
        """
        preferred = frozenset(preferred)
        other = frozenset(other)
        only_preferred = preferred - other
        only_other = other - preferred
        loss = self.cost(preferred) + self.margin - self.cost(other)
        if loss <= 0 or (not only_preferred and not only_other):
            return False
        norm_sq = float(len(only_preferred) + len(only_other))
        tau = min(self.aggressiveness, loss / norm_sq)
        changed: dict[str, float] = {}
        for key in only_preferred:
            new = max(self.min_cost, self.graph.weights.get(key, 0.0) - tau)
            self.graph.weights[key] = new
            changed[key] = new
        for key in only_other:
            new = self.graph.weights.get(key, 0.0) + tau
            self.graph.weights[key] = new
            changed[key] = new
        self._record(MiraUpdate(kind="rank", tau=tau, changed=changed))
        return True

    def demote(self, features: Features) -> bool:
        """Rejected query: push its cost above the relevance threshold."""
        features = frozenset(features)
        if not features:
            return False
        target = self.relevance_threshold + self.margin
        loss = target - self.cost(features)
        if loss <= 0:
            return False
        tau = min(self.aggressiveness, loss / len(features))
        changed = {}
        for key in features:
            new = self.graph.weights.get(key, 0.0) + tau
            self.graph.weights[key] = new
            changed[key] = new
        self._record(MiraUpdate(kind="demote", tau=tau, changed=changed))
        return True

    def promote(self, features: Features) -> bool:
        """Accepted query: pull its cost below the relevance threshold."""
        features = frozenset(features)
        if not features:
            return False
        target = self.relevance_threshold - self.margin
        loss = self.cost(features) - target
        if loss <= 0:
            return False
        tau = min(self.aggressiveness, loss / len(features))
        changed = {}
        for key in features:
            new = max(self.min_cost, self.graph.weights.get(key, 0.0) - tau)
            self.graph.weights[key] = new
            changed[key] = new
        self._record(MiraUpdate(kind="promote", tau=tau, changed=changed))
        return True

    # -- feedback-level API ------------------------------------------------------------
    def accept(self, accepted: Features, alternatives: Iterable[Features]) -> int:
        """Accepted beats every alternative; returns #updates applied."""
        applied = 0
        if self.promote(accepted):
            applied += 1
        for alternative in alternatives:
            if frozenset(alternative) == frozenset(accepted):
                continue
            if self.rank_update(accepted, alternative):
                applied += 1
        return applied

    def reject(self, rejected: Features, better: Iterable[Features] = ()) -> int:
        """Rejected falls below the threshold and below any known-good query."""
        applied = 0
        if self.demote(rejected):
            applied += 1
        for good in better:
            if self.rank_update(good, rejected):
                applied += 1
        return applied
