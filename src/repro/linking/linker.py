"""The learnable record linker.

"CopyCat learns the best combination of heuristics for this case of record
linking, via a combination of generalizing examples (the integrator might
paste matches for several shelters) and accepting feedback (she might accept
or reject suggested matches)." (Example 1)

:class:`LearnedLinker` keeps a weight per similarity feature and scores a
pair as the weighted mean of its features. Training is online
passive-aggressive ranking (the same MIRA family as the integration
learner): each labeled example (a true match for some left row, against the
current best non-match) yields a margin constraint; weights move just enough
to satisfy it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..errors import LearningError
from ..substrate.relational.algebra import RowLinker
from ..substrate.relational.rows import Row
from .similarity import DEFAULT_SIMILARITIES, FeatureExtractor, FieldPair


@dataclass
class LinkExample:
    """One supervised example: this left row matches that right row."""

    left: Any
    right: Any
    is_match: bool = True


class LearnedLinker(RowLinker):
    """A record linker with learnable heuristic weights.

    With no training it behaves as the uniform heuristic mix (every
    similarity weighted equally); training sharpens weights toward the
    heuristics that actually separate matches from non-matches in this
    domain (e.g. acronym matching for "HS" ↔ "High School").
    """

    def __init__(
        self,
        field_pairs: Sequence[FieldPair],
        similarities: dict | None = None,
        aggressiveness: float = 0.5,
        margin: float = 0.2,
    ):
        self.extractor = FeatureExtractor(field_pairs, similarities or DEFAULT_SIMILARITIES)
        names = self.extractor.feature_names()
        if not names:
            raise LearningError("linker needs at least one field pair")
        initial = 1.0 / len(names)
        self.weights: dict[str, float] = {name: initial for name in names}
        # Each feature name with the position of its value in
        # ``extractor.features``: the order (and, for a repeated field pair,
        # the value) of ``extractor.extract``, so scores sum the same terms
        # in the same order.
        self._feature_index = tuple({name: i for i, name in enumerate(names)}.items())
        self.aggressiveness = aggressiveness
        self.margin = margin
        self.updates = 0

    # -- scoring ----------------------------------------------------------------
    def score(self, left: Row | dict, right: Row | dict) -> float:
        features = self.extractor.features(left, right)
        weights = self.weights
        raw = sum(weights[name] * features[i] for name, i in self._feature_index)
        total_weight = sum(self.weights.values())
        if total_weight <= 0:
            return 0.0
        return raw / total_weight

    def block_attribute_pairs(self) -> tuple[tuple[str, str], ...]:
        """The compared field pairs double as blocking keys (see RowLinker)."""
        return tuple(
            (pair.left, pair.right) for pair in self.extractor.field_pairs
        )

    def describe(self) -> str:
        strongest = sorted(self.weights.items(), key=lambda kv: -kv[1])[:3]
        inner = ", ".join(f"{name}={weight:.2f}" for name, weight in strongest)
        return f"LearnedLinker({inner}, ...)"

    # -- matching -----------------------------------------------------------------
    def upper_bounds(self, left: Any, right_rows: Sequence[Any]) -> list[float]:
        """Each row's score with every uncomputed kernel at its limit.

        :meth:`FeatureExtractor.bounding_features` leaves Jaro-Winkler and
        Levenshtein at 1.0 on pairs not yet fully scored. Taking them at
        1.0 under a weight >= 0 and at 0.0 under a negative one, and
        summing the same terms in the same order as :meth:`score`, gives
        a bound >= the exact score (float ``*`` and ``+`` round
        monotonically); a pair with every feature exact gets its exact
        score. The weights, their total and *left*'s values are read once
        per search, not once per pair.
        """
        total_weight = sum(self.weights.values())
        if total_weight <= 0:
            return [0.0] * len(right_rows)
        weights = self.weights
        exact = [(weights[name], i) for name, i in self._feature_index]
        bounded = self.extractor.bounded_positions
        loose = [(0.0 if w < 0 and i in bounded else w, i) for w, i in exact]
        return [
            sum([w * features[i] for w, i in (exact if complete else loose)]) / total_weight
            for features, complete in self.extractor.bounding_features(left, right_rows)
        ]

    def link_all(
        self, left_rows: Sequence[Any], right_rows: Sequence[Any], threshold: float = 0.0
    ) -> list[tuple[int, int, float]]:
        """(left index, right index, score) for each left row's best match."""
        out = []
        for i, left in enumerate(left_rows):
            match = self.best_match(left, right_rows, threshold)
            if match is not None:
                out.append((i, match[0], match[1]))
        return out

    # -- learning -----------------------------------------------------------------
    def train_pairwise(self, positive: Any, negative: Any, anchor: Any) -> bool:
        """One ranking update: *anchor* should prefer *positive* to *negative*.

        Passive-aggressive: if score(anchor, positive) already beats
        score(anchor, negative) by the margin, do nothing; otherwise move
        weights minimally (closed-form τ, capped by aggressiveness).
        Returns True when an update was applied.
        """
        features_pos = self.extractor.extract(anchor, positive)
        features_neg = self.extractor.extract(anchor, negative)
        diff = {
            name: features_pos[name] - features_neg[name] for name in features_pos
        }
        score_gap = sum(self.weights[name] * value for name, value in diff.items())
        loss = self.margin - score_gap
        if loss <= 0:
            return False
        norm_sq = sum(value * value for value in diff.values())
        if norm_sq == 0:
            return False
        tau = min(self.aggressiveness, loss / norm_sq)
        for name, value in diff.items():
            self.weights[name] = max(0.0, self.weights[name] + tau * value)
        self.updates += 1
        return True

    def train(
        self,
        examples: Sequence[LinkExample],
        right_rows: Sequence[Any],
        epochs: int = 3,
    ) -> int:
        """Train from match examples against a candidate pool.

        For each positive example, the negative is the *current* best-scoring
        non-match (hard negative mining); explicit negative examples
        (``is_match=False``, from rejected suggestions) are ranked below
        every positive for the same anchor.
        """
        applied = 0
        positives = [example for example in examples if example.is_match]
        negatives = [example for example in examples if not example.is_match]
        for _ in range(epochs):
            for example in positives:
                pool = [
                    row
                    for row in right_rows
                    if not _same_row(row, example.right)
                ]
                if not pool:
                    continue
                best = self.best_match(example.left, pool)
                if best is None:
                    continue
                hard_negative = pool[best[0]]
                if self.train_pairwise(example.right, hard_negative, example.left):
                    applied += 1
            for rejection in negatives:
                # Rejected suggestion: every known positive for this anchor
                # must outrank it.
                for example in positives:
                    if _same_row(example.left, rejection.left):
                        if self.train_pairwise(example.right, rejection.right, example.left):
                            applied += 1
        return applied


def _same_row(a: Any, b: Any) -> bool:
    da = a.as_dict() if isinstance(a, Row) else dict(a)
    db = b.as_dict() if isinstance(b, Row) else dict(b)
    return da == db


def make_name_address_linker() -> LearnedLinker:
    """The scenario's default linker: shelter Name↔Shelter plus addresses."""
    return LearnedLinker(
        field_pairs=[FieldPair("Name", "Shelter"), FieldPair("Street", "Address")]
    )
