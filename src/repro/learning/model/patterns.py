"""Pattern induction and distribution comparison.

A learned semantic type is represented as *distributions of patterns* at
several generalization levels. Recognition does not require "a perfect
match. Rather, the system evaluates whether the distribution of matched
patterns is statistically similar to the matches on the training data"
(Section 3.2). We compare distributions with cosine similarity and (when
sample sizes allow) a chi-square goodness-of-fit check.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from ...util.text import normalize, tokenize
from .tokens import LEVEL_CLASS, LEVEL_KIND, symbolize

Pattern = tuple[str, ...]


def learn_constants(values: Sequence[str], min_fraction: float = 0.1) -> frozenset[str]:
    """Surface tokens appearing in at least *min_fraction* of values.

    These become CONST symbols in the mixed pattern language — the stable
    scaffolding of a format (street suffixes, area-code parentheses, state
    abbreviations).
    """
    if not values:
        return frozenset()
    document_frequency: Counter[str] = Counter()
    for value in values:
        seen = {token.text for token in tokenize(str(value))}
        document_frequency.update(seen)
    threshold = max(2, math.ceil(min_fraction * len(values)))
    if len(values) == 1:
        threshold = 1
    return frozenset(
        token for token, count in document_frequency.items() if count >= threshold
    )


@dataclass(frozen=True)
class PatternDistribution:
    """A normalized histogram over patterns."""

    counts: tuple[tuple[Pattern, int], ...]
    total: int

    @staticmethod
    def from_patterns(patterns: Iterable[Pattern]) -> "PatternDistribution":
        counter = Counter(patterns)
        items = tuple(sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])))
        return PatternDistribution(counts=items, total=sum(counter.values()))

    # The mass dict, its norm and the pattern set are computed once per
    # distribution: a learned type is scored against every pasted column,
    # and a column's class and kind levels against every learned type. They
    # stay private, so no caller can mutate a learned signature through them.
    @cached_property
    def _mass(self) -> dict[Pattern, float]:
        if self.total == 0:
            return {}
        return {pattern: count / self.total for pattern, count in self.counts}

    @cached_property
    def _norm(self) -> float:
        return math.sqrt(sum(v * v for v in self._mass.values()))

    @cached_property
    def _known(self) -> frozenset[Pattern]:
        return frozenset(pattern for pattern, _ in self.counts)

    def as_dict(self) -> dict[Pattern, float]:
        """The normalized histogram, as a fresh dict the caller may keep."""
        return dict(self._mass)

    def top(self, k: int = 5) -> list[Pattern]:
        return [pattern for pattern, _ in self.counts[:k]]

    def cosine(self, other: "PatternDistribution") -> float:
        """Cosine similarity between the two normalized histograms."""
        a = self._mass
        b = other._mass
        if not a or not b:
            return 0.0
        dot = sum(a[p] * b.get(p, 0.0) for p in a)
        norm_a = self._norm
        norm_b = other._norm
        if norm_a == 0 or norm_b == 0:
            return 0.0
        return dot / (norm_a * norm_b)

    def coverage(self, other: "PatternDistribution") -> float:
        """Fraction of *other*'s mass whose patterns were seen in training."""
        known = self._known
        return sum(mass for pattern, mass in other._mass.items() if pattern in known)

    def chi_square_statistic(self, observed: "PatternDistribution") -> float:
        """Chi-square statistic of *observed* counts vs this expected dist.

        Unseen-pattern mass is pooled into a single smoothed "other" cell so
        novel patterns penalize but do not produce infinities.
        """
        expected = self._mass
        if not expected or observed.total == 0:
            return float("inf")
        smoothing = 0.5
        statistic = 0.0
        other_observed = 0
        for pattern, count in observed.counts:
            if pattern in expected:
                expected_count = expected[pattern] * observed.total
                statistic += (count - expected_count) ** 2 / max(expected_count, smoothing)
            else:
                other_observed += count
        statistic += other_observed**2 / smoothing if other_observed else 0.0
        return statistic


class ColumnProfile:
    """The type-independent view of one column, tokenized once.

    A value's tokens, its class- and kind-level symbols and the column's
    histograms over them do not depend on which type the column is scored
    against; only the mixed level does, because it keeps that type's
    constants verbatim. Recognition builds one profile per column and scores
    every learned type against it, deriving each type's mixed level from
    the cached tokens.
    """

    __slots__ = (
        "values", "tokens", "class_symbols", "class_level", "kind_level",
        "token_counts", "n_tokens", "normalized",
    )

    def __init__(self, values: Sequence[str]):
        self.values = [str(value) for value in values]
        self.tokens = [tokenize(value) for value in self.values]
        self.class_symbols = [
            tuple(symbolize(token, LEVEL_CLASS) for token in tokens) for tokens in self.tokens
        ]
        self.class_level = PatternDistribution.from_patterns(self.class_symbols)
        self.kind_level = PatternDistribution.from_patterns(
            tuple(symbolize(token, LEVEL_KIND) for token in tokens) for tokens in self.tokens
        )
        #: surface text -> occurrences over every value's tokens
        self.token_counts = Counter(token.text for tokens in self.tokens for token in tokens)
        self.n_tokens = sum(self.token_counts.values())
        self.normalized = [normalize(value) for value in self.values]

    def mixed_level(self, constants: frozenset[str]) -> PatternDistribution:
        """The mixed-level histogram: class symbols, *constants* kept verbatim."""
        if constants.isdisjoint(self.token_counts):
            return self.class_level  # no token is a constant: the levels coincide
        return PatternDistribution.from_patterns(
            tuple(
                f"CONST:{token.text}" if token.text in constants else symbol
                for token, symbol in zip(tokens, symbols)
            )
            for tokens, symbols in zip(self.tokens, self.class_symbols)
        )


@dataclass(frozen=True)
class TypeSignature:
    """The full learned representation of one semantic type's format."""

    constants: frozenset[str]
    mixed: PatternDistribution      # constants + class symbols
    class_level: PatternDistribution
    kind_level: PatternDistribution
    n_values: int
    mean_length: float
    vocabulary: frozenset[str] = frozenset()  # normalized full training values

    @staticmethod
    def from_values(values: Sequence[str]) -> "TypeSignature":
        profile = ColumnProfile(values)
        constants = learn_constants(profile.values)
        lengths = [len(value) for value in profile.values] or [0]
        return TypeSignature(
            constants=constants,
            mixed=profile.mixed_level(constants),
            class_level=profile.class_level,
            kind_level=profile.kind_level,
            n_values=len(profile.values),
            mean_length=sum(lengths) / len(lengths),
            vocabulary=frozenset(profile.normalized),
        )

    @property
    def closedness(self) -> float:
        """1 - distinct/total over training values.

        Near 1 for closed vocabularies (a handful of city names repeated
        many times); near 0 for open types (streets, person names).
        """
        if self.n_values == 0:
            return 0.0
        return 1.0 - len(self.vocabulary) / self.n_values

    def merged_with(self, values: Sequence[str]) -> "TypeSignature":
        """Refine with additional training data (Section 3.2: "patterns can
        be refined over time as additional training data becomes available").

        Re-derives the signature from the union of implied and new samples by
        replaying stored counts; counts are exact because we keep histograms.
        """
        new = TypeSignature.from_values(values)
        return TypeSignature(
            constants=self.constants | new.constants,
            mixed=_merge(self.mixed, new.mixed),
            class_level=_merge(self.class_level, new.class_level),
            kind_level=_merge(self.kind_level, new.kind_level),
            n_values=self.n_values + new.n_values,
            mean_length=(
                self.mean_length * self.n_values + new.mean_length * new.n_values
            )
            / max(self.n_values + new.n_values, 1),
            vocabulary=self.vocabulary | new.vocabulary,
        )

    def similarity(self, values: Sequence[str]) -> float:
        """Score how well a candidate column matches this type, in [0, 1]."""
        return self.score(ColumnProfile(values))

    def score(self, profile: ColumnProfile) -> float:
        """:meth:`similarity` against an already tokenized column.

        Blends cosine similarity at the three levels (specific levels count
        more when they match) with training-pattern coverage.
        """
        if not profile.values:
            return 0.0
        mixed_score = self.mixed.cosine(profile.mixed_level(self.constants))
        class_score = self.class_level.cosine(profile.class_level)
        kind_score = self.kind_level.cosine(profile.kind_level)
        coverage = self.class_level.coverage(profile.class_level)
        const_hits = self.constant_hit_rate(profile)
        vocab_score = self.vocabulary_score(profile)
        # For closed vocabularies, membership is stronger evidence than the
        # exact histogram over members (which shifts from source to source),
        # so weight shifts from the mixed-pattern cosine to vocabulary.
        shift = 0.15 * self.closedness if self.closedness >= 0.75 else 0.0
        score = (
            (0.25 - shift) * mixed_score
            + 0.15 * class_score
            + 0.05 * kind_score
            + 0.15 * coverage
            + 0.15 * const_hits
            + (0.25 + shift) * vocab_score
        )
        return max(0.0, min(1.0, score))

    def vocabulary_score(self, profile: ColumnProfile) -> float:
        """Vocabulary evidence for the candidate column, in [0, 1].

        For a *closed* training vocabulary (high :attr:`closedness`) the
        candidate's in-vocabulary rate is direct evidence — hits argue for
        the type, misses argue against. For an *open* vocabulary the feature
        is uninformative, so it returns a neutral 0.5: an open type neither
        gains nor loses from unseen values.
        """
        closed = self.closedness
        if closed < 0.75:
            return 0.5
        if not profile.values:
            return 0.0
        hits = sum(1 for value in profile.normalized if value in self.vocabulary)
        return min(1.0, (hits / len(profile.values)) / closed)

    def constant_hit_rate(self, profile: ColumnProfile) -> float:
        """Fraction of candidate tokens drawn from the learned constant set.

        Closed-vocabulary types (cities, states, street suffixes) learn their
        vocabulary as constants; a candidate column reusing that vocabulary
        is strong evidence for the type, and distinguishes e.g. ``PR-City``
        from ``PR-Name`` when both share the CapWord-CapWord shape.
        """
        if not self.constants or not profile.n_tokens:
            return 0.0
        hits = sum(
            count for text, count in profile.token_counts.items() if text in self.constants
        )
        return hits / profile.n_tokens


def _merge(a: PatternDistribution, b: PatternDistribution) -> PatternDistribution:
    counter: Counter[Pattern] = Counter(dict(a.counts))
    counter.update(dict(b.counts))
    items = tuple(sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])))
    return PatternDistribution(counts=items, total=a.total + b.total)
