"""Field-pair similarity features for record linking.

Example 1: "the match might not be a direct lookup, but rather the result of
approximate record linking techniques ... CopyCat learns the best
combination of heuristics for this case of record linking". The heuristics
are feature functions over a pair of field values; the linker learns their
combination weights.

Every heuristic scores two :class:`~repro.util.strings.StringProfile`
objects, so a value is normalized, tokenised and indexed once however many
values it is compared with; ``exact_match`` and friends are string-taking
wrappers. The linker re-scores the same few value pairs each time the user
refreshes column suggestions, and features do not depend on the learned
weights, so each :class:`FeatureExtractor` memoises the feature tuple of
every (field pair, left value, right value) it has scored, and the
profiles of the values it has seen, in bounded LRUs. Training never
invalidates them.

Jaro-Winkler and Levenshtein cost about three quarters of a pair's
features, and a best-match search needs them only for the few pairs that
can still win (see :meth:`repro.substrate.relational.algebra.RowLinker.
best_match`). So a memo entry holds one of two tuples for its pair: the
*full* tuple, every feature exact, or a *partial* one (:class:`Partial`),
with every other feature exact and these two :data:`BOUNDED_KERNELS` at
1.0, their largest value. Scoring a pair turns its partial entry into the
full one by computing only the two kernels it lacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..cache.lru import LRUCache
from ..util.strings import (
    StringProfile,
    profile_jaro_winkler,
    profile_levenshtein_ratio,
    profile_ngram_dice,
    profile_token_jaccard,
)

#: A heuristic: the similarity in [0, 1] of two profiled field values.
SimilarityFn = Callable[[StringProfile, StringProfile], float]

#: Distinct (field pair, left value, right value) feature tuples, full or
#: partial, each extractor keeps. A Figure-3 journey bounds about 100 and
#: fully scores about a tenth of them.
FEATURE_MEMO_CAPACITY = 4096
#: Distinct value profiles each extractor keeps alongside its feature memo.
PROFILE_MEMO_CAPACITY = 1024


def profile_exact_match(a: StringProfile, b: StringProfile) -> float:
    """1.0 iff the normalized strings are identical."""
    return 1.0 if a.normalized == b.normalized else 0.0


def profile_prefix_containment(a: StringProfile, b: StringProfile) -> float:
    """Token-prefix containment: does one string start with the other's tokens?

    Catches truncations like ``"Monarch High School" → "Monarch High"``.
    """
    tokens_a, tokens_b = a.tokens, b.tokens
    if not tokens_a or not tokens_b:
        return 0.0
    shorter, longer = sorted((tokens_a, tokens_b), key=len)
    if longer[: len(shorter)] == shorter:
        return len(shorter) / len(longer)
    return 0.0


def profile_acronym_match(a: StringProfile, b: StringProfile) -> float:
    """Abbreviation evidence: ``HS`` vs ``High School``, ``Elem`` etc.

    Scores the fraction of the shorter string's tokens that are prefixes or
    initials of tokens in the longer string, in order.
    """
    tokens_a, tokens_b = a.tokens, b.tokens
    if not tokens_a or not tokens_b:
        return 0.0
    short, long_ = sorted((tokens_a, tokens_b), key=len)
    # Expand potential initialisms: "hs" -> ["h", "s"]
    expanded: list[str] = []
    for token in short:
        if len(token) <= 3 and token.isalpha() and token not in long_:
            expanded.extend(token)
        else:
            expanded.append(token)
    matched = 0
    cursor = 0
    for piece in expanded:
        while cursor < len(long_):
            candidate = long_[cursor]
            cursor += 1
            if candidate == piece or candidate.startswith(piece):
                matched += 1
                break
    return matched / len(expanded) if expanded else 0.0


def exact_match(a: str, b: str) -> float:
    """:func:`profile_exact_match` of two strings."""
    return profile_exact_match(StringProfile(a), StringProfile(b))


def prefix_containment(a: str, b: str) -> float:
    """:func:`profile_prefix_containment` of two strings."""
    return profile_prefix_containment(StringProfile(a), StringProfile(b))


def acronym_match(a: str, b: str) -> float:
    """:func:`profile_acronym_match` of two strings."""
    return profile_acronym_match(StringProfile(a), StringProfile(b))


#: The default heuristic library ("in some cases, use a function from a
#: predefined library", Section 2.2).
DEFAULT_SIMILARITIES: dict[str, SimilarityFn] = {
    "exact": profile_exact_match,
    "jaro_winkler": profile_jaro_winkler,
    "levenshtein": profile_levenshtein_ratio,
    "token_jaccard": profile_token_jaccard,
    "ngram_dice": profile_ngram_dice,
    "prefix": profile_prefix_containment,
    "acronym": profile_acronym_match,
}


#: The library kernels a partial feature tuple leaves uncomputed, at 1.0.
#: Both lie in [0, 1]; they are recognised by identity, so a custom
#: similarity that reuses one of their names is computed like any other.
BOUNDED_KERNELS = (profile_jaro_winkler, profile_levenshtein_ratio)


class Partial(tuple):
    """A pair's feature tuple with each bounded kernel at 1.0, not computed."""

    __slots__ = ()


@dataclass(frozen=True)
class FieldPair:
    """Which left attribute is compared with which right attribute."""

    left: str
    right: str

    def __str__(self) -> str:
        return f"{self.left}~{self.right}"


class FeatureExtractor:
    """Computes the named feature vector for a pair of records.

    One feature per (field pair × similarity function); feature names are
    ``"Name~Shelter:jaro_winkler"`` style, so learned weights are readable.
    Field pairs and similarities are fixed at construction: the feature
    memo (see the module docstring) is keyed on field-pair index and the
    two values' text.
    """

    def __init__(
        self,
        field_pairs: Sequence[FieldPair],
        similarities: dict[str, SimilarityFn] | None = None,
    ):
        self.field_pairs = list(field_pairs)
        self.similarities = dict(similarities or DEFAULT_SIMILARITIES)
        self._zeros = (0.0,) * len(self.similarities)
        self._memo = LRUCache(FEATURE_MEMO_CAPACITY, metrics_prefix="linking.feature_memo")
        self._profiles = LRUCache(PROFILE_MEMO_CAPACITY)
        self._find_bounded_kernels()

    def _find_bounded_kernels(self) -> None:
        # Per similarity: the kernel a partial tuple leaves out, else None.
        self._bounded = tuple(
            fn if any(fn is kernel for kernel in BOUNDED_KERNELS) else None
            for fn in self.similarities.values()
        )
        #: Positions in :meth:`features` that a partial tuple holds at 1.0.
        self.bounded_positions = frozenset(
            index * len(self._bounded) + k
            for index in range(len(self.field_pairs))
            for k, fn in enumerate(self._bounded)
            if fn is not None
        )

    def __getstate__(self) -> dict[str, Any]:
        # The bounded kernels derive from the similarities and are found
        # again on load, so a pickle holds what it held before they were
        # kept: checkpoints written either way load either way.
        state = self.__dict__.copy()
        del state["_bounded"], state["bounded_positions"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._find_bounded_kernels()

    def feature_names(self) -> list[str]:
        return [
            f"{pair}:{sim_name}"
            for pair in self.field_pairs
            for sim_name in self.similarities
        ]

    def features(self, left: Any, right: Any) -> tuple[float, ...]:
        """The feature values for (*left*, *right*), in :meth:`feature_names` order.

        Inputs are dict-like rows; a ``None`` on either side scores 0.0 on
        every feature of its field pair.
        """
        out: tuple[float, ...] = ()
        for index, pair in enumerate(self.field_pairs):
            value_left = _get(left, pair.left)
            value_right = _get(right, pair.right)
            if value_left is None or value_right is None:
                out += self._zeros
            else:
                out += self._pair_features(index, str(value_left), str(value_right))
        return out

    def extract(self, left: Any, right: Any) -> dict[str, float]:
        """Feature vector for (*left*, *right*) by feature name."""
        return dict(zip(self.feature_names(), self.features(left, right)))

    def bounding_features(
        self, left: Any, right_rows: Sequence[Any]
    ) -> list[tuple[tuple[float, ...], bool]]:
        """Per right row: its features as far as known, and whether all are exact.

        A pair the memo does not hold is scored partially (see the module
        docstring), so each of :data:`BOUNDED_KERNELS` may stand at 1.0;
        the flag is False when one does. *left*'s values are read once
        for all rows.
        """
        lefts = []
        for index, pair in enumerate(self.field_pairs):
            value = _get(left, pair.left)
            lefts.append((index, pair.right, None if value is None else str(value)))
        kind = Partial if self.bounded_positions else tuple
        memo = self._memo
        out = []
        for right in right_rows:
            features: tuple[float, ...] = ()
            exact = True
            for index, name_right, text_left in lefts:
                value_right = _get(right, name_right)
                if text_left is None or value_right is None:
                    features += self._zeros
                    continue
                text_right = str(value_right)
                key = (index, text_left, text_right)
                cached = memo.get(key)
                if cached is None:
                    a, b = self._profile(text_left), self._profile(text_right)
                    cached = kind(
                        [
                            1.0 if bounded is not None else fn(a, b)
                            for fn, bounded in zip(self.similarities.values(), self._bounded)
                        ]
                    )
                    memo.put(key, cached)
                if type(cached) is Partial:
                    exact = False
                features += cached
            out.append((features, exact))
        return out

    def _pair_features(self, index: int, text_left: str, text_right: str) -> tuple[float, ...]:
        key = (index, text_left, text_right)
        cached = self._memo.get(key)
        if cached is None or type(cached) is Partial:
            a, b = self._profile(text_left), self._profile(text_right)
            if cached is None:
                cached = tuple([fn(a, b) for fn in self.similarities.values()])
            else:  # compute only the kernels the partial tuple lacks
                cached = tuple(
                    [value if fn is None else fn(a, b) for value, fn in zip(cached, self._bounded)]
                )
            self._memo.put(key, cached)
        return cached

    def _profile(self, text: str) -> StringProfile:
        profile = self._profiles.get(text)
        if profile is None:
            profile = StringProfile(text)
            self._profiles.put(text, profile)
        return profile


def _get(row: Any, name: str) -> Any:
    if hasattr(row, "get"):
        return row.get(name)
    return row[name]
