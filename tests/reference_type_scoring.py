"""Reference type recognition and string measures: oracles for the fast paths.

Deliberately naive and independent of the optimised code: every learned
type re-tokenises the whole column at every level, every distribution
builds its normalized dict afresh, nothing is memoised, edit distance is
the textbook dynamic program, and Jaro scans the whole match window.
``SemanticTypeLearner.recognize`` must match :func:`recognize` exactly
(types, ``==`` scores and order); ``levenshtein`` and ``jaro`` must match
their namesakes here.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from repro.learning.model import (
    LEVEL_CLASS,
    LEVEL_KIND,
    SemanticTypeLearner,
    TypeHypothesis,
    TypeSignature,
    mixed_symbols,
    value_symbols,
)
from repro.util.text import clean_cell, normalize, tokenize


def levenshtein(a: str, b: str) -> int:
    """Edit distance by the O(len(a)·len(b)) dynamic program."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def jaro(a: str, b: str) -> float:
    """Jaro similarity, scanning the whole window for every character."""
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    window = max(max(len_a, len_b) // 2 - 1, 0)
    matched_a = [False] * len_a
    matched_b = [False] * len_b
    matches = 0
    for i, char in enumerate(a):
        for j in range(max(0, i - window), min(len_b, i + window + 1)):
            if not matched_b[j] and b[j] == char:
                matched_a[i] = matched_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_a):
        if matched_a[i]:
            while not matched_b[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    return (matches / len_a + matches / len_b + (matches - transpositions) / matches) / 3.0


def _histogram(patterns) -> tuple[tuple[tuple, int], ...]:
    counter = Counter(patterns)
    return tuple(sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])))


def _as_dict(counts, total) -> dict:
    if total == 0:
        return {}
    return {pattern: count / total for pattern, count in counts}


def _cosine(a: dict, b: dict) -> float:
    if not a or not b:
        return 0.0
    dot = sum(a[p] * b.get(p, 0.0) for p in a)
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a == 0 or norm_b == 0:
        return 0.0
    return dot / (norm_a * norm_b)


def _dist_dict(patterns) -> dict:
    counts = _histogram(patterns)
    return _as_dict(counts, sum(count for _, count in counts))


def similarity(signature: TypeSignature, values: Sequence[str]) -> float:
    """The per-type score, tokenising the column afresh at every level."""
    values = [str(value) for value in values]
    if not values:
        return 0.0
    candidate_mixed = _dist_dict(mixed_symbols(value, signature.constants) for value in values)
    candidate_class = _dist_dict(value_symbols(value, LEVEL_CLASS) for value in values)
    candidate_kind = _dist_dict(value_symbols(value, LEVEL_KIND) for value in values)
    trained_mixed = _as_dict(signature.mixed.counts, signature.mixed.total)
    trained_class = _as_dict(signature.class_level.counts, signature.class_level.total)
    trained_kind = _as_dict(signature.kind_level.counts, signature.kind_level.total)
    mixed_score = _cosine(trained_mixed, candidate_mixed)
    class_score = _cosine(trained_class, candidate_class)
    kind_score = _cosine(trained_kind, candidate_kind)
    known = {pattern for pattern, _ in signature.class_level.counts}
    coverage = sum(mass for pattern, mass in candidate_class.items() if pattern in known)

    const_hits = 0.0
    if signature.constants:
        total = hits = 0
        for value in values:
            for token in tokenize(value):
                total += 1
                if token.text in signature.constants:
                    hits += 1
        const_hits = hits / total if total else 0.0

    closedness = 1.0 - len(signature.vocabulary) / signature.n_values if signature.n_values else 0.0
    if closedness < 0.75:
        vocab_score = 0.5
    else:
        in_vocabulary = sum(1 for value in values if normalize(value) in signature.vocabulary)
        vocab_score = min(1.0, (in_vocabulary / len(values)) / closedness)

    shift = 0.15 * closedness if closedness >= 0.75 else 0.0
    score = (
        (0.25 - shift) * mixed_score
        + 0.15 * class_score
        + 0.05 * kind_score
        + 0.15 * coverage
        + 0.15 * const_hits
        + (0.25 + shift) * vocab_score
    )
    return max(0.0, min(1.0, score))


def recognize(
    learner: SemanticTypeLearner, values: Sequence[str], top_k: int | None = None
) -> list[TypeHypothesis]:
    """Ranked hypotheses over *learner*'s registry, scored type by type."""
    values = [clean_cell(str(value)) for value in values]
    values = [value for value in values if value]
    if not values:
        return []
    hypotheses = []
    for name in learner.known_types():
        learned = learner.get(name)
        score = similarity(learned.signature, values)
        if score >= learner.recognition_threshold:
            hypotheses.append(TypeHypothesis(learned.semantic_type, score))
    hypotheses.sort(key=lambda h: (-h.score, h.semantic_type.name))
    return hypotheses if top_k is None else hypotheses[:top_k]
