"""Reference string similarity features: oracles for the profile-based linker.

These are the string-taking record-linking measures exactly as they were
before each feature learned to score two precomputed
:class:`~repro.util.strings.StringProfile` objects: every call re-normalizes,
re-tokenises, rebuilds its bigram multiset and its Jaro/Myers indexes, and
nothing is memoised. Every entry of
:data:`repro.linking.similarity.DEFAULT_SIMILARITIES` must return exactly
(``==``) what its namesake here returns, and
:meth:`~repro.linking.similarity.FeatureExtractor.extract` must equal
:func:`extract` with :data:`SIMILARITIES`.
"""

from __future__ import annotations

from typing import Any

from repro.util.text import normalize, token_strings


def levenshtein(a: str, b: str) -> int:
    """Edit distance between *a* and *b* (insert/delete/substitute, cost 1).

    Myers' bit-parallel algorithm in Hyyrö's formulation: one column of the
    dynamic-programming matrix is held as two bit vectors of vertical +1/-1
    deltas over the shorter string, so each character of the longer string
    costs a handful of integer operations instead of a pass over the
    shorter one. Python ints are unbounded, so strings of any length fit
    one vector. The result is exactly the textbook DP's.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    peq: dict[str, int] = {}  # character -> bitmask of its positions in b
    for i, char in enumerate(b):
        peq[char] = peq.get(char, 0) | (1 << i)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, distance = mask, 0, m
    for char in a:
        eq = peq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            distance += 1
        elif mh & last:
            distance -= 1
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return distance


def levenshtein_ratio(a: str, b: str) -> float:
    """Similarity derived from edit distance: ``1 - dist / max_len``."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def jaro(a: str, b: str) -> float:
    """Jaro similarity: transposition-aware matching within a sliding window.

    Each character of *a* matches the first unmatched equal character of
    *b* within the window; *b*'s positions are indexed by character, so
    only equal characters are visited.
    """
    if a == b:
        return 1.0
    len_a, len_b = len(a), len(b)
    if len_a == 0 or len_b == 0:
        return 0.0
    window = max(max(len_a, len_b) // 2 - 1, 0)
    positions: dict[str, list[int]] = {}
    for j, char in enumerate(b):
        positions.setdefault(char, []).append(j)
    matched_b = [False] * len_b
    matched_a: list[str] = []  # a's matched characters, in order
    for i, char in enumerate(a):
        for j in positions.get(char, ()):
            if j > i + window:
                break
            if j >= i - window and not matched_b[j]:
                matched_b[j] = True
                matched_a.append(char)
                break
    matches = len(matched_a)
    if matches == 0:
        return 0.0
    in_b = [b[j] for j in range(len_b) if matched_b[j]]
    transpositions = sum(1 for x, y in zip(matched_a, in_b) if x != y) // 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler: Jaro boosted by the length of the common prefix (≤4)."""
    base = jaro(a, b)
    prefix = 0
    for char_a, char_b in zip(a, b):
        if char_a != char_b or prefix == 4:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def token_jaccard(a: str, b: str) -> float:
    """Jaccard similarity over normalized token sets."""
    tokens_a = {token.lower() for token in token_strings(a)}
    tokens_b = {token.lower() for token in token_strings(b)}
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)


def ngrams(value: str, n: int = 2) -> list[str]:
    """Character n-grams of the normalized string (padded with spaces)."""
    padded = f" {normalize(value)} "
    if len(padded) < n:
        return [padded]
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]


def ngram_dice(a: str, b: str, n: int = 2) -> float:
    """Dice coefficient over character n-gram multisets."""
    grams_a = ngrams(a, n)
    grams_b = ngrams(b, n)
    if not grams_a and not grams_b:
        return 1.0
    counts: dict[str, int] = {}
    for gram in grams_a:
        counts[gram] = counts.get(gram, 0) + 1
    overlap = 0
    for gram in grams_b:
        remaining = counts.get(gram, 0)
        if remaining:
            counts[gram] = remaining - 1
            overlap += 1
    return 2.0 * overlap / (len(grams_a) + len(grams_b))


def exact_match(a: str, b: str) -> float:
    """1.0 iff the normalized strings are identical."""
    return 1.0 if normalize(a) == normalize(b) else 0.0


def prefix_containment(a: str, b: str) -> float:
    """Token-prefix containment: does one string start with the other's tokens?

    Catches truncations like ``"Monarch High School" → "Monarch High"``.
    """
    tokens_a = [token.lower() for token in token_strings(a)]
    tokens_b = [token.lower() for token in token_strings(b)]
    if not tokens_a or not tokens_b:
        return 0.0
    shorter, longer = sorted((tokens_a, tokens_b), key=len)
    if longer[: len(shorter)] == shorter:
        return len(shorter) / len(longer)
    return 0.0


def acronym_match(a: str, b: str) -> float:
    """Abbreviation evidence: ``HS`` vs ``High School``, ``Elem`` etc.

    Scores the fraction of the shorter string's tokens that are prefixes or
    initials of tokens in the longer string, in order.
    """
    tokens_a = [token.lower() for token in token_strings(a)]
    tokens_b = [token.lower() for token in token_strings(b)]
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


#: The oracle for each feature of ``DEFAULT_SIMILARITIES``, by name.
SIMILARITIES = {
    "exact": exact_match,
    "jaro_winkler": jaro_winkler,
    "levenshtein": levenshtein_ratio,
    "token_jaccard": token_jaccard,
    "ngram_dice": ngram_dice,
    "prefix": prefix_containment,
    "acronym": acronym_match,
}


def extract(field_pairs, left: Any, right: Any) -> dict[str, float]:
    """The feature vector of (*left*, *right*), one oracle call per feature."""
    features: dict[str, float] = {}
    for pair in field_pairs:
        value_left, value_right = left.get(pair.left), right.get(pair.right)
        for sim_name, fn in SIMILARITIES.items():
            key = f"{pair}:{sim_name}"
            if value_left is None or value_right is None:
                features[key] = 0.0
            else:
                features[key] = fn(str(value_left), str(value_right))
    return features
