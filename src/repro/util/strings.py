"""String similarity measures used by the record linker.

Pure-Python implementations of the classic measures the paper's record
linking component combines ("the best combination of heuristics", Section 1):
Levenshtein distance/ratio, Jaro and Jaro-Winkler similarity, token Jaccard,
and character bigram (Dice) similarity. All similarities are in [0, 1] with
1 meaning identical.

Each measure has one implementation, ``profile_*``, which scores two
:class:`StringProfile` objects. A profile derives what the measures need
from one string (normalized form, tokens, bigrams, the Jaro and Myers
indexes) once, so a linker that compares the same values again and again
pays for each string once. The string-taking functions are one-line
wrappers that profile their arguments.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from operator import add

from .text import normalize, token_strings


class StringProfile:
    """What the similarity measures derive from one string, built once.

    Every field is computed the first time a measure asks for it and kept:

    - ``normalized``: the text after :func:`~repro.util.text.normalize`;
    - ``tokens`` / ``token_set``: the lower-cased token strings, from one
      tokenisation;
    - ``bigrams``: the multiset of character bigrams of the space-padded
      normalized text;
    - ``positions``: character → ascending positions (the index Jaro
      builds over its second string);
    - ``peq``: character → bitmask of its positions (the index Myers'
      edit distance builds over the shorter string).
    """

    def __init__(self, text: str):
        self.text = text

    @cached_property
    def normalized(self) -> str:
        return normalize(self.text)

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        return tuple([token.lower() for token in token_strings(self.text)])

    @cached_property
    def token_set(self) -> frozenset[str]:
        return frozenset(self.tokens)

    @cached_property
    def bigrams(self) -> Counter[str]:
        padded = f" {self.normalized} "
        return Counter(map(add, padded, padded[1:]))

    @cached_property
    def positions(self) -> dict[str, list[int]]:
        positions: dict[str, list[int]] = {}
        for j, char in enumerate(self.text):
            positions.setdefault(char, []).append(j)
        return positions

    @cached_property
    def peq(self) -> dict[str, int]:
        peq: dict[str, int] = {}
        for i, char in enumerate(self.text):
            peq[char] = peq.get(char, 0) | (1 << i)
        return peq


def profile_levenshtein(a: StringProfile, b: StringProfile) -> int:
    """Edit distance between *a* and *b* (insert/delete/substitute, cost 1).

    Myers' bit-parallel algorithm in Hyyrö's formulation: one column of the
    dynamic-programming matrix is held as two bit vectors of vertical +1/-1
    deltas over the shorter string, so each character of the longer string
    costs a handful of integer operations instead of a pass over the
    shorter one. Python ints are unbounded, so strings of any length fit
    one vector. The result is exactly the textbook DP's.
    """
    if a.text == b.text:
        return 0
    if len(a.text) < len(b.text):
        a, b = b, a
    m = len(b.text)
    if m == 0:
        return len(a.text)
    peq = b.peq  # character -> bitmask of its positions in b
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, distance = mask, 0, m
    for char in a.text:
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


def profile_levenshtein_ratio(a: StringProfile, b: StringProfile) -> float:
    """Similarity derived from edit distance: ``1 - dist / max_len``."""
    longest = max(len(a.text), len(b.text))
    if longest == 0:
        return 1.0
    return 1.0 - profile_levenshtein(a, b) / longest


def profile_jaro(a: StringProfile, b: StringProfile) -> float:
    """Jaro similarity: transposition-aware matching within a sliding window.

    Each character of *a* matches the first unmatched equal character of
    *b* within the window; *b*'s positions are indexed by character, so
    only equal characters are visited.
    """
    text_a, text_b = a.text, b.text
    if text_a == text_b:
        return 1.0
    len_a, len_b = len(text_a), len(text_b)
    if len_a == 0 or len_b == 0:
        return 0.0
    window = max(max(len_a, len_b) // 2 - 1, 0)
    positions = b.positions
    matched_b = [False] * len_b
    matched_a: list[str] = []  # a's matched characters, in order
    for i, char in enumerate(text_a):
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
    in_b = [text_b[j] for j in range(len_b) if matched_b[j]]
    transpositions = sum(1 for x, y in zip(matched_a, in_b) if x != y) // 2
    return (
        matches / len_a + matches / len_b + (matches - transpositions) / matches
    ) / 3.0


def profile_jaro_winkler(
    a: StringProfile, b: StringProfile, prefix_scale: float = 0.1
) -> float:
    """Jaro-Winkler: Jaro boosted by the length of the common prefix (≤4)."""
    base = profile_jaro(a, b)
    prefix = 0
    for char_a, char_b in zip(a.text, b.text):
        if char_a != char_b or prefix == 4:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def profile_token_jaccard(a: StringProfile, b: StringProfile) -> float:
    """Jaccard similarity over lower-cased token sets."""
    tokens_a, tokens_b = a.token_set, b.token_set
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)


def profile_ngram_dice(a: StringProfile, b: StringProfile) -> float:
    """Dice coefficient over the character bigram multisets."""
    grams_a, grams_b = a.bigrams, b.bigrams
    overlap = sum(  # lint: allow=REPRO007 -- integer counts add the same in any order
        min(grams_a[gram], grams_b[gram]) for gram in grams_a.keys() & grams_b.keys()
    )
    # A padded string of length n + 2 has n + 1 bigrams.
    return 2.0 * overlap / (len(a.normalized) + 1 + len(b.normalized) + 1)


def levenshtein(a: str, b: str) -> int:
    """Edit distance between two strings (see :func:`profile_levenshtein`)."""
    return profile_levenshtein(StringProfile(a), StringProfile(b))


def levenshtein_ratio(a: str, b: str) -> float:
    """``1 - dist / max_len`` (see :func:`profile_levenshtein_ratio`)."""
    return profile_levenshtein_ratio(StringProfile(a), StringProfile(b))


def jaro(a: str, b: str) -> float:
    """Jaro similarity of two strings (see :func:`profile_jaro`)."""
    return profile_jaro(StringProfile(a), StringProfile(b))


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro-Winkler similarity of two strings (see :func:`profile_jaro_winkler`)."""
    return profile_jaro_winkler(StringProfile(a), StringProfile(b), prefix_scale)


def token_jaccard(a: str, b: str) -> float:
    """Token-set Jaccard similarity of two strings (see :func:`profile_token_jaccard`)."""
    return profile_token_jaccard(StringProfile(a), StringProfile(b))


def ngram_dice(a: str, b: str) -> float:
    """Bigram Dice similarity of two strings (see :func:`profile_ngram_dice`)."""
    return profile_ngram_dice(StringProfile(a), StringProfile(b))


def ngrams(value: str, n: int = 2) -> list[str]:
    """Character n-grams of the normalized string (padded with spaces)."""
    padded = f" {normalize(value)} "
    if len(padded) < n:
        return [padded]
    return [padded[i : i + n] for i in range(len(padded) - n + 1)]


def longest_common_prefix(a: str, b: str) -> int:
    """Length of the common prefix of *a* and *b*."""
    count = 0
    for char_a, char_b in zip(a, b):
        if char_a != char_b:
            break
        count += 1
    return count


def longest_common_suffix(a: str, b: str) -> int:
    """Length of the common suffix of *a* and *b*."""
    return longest_common_prefix(a[::-1], b[::-1])
