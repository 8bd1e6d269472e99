"""Text utilities shared by the learners.

The model learner's pattern language (Section 3.2 of the paper) works over a
tokenization of field values; the structure learner and record linker need
normalized forms of the same strings. Centralizing tokenization keeps all
components consistent about what a "token" is.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Any, Iterable

from ..analysis.concurrency.runtime import RACECHECK, TRACKER, make_lock

#: Invisible characters that survive ``str.strip()``: zero-width space /
#: non-joiner / joiner / word-joiner, BOM, and soft hyphen. Real pages embed
#: these inside otherwise-blank cells; treating them as content makes the
#: learners hallucinate values (and pattern tokens) out of nothing.
INVISIBLE_CHARS = "\u200b\u200c\u200d\u2060\ufeff\u00ad"
_INVISIBLE_TABLE = {ord(ch): None for ch in INVISIBLE_CHARS}

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(?:\.\d+)?)      # integers or decimals
  | (?P<word>[^\W\d_]+)            # letter runs (any script, not just ASCII)
  | (?P<space>[\s%s]+)             # whitespace, incl. invisible characters
  | (?P<punct>[^\w\s])             # single punctuation character
    """
    % INVISIBLE_CHARS,
    re.VERBOSE,
)

#: Fast path for pure-ASCII values (the overwhelmingly common case in the
#: tokenizer's hot loops): invisible characters and non-ASCII letters cannot
#: occur in an ASCII string, so the simple ASCII classes are semantically
#: identical to :data:`_TOKEN_RE` there — and measurably faster.
_ASCII_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(?:\.\d+)?)      # integers or decimals
  | (?P<word>[A-Za-z]+)            # alphabetic runs
  | (?P<space>\s+)                 # whitespace
  | (?P<punct>[^\w\s])             # single punctuation character
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """A lexical token: its surface *text* and coarse *kind*.

    Kinds are ``number``, ``word``, ``space``, and ``punct`` — the alphabet
    the generalized-token patterns in :mod:`repro.learning.model` refine.
    """

    text: str
    kind: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind}:{self.text!r}"


def tokenize(value: str, keep_space: bool = False) -> list[Token]:
    """Tokenize *value* into :class:`Token` objects.

    Whitespace tokens are dropped unless *keep_space* is true; the pattern
    language treats attribute values as space-separated token sequences.
    """
    pattern = _ASCII_TOKEN_RE if value.isascii() else _TOKEN_RE
    tokens: list[Token] = []
    for match in pattern.finditer(value):
        kind = match.lastgroup or "punct"
        if kind == "space" and not keep_space:
            continue
        tokens.append(Token(match.group(), kind))
    return tokens


def strip_invisible(value: str) -> str:
    """Remove zero-width/invisible characters (see :data:`INVISIBLE_CHARS`)."""
    return value.translate(_INVISIBLE_TABLE)


def clean_cell(value: str) -> str:
    """Canonical cell cleanup: drop invisible characters, then strip.

    ``str.strip()`` already handles NBSP and friends (they are unicode
    whitespace); the invisible characters are the ones it misses.
    """
    return strip_invisible(value).strip()


def is_blank(value) -> bool:
    """True when *value* is None, empty, or whitespace/invisible-only."""
    return value is None or not clean_cell(str(value))


_SPACE_RUN_RE = re.compile(r"\s+")


class InternPool:
    """A global string-interning pool (one canonical instance per value).

    Grown from the old ``normalize`` memo: the columnar scan path interns
    every string cell while transposing relations into column arrays, so
    repeated values across rows/sources share one object — join keys and
    distinct/group-by dict operations then compare by identity first, and
    each distinct string's hash is computed once process-wide.

    Interning is capped: once ``capacity`` distinct strings are pooled,
    further values pass through un-interned (correctness is unaffected;
    only the sharing stops). Hit/miss counters are kept locally (the pool
    sits in hot loops) and surfaced via :meth:`stats`; the pool's size is
    the ``columnar.intern.size`` gauge.

    Thread safety: the pool is process-global mutable state, shared by
    every concurrent session. The hit path is **lock-free** — a plain dict
    probe, atomic under CPython — so the overwhelmingly common case costs
    exactly what it did single-threaded. Only a miss takes the insert lock,
    and re-probes under it, so two threads racing to intern the same new
    value always agree on one canonical instance (no duplicate identities).
    Hit/pass counters on the lock-free path are best-effort under
    contention (a lost increment is cosmetic); the miss counter is exact.
    """

    __slots__ = ("_pool", "_insert_lock", "capacity", "hits", "misses", "passes")

    def __init__(self, capacity: int = 1 << 20):
        self._pool: dict[str, str] = {}
        self._insert_lock = make_lock("InternPool._insert_lock")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        #: values skipped: non-strings, or pool at capacity.
        self.passes = 0

    def _insert(self, value: str) -> str:
        """Slow path: pool *value* under the lock; returns the canonical one."""
        with self._insert_lock:
            if RACECHECK.enabled:
                TRACKER.note_access("InternPool._pool", self)
            canonical = self._pool.get(value)
            if canonical is not None:
                self.hits += 1
                return canonical
            if len(self._pool) >= self.capacity:
                self.passes += 1
                return value
            self._pool[value] = value
            self.misses += 1
            return value

    def intern(self, value: Any) -> Any:
        """Return the canonical instance of *value* (strings only)."""
        if type(value) is not str:
            self.passes += 1  # lint: allow=CONC003 -- best-effort counter on the lock-free fast path; a lost increment is acceptable
            return value
        canonical = self._pool.get(value)
        if canonical is not None:
            self.hits += 1  # lint: allow=CONC003 -- best-effort counter on the lock-free fast path; a lost increment is acceptable
            return canonical
        return self._insert(value)

    def intern_all(self, values: Iterable[Any]) -> list[Any]:
        """Intern a whole column in one pass (the scan-transpose hot loop)."""
        pool = self._pool
        out: list[Any] = []
        append = out.append
        for value in values:
            if type(value) is not str:
                self.passes += 1  # lint: allow=CONC003 -- best-effort counter on the lock-free fast path; a lost increment is acceptable
                append(value)
                continue
            canonical = pool.get(value)
            if canonical is not None:
                self.hits += 1  # lint: allow=CONC003 -- best-effort counter on the lock-free fast path; a lost increment is acceptable
                append(canonical)
            else:
                append(self._insert(value))
        return out

    def __len__(self) -> int:
        return len(self._pool)

    def clear(self) -> None:
        """Drop pooled strings (tests); lifetime counters survive."""
        self._pool.clear()

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._pool),
            "hits": self.hits,
            "misses": self.misses,
            "passes": self.passes,
        }


#: The process-wide interning pool (columnar scans, normalize results).
INTERN = InternPool()

#: Entries the normalize memo may hold before evicting least-recently-used.
NORMALIZE_CACHE_CAPACITY = 8192


@functools.lru_cache(maxsize=NORMALIZE_CACHE_CAPACITY)
def normalize(value: str) -> str:
    """Lowercase, collapse whitespace, and strip punctuation-adjacent space.

    Memoized: the record linker's soft-equality check and the
    auto-complete generator's alignment index normalize the same cell
    values over and over (the function is pure and values are short).
    The memo is :func:`functools.lru_cache`, bounded at
    :data:`NORMALIZE_CACHE_CAPACITY` entries: a hit is one C-level probe,
    and it is thread-safe, so concurrent sessions share it. Results are
    interned through :data:`INTERN`, so every caller shares one canonical
    normalized instance; a racy double-compute of the same value converges
    on that one interned result.
    """
    return INTERN.intern(_SPACE_RUN_RE.sub(" ", clean_cell(value)).lower())


def normalize_cache_stats() -> dict[str, float]:
    """Normalize-memo counters plus the eviction rate (evictions/insertions).

    Read from ``normalize.cache_info()``: every miss inserts one entry, so
    evictions are the misses the memo no longer holds. A rate near 1.0
    means the working set no longer fits :data:`NORMALIZE_CACHE_CAPACITY`
    and the memo is thrashing.
    """
    info = normalize.cache_info()
    evictions = info.misses - info.currsize
    return {
        "hits": info.hits,
        "misses": info.misses,
        "evictions": evictions,
        "size": info.currsize,
        "eviction_rate": evictions / max(info.misses, 1),
    }


def token_strings(value: str) -> list[str]:
    """Return just the token surface strings for *value* (no whitespace)."""
    return [token.text for token in tokenize(value)]


def title_case(value: str) -> str:
    """Title-case words while leaving digits and punctuation untouched."""
    return re.sub(r"[A-Za-z]+", lambda m: m.group().capitalize(), value)


def is_numeric(value: str) -> bool:
    """True when the whole string is a single (possibly decimal) number."""
    return bool(re.fullmatch(r"\s*-?\d+(?:\.\d+)?\s*", value))
