"""Deterministic random-number helpers.

All stochastic components in the library accept either an integer seed or a
:class:`random.Random` instance. These helpers normalize that convention and
provide derived, independent sub-streams so that adding randomness in one
component never perturbs another.
"""

from __future__ import annotations

import hashlib
import random

DEFAULT_SEED = 20090104  # CIDR 2009 opening day


def make_rng(seed: int | random.Random | None = None) -> random.Random:
    """Return a :class:`random.Random` for *seed*.

    Accepts an existing ``Random`` (returned as-is), an ``int`` seed, or
    ``None`` (which maps to :data:`DEFAULT_SEED` so the library is
    deterministic by default).
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return random.Random(seed)


def derive_rng(rng: random.Random, *labels: str | int) -> random.Random:
    """Derive an independent sub-stream from *rng* keyed by *labels*.

    The derivation hashes the labels together with one draw from the parent
    stream, so two sub-streams with different labels are decorrelated while
    remaining fully reproducible.
    """
    token = ":".join(str(label) for label in labels)
    base = rng.getrandbits(64)
    digest = hashlib.sha256(f"{base}:{token}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def seed_for(*labels: str | int) -> int:
    """A stable 64-bit seed derived purely from *labels* (no parent stream).

    Kept for existing callers; no session seed selects anything any more.
    """
    token = ":".join(str(label) for label in labels)
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
