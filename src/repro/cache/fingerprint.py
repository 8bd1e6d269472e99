"""Structural plan fingerprints.

The suggestion pipeline evaluates *many* candidate plans per refresh, and
the candidates overwhelmingly share structure: every extension of the
current ``IntegrationQuery`` embeds the current plan as its join prefix,
and consecutive ``column_suggestions`` refreshes re-build byte-identical
plan trees. :func:`plan_fingerprint` maps a plan to a hashable value that
is equal exactly when two plans are structurally interchangeable, so the
evaluator's result cache can serve the shared prefix once.

Every plan node is a frozen dataclass, so a fingerprint is the node's
exact type followed by one token per dataclass field: a child ``Plan``
recurses, a tuple maps element-wise (``Union.parts``, ``Rename.mapping``,
``GroupBy.aggregates``), and anything else — names, counts, predicates,
aggregate specs — is the value itself. Frozen-dataclass predicates
therefore compare by exact field equality, and objects without value
equality compare by identity: correct, merely cache-shy. Because the
walker reads the fields, a field added to an operator is covered without
any registration, and a subclass keys on its own type, never its
parent's.

The one behavioural escape hatch is **linkers** (``RecordLinkJoin.linker``),
which may carry learned weights: a :class:`~repro.linking.linker.
LearnedLinker` contributes its field pairs, similarity names, and current
weights (so two freshly-built linkers over the same edge are
interchangeable, and a *trained* linker fingerprints differently from an
untrained one). Unknown :class:`RowLinker` subclasses fall back to object
identity.

The catalog's contents are deliberately *not* part of the fingerprint;
pairing the fingerprint with :attr:`Catalog.version` is the cache key.

The evaluator needs the fingerprint of the root (its compile-memo key) and
of every cacheable node under it (their subplan-cache keys).
:func:`plan_fingerprints` computes all of them in one bottom-up walk per
run: a node's token holds its children's tokens, so each node is
tokenized once however many cached ancestors it has. Tokens are not kept
across runs, so a subtree holding a ``RecordLinkJoin`` always reads its
linker's current weights.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Hashable

from ..substrate.relational.algebra import Plan, RowLinker


def linker_token(linker: RowLinker) -> Hashable:
    """A hashable token equal for behaviourally-equal linkers."""
    extractor = getattr(linker, "extractor", None)
    weights = getattr(linker, "weights", None)
    if extractor is not None and isinstance(weights, dict):
        # LearnedLinker shape: field pairs × similarity names, plus the
        # learned weight vector (training must change the fingerprint).
        return (
            type(linker).__name__,
            tuple(str(pair) for pair in getattr(extractor, "field_pairs", ())),
            tuple(sorted(getattr(extractor, "similarities", {}))),
            tuple(sorted(weights.items())),
        )
    return (type(linker).__name__, id(linker))


def plan_fingerprint(plan: Plan) -> Hashable:
    """A hashable structural fingerprint of *plan* (see module docstring).

    Raises ``TypeError`` when a field holds an unhashable value (or the
    node is not a dataclass).
    """
    fingerprint = _node_token(plan, {})
    hash(fingerprint)  # fail here, not at the caller's cache probe
    return fingerprint


def plan_fingerprints(plan: Plan) -> dict[int, Any]:
    """The fingerprint of every node of *plan*, keyed by ``id(node)``.

    One bottom-up walk: each distinct node object is tokenized once. A
    token is ``plan_fingerprint(node)`` when that succeeds; a node with an
    unhashable field (or that is not a dataclass) gets an unhashable token,
    and so does every ancestor, so ``hash`` raises ``TypeError`` for
    exactly the nodes ``plan_fingerprint`` raises it for. The ids are
    valid only while *plan* is alive.
    """
    tokens: dict[int, Any] = {}
    _node_token(plan, tokens)
    return tokens


def _node_token(plan: Plan, tokens: dict[int, Any]) -> Any:
    token = tokens.get(id(plan))
    if token is None:
        token = tokens[id(plan)] = _tokenize(plan, tokens)
    return token


def _tokenize(plan: Plan, tokens: dict[int, Any]) -> Any:
    """One node's token from its fields; child plans come from *tokens*."""
    try:
        names = _field_names(type(plan))
    except TypeError:
        return [plan]  # not a dataclass: no sound key, and unhashable says so
    return (type(plan), *[_token(getattr(plan, name), tokens) for name in names])


@functools.lru_cache(maxsize=256)
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


def _token(value: Any, tokens: dict[int, Any]) -> Any:
    if isinstance(value, str):  # the common leaf: names, sources, services
        return value
    if isinstance(value, Plan):
        return _node_token(value, tokens)
    if isinstance(value, tuple):
        return tuple([_token(item, tokens) for item in value])
    if isinstance(value, RowLinker):
        return linker_token(value)
    return value
