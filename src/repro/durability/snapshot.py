"""Session snapshots: the checkpoint file format.

A checkpoint is one line of canonical JSON, the header, followed by a
pickle of the session's state::

    {"format":2,"n_actions":65,"python":"3.11","sha256":"…","tenant":"alice"}\\n
    <pickle of vars(session) minus the recorder>

``n_actions`` is how many recorded actions the snapshot covers; the log
tail continues at that sequence number. ``sha256`` is the digest of the
pickle, checked before anything is unpickled.

No state serializer is written by hand: the pickle is the session's own
``__dict__``. Only three kinds of object are handled apart, and none of
them is copied into the snapshot:

- **shared objects** go out as references and are resolved against the
  fresh session at load: the session itself (its bound methods reach it),
  the base catalog a tenant's catalog was forked from and that base's
  relations, every service, the cache-tier bundle with each of its
  tiers (so ``Evaluator.plan_cache``, which aliases a tier, stays an
  alias of the fleet's shared tier), and every built-in semantic type the
  session still holds unrefined (a refined type is a new object and is
  pickled by value);
- **private memos** (:class:`~repro.cache.lru.LRUCache`) come back empty,
  with the same capacity;
- **locks and cache scopes** are process-local and come back fresh
  (:meth:`~repro.substrate.relational.catalog.Catalog.__setstate__`).

The references are made by a ``dispatch_table`` keyed on the few shared
types, so no Python callback runs for the tens of thousands of ordinary
objects a session holds.

A snapshot is a same-build format: a header naming another Python
version is refused. Unpickling runs code, so a store unpickles only
checkpoints under its own durability root.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import json
import pickle
import sys
from typing import TYPE_CHECKING, Any

from ..learning.model.seed import builtin_types

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.session import CopyCatSession

FORMAT_VERSION = 2
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"
_PROTOCOL = pickle.HIGHEST_PROTOCOL


def canonical_json(obj: Any) -> str:
    """The one canonical JSON text of *obj*: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class SnapshotError(ValueError):
    """A checkpoint header or payload that does not check out."""


def _shared(key: tuple[str, ...]) -> Any:
    """The global a reference pickles as; :class:`_Loader` swaps in its resolver."""
    raise SnapshotError(f"shared reference {key!r} outside a snapshot load")


def _tiers(session: "CopyCatSession"):
    return session.engine._evaluator.tiers  # noqa: SLF001


def _shared_objects(session: "CopyCatSession") -> dict[int, tuple[Any, tuple[str, ...]]]:
    """``id -> (object, reference key)`` of everything a snapshot shares."""
    shared: list[tuple[Any, tuple[str, ...]]] = [(session, ("session",))]
    catalog = session.catalog
    base = catalog._base  # noqa: SLF001
    if base is not None:
        shared.append((base, ("base",)))
        shared.extend((r, ("relation", n)) for n, r in base._relations.items())  # noqa: SLF001
    shared.extend((s, ("service", n)) for n, s in catalog._services.items())  # noqa: SLF001
    tiers = _tiers(session)
    shared.append((tiers, ("tiers",)))
    shared.extend((getattr(tiers, name), ("tier", name)) for name in tiers.NAMES)
    shared.extend((learned, ("builtin", learned.name)) for learned in builtin_types())
    return {id(obj): (obj, key) for obj, key in shared}


def dump(session: "CopyCatSession") -> bytes:
    """The pickle of *session*'s state, shared objects as references."""
    shared = _shared_objects(session)

    def reduce(obj: Any) -> Any:
        entry = shared.get(id(obj))
        if entry is not None:
            return _shared, (entry[1],)
        return obj.__reduce_ex__(_PROTOCOL)

    table = copyreg.dispatch_table.copy()
    table.update((type(obj), reduce) for obj, _ in shared.values())
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, _PROTOCOL)
    pickler.dispatch_table = table
    pickler.dump({k: v for k, v in vars(session).items() if k != "durability"})
    return buffer.getvalue()


class _Loader(pickle.Unpickler):
    """Unpickles a snapshot, resolving references against a fresh session."""

    def __init__(self, data: bytes, session: "CopyCatSession"):
        super().__init__(io.BytesIO(data))
        self.session = session

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == "_shared":
            return self.resolve
        return super().find_class(module, name)

    def resolve(self, key: tuple[str, ...]) -> Any:
        session = self.session
        tiers = _tiers(session)
        base = session.catalog._base  # noqa: SLF001
        kind, *name = key
        if kind == "session":
            return session
        if kind == "tiers":
            return tiers
        if kind == "tier" and name[0] in tiers.NAMES:
            return getattr(tiers, name[0])
        if kind == "service":
            return session.catalog.service(name[0])
        if kind == "base" and base is not None:
            return base
        if kind == "relation" and base is not None:
            return base.relation(name[0])
        if kind == "builtin":
            for learned in builtin_types():
                if learned.name == name[0]:
                    return learned
        raise SnapshotError(f"snapshot reference {key!r} does not resolve here")


def load(session: "CopyCatSession", payload: bytes) -> None:
    """Install a snapshot's state into a freshly built *session*.

    All or nothing: the session is untouched unless the whole payload
    unpickles.
    """
    loader = _Loader(payload, session)
    try:
        state = loader.load()
    finally:
        # The memo holds loader.resolve, which holds the loader and so the
        # session: cleared, neither waits for the cyclic collector.
        loader.memo.clear()
    # Every field a fresh session has must come back (a snapshot from an
    # older build of the session class would leave some unset).
    if not isinstance(state, dict) or not vars(session).keys() - {"durability"} <= state.keys():
        raise SnapshotError("snapshot does not hold this build's session state")
    vars(session).update(state)
    # An older checkpoint holds the session's bound _linker_for as the
    # learner's factory; rebinding frees the session by reference counting
    # again and keeps later checkpoints from pickling the method.
    session._bind_linker_factory()  # noqa: SLF001


def encode(session: "CopyCatSession", tenant: str, n_actions: int) -> bytes:
    """The checkpoint file's bytes: header line, then the pickle."""
    payload = dump(session)
    header = {
        "format": FORMAT_VERSION,
        "n_actions": n_actions,
        "python": PYTHON,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "tenant": tenant,
    }
    return canonical_json(header).encode("utf-8") + b"\n" + payload


def read_header(data: bytes) -> tuple[Any, bytes]:
    """Split a checkpoint into its parsed first line and the rest."""
    first, _, rest = data.partition(b"\n")
    try:
        return json.loads(first.decode("utf-8")), rest
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"unreadable checkpoint header: {exc}") from None


def check(header: Any, payload: bytes, tenant: str) -> int:
    """``n_actions`` of a format-2 header that matches *payload*.

    Keys it does not read are ignored, so a header written with the
    older ``seed`` field still loads.
    """
    if not isinstance(header, dict) or header.get("format") != FORMAT_VERSION:
        raise SnapshotError("not a snapshot header")
    n_actions = header.get("n_actions")
    if not isinstance(n_actions, int) or isinstance(n_actions, bool) or n_actions < 0:
        raise SnapshotError(f"bad n_actions {n_actions!r}")
    if header.get("tenant") != tenant:
        raise SnapshotError(f"snapshot of tenant {header.get('tenant')!r}, not {tenant!r}")
    if header.get("python") != PYTHON:
        raise SnapshotError(f"snapshot from Python {header.get('python')!r}, this is {PYTHON}")
    if header.get("sha256") != hashlib.sha256(payload).hexdigest():
        raise SnapshotError("snapshot digest mismatch")
    return n_actions
