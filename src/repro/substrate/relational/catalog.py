"""The system catalog.

Section 2.2: "The resulting source description gets added to a system
catalog." The catalog holds base relations (imported sources) and services
(bound sources), plus per-source metadata the learners maintain: trust
scores, provenance of how the source was learned, and learned semantic types.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

from typing import TYPE_CHECKING

from ...analysis.concurrency.runtime import make_lock
from ...errors import CatalogError
from .relation import Relation
from .schema import Schema

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from ..services.base import Service


@dataclass
class SourceMetadata:
    """Learner-maintained bookkeeping for a catalog entry."""

    origin: str = "manual"          # e.g. "paste", "predefined", "import"
    trust: float = 1.0              # source trust score in [0, 1]
    url: str | None = None          # where the source was extracted from
    foreign_keys: dict[str, tuple[str, str]] = field(default_factory=dict)
    # attribute -> (other source, other attribute); "known links or foreign
    # keys" seed association edges in the source graph (Section 4.1).
    notes: dict[str, Any] = field(default_factory=dict)


#: Process-global allocator for catalog cache scopes. ``next()`` on an
#: ``itertools.count`` is atomic under CPython, so concurrent forks always
#: receive distinct scope tokens without extra locking.
_SCOPE_COUNTER = itertools.count(1)


class Catalog:
    """Named registry of relations and services.

    Multi-tenant sharing (the session server) adds two notions on top of the
    plain registry:

    - a **cache scope** — a process-unique token naming the *lineage* of this
      catalog's contents. Shared cache tiers key entries on
      ``(scope, fingerprint, version)``; two unrelated catalogs can never
      collide on a key, while a pristine fork *shares* its parent's scope (and
      therefore the parent's warm cache entries) until its first divergent
      mutation, at which point it silently acquires a fresh scope of its own.
    - **freezing** — the server freezes the shared base catalog after setup;
      any later mutation raises, which is what makes lock-free concurrent
      reads of the base sound.
    """

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}
        self._services: dict[str, "Service"] = {}
        self._metadata: dict[str, SourceMetadata] = {}
        self._version = 0
        self._scope = next(_SCOPE_COUNTER)
        self._frozen = False
        self._fork_pristine = False
        self._scope_lock = make_lock("Catalog._scope_lock")
        #: the catalog this one was forked from (None for a root catalog).
        self._base: Catalog | None = None

    # -- multi-tenant sharing ----------------------------------------------------
    @property
    def cache_scope(self) -> int:
        """The token shared cache tiers fold into every key for this catalog."""
        return self._scope

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        """Make the catalog immutable (the server's shared base layer)."""
        self._frozen = True

    def fork(self) -> "Catalog":
        """A copy-on-write per-tenant view of this catalog.

        The fork shares ``Relation`` and ``Service`` *objects* with its parent
        (session commit paths always build a fresh ``Relation`` and replace
        the registry entry, never append to a registered one, so object
        sharing is safe) but owns its registry dicts and deep-copies
        :class:`SourceMetadata` (trust scores and drift notes are per-tenant
        state, mutated in place by the learners). It inherits the parent's
        cache scope — so reads hit the parent's warm shared-tier entries —
        until its first mutation diverges it onto a fresh scope.
        """
        child = Catalog.__new__(Catalog)
        child._relations = dict(self._relations)
        child._services = dict(self._services)
        child._metadata = {name: copy.deepcopy(meta) for name, meta in self._metadata.items()}
        child._version = self._version
        child._scope = self._scope
        child._frozen = False
        child._fork_pristine = True
        child._scope_lock = make_lock("Catalog._scope_lock")
        child._base = self
        return child

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_scope_lock"], state["_scope"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        """A loaded catalog never reuses a pickled scope: scopes are
        process-local, and the catalog it was pickled from may still be
        alive. A pristine fork rejoins its base's scope; any other takes a
        fresh one."""
        self.__dict__.update(state)
        self._scope_lock = make_lock("Catalog._scope_lock")
        base = self._base
        self._scope = (  # lint: allow=CONC003 -- unpublished until __setstate__ returns, like __init__
            base.cache_scope if self._fork_pristine and base is not None else next(_SCOPE_COUNTER)
        )

    def _mutated(self) -> None:
        """Guard + scope divergence, called before every registry mutation."""
        if self._frozen:
            raise CatalogError("catalog is frozen (shared server base); fork() it instead")
        if self._fork_pristine:
            with self._scope_lock:
                if self._fork_pristine:
                    self._scope = next(_SCOPE_COUNTER)
                    self._fork_pristine = False

    # -- versioning --------------------------------------------------------------
    @property
    def version(self) -> tuple[int, int]:
        """Monotone catalog version; caches key results on it.

        Two components: an explicit counter bumped on every registration,
        removal, and out-of-band semantic change (trust adjustments, tuple
        demotions, link-example feedback — callers that mutate metadata or
        learned state invoke :meth:`bump_version`), plus the total row count
        across base relations, which catches rows appended to a relation
        *after* it was registered. Together they make cache invalidation
        precise: any change that could alter a query answer moves the
        version, and nothing else does.
        """
        return self._version, sum(len(rel) for rel in self._relations.values())

    def bump_version(self) -> None:
        """Record an out-of-band change that may affect query answers."""
        self._mutated()
        self._version += 1

    # -- registration -----------------------------------------------------------
    def add_relation(
        self, relation: Relation, metadata: SourceMetadata | None = None, replace: bool = False
    ) -> Relation:
        name = relation.name
        if not replace and name in self:
            raise CatalogError(f"catalog already contains a source named {name!r}")
        self._mutated()
        self._relations[name] = relation
        self._services.pop(name, None)
        self._metadata[name] = metadata or SourceMetadata()
        self._version += 1
        return relation

    def add_service(
        self, service: "Service", metadata: SourceMetadata | None = None, replace: bool = False
    ) -> "Service":
        name = service.name
        if not replace and name in self:
            raise CatalogError(f"catalog already contains a source named {name!r}")
        self._mutated()
        self._services[name] = service
        self._relations.pop(name, None)
        self._metadata[name] = metadata or SourceMetadata(origin="predefined")
        self._version += 1
        return service

    def remove(self, name: str) -> None:
        if name not in self:
            raise CatalogError(f"no source named {name!r} to remove")
        self._mutated()
        self._relations.pop(name, None)
        self._services.pop(name, None)
        self._metadata.pop(name, None)
        self._version += 1

    # -- lookup -------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self._relations or name in self._services

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            if name in self._services:
                raise CatalogError(f"{name!r} is a service, not a base relation") from None
            raise CatalogError(f"no relation named {name!r} in catalog") from None

    def service(self, name: str) -> "Service":
        try:
            return self._services[name]
        except KeyError:
            if name in self._relations:
                raise CatalogError(f"{name!r} is a base relation, not a service") from None
            raise CatalogError(f"no service named {name!r} in catalog") from None

    def schema(self, name: str) -> Schema:
        if name in self._relations:
            return self._relations[name].schema
        if name in self._services:
            return self._services[name].schema
        raise CatalogError(f"no source named {name!r} in catalog")

    def is_service(self, name: str) -> bool:
        return name in self._services

    def metadata(self, name: str) -> SourceMetadata:
        try:
            return self._metadata[name]
        except KeyError:
            raise CatalogError(f"no source named {name!r} in catalog") from None

    # -- iteration ------------------------------------------------------------------
    def relation_names(self) -> list[str]:
        return sorted(self._relations)

    def service_names(self) -> list[str]:
        return sorted(self._services)

    def source_names(self) -> list[str]:
        return sorted(set(self._relations) | set(self._services))

    def relations(self) -> Iterator[Relation]:
        for name in self.relation_names():
            yield self._relations[name]

    def services(self) -> Iterator["Service"]:
        for name in self.service_names():
            yield self._services[name]

    def __len__(self) -> int:
        return len(self._relations) + len(self._services)

    def __repr__(self) -> str:
        return (
            f"Catalog({len(self._relations)} relations, {len(self._services)} services)"
        )
