"""The multi-tenant concurrent session server.

The paper's Smart Copy & Paste vision is an *interactive service* — many
users simultaneously pasting, accepting, and resyncing. This package turns
the single-session library into that shape:

- :mod:`~repro.server.config` — the :data:`SERVER` (pool size, session
  cap, idle TTL) and :data:`OVERLOAD` (admission, fairness and brownout
  limits) knob sets;
- :mod:`~repro.server.base` — :class:`SharedBase`: the frozen base catalog,
  its source graph (discovered once; each tenant extends a copy) and the
  shared cache-tier bundle every tenant's evaluator consults;
- :mod:`~repro.server.manager` — :class:`SessionManager`: session registry
  and lifecycle (create / touch / LRU-evict / idle-TTL-expire) over a
  bounded worker pool, per-session FIFO dispatch;
- :mod:`~repro.server.overload` — admission control (bounded queues,
  inflight watermark, token buckets, seeded shed ramp), request deadlines
  with cooperative cancellation, deficit-round-robin fairness, and the
  brownout load controller.

Tenant isolation model: the base catalog is frozen (mutation raises);
each tenant works on a copy-on-write fork carrying its own trust weights,
MIRA weights, workspace, and drift ledger; shared cache tiers key entries
on ``(cache scope, fingerprint, version)``, so pristine forks share warm
entries and diverged forks silently stop colliding.

Import shape: :mod:`.config` and :mod:`.overload` load eagerly (they sit
*below* the core session — the evaluator, autocomplete, and durability
recorder import deadline checkpoints from here), while :class:`SharedBase`
and :class:`SessionManager` resolve lazily on first attribute access —
importing them eagerly would cycle back through ``core.session``.
"""

from __future__ import annotations

from importlib import import_module

from .config import OVERLOAD, SERVER, OverloadConfig, ServerConfig
from .overload import (
    LoadController,
    Overloaded,
    RequestExpired,
    SessionError,
    ShedPolicy,
    check_deadline,
    current_deadline,
    deadline_scope,
    shielded_deadline,
)

__all__ = [
    "LoadController",
    "OVERLOAD",
    "Overloaded",
    "OverloadConfig",
    "RequestExpired",
    "SERVER",
    "ServerConfig",
    "SessionError",
    "SessionManager",
    "SharedBase",
    "ShedPolicy",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
    "shielded_deadline",
]

#: Heavyweight names resolved lazily (they import core.session).
_LAZY = {"SharedBase": ".base", "SessionManager": ".manager"}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name, __name__), name)
    globals()[name] = value
    return value
