"""Durability knobs.

Persistence is opt-in: sessions are recorded only when a durability root
is configured, here or per :class:`~repro.server.manager.SessionManager`.
``fsync`` defaults off because tests and benchmarks check crash
consistency through injected write faults, not physical sync.
"""

from __future__ import annotations

from ..util.knobs import Knob, Knobs


class DurabilityConfig(Knobs):
    """Knobs of the durable-session layer."""

    root = Knob("REPRO_DURABILITY_ROOT", "", "directory of per-tenant snapshot + log ('' = none)")
    checkpoint_interval = Knob("REPRO_DURABILITY_CHECKPOINT", 64, "recorded actions between session snapshots")
    fsync = Knob("REPRO_DURABILITY_FSYNC", False, "fsync the log after every record and checkpoint")


#: The process-wide durability configuration recorders and stores consult.
DURABILITY = DurabilityConfig()
