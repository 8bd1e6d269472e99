"""Session-server and overload-protection knobs.

Only the settings a deployment, CI or the storm benchmark changes are
knobs. The idle TTL is :meth:`~repro.server.manager.SessionManager.evict_idle`'s
default; the brownout window, pressure, exit and hold and the shed seed
are constants in :mod:`repro.server.overload`.

There is one dispatch path and it is always protected. An unprotected
reference leg sets the limits out of reach with
:meth:`OverloadConfig.unbounded` instead of switching the layer off.
"""

from __future__ import annotations

from ..util.knobs import Knob, Knobs


class ServerConfig(Knobs):
    """Knobs of the multi-tenant session server."""

    workers = Knob("REPRO_SERVER_WORKERS", 8, "worker threads dispatching per-session requests")
    max_sessions = Knob("REPRO_SERVER_MAX_SESSIONS", 64, "live-session cap; LRU eviction beyond it")


class OverloadConfig(Knobs):
    """Knobs of admission control, deadlines, fairness and brownout."""

    queue_depth = Knob("REPRO_SERVER_QUEUE_DEPTH", 128, "per-tenant queue bound; submits past it are shed")
    max_inflight = Knob("REPRO_OVERLOAD_MAX_INFLIGHT", 1024, "server-wide cap on unfinished requests")
    shed_soft = Knob("REPRO_OVERLOAD_SHED_SOFT", 0.75, "pressure where the seeded early-shed ramp starts")
    drr_quantum = Knob("REPRO_OVERLOAD_QUANTUM", 8, "requests per drain turn (0 = drain to empty)")
    brownout_p95_ms = Knob("REPRO_BROWNOUT_P95_MS", 250.0, "window p95 latency (ms) that counts as pressure")

    def unbounded(self):
        """Put every limit out of reach for the ``with`` block.

        Nothing is shed, queues grow without bound, each drain runs its
        queue to empty and brownout never enters: the unprotected
        reference dispatch. A request's own ``deadline_ms`` still applies.
        """
        return self.overridden(
            queue_depth=10**9,
            max_inflight=10**9,
            shed_soft=1.0,
            drr_quantum=0,
            brownout_p95_ms=float("inf"),
        )


#: The process-wide server configuration the session manager consults.
SERVER = ServerConfig()

#: The process-wide overload-protection configuration.
OVERLOAD = OverloadConfig()
