"""Session-server and overload-protection knobs.

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
    idle_ttl = Knob("REPRO_SERVER_IDLE_TTL", 900.0, "idle seconds before evict_idle() expires a session")


class OverloadConfig(Knobs):
    """Knobs of admission control, deadlines, fairness and brownout."""

    queue_depth = Knob("REPRO_SERVER_QUEUE_DEPTH", 128, "per-tenant queue bound; submits past it are shed")
    max_inflight = Knob("REPRO_OVERLOAD_MAX_INFLIGHT", 1024, "server-wide cap on unfinished requests")
    shed_soft = Knob("REPRO_OVERLOAD_SHED_SOFT", 0.75, "pressure where the seeded early-shed ramp starts")
    shed_seed = Knob("REPRO_OVERLOAD_SHED_SEED", 20090104, "seed of the deterministic shed draws")
    rate = Knob("REPRO_OVERLOAD_RATE", 0.0, "token-bucket refill per tenant, req/s (0 = off)")
    burst = Knob("REPRO_OVERLOAD_BURST", 32, "token-bucket burst capacity")
    drr_quantum = Knob("REPRO_OVERLOAD_QUANTUM", 8, "requests per drain turn (0 = drain to empty)")
    brownout_window = Knob("REPRO_BROWNOUT_WINDOW", 32, "requests in the rolling latency window")
    brownout_p95_ms = Knob("REPRO_BROWNOUT_P95_MS", 250.0, "window p95 latency (ms) that counts as pressure")
    brownout_pressure = Knob("REPRO_BROWNOUT_PRESSURE", 0.85, "inflight fraction that counts as pressure")
    brownout_exit = Knob("REPRO_BROWNOUT_EXIT", 0.5, "inflight fraction below which recovery counts")
    brownout_hold = Knob("REPRO_BROWNOUT_HOLD", 8, "hot/cool observations in a row to flip level")

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
            rate=0.0,
            drr_quantum=0,
            brownout_p95_ms=float("inf"),
        )


#: The process-wide server configuration the session manager consults.
SERVER = ServerConfig()

#: The process-wide overload-protection configuration.
OVERLOAD = OverloadConfig()
