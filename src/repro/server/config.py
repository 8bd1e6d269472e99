"""Session-server configuration: one process-wide switch set.

Mirrors the other layers' config singletons (:mod:`repro.cache.config`,
:mod:`repro.resilience.config`, …): plain attributes on
:data:`SERVER`, programmatic overrides for tests and benchmarks
(:meth:`ServerConfig.disabled`, :meth:`ServerConfig.overridden`), and
environment variables read once at import:

- ``REPRO_SERVER=0`` disables the concurrent server entirely — the
  :class:`~repro.server.manager.SessionManager` runs every request inline
  on the calling thread with *private* per-session cache tiers, which
  reproduces pre-server behavior exactly (the env-toggle contract every
  prior layer honors);
- ``REPRO_SERVER_WORKERS`` sizes the worker pool (default 8);
- ``REPRO_SERVER_MAX_SESSIONS`` caps live sessions; creating one past the
  cap evicts the least-recently-used session first (default 64);
- ``REPRO_SERVER_IDLE_TTL`` (seconds) lets :meth:`SessionManager.
  evict_idle` expire sessions untouched for longer than the TTL
  (default 900).

The overload-protection layer (:mod:`repro.server.overload`) reads its
knobs from :data:`OVERLOAD` below:

- ``REPRO_OVERLOAD=0`` disables admission control, deadline propagation,
  fairness, and brownout entirely — dispatch reproduces the unprotected
  server bit-for-bit;
- ``REPRO_SERVER_QUEUE_DEPTH`` bounds each tenant's dispatch queue
  (default 128); a submit past the bound is shed with
  :class:`~repro.server.overload.Overloaded`;
- ``REPRO_OVERLOAD_MAX_INFLIGHT`` is the server-wide watermark on
  admitted-but-unfinished requests (default 1024), with
  ``REPRO_OVERLOAD_SHED_SOFT`` (fraction of the watermark, default 0.75)
  the point where the seeded probabilistic shed ramp starts;
- ``REPRO_OVERLOAD_SHED_SEED`` seeds the shed ramp's deterministic draws;
- ``REPRO_OVERLOAD_RATE`` / ``REPRO_OVERLOAD_BURST`` configure the
  per-tenant token bucket (rate 0 — the default — means unlimited);
- ``REPRO_OVERLOAD_QUANTUM`` is the deficit-round-robin drain quantum:
  requests one tenant may run before its drain yields the worker
  (default 8; 0 restores drain-to-empty);
- ``REPRO_OVERLOAD_RETRY_AFTER_MS`` is the base retry hint carried by
  shed errors (default 50);
- ``REPRO_BROWNOUT_WINDOW`` / ``REPRO_BROWNOUT_P95_MS`` /
  ``REPRO_BROWNOUT_PRESSURE`` / ``REPRO_BROWNOUT_EXIT`` /
  ``REPRO_BROWNOUT_HOLD`` tune the load controller: a rolling latency
  window whose p95 (or an inflight pressure fraction) must stay hot for
  ``hold`` consecutive observations to enter brownout, and cool for
  ``hold`` to leave it (hysteresis — no flapping on one spike);
- ``REPRO_BROWNOUT_SHRINK`` divides every shared cache-tier capacity
  while browned out (default 4; memory headroom under pressure).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

_FALSY = {"0", "false", "no", "off", ""}


def _env_flag(name: str, default: bool = True) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in _FALSY


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    return int(raw) if raw is not None else default


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    return float(raw) if raw is not None else default


class ServerConfig:
    """Mutable knobs for the multi-tenant session server."""

    def __init__(self) -> None:
        #: master switch; off runs requests inline with private cache tiers.
        self.enabled = _env_flag("REPRO_SERVER", True)
        #: worker threads dispatching per-session requests.
        self.workers = _env_int("REPRO_SERVER_WORKERS", 8)
        #: live-session cap; LRU eviction beyond it.
        self.max_sessions = _env_int("REPRO_SERVER_MAX_SESSIONS", 64)
        #: idle seconds after which evict_idle() expires a session.
        self.idle_ttl = _env_float("REPRO_SERVER_IDLE_TTL", 900.0)

    #: knobs :meth:`overridden` accepts (everything mutable above).
    KNOBS = ("enabled", "workers", "max_sessions", "idle_ttl")

    @contextmanager
    def disabled(self):
        """Temporarily force inline, private-tier execution."""
        with self.overridden(enabled=False):
            yield self

    @contextmanager
    def overridden(self, **knobs):
        """Temporarily override any named knob (tests and benchmarks)."""
        for name in knobs:
            if name not in self.KNOBS:
                raise ValueError(f"unknown server knob {name!r}; known: {self.KNOBS}")
        previous = {name: getattr(self, name) for name in knobs}
        try:
            for name, value in knobs.items():
                setattr(self, name, value)
            yield self
        finally:
            for name, value in previous.items():
                setattr(self, name, value)

    def snapshot(self) -> dict[str, int | float | bool]:
        return {name: getattr(self, name) for name in self.KNOBS}

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"ServerConfig({state}, workers={self.workers}, "
            f"max_sessions={self.max_sessions}, idle_ttl={self.idle_ttl:g}s)"
        )


class OverloadConfig:
    """Mutable knobs for admission control, deadlines, and brownout."""

    def __init__(self) -> None:
        #: master switch; off reproduces unprotected dispatch bit-for-bit.
        self.enabled = _env_flag("REPRO_OVERLOAD", True)
        #: per-tenant dispatch-queue bound; submits past it are shed.
        self.queue_depth = _env_int("REPRO_SERVER_QUEUE_DEPTH", 128)
        #: server-wide watermark on admitted-but-unfinished requests.
        self.max_inflight = _env_int("REPRO_OVERLOAD_MAX_INFLIGHT", 1024)
        #: pressure fraction where the seeded early-shed ramp starts.
        self.shed_soft = _env_float("REPRO_OVERLOAD_SHED_SOFT", 0.75)
        #: seed for the deterministic shed draws (chaos runs reproduce).
        self.shed_seed = _env_int("REPRO_OVERLOAD_SHED_SEED", 20090104)
        #: per-tenant token-bucket refill rate in requests/second (0 = off).
        self.rate = _env_float("REPRO_OVERLOAD_RATE", 0.0)
        #: token-bucket burst capacity.
        self.burst = _env_int("REPRO_OVERLOAD_BURST", 32)
        #: deficit-round-robin quantum per drain turn (0 = drain to empty).
        self.drr_quantum = _env_int("REPRO_OVERLOAD_QUANTUM", 8)
        #: base retry hint (ms) carried by Overloaded shed errors.
        self.retry_after_ms = _env_float("REPRO_OVERLOAD_RETRY_AFTER_MS", 50.0)
        #: rolling request-latency window the load controller watches.
        self.brownout_window = _env_int("REPRO_BROWNOUT_WINDOW", 32)
        #: p95 latency (ms) over a full window that counts as pressure.
        self.brownout_p95_ms = _env_float("REPRO_BROWNOUT_P95_MS", 250.0)
        #: inflight fraction that counts as pressure on its own.
        self.brownout_pressure = _env_float("REPRO_BROWNOUT_PRESSURE", 0.85)
        #: inflight fraction below which recovery observations count.
        self.brownout_exit = _env_float("REPRO_BROWNOUT_EXIT", 0.5)
        #: consecutive hot/cool observations required to flip (hysteresis).
        self.brownout_hold = _env_int("REPRO_BROWNOUT_HOLD", 8)
        #: cache-tier capacity divisor while browned out.
        self.brownout_shrink = _env_int("REPRO_BROWNOUT_SHRINK", 4)

    #: knobs :meth:`overridden` accepts (everything mutable above).
    KNOBS = (
        "enabled",
        "queue_depth",
        "max_inflight",
        "shed_soft",
        "shed_seed",
        "rate",
        "burst",
        "drr_quantum",
        "retry_after_ms",
        "brownout_window",
        "brownout_p95_ms",
        "brownout_pressure",
        "brownout_exit",
        "brownout_hold",
        "brownout_shrink",
    )

    @contextmanager
    def disabled(self):
        """Temporarily run dispatch unprotected (parity legs)."""
        with self.overridden(enabled=False):
            yield self

    @contextmanager
    def overridden(self, **knobs):
        """Temporarily override any named knob (tests and benchmarks)."""
        for name in knobs:
            if name not in self.KNOBS:
                raise ValueError(f"unknown overload knob {name!r}; known: {self.KNOBS}")
        previous = {name: getattr(self, name) for name in knobs}
        try:
            for name, value in knobs.items():
                setattr(self, name, value)
            yield self
        finally:
            for name, value in previous.items():
                setattr(self, name, value)

    def snapshot(self) -> dict[str, int | float | bool]:
        return {name: getattr(self, name) for name in self.KNOBS}

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"OverloadConfig({state}, queue_depth={self.queue_depth}, "
            f"max_inflight={self.max_inflight}, quantum={self.drr_quantum}, "
            f"rate={self.rate:g}/s)"
        )


#: The process-wide server configuration the session manager consults.
SERVER = ServerConfig()

#: The process-wide overload-protection configuration.
OVERLOAD = OverloadConfig()
