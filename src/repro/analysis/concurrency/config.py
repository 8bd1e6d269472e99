"""Race-check knob: the runtime lockset harness, off by default.

The flag is latched per lock at *creation* time: flipping it mid-process
affects the ``note_access`` probes at once, but only locks created
afterwards are tracked. Tests therefore build fresh instances inside
``RACECHECK.overridden(enabled=True)``; CI's race-detect leg sets
``REPRO_RACECHECK=1`` for the whole process so the module-level locks
(``METRICS``) are tracked too.
"""

from __future__ import annotations

from ...util.knobs import Knob, Knobs


class RaceCheckConfig(Knobs):
    """Knob of the runtime lockset/race harness."""

    enabled = Knob("REPRO_RACECHECK", False, "make_lock builds tracked locks; probes record locksets")


#: The process-wide race-check configuration.
RACECHECK = RaceCheckConfig()
