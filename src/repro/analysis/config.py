"""Analysis-layer configuration: one process-wide switch set, env-overridable.

Mirrors :mod:`repro.cache.config` / :mod:`repro.resilience.config` /
:mod:`repro.drift.config`: a singleton (:data:`ANALYSIS`) of plain
attributes that hot call sites read directly, with programmatic overrides
for tests (:meth:`AnalysisConfig.disabled`, :meth:`AnalysisConfig.
overridden`) and environment variables read once at import:

- ``REPRO_ANALYSIS=0`` disables the static plan analyzer entirely (plans
  reach the evaluator unchecked, exactly as before this layer existed);
- ``REPRO_ANALYSIS_MAX_LINK_PAIRS`` is the estimated cross-product size
  above which an unblocked record-link join draws a blowup warning;
- ``REPRO_ANALYSIS_MAX_UNION_PARTS`` is the union width above which an
  unbounded-``Union`` warning fires;
- ``REPRO_ANALYSIS_MEMO_CAPACITY`` bounds the per-engine memo of analysis
  reports (keyed on ``(plan fingerprint, catalog version)``, so a
  suggestion refresh re-checks each candidate plan only once).
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


class AnalysisConfig:
    """Mutable knobs for the static plan analyzer."""

    def __init__(self) -> None:
        #: master switch; off reproduces the pre-analysis behavior
        #: bit-for-bit (no pre-execution checks).
        self.enabled = _env_flag("REPRO_ANALYSIS", True)
        #: estimated left×right pair count above which an unblocked
        #: record-link join is flagged as a potential cartesian blowup.
        self.max_link_pairs = _env_int("REPRO_ANALYSIS_MAX_LINK_PAIRS", 250_000)
        #: union width above which the unbounded-Union warning fires.
        self.max_union_parts = _env_int("REPRO_ANALYSIS_MAX_UNION_PARTS", 16)
        #: capacity of the per-engine analysis-report memo.
        self.memo_capacity = _env_int("REPRO_ANALYSIS_MEMO_CAPACITY", 1024)

    #: knobs :meth:`overridden` accepts (everything mutable above).
    KNOBS = (
        "enabled", "max_link_pairs", "max_union_parts", "memo_capacity",
    )

    @contextmanager
    def disabled(self):
        """Temporarily turn the static analyzer off."""
        with self.overridden(enabled=False):
            yield self

    @contextmanager
    def overridden(self, **knobs):
        """Temporarily override any named knob (tests and benchmarks)."""
        for name in knobs:
            if name not in self.KNOBS:
                raise ValueError(f"unknown analysis knob {name!r}; known: {self.KNOBS}")
        previous = {name: getattr(self, name) for name in knobs}
        try:
            for name, value in knobs.items():
                setattr(self, name, value)
            yield self
        finally:
            for name, value in previous.items():
                setattr(self, name, value)

    def snapshot(self) -> dict[str, int | bool]:
        return {name: getattr(self, name) for name in self.KNOBS}

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"AnalysisConfig({state}, "
            f"max_link_pairs={self.max_link_pairs}, "
            f"max_union_parts={self.max_union_parts})"
        )


#: The process-wide analysis configuration every layer consults.
ANALYSIS = AnalysisConfig()
