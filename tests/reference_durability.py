"""Reference checkpoint writer: the oracle for spliced checkpoint files.

This is how :meth:`repro.durability.DurabilityStore.write_checkpoint`
serialized a checkpoint before it learned to splice each action's
append-time canonical text into the envelope: one ``json.dump`` of the
whole payload, which re-encodes every action dict through the pure-Python
``iterencode``. Every checkpoint file the store writes must equal
:func:`checkpoint_bytes` of the same history byte for byte.
"""

from __future__ import annotations

import io
import json
from typing import Any

from repro.durability.store import FORMAT_VERSION


def checkpoint_bytes(
    tenant: str, actions: list[dict[str, Any]], *, seed: int | None = None
) -> bytes:
    """The checkpoint file the reference writer produces for *actions*."""
    payload = {
        "format": FORMAT_VERSION,
        "tenant": tenant,
        "seed": seed,
        "n_actions": len(actions),
        "actions": actions,
    }
    handle = io.StringIO()
    json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
    return handle.getvalue().encode("utf-8")
