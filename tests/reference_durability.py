"""Reference format-1 checkpoint writer: a root left by an older build.

Before checkpoints became session snapshots, a checkpoint file was the
whole action history so far, written as one ``json.dump`` of this
payload. A store must still recover such a file: its actions are a long
log tail, replayed from an empty session. :func:`checkpoint_bytes`
writes exactly what those builds wrote, so tests can lay down a
format-1 root.
"""

from __future__ import annotations

import io
import json
from typing import Any

#: the ``format`` field older builds wrote.
FORMAT_ACTION_LIST = 1


def checkpoint_bytes(
    tenant: str, actions: list[dict[str, Any]], *, seed: int | None = None
) -> bytes:
    """The format-1 checkpoint file for *actions*."""
    payload = {
        "format": FORMAT_ACTION_LIST,
        "tenant": tenant,
        "seed": seed,
        "n_actions": len(actions),
        "actions": actions,
    }
    handle = io.StringIO()
    json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
    return handle.getvalue().encode("utf-8")
