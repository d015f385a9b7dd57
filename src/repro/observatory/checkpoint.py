"""Durable ingest checkpoints (versioned, atomic write-rename).

A checkpoint is one JSON document capturing *everything* the ingest
needs to resume exactly: the update/RIB stream watermarks (timestamp +
how many records were already consumed at that timestamp — the archive
merge order is total, so that pair addresses an exact stream position),
the number of events appended to the store, and full snapshots of the
streaming detector, resurrection monitor and lifespan session.

Writes go to a temp file in the same directory followed by
``os.replace``, so a crash leaves either the old checkpoint or the new
one — never a torn file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Optional, Union

__all__ = ["CHECKPOINT_VERSION", "load_checkpoint", "save_checkpoint"]

CHECKPOINT_VERSION = 1


def save_checkpoint(path: Union[str, Path], document: dict[str, Any]) -> None:
    """Atomically persist ``document`` (stamped with the version)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(document)
    payload["version"] = CHECKPOINT_VERSION
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: Union[str, Path]) -> Optional[dict[str, Any]]:
    """The checkpoint document, or None when no checkpoint exists yet."""
    path = Path(path)
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version: {document.get('version')!r}")
    return document
