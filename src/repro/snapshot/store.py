"""Snapshot files: versioned header, canonical bytes, atomic writes.

A snapshot file is a single canonical-JSON document::

    {
      "format": "repro-snapshot",
      "version": 1,
      "t": <simulated seconds>,
      "experiment": "exp6",
      "params": {...},              # JSON-encoded build recipe parameters
      "fingerprint": "<sha256>",    # of the captured state
      "state": {...}                # the capture itself (see capture.py)
    }

Two properties matter:

* **Byte determinism** — the document is written with the canonical
  encoder (sorted keys, compact separators), so snapshotting the same
  simulation state twice produces byte-identical files.  No wall-clock
  content is ever stored.
* **Atomicity** — files are written to a temporary sibling, fsynced and
  ``os.replace``'d into place, so a crash mid-write can never leave a
  truncated snapshot where a resumable one used to be.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Union

from repro.errors import SnapshotError
from repro.snapshot.canonical import canonical_dumps

#: Magic format tag; a file without it is not a snapshot at all.
FORMAT = "repro-snapshot"
#: File-format version; readers reject snapshots from other versions.
VERSION = 1


def write_snapshot_doc(doc: Dict[str, Any],
                       path: Union[str, Path]) -> Path:
    """Atomically write ``doc`` as canonical JSON to ``path``.

    ``doc`` is a normalized snapshot document, as
    :func:`~repro.snapshot.run.snapshot_doc` builds it; it is dumped as
    it is.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = canonical_dumps(doc).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise SnapshotError(f"could not write snapshot {path}: {exc}") from exc
    return path


def read_snapshot_doc(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a snapshot document written by this module."""
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SnapshotError(f"could not read snapshot {path}: {exc}") from exc
    except ValueError as exc:
        raise SnapshotError(
            f"snapshot {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise SnapshotError(f"{path} is not a {FORMAT} file")
    version = doc.get("version")
    if version != VERSION:
        raise SnapshotError(
            f"snapshot {path} has format version {version!r}; "
            f"this build reads version {VERSION}"
        )
    for key in ("t", "experiment", "params", "fingerprint", "state"):
        if key not in doc:
            raise SnapshotError(f"snapshot {path} is missing field {key!r}")
    return doc
