"""Canonical JSON encoding and state fingerprints.

Snapshot files and the parity gates both need one property above all
others: *the same simulation state must always produce the same bytes*.
This module provides the deterministic encoder behind that guarantee —
sorted keys, no whitespace, recursive normalization of dataclasses and
``as_dict`` objects, explicit encoding of non-finite floats (strict JSON
has none), and exclusion of the fields that are legitimately
nondeterministic (wall-clock timings, process ids, the telemetry observer
object).

Python's ``repr`` of a float is itself deterministic (shortest round-trip
representation, identical across platforms for IEEE-754 doubles), so
``json.dumps`` of normalized data is byte-stable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any, FrozenSet

#: Fields that may differ between two otherwise identical runs and are
#: therefore excluded from canonical encodings: in-worker wall-clock time,
#: worker process ids, and the (unserializable) telemetry observer.
NONDETERMINISTIC_FIELDS: FrozenSet[str] = frozenset(
    {"wallclock_time", "pid", "observer"}
)


def to_jsonable(value: Any,
                exclude: FrozenSet[str] = NONDETERMINISTIC_FIELDS) -> Any:
    """Normalize ``value`` into plain JSON-able data, deterministically.

    Dict keys are stringified (non-string keys via ``repr``) and mapping
    entries named in ``exclude`` are dropped at every nesting level.
    Dataclasses and objects exposing ``as_dict()`` are expanded; sets are
    sorted; non-finite floats become ``{"__nonfinite__": ...}`` markers so
    the output stays strict JSON.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        return {"__nonfinite__": repr(value)}
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            name = key if isinstance(key, str) else repr(key)
            if name in exclude:
                continue
            out[name] = to_jsonable(item, exclude)
        return out
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item, exclude) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(to_jsonable(item, exclude) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for field in dataclasses.fields(value):
            if field.name in exclude:
                continue
            out[field.name] = to_jsonable(getattr(value, field.name), exclude)
        return out
    as_dict = getattr(value, "as_dict", None)
    if callable(as_dict):
        return to_jsonable(as_dict(), exclude)
    return repr(value)


def canonical_dumps(data: Any) -> str:
    """The canonical encoding of ``data`` that :func:`to_jsonable` has
    already normalized."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def canonical_json(value: Any,
                   exclude: FrozenSet[str] = NONDETERMINISTIC_FIELDS) -> str:
    """The canonical (sorted, compact, strict) JSON encoding of ``value``."""
    return canonical_dumps(to_jsonable(value, exclude))


def fingerprint(value: Any,
                exclude: FrozenSet[str] = NONDETERMINISTIC_FIELDS) -> str:
    """SHA-256 hex digest of the canonical encoding of ``value``."""
    return hashlib.sha256(
        canonical_json(value, exclude).encode("utf-8")
    ).hexdigest()
