"""Test-side views of the LRU lists' fragment rows.

A list keeps each fragment as four doubles of its run's row (size, entry
time, last access and stamp) and hands out no per-fragment objects.
These helpers read the rows back in LRU order, so a test can compare a
list's whole content, and push fragments with readable defaults.  A
``(run, offset)`` pair is valid only until the next edit of the list.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.pagecache.extents import ExtentRun
from repro.pagecache.lru import LRUList


class Fragment(NamedTuple):
    """One fragment as a plain record (its run's fields included)."""

    filename: str
    size: float
    entry_time: float
    last_access: float
    dirty: bool


def located(lru: LRUList,
            filename: Optional[str] = None) -> List[Tuple[ExtentRun, int]]:
    """``(run, offset)`` of each fragment of ``lru`` (of ``filename``
    only, when given), in LRU order."""
    keyed = []
    for run in lru.runs():
        if filename is None or run.filename == filename:
            row = run.row
            keyed.extend(((row[offset + 2], row[offset + 3]), run, offset)
                         for offset in run.offsets())
    keyed.sort(key=lambda item: item[0])
    return [(run, offset) for _key, run, offset in keyed]


def fragment(run: ExtentRun, offset: int) -> Fragment:
    """The fragment at ``offset`` of ``run``."""
    row = run.row
    return Fragment(run.filename, row[offset], row[offset + 1],
                    row[offset + 2], run.dirty)


def fragments(lru: LRUList, filename: Optional[str] = None) -> List[Fragment]:
    """The fragments of ``lru`` (of ``filename`` only, when given), in LRU
    order."""
    return [fragment(run, offset) for run, offset in located(lru, filename)]


def push(lru: LRUList, filename: str = "f", size: float = 10.0,
         entry: float = 0.0, access: Optional[float] = None,
         dirty: bool = False, storage=None) -> None:
    """Push one fragment; its last access defaults to its entry time."""
    lru.push(filename, dirty, storage, float(size), float(entry),
             float(entry if access is None else access))


def marked(marks) -> List[Fragment]:
    """The fragments that ``marks`` hold the places of (every mark must
    still be registered)."""
    return [fragment(mark.run, mark.run.offset_of(mark)) for mark in marks]
