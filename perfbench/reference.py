"""A fixed unit of pure-Python work that measures how fast the host runs right now.

A shared cloud machine can change speed by up to a factor of two over tens
of seconds, and a slow spell can cover a whole run (see NOTE.md).  Timing
this unit right before and right after every step of an operation gives a
host-relative cost, step time over reference time, that such spells
cancel out of.  The unit does what the package does most: regex
tokenizing, frozen dataclass construction, dict lookups, sorting and
json.dumps.  It keeps nothing alive between calls and never changes, so
across commits only the package moves the ratio.
"""
from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass

_TEXTS = [f"c{i % 8} {'<>='[i % 3]} {i * 37 % 1000}" for i in range(120)]
_TOKEN = re.compile(r"(?P<ident>[A-Za-z_]\w*)|(?P<number>\d+)|(?P<cmp>[<>=])")


@dataclass(frozen=True)
class _Row:
    index: int
    column: str
    op: str
    value: float


def _unit() -> int:
    rows = []
    for i, text in enumerate(_TEXTS):
        tokens = [m.group() for m in _TOKEN.finditer(text)]
        rows.append(_Row(i, tokens[0], tokens[1], float(tokens[2])))
    rows.sort(key=lambda r: (r.value, r.index))
    by_column: dict[str, list[_Row]] = {}
    for row in rows:
        by_column.setdefault(row.column, []).append(row)
    return len(json.dumps([{"c": r.column, "o": r.op, "v": r.value} for r in rows]))


def seconds(units: int) -> float:
    """Wall seconds to run the unit `units` times."""
    start = time.perf_counter()
    for _ in range(units):
        _unit()
    return time.perf_counter() - start
