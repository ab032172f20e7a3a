"""CHANGES.md keeps one entry format from entry number ``FIRST`` on.

An entry starts ``PR NN (`` at the start of a line and runs to the next
entry.  It is at most 40 lines of at most 125 columns (wrapped at about
120); raw numbers go into ``benchmarks/results/pr-NN.json``, not the log.
Earlier entries predate the format and are left as they were.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Tuple

CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"
FIRST = 31
MAX_LINES = 40
MAX_COLUMNS = 125

_START = re.compile(r"PR (\d+) \(")
#: An entry opened some other way: a bullet, a heading, a quote.
_OTHER_START = re.compile(r"[-*#>\s]+PR (\d+)\b")


def entries(text: str) -> List[Tuple[int, List[str]]]:
    """(number, lines) of every entry from ``FIRST`` on, trailing blank
    lines dropped."""
    found: List[Tuple[int, List[str]]] = []
    for line in text.splitlines():
        start = _START.match(line)
        if start:
            found.append((int(start.group(1)), [line]))
        elif found:
            found[-1][1].append(line)
    for _, lines in found:
        while lines and not lines[-1].strip():
            lines.pop()
    return [(number, lines) for number, lines in found if number >= FIRST]


def test_every_entry_is_short_and_wrapped():
    log = entries(CHANGES.read_text())
    assert log and log[0][0] == FIRST
    for number, lines in log:
        assert len(lines) <= MAX_LINES, f"entry {number}: {len(lines)} lines"
        wide = [len(line) for line in lines if len(line) > MAX_COLUMNS]
        assert not wide, f"entry {number}: lines of {wide} columns"


def test_entries_are_in_order_and_start_one_way():
    text = CHANGES.read_text()
    numbers = [number for number, _ in entries(text)]
    assert numbers == sorted(set(numbers))
    for line in text.splitlines():
        other = _OTHER_START.match(line)
        assert not (other and int(other.group(1)) >= FIRST), (
            f"entry not in the 'PR NN (' format: {line[:60]}"
        )
