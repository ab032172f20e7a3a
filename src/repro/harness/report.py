"""Plain-text rendering of experiment tables and series.

Benchmarks print the same rows/series the paper reports; these helpers
keep the formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render a simple fixed-width table."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))

    def line(values: Sequence[str]) -> str:
        return "  ".join(v.ljust(widths[i]) for i, v in enumerate(values))

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in cells)
    return "\n".join(parts)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e9:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def bar_chart(
    series: Mapping[str, float],
    width: int = 40,
    unit: str = "",
    title: Optional[str] = None,
) -> str:
    """A horizontal ASCII bar chart (one bar per key)."""
    parts: List[str] = []
    if title:
        parts.append(title)
    if not series:
        return "\n".join(parts + ["(empty)"])
    peak = max(abs(v) for v in series.values()) or 1.0
    label_width = max(len(k) for k in series)
    for key, value in series.items():
        bar = "#" * max(0, int(round(abs(value) / peak * width)))
        parts.append(f"{key.ljust(label_width)}  {bar} {value:.1f}{unit}")
    return "\n".join(parts)


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A Markdown table of already formatted cells."""
    lines = [f"| {' | '.join(headers)} |", "|" + "---|" * len(headers)]
    lines.extend(f"| {' | '.join(row)} |" for row in rows)
    return "\n".join(lines)


def replace_marked_blocks(text: str, blocks: Mapping[str, str]) -> str:
    """*text* with the lines between ``<!-- BEGIN name -->`` and
    ``<!-- END name -->`` replaced by ``blocks[name]``, for every name;
    each pair of markers must occur exactly once."""
    for name, block in blocks.items():
        begin, end = f"<!-- BEGIN {name} -->", f"<!-- END {name} -->"
        head, _, rest = text.partition(begin)
        _old, found, tail = rest.partition(end)
        if not found or text.count(begin) != 1 or text.count(end) != 1:
            raise ValueError(f"expected one marked block {name!r}")
        text = f"{head}{begin}\n{block}\n{end}{tail}"
    return text


def grouped_series(
    columns: Sequence[str],
    groups: Mapping[str, Mapping[str, float]],
    title: Optional[str] = None,
    unit: str = "",
) -> str:
    """Render {group: {column: value}} as a table; missing cells blank."""
    rows = []
    for group, values in groups.items():
        row: List[Any] = [group]
        for column in columns:
            value = values.get(column)
            row.append("" if value is None else f"{value:.1f}{unit}")
        rows.append(row)
    return ascii_table(["", *columns], rows, title=title)
