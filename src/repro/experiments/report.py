"""Table formatting shared by the experiment modules and benchmarks.

Every experiment returns its data as a list of dictionaries (one per
row); :func:`format_table` renders them as a fixed-width text table so
benchmarks and examples print the same artefact the paper's figures and
tables contain.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table", "format_value"]


def format_value(value: object) -> str:
    """Human formatting: thousands separators, sensible float precision."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3g}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]],
                 title: str = "") -> str:
    """Render rows as a fixed-width table.

    The columns are the keys of the first row, in their insertion order.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    cols = list(rows[0].keys())
    rendered = [[format_value(row.get(col, "")) for col in cols]
                for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered))
              for i, col in enumerate(cols)]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(cols))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for r in rendered:
        lines.append(" | ".join(cell.rjust(widths[i])
                                for i, cell in enumerate(r)))
    return "\n".join(lines)
