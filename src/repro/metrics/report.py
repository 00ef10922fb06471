"""Plain-text result tables (what the benchmark harness prints)."""

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned ASCII table."""
    materialized: List[List[str]] = [
        [_fmt(cell) for cell in row] for row in rows
    ]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i])
                  for i, header in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    for row in materialized:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return "%.4g" % value
    return str(value)
