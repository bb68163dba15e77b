"""Fixed-width text tables for bench reports.

Each paper-experiment definition (``benchmarks/bench_eNN_*.py``)
returns its quantitative claim as rows; this renderer prints them in
aligned monospace, which ``pytest -s benchmarks/bench_e*.py`` shows.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["render_table", "format_count", "format_bytes"]


def format_count(value: float) -> str:
    """Format large counts with engineering suffixes (1.2K, 3.4M, 5.0e16)."""
    if value != value:  # NaN
        return "nan"
    a = abs(value)
    if a >= 1e15:
        return f"{value:.2e}"
    for threshold, suffix in ((1e12, "T"), (1e9, "B"), (1e6, "M"), (1e3, "K")):
        if a >= threshold:
            return f"{value / threshold:.2f}{suffix}"
    if value == int(value):
        return str(int(value))
    return f"{value:.3g}"


def format_bytes(n: float) -> str:
    """Format a byte count with binary suffixes."""
    a = abs(n)
    for threshold, suffix in ((1024**5, "PiB"), (1024**4, "TiB"), (1024**3, "GiB"),
                              (1024**2, "MiB"), (1024, "KiB")):
        if a >= threshold:
            return f"{n / threshold:.2f} {suffix}"
    return f"{n:.0f} B"


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str | None = None) -> str:
    """Render rows as an aligned fixed-width table.

    Cells are stringified with ``str``; numeric alignment is right, text is
    left.  Returns the table as a single string (no trailing newline).
    """
    str_rows = [[_cell(c) for c in row] for row in rows]
    headers = [str(h) for h in headers]
    ncols = len(headers)
    for r in str_rows:
        if len(r) != ncols:
            raise ValueError(f"row has {len(r)} cells, expected {ncols}: {r}")
    widths = [len(h) for h in headers]
    for r in str_rows:
        for i, c in enumerate(r):
            widths[i] = max(widths[i], len(c))
    numeric = [all(_is_numeric(r[i]) for r in str_rows) if str_rows else False
               for i in range(ncols)]

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for i, c in enumerate(cells):
            parts.append(c.rjust(widths[i]) if numeric[i] else c.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(r) for r in str_rows)
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _is_numeric(text: str) -> bool:
    try:
        float(text.replace(",", "").rstrip("KMBTx%s"))
        return True
    except ValueError:
        return False
