"""Fixed-width tables and CSV output for the benchmark harness.

Every bench prints its rows through :func:`print_table` so that the
captured ``bench_output.txt`` reads like the tables a paper would show;
EXPERIMENTS.md records claim-vs-measured based on these.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Sequence

__all__ = ["format_table", "print_table", "write_csv", "ascii_histogram"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(
    rows: Sequence[Mapping],
    columns: Sequence[str] | None = None,
    title: str = "",
) -> str:
    """Render dict-rows as a fixed-width text table."""
    if not rows:
        return f"{title}\n(no rows)\n" if title else "(no rows)\n"
    if columns is None:
        columns = list(rows[0].keys())
    table = [[_fmt(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(str(c)), *(len(row[k]) for row in table))
        for k, c in enumerate(columns)
    ]
    sep = "-+-".join("-" * w for w in widths)
    header = " | ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(header))
    lines.append(header)
    lines.append(sep)
    for row in table:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def print_table(
    rows: Sequence[Mapping],
    columns: Sequence[str] | None = None,
    title: str = "",
) -> None:
    """Print a fixed-width table (benches' standard output path)."""
    print()
    print(format_table(rows, columns, title))


def write_csv(rows: Sequence[Mapping], path: str | Path) -> None:
    """Persist rows as CSV (column union across rows, insertion order)."""
    path = Path(path)
    if not rows:
        path.write_text("")
        return
    columns: list[str] = []
    for r in rows:
        for c in r:
            if c not in columns:
                columns.append(c)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def ascii_histogram(
    values,
    bins: int = 10,
    width: int = 40,
    title: str = "",
    lo: float | None = None,
    hi: float | None = None,
) -> str:
    """Render a fixed-width text histogram of ``values``.

    Used by the distribution experiment (F1) so that
    ``bench_output.txt`` carries the *shape* of per-node satisfaction,
    not just summary statistics.  ``lo``/``hi`` pin the range (defaults
    to the data range; satisfaction plots typically pass 0 and 1).
    """
    vals = [float(v) for v in values]
    if not vals:
        return f"{title}\n(no data)\n" if title else "(no data)\n"
    lo = min(vals) if lo is None else float(lo)
    hi = max(vals) if hi is None else float(hi)
    if hi <= lo:
        hi = lo + 1.0
    counts = [0] * bins
    for v in vals:
        k = int((v - lo) / (hi - lo) * bins)
        counts[min(max(k, 0), bins - 1)] += 1
    peak = max(counts)
    lines = []
    if title:
        lines.append(title)
    for k, c in enumerate(counts):
        a = lo + (hi - lo) * k / bins
        b = lo + (hi - lo) * (k + 1) / bins
        bar = "#" * (round(width * c / peak) if peak else 0)
        lines.append(f"[{a:6.3f},{b:6.3f}) {c:4d} {bar}")
    return "\n".join(lines) + "\n"
