"""Plain-text rendering of experiment results.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep that output aligned and diff-friendly.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence

from repro.analysis.timeseries import TimeSeries


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render a fixed-width table."""
    columns = [list(map(str, column))
               for column in zip(*([headers] + [list(r) for r in rows]))]
    widths = [max(len(cell) for cell in column) for column in columns]

    def render(cells: Sequence[object]) -> str:
        return " | ".join(str(cell).ljust(width)
                          for cell, width in zip(cells, widths))

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(render(headers))
    lines.append("-+-".join("-" * width for width in widths))
    for row in rows:
        lines.append(render(row))
    return "\n".join(lines)


def counters_table(snapshots: Mapping[str, Mapping[str, Any]],
                   title: str = "") -> str:
    """Render ``{label: snapshot}`` (:func:`repro.sim.trace.snapshot`) as
    a row per counter and a column per label; dicts print as
    ``key×count``, a counter the label lacks as ``-``."""
    def cell(value: Any) -> object:
        if isinstance(value, dict):
            return " ".join(f"{key}×{count}"
                            for key, count in sorted(value.items())) or "-"
        return value

    names = list(dict.fromkeys(
        name for counters in snapshots.values() for name in counters))
    rows = [[name, *(cell(counters.get(name, "-"))
                      for counters in snapshots.values())]
            for name in names]
    return format_table(["counter", *snapshots], rows, title=title)


def ascii_plot(series: TimeSeries, width: int = 72, height: int = 16,
               title: str = "", y_min: Optional[float] = None,
               y_max: Optional[float] = None) -> str:
    """A quick terminal plot of a time series (for benches and examples)."""
    samples = series.samples()
    if not samples:
        return f"{title} (no data)"
    times = [t for t, _ in samples]
    values = [v for _, v in samples]
    lo = min(values) if y_min is None else y_min
    hi = max(values) if y_max is None else y_max
    if hi <= lo:
        hi = lo + 1.0
    t0, t1 = times[0], times[-1]
    span = max(1, t1 - t0)

    grid = [[" "] * width for _ in range(height)]
    for time_ns, value in samples:
        x = min(width - 1, int((time_ns - t0) / span * (width - 1)))
        clipped = min(hi, max(lo, value))
        y = min(height - 1, int((clipped - lo) / (hi - lo) * (height - 1)))
        grid[height - 1 - y][x] = "*"

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{hi:>10.3g} +" + "-" * width)
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row))
    lines.append(f"{lo:>10.3g} +" + "-" * width)
    lines.append(" " * 12 + f"t = {t0 / 1e9:.3g}s ... {t1 / 1e9:.3g}s")
    return "\n".join(lines)
