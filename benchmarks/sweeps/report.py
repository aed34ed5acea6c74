"""Text rendering for benchmark reports (the human-facing half).

The JSON report is the machine interface (see :mod:`benchmarks.sweeps` for the
schema); this module turns it back into the compact tables the figure
benchmarks print, so ``python -m benchmarks.sweeps`` output reads like
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Any

from repro.data.fixtures import SECONDS_PER_IO


def fmt_seconds(seconds: float) -> str:
    """A duration at the unit that keeps it short: us, ms or s."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def modeled_seconds(point: dict[str, Any]) -> float:
    """A point's time under the paper's disk model (``t@5ms``): its wall
    plus :data:`SECONDS_PER_IO` per counted page access."""
    return point["wall_ms"] / 1e3 + SECONDS_PER_IO * point["io"]["total"]


def format_table(title: str, headers: list[str], rows: list[list]) -> str:
    """One aligned table, EXPERIMENTS.md style."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    lines = [f"=== {title} ==="]
    lines.append(
        "  " + "  ".join(str(h).rjust(w) for h, w in zip(headers, widths))
    )
    for row in rows:
        lines.append(
            "  " + "  ".join(str(v).rjust(w) for v, w in zip(row, widths))
        )
    return "\n".join(lines)


def _point_cells(point: dict[str, Any]) -> list[str]:
    io = point.get("io") or {}
    prunes = point.get("prune_counts") or {}
    cells = [
        fmt_seconds(point["wall_ms"] / 1e3) if "wall_ms" in point else "-",
        fmt_seconds(modeled_seconds(point))
        if "wall_ms" in point and "total" in io
        else "-",
        f"{io['total']:.1f}" if "total" in io else "-",
        f"{point['heap_peak']:.1f}" if "heap_peak" in point else "-",
    ]
    if prunes:
        cells.append(f"{prunes.get('pref', 0):.1f}/{prunes.get('bool', 0):.1f}")
    elif "size_mb" in point:
        cells.append(f"{point['size_mb']:.2f}MB")
    else:
        cells.append("-")
    return cells


def render_report(report: dict[str, Any]) -> str:
    """Render every figure of a report as one text block."""
    blocks: list[str] = []
    for name in sorted(report.get("figures", {})):
        figure = report["figures"][name]
        rows = []
        for series_name in sorted(figure.get("series", {})):
            series = figure["series"][series_name]
            for point in series.get("points", []):
                rows.append(
                    [series_name, point.get("x", "-")]
                    + _point_cells(point)
                )
        if not rows:
            continue
        blocks.append(
            format_table(
                f"{name}: {figure.get('title', '')}",
                ["series", "x", "wall", "t@5ms", "io", "heap", "pref/bool"],
                rows,
            )
        )
    return "\n\n".join(blocks)
