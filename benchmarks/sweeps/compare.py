"""Baseline comparison: the CI regression gate behind ``--compare``.

Only deterministic fields are gated, and which those are is read from the
current report's ``fields`` table — every sweep types a field where it
emits it (:mod:`benchmarks.sweeps.harness`).  Timings are reported for
information and never fail the gate: the runner's point of difference from
a profiler is that its gateable numbers are pure functions of the seeded
input, so a failure means *the algorithm changed*, not that the CI machine
was busy.  A cost fails when it rises beyond ``--fail-over``; an answer
size fails on any change, in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from benchmarks.sweeps.harness import ANSWER, TIMING

#: Float-representation tolerance.  Gated metrics are deterministic
#: functions of the seeded input, so anything beyond rounding error is a
#: genuine change and should face the relative gate.
ABS_SLACK = 1e-9


@dataclass(frozen=True)
class Delta:
    """One metric that moved between baseline and current."""

    path: str  # "fig09/Signature/x=20000/io.SBLOCK"
    baseline: float
    current: float

    @property
    def pct(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.current else 0.0
        return 100.0 * (self.current - self.baseline) / self.baseline

    def describe(self) -> str:
        pct = self.pct
        pct_text = "new" if pct == float("inf") else f"{pct:+.1f}%"
        return (
            f"{self.path}: {self.baseline:g} -> {self.current:g}"
            f" ({pct_text})"
        )


def flatten_metrics(point: dict[str, Any]) -> dict[str, float]:
    """Dotted paths of one series point's numeric leaves, minus ``x``."""
    flat: dict[str, float] = {}

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else key, value[key])
        elif isinstance(value, (int, float)) and prefix != "x":
            flat[prefix] = float(value)

    walk("", point)
    return flat


def _iter_points(
    report: dict[str, Any],
) -> Iterator[tuple[str, str, Any, dict[str, Any]]]:
    for fig_name in sorted(report.get("figures", {})):
        figure = report["figures"][fig_name]
        for series_name in sorted(figure.get("series", {})):
            for point in figure["series"][series_name].get("points", []):
                yield fig_name, series_name, point.get("x"), point


def compare_reports(
    current: dict[str, Any],
    baseline: dict[str, Any],
    fail_over: float = 10.0,
) -> tuple[list[Delta], list[str]]:
    """Diff two reports; return (regressions, notes).

    A cost regresses when it exceeds the baseline by more than
    ``fail_over`` percent *and* by more than :data:`ABS_SLACK` absolute;
    an answer size when it differs from the baseline by more than
    :data:`ABS_SLACK` either way.  The kinds are ``current``'s — the
    baseline may predate the ``fields`` table.  Figures/series/points
    present on only one side are noted, not failed (baselines are expected
    to lag when scenarios are added), but a diff that gates no metric at
    all raises :class:`ValueError`: it would pass while checking nothing.
    """
    kinds = current["fields"]
    baseline_points = {
        (fig, series, x): point
        for fig, series, x, point in _iter_points(baseline)
    }
    regressions: list[Delta] = []
    notes: list[str] = []
    seen: set[tuple] = set()
    gated = 0

    for fig, series, x, point in _iter_points(current):
        key = (fig, series, x)
        seen.add(key)
        base_point = baseline_points.get(key)
        if base_point is None:
            notes.append(f"{fig}/{series}/x={x}: not in baseline (skipped)")
            continue
        base_metrics = flatten_metrics(base_point)
        for path, value in flatten_metrics(point).items():
            # A nested field (``io.total``) has its top-level name's kind.
            kind = kinds[path.split(".", 1)[0]]
            if kind == TIMING:
                continue
            if path not in base_metrics:
                notes.append(f"{fig}/{series}/x={x}/{path}: new metric")
                continue
            base = base_metrics[path]
            gated += 1
            if kind == ANSWER:
                moved = abs(value - base) > ABS_SLACK
            else:
                slack = max(abs(base) * fail_over / 100.0, ABS_SLACK)
                moved = value - base > slack
            if moved:
                regressions.append(
                    Delta(f"{fig}/{series}/x={x}/{path}", base, value)
                )

    for key in baseline_points.keys() - seen:
        fig, series, x = key
        notes.append(f"{fig}/{series}/x={x}: missing from current run")

    if not gated:
        raise ValueError("the run shares no gated metric with the baseline")
    regressions.sort(key=lambda d: d.path)
    return regressions, notes
