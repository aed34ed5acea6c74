"""Medians, quartiles and the verdict on two result files.

A result file is what ``python -m benchmarks.e2e --sets N --out FILE``
writes.  :func:`compare` applies each end-to-end metric's bound from
``BENCHMARK.json`` to every (workload, metric) pair and calls it ``same``,
``better``, ``worse`` or ``unresolved`` (the run-to-run spread is wider
than the bound, so the medians cannot be told apart).
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Counted metrics and digests: identical inputs must give identical values.
EXACT_FIELDS = ("stream_digest", "answer_digest")
EXACT_METRICS = ("pages_per_read", "store_bytes_per_tuple")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    middle, q1, q3 = quartiles(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def metric_values(result: dict, workload: str, group: str, name: str) -> list[float]:
    return [run[group][name] for run in result["workloads"][workload]["runs"]]


def verdict(
    before: list[float], after: list[float], better: str, bound: float
) -> str:
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (quartiles(after)[0] - quartiles(before)[0])
    base = abs(quartiles(before)[0])
    if sorted(before) == sorted(after):
        return "same"  # counted metrics repeat exactly, however wide the seeds
    if max(spread(before), spread(after)) > bound:
        # Unless every run of one side beats every run of the other.
        if min(sign * v for v in after) > max(sign * v for v in before):
            return "better"
        if max(sign * v for v in after) < min(sign * v for v in before):
            return "worse"
        return "unresolved"
    if gain < -bound * base:
        return "worse"
    if gain > bound * base:
        return "better"
    return "same"


def compare(before: dict, after: dict, manifest: dict) -> list[dict]:
    """One row per (workload, end-to-end metric), plus exact-field rows."""
    rows = []
    for workload in before["workloads"]:
        if workload not in after["workloads"]:
            continue
        for metric in manifest["end_to_end"]:
            old = metric_values(before, workload, "end_to_end", metric["name"])
            new = metric_values(after, workload, "end_to_end", metric["name"])
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "before": quartiles(old)[0],
                    "after": quartiles(new)[0],
                    "spread": max(spread(old), spread(new)),
                    "bound": metric["bound"],
                    "verdict": verdict(old, new, metric["better"], metric["bound"]),
                }
            )
    return rows


def exact_mismatches(before: dict, after: dict) -> list[str]:
    """Counted fields that differ between same-seed runs of the two files."""
    problems = []
    for workload, entry in before["workloads"].items():
        others = {
            run["seed"]: run
            for run in after["workloads"].get(workload, {}).get("runs", ())
        }
        for run in entry["runs"]:
            other = others.get(run["seed"])
            if other is None:
                continue
            for name in EXACT_FIELDS:
                if run[name] != other[name]:
                    problems.append(f"{workload} seed {run['seed']}: {name} differs")
            for name in EXACT_METRICS:
                if run["end_to_end"][name] != other["end_to_end"][name]:
                    problems.append(f"{workload} seed {run['seed']}: {name} differs")
    return problems


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<12} {'metric':<22} {'before':>12} {'after':>12} "
        f"{'unit':<6} {'spread':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<12} {row['metric']:<22} {row['before']:>12.4f} "
            f"{row['after']:>12.4f} {row['unit']:<6} {row['spread']:>7.3f} "
            f"{row['bound']:>6.2f}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(before_path: str, after_path: str) -> int:
    """Print the comparison; 1 on any ``worse`` row or exact mismatch."""
    before = json.loads(Path(before_path).read_text())
    after = json.loads(Path(after_path).read_text())
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (before.get("comparable") and after.get("comparable")):
        print("warning: a --quick result is not comparable; verdicts are void")
    rows = compare(before, after, manifest)
    print(format_rows(rows))
    mismatches = exact_mismatches(before, after)
    for problem in mismatches:
        print(f"EXACT MISMATCH {problem}")
    tally = {
        name: sum(row["verdict"] == name for row in rows)
        for name in ("same", "better", "worse", "unresolved")
    }
    print(" ".join(f"{name}={count}" for name, count in tally.items()))
    return 1 if tally["worse"] or mismatches else 0
