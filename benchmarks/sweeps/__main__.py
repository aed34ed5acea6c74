"""CLI entry point: ``python -m benchmarks.sweeps``.

Examples::

    PYTHONPATH=src python -m benchmarks.sweeps --figures fig08,fig09,fig13 --seed 7
    PYTHONPATH=src python -m benchmarks.sweeps --sizes 2000,5000 --queries 3 \\
        --out smoke.json
    PYTHONPATH=src python -m benchmarks.sweeps --sizes 2000,5000 --queries 3 \\
        --compare benchmarks/baselines/bench_smoke_baseline.json \\
        --fail-over 10
    PYTHONPATH=src python -m benchmarks.sweeps serving --serving-threads 2,4
    PYTHONPATH=src python -m benchmarks.sweeps kernels \\
        --compare benchmarks/baselines/bench_kernels_baseline.json \\
        --fail-over 5

Exit status: 0 on success, 1 when ``--compare`` finds a regression over
``--fail-over`` percent, 2 on bad usage or a baseline that shares no gated
metric with the run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from benchmarks.sweeps import (
    SCENARIOS,
    SWEEPS,
    compare_reports,
    dumps_report,
    render_report,
)
from repro.data.fixtures import N_QUERIES, SWEEP_SIZES


def _csv(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _counts(text: str) -> list[int]:
    counts = [int(item) for item in _csv(text)]
    if not counts or min(counts) < 1:
        raise argparse.ArgumentTypeError(f"need integers >= 1, got {text!r}")
    return counts


def _percent(text: str) -> float:
    pct = float(text)
    if not 0 <= pct < math.inf:
        raise argparse.ArgumentTypeError(f"need a finite PCT >= 0, got {text!r}")
    return pct


def _figures(text: str) -> list[str]:
    names = _csv(text)
    if not names:
        raise argparse.ArgumentTypeError("no figure named")
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown figures {unknown}; known: {', '.join(SCENARIOS)}"
        )
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.sweeps",
        description="Reproducible P-Cube benchmark runner.",
    )
    parser.add_argument(
        "sweep",
        nargs="?",
        choices=tuple(SWEEPS),
        default="figures",
        help="which sweep to run (default: figures): "
        + "; ".join(
            f"{name} -> {sweep.out}" for name, sweep in SWEEPS.items()
        ),
    )
    parser.add_argument(
        "--figures",
        type=_figures,
        default=None,
        help="comma-separated figure names (default: all; see --list)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="query-workload seed (data-set seeds are size-derived)",
    )
    parser.add_argument(
        "--sizes",
        type=_counts,
        default=None,
        help="comma-separated sweep sizes (default: "
        + ",".join(str(n) for n in SWEEP_SIZES)
        + ")",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=N_QUERIES,
        help=f"queries averaged per data point (default: {N_QUERIES})",
    )
    parser.add_argument(
        "--serving-threads",
        type=_counts,
        default=None,
        metavar="N,N,...",
        help="worker-thread counts for the serving and durability sweeps "
        "(default: the sweep's own)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: the sweep's own, see above)",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="baseline JSON to diff deterministic metrics against",
    )
    parser.add_argument(
        "--fail-over",
        type=_percent,
        default=None,
        metavar="PCT",
        help="with --compare: exit 1 when a counted cost rises by more "
        "than PCT percent or an answer size changes at all",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list known figures and exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the text summary tables",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name, fn in SCENARIOS.items():
            doc = (fn.__doc__ or "").strip().splitlines()
            print(f"{name}  {doc[0] if doc else ''}")
        return 0
    if args.fail_over is not None and args.compare is None:
        parser.error("--fail-over requires --compare")
    if args.queries < 1:
        parser.error("--queries must be >= 1")

    sweep = SWEEPS[args.sweep]
    options: dict = {"seed": args.seed}
    if sweep.threads is not None:
        options["threads"] = args.serving_threads or list(sweep.threads)
    if args.sweep == "figures":
        options.update(
            figures=args.figures, sizes=args.sizes, n_queries=args.queries
        )
    report = sweep.run(**options)

    out_path = Path(args.out if args.out is not None else sweep.out)
    out_path.write_text(dumps_report(report))
    if not args.quiet:
        text = render_report(report)
        if text:
            print(text)
            print()
    print(f"wrote {out_path}")

    if args.compare is None:
        return 0

    baseline_path = Path(args.compare)
    if not baseline_path.exists():
        print(f"baseline not found: {baseline_path}", file=sys.stderr)
        return 2
    baseline = json.loads(baseline_path.read_text())
    fail_over = args.fail_over if args.fail_over is not None else 10.0
    try:
        regressions, notes = compare_reports(
            report, baseline, fail_over=fail_over
        )
    except ValueError as exc:
        print(f"{exc}: {baseline_path}", file=sys.stderr)
        return 2
    for note in notes:
        print(f"note: {note}")
    if regressions:
        print(
            f"{len(regressions)} metric(s) moved (a cost by over "
            f"{fail_over:g}%, or an answer size at all) vs {baseline_path}:"
        )
        for delta in regressions:
            print(f"  REGRESSION {delta.describe()}")
        return 1 if args.fail_over is not None else 0
    print(f"no regressions over {fail_over:g}% vs {baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
