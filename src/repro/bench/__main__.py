"""CLI entry point: ``python -m repro.bench``.

Examples::

    PYTHONPATH=src python -m repro.bench --figures fig08,fig09,fig13 --seed 7
    PYTHONPATH=src python -m repro.bench --sizes 2000,5000 --queries 3 \\
        --out smoke.json
    PYTHONPATH=src python -m repro.bench --sizes 2000,5000 --queries 3 \\
        --compare benchmarks/baselines/bench_smoke_baseline.json \\
        --fail-over 10

Exit status: 0 on success, 1 when ``--compare`` finds a regression over
``--fail-over`` percent, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.bench import (
    SCENARIOS,
    compare_reports,
    dumps_report,
    render_report,
    run_benchmarks,
)
from repro.bench.durability import (
    DEFAULT_THREADS as DURABILITY_THREADS,
    run_durability_benchmark,
)
from repro.bench.kernels import run_kernels_benchmark
from repro.bench.resilience import run_resilience_benchmark
from repro.bench.routing import run_routing_benchmark
from repro.bench.serving import (
    DEFAULT_THREADS as SERVING_THREADS,
    run_serving_benchmark,
)
from repro.data.fixtures import N_QUERIES, SWEEP_SIZES


def _csv(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproducible P-Cube benchmark runner.",
    )
    parser.add_argument(
        "--figures",
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
        "--serving",
        action="store_true",
        help="run the concurrent-serving throughput sweep instead of the "
        "figure scenarios (writes BENCH_serving.json by default)",
    )
    parser.add_argument(
        "--resilience",
        action="store_true",
        help="run the fault-free resilience-overhead micro-sweep (bare vs "
        "default-on executor; writes BENCH_resilience.json by default)",
    )
    parser.add_argument(
        "--durability",
        action="store_true",
        help="run the durability sweeps (recovery time vs WAL length with "
        "and without checkpoints; background-scrubber serving overhead; "
        "writes BENCH_durability.json by default)",
    )
    parser.add_argument(
        "--routing",
        action="store_true",
        help="run the routing sweep (pinned engines vs routed "
        "cold/warm vs the served path over a Zipfian workload; writes "
        "BENCH_routing.json by default)",
    )
    parser.add_argument(
        "--kernels",
        action="store_true",
        help="run the kernel-backend sweep (scalar python vs numpy batch "
        "kernels; asserts identical answers and counted I/O, gates the "
        "numpy speedup floor; writes BENCH_kernels.json by default)",
    )
    parser.add_argument(
        "--serving-threads",
        default=None,
        metavar="N,N,...",
        help="worker-thread counts for --serving (default: "
        + ",".join(str(n) for n in SERVING_THREADS)
        + ")",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_pcube.json, or "
        "BENCH_serving.json with --serving)",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="baseline JSON to diff deterministic metrics against",
    )
    parser.add_argument(
        "--fail-over",
        type=float,
        default=None,
        metavar="PCT",
        help="with --compare: exit 1 when any gated metric regresses by "
        "more than PCT percent",
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

    if (
        sum(
            (
                args.serving,
                args.resilience,
                args.durability,
                args.routing,
                args.kernels,
            )
        )
        > 1
    ):
        parser.error(
            "--serving, --resilience, --durability, --routing and "
            "--kernels are mutually exclusive"
        )
    if args.kernels:
        report = run_kernels_benchmark(seed=args.seed)
    elif args.routing:
        report = run_routing_benchmark(seed=args.seed)
    elif args.serving or args.resilience or args.durability:
        if args.serving_threads:
            try:
                threads = [int(n) for n in _csv(args.serving_threads)]
            except ValueError:
                parser.error(
                    f"--serving-threads must be integers: "
                    f"{args.serving_threads!r}"
                )
        elif args.durability:
            threads = list(DURABILITY_THREADS)
        else:
            threads = list(SERVING_THREADS)
        if args.resilience:
            report = run_resilience_benchmark(seed=args.seed, threads=threads)
        elif args.durability:
            report = run_durability_benchmark(seed=args.seed, threads=threads)
        else:
            report = run_serving_benchmark(seed=args.seed, threads=threads)
    else:
        figures = _csv(args.figures) if args.figures else None
        try:
            sizes = (
                [int(n) for n in _csv(args.sizes)] if args.sizes else None
            )
        except ValueError:
            parser.error(f"--sizes must be integers: {args.sizes!r}")
        try:
            report = run_benchmarks(
                figures=figures,
                seed=args.seed,
                sizes=sizes,
                n_queries=args.queries,
            )
        except ValueError as exc:  # unknown figure name
            parser.error(str(exc))

    if args.out is not None:
        default_out = args.out
    elif args.kernels:
        default_out = "BENCH_kernels.json"
    elif args.routing:
        default_out = "BENCH_routing.json"
    elif args.durability:
        default_out = "BENCH_durability.json"
    elif args.resilience:
        default_out = "BENCH_resilience.json"
    elif args.serving:
        default_out = "BENCH_serving.json"
    else:
        default_out = "BENCH_pcube.json"
    out_path = Path(default_out)
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
    regressions, notes = compare_reports(
        report, baseline, fail_over=fail_over
    )
    for note in notes:
        print(f"note: {note}")
    if regressions:
        print(
            f"{len(regressions)} metric(s) regressed over "
            f"{fail_over:g}% vs {baseline_path}:"
        )
        for delta in regressions:
            print(f"  REGRESSION {delta.describe()}")
        return 1 if args.fail_over is not None else 0
    print(f"no regressions over {fail_over:g}% vs {baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
