"""One workload, one process: the ``BENCHMARK.json`` command.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T``

``--trace 0`` sets up three times (``setup_s`` is their median), runs the
whole op stream untraced on the last system and prints every end-to-end
metric.  ``--trace 1`` runs the stream untraced on one fresh system, then
replays its first third on another with the span recorder installed, and
prints every per-layer metric.  The last line of standard output is the
result object; a failed op, a wrong answer or disagreeing digests make the
exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Run as a script from a bare checkout: nothing is installed.
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} is missing: run from a full checkout")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import harness  # noqa: E402
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER  # noqa: E402
from benchmarks.e2e.tracing import (  # noqa: E402
    SpanRecorder,
    TraceSummary,
    raw_spans,
)
from benchmarks.e2e.workloads import (  # noqa: E402
    FULL,
    QUICK,
    WORKLOADS,
    generate_ops,
    stream_digest,
)

OUT_DIR = HERE / "out"
SETUPS = 3
TRACED_SHARE = 3  # the traced pass replays the first 1/3 of the stream
RAW_SPAN_OPS = 50


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="2 000 tuples and 60 ops: schema and correctness only",
    )
    return parser.parse_args(argv)


def _untraced(spec, scale, seed, seconds, n_setups: int):
    """Set up ``n_setups`` times, then run the whole stream on the last one."""
    bench = None
    setup_seconds: dict[str, list[float]] = {"measured": [], "nominal": []}
    for _ in range(n_setups):
        if bench is not None:
            bench.close()
            bench = None  # one system alive at a time: peak RSS is one build's
            gc.collect()
        bench = harness.set_up(spec, scale, seed)
        setup_seconds["measured"].append(bench.setup_seconds)
        setup_seconds["nominal"].append(bench.setup_seconds_nominal)
    ops = generate_ops(
        spec,
        bench.system.relation,
        harness.CARDINALITY,
        seed,
        spec.n_ops(seconds, scale),
    )
    n_reads = sum(op.is_read for op in ops)
    result = harness.run_pass(bench, ops, harness.check_stride_for(n_reads))
    if spec.write_every:
        harness.verify_consistency(bench, result)
    return bench, ops, setup_seconds, result


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    """Returns ``(result object, details)``."""
    spec = WORKLOADS[args.workload]
    scale = QUICK if args.quick else FULL
    bench, ops, setup_seconds, untraced = _untraced(
        spec, scale, args.seed, args.seconds, SETUPS if args.trace == 0 else 1
    )
    details = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "comparable": scale.comparable,
        "ops": len(ops),
        "reads": len(untraced.read_stats),
        "writes": len(untraced.write_io),
        "checked": untraced.checked,
        "stream_digest": stream_digest(ops),
        "answer_digest": untraced.digest(),
        "setup_seconds": setup_seconds,
        "host_speed_factor": untraced.host.factor(),
        "ops_per_s_measured": len(ops) / untraced.raw_wall(),
        "problems": list(untraced.problems),
    }
    attempted, failed = len(ops), untraced.failed
    if args.trace == 0:
        values = harness.end_to_end_metrics(
            setup_seconds["nominal"], untraced, bench.system
        )
        declared = END_TO_END
    else:
        prefix = ops[: max(1, len(ops) // TRACED_SHARE)]
        bench.close()
        bench = None
        gc.collect()
        bench = harness.set_up(spec, scale, args.seed)
        recorder = SpanRecorder()
        recorder.install()
        try:
            traced = harness.run_pass(
                bench,
                prefix,
                harness.check_stride_for(sum(op.is_read for op in prefix)),
                recorder,
            )
        finally:
            recorder.uninstall()
        if spec.write_every:
            harness.verify_consistency(bench, traced)
        attempted += len(prefix)
        failed += traced.failed
        details["problems"] += traced.problems
        if traced.digest() != untraced.digest(len(prefix)):
            failed += 1
            details["problems"].append(
                "traced and untraced passes disagree on the shared prefix"
            )
        summary = TraceSummary(recorder)
        values = harness.layer_metrics(untraced, traced, summary)
        declared = PER_LAYER
        details.update(
            traced_ops=len(prefix),
            traced_checked=traced.checked,
            prefix_digest=traced.digest(),
            spans=len(recorder.spans),
        )
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace_{spec.name}.json").write_text(
            json.dumps(
                {
                    **details,
                    "functions": summary.functions(),
                    "raw_spans": raw_spans(recorder, RAW_SPAN_OPS),
                }
            )
        )
    bench.close()
    metrics = {
        m.name: {"value": values[m.name], "unit": m.unit} for m in declared
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    result, details = run(args)
    for key, value in details.items():
        if key != "problems":
            print(f"# {key}: {value}")
    for problem in details["problems"]:
        print(f"# PROBLEM {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name:<46}{metric['value']:>16.6f} {metric['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    (
        OUT_DIR / f"run_{args.workload}_trace{args.trace}_seed{args.seed}.json"
    ).write_text(json.dumps({"details": details, "result": result}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
