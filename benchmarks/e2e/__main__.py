"""The whole sheet: four workloads, every metric, one command.

``PYTHONPATH=src python -m benchmarks.e2e --seed 7`` runs each workload
twice in fresh subprocesses (``run.py --trace 0`` then ``--trace 1``), so
peak RSS, the result cache, the cost book and the pool belong to that
workload alone, and prints every metric by name with its unit.

``--sets N`` repeats the sheet for seeds ``seed .. seed+N-1`` and reports
each end-to-end metric's median and quartiles; ``--out`` saves the result
file ``--compare A.json B.json`` reads.  ``--quick`` is the smoke mode.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import compare
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, RUN_SECONDS
from benchmarks.e2e.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT = 900


def run_once(workload: str, seed: int, seconds: float, trace: int, quick: bool):
    """One ``run.py`` subprocess; returns ``(exit code, details, result)``."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=RUN_TIMEOUT
    )
    if not done.stdout.strip():
        raise RuntimeError(f"{' '.join(command)} printed nothing:\n{done.stderr}")
    saved = json.loads(
        (HERE / "out" / f"run_{workload}_trace{trace}_seed{seed}.json").read_text()
    )
    return done.returncode, saved["details"], saved["result"]


def run_sheet(seed: int, sets: int, seconds: float, quick: bool) -> tuple[dict, bool]:
    sheet = {
        "schema": "repro.e2e-bench/v1",
        "comparable": not quick,
        "seed": seed,
        "sets": sets,
        "seconds": seconds,
        "workloads": {name: {"runs": []} for name in WORKLOADS},
    }
    all_correct = True
    for run_seed in range(seed, seed + sets):
        for workload in WORKLOADS:
            entry = {"seed": run_seed, "attempted": 0, "failed": 0, "problems": []}
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                code, details, result = run_once(
                    workload, run_seed, seconds, trace, quick
                )
                all_correct &= code == 0 and result["correct"]
                entry[group] = {
                    name: metric["value"]
                    for name, metric in result["metrics"].items()
                }
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["problems"] += details["problems"]
                if trace == 0:
                    for key in ("ops", "reads", "writes", "stream_digest",
                                "answer_digest"):
                        entry[key] = details[key]
            sheet["workloads"][workload]["runs"].append(entry)
            print(
                f"seed {run_seed} {workload:<12} ops={entry['ops']} "
                f"reads={entry['reads']} writes={entry['writes']} "
                f"failed={entry['failed']}/{entry['attempted']} "
                f"stream={entry['stream_digest']} answers={entry['answer_digest']}",
                flush=True,
            )
    return sheet, all_correct


def print_sheet(sheet: dict) -> None:
    names = list(sheet["workloads"])
    header = f"{'metric':<44}{'unit':<7}" + "".join(f"{n:>16}" for n in names)
    for title, group, declared in (
        ("end to end (tracing off; median [q1..q3] over sets)", "end_to_end", END_TO_END),
        ("per layer (traced first third; median over sets)", "per_layer", PER_LAYER),
    ):
        print(f"\n== {title}\n{header}")
        for metric in declared:
            cells = []
            for name in names:
                values = compare.metric_values(sheet, name, group, metric.name)
                middle, q1, q3 = compare.quartiles(values)
                cells.append(f"{middle:>16.4f}")
                if group == "end_to_end" and len(values) > 1:
                    cells[-1] += f" [{q1:.4f}..{q3:.4f}]"
            print(f"{metric.name:<44}{metric.unit:<7}" + "".join(cells))
    failed = sum(
        run["failed"] for e in sheet["workloads"].values() for run in e["runs"]
    )
    attempted = sum(
        run["attempted"] for e in sheet["workloads"].values() for run in e["runs"]
    )
    print(f"\nfailed_share {failed}/{attempted}  comparable={sheet['comparable']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", help="write the result file here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    sheet, all_correct = run_sheet(args.seed, args.sets, args.seconds, args.quick)
    print_sheet(sheet)
    if args.out:
        Path(args.out).write_text(json.dumps(sheet, indent=1))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
