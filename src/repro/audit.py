"""CLI consistency audit: ``python -m repro.audit``.

Builds a seeded synthetic system, drives a mixed WAL-protected maintenance
workload (inserts, batches, deletes, updates), optionally injects a crash
at a chosen point and recovers, then runs
:meth:`~repro.system.PCubeSystem.verify_consistency` and reports.

Exit status (stable — CI and the serving supervisor branch on it):

* ``0`` — every cross-structure invariant held;
* ``1`` — the audit ran but found inconsistencies (each reported);
* ``2`` — the audit could not complete: an argument was out of range
  (``--tuples`` < 1, ``--fanout`` < 2, ``--ops`` or ``--crash-after``
  < 0), or the structures
  were unreadable (e.g. interior WAL corruption, unrecoverable pages).

``--json`` emits the same findings as one machine-readable object on
stdout instead of the text report.

Examples::

    PYTHONPATH=src python -m repro.audit
    PYTHONPATH=src python -m repro.audit --tuples 200 --ops 40 --seed 3
    PYTHONPATH=src python -m repro.audit --crash-op write --crash-tag rtree
    PYTHONPATH=src python -m repro.audit --json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Sequence

from repro.data.fixtures import build_scenario_system
from repro.data.workload import apply_op, maintenance_ops
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import (
    FaultPlan,
    FaultRule,
    FaultyDisk,
    SimulatedCrash,
)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.audit", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--tuples", type=int, default=120)
    parser.add_argument("--ops", type=int, default=30)
    parser.add_argument("--seed", type=int, default=20080401)
    parser.add_argument("--fanout", type=int, default=6)
    parser.add_argument(
        "--crash-op",
        choices=("read", "write", "allocate"),
        help="inject one crash at this disk operation during the workload",
    )
    parser.add_argument(
        "--crash-tag",
        default="",
        help="page-tag prefix the crash rule matches (default: any)",
    )
    parser.add_argument(
        "--crash-after",
        type=int,
        default=0,
        help="matching accesses to skip before the crash fires",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON object instead of the text report",
    )
    args = parser.parse_args(argv)
    for flag, value, least in (
        ("--tuples", args.tuples, 1),
        ("--fanout", args.fanout, 2),
        ("--ops", args.ops, 0),
        ("--crash-after", args.crash_after, 0),
    ):
        if value < least:
            parser.error(f"{flag} must be >= {least}")

    rng = random.Random(args.seed)
    disk = FaultyDisk(SimulatedDisk())
    system = build_scenario_system(
        args.tuples, args.seed, fanout=args.fanout, disk=disk
    )

    if args.crash_op:
        disk.plan = FaultPlan(
            [
                FaultRule(
                    kind="crash",
                    op=args.crash_op,
                    tag=args.crash_tag,
                    after=args.crash_after,
                    count=1,
                )
            ]
        )
    findings: dict[str, Any] = {
        "tuples": args.tuples,
        "ops": args.ops,
        "seed": args.seed,
    }
    try:
        # A crash rule ends the workload early, leaving the interrupted
        # operation in the WAL.
        for op in maintenance_ops(system.relation, rng, args.ops):
            apply_op(system, op)
        findings["workload"] = {"completed": args.ops, "requested": args.ops}
    except SimulatedCrash as crash:
        disk.plan = FaultPlan()
        findings["crash"] = str(crash)
        findings["recovery_outcome"] = system.recover()

    try:
        report = system.verify_consistency()
    except Exception as exc:
        # The structures could not even be read — distinct from "read fine
        # but inconsistent", so CI can tell data loss from drift.
        findings["status"] = "unreadable"
        findings["error"] = f"{type(exc).__name__}: {exc}"
        findings["maintenance_stats"] = system.maintenance_stats.snapshot()
        _emit(findings, args.json)
        return 2

    findings["status"] = "clean" if report.ok else "inconsistent"
    findings["cells_checked"] = report.cells_checked
    findings["problems"] = list(report.problems)
    findings["maintenance_stats"] = system.maintenance_stats.snapshot()
    _emit(findings, args.json)
    return 0 if report.ok else 1


def _emit(findings: dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(json.dumps(findings, indent=2, sort_keys=True))
        return
    if "crash" in findings:
        print(f"crashed mid-operation: {findings['crash']}")
        print(f"recovery outcome: {findings['recovery_outcome']}")
    elif "workload" in findings:
        workload = findings["workload"]
        print(
            f"workload: {workload['completed']}/{workload['requested']} "
            "operations completed"
        )
    if findings["status"] == "unreadable":
        print(f"audit unreadable: {findings['error']}")
    else:
        print(
            f"consistency: {findings['cells_checked']} cells checked, "
            f"{len(findings['problems'])} problems"
        )
        for problem in findings["problems"]:
            print(f"  PROBLEM: {problem}")
    print(f"maintenance stats: {findings['maintenance_stats']}")


if __name__ == "__main__":
    sys.exit(main())
