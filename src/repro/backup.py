"""Backup / point-in-time-restore CLI: ``python -m repro.backup``.

The simulator's disk lives in process memory, so — as with every other
CLI here — each invocation deterministically rebuilds its scenario from a
seed: a synthetic system, a base checkpoint taken right after build, then a
seeded maintenance workload with a checkpoint every ``--checkpoint-every``
operations.  What the subcommands then do against that disk image is the
real durability machinery (:mod:`repro.core.checkpoint`), exercised
end-to-end:

* ``create`` — runs the scenario and reports the checkpoints created plus
  the WAL archive's segment catalog;
* ``list`` — same scenario, prints the checkpoint catalog (what restore
  would see on the disk);
* ``restore [--to-lsn N]`` — restores from the disk image (newest usable
  checkpoint + committed WAL window), then *verifies* the restored system:
  answers are compared byte-for-byte against a reference system built by
  replaying the recorded operation history up to the same LSN.  Exit 0
  when identical, 1 on mismatch, when no checkpoint can be restored or
  when ``--to-lsn`` is past the last commit LSN (the error is printed).

An out-of-range argument (``--tuples`` < 1, ``--fanout`` < 2, ``--ops`` < 0,
``--checkpoint-every`` or ``--segment-bytes`` < 1) exits 2 before any work.

Because every operation's commit LSN is recorded as the workload runs,
``--to-lsn`` can name any historical commit point and the verification
proves the restored system equals the system *as of that commit* — the
point-in-time contract.

Examples::

    PYTHONPATH=src python -m repro.backup create
    PYTHONPATH=src python -m repro.backup list --json
    PYTHONPATH=src python -m repro.backup restore --to-lsn 40
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.checkpoint import (
    CheckpointError,
    CheckpointManager,
    restore_system,
)
from repro.data.fixtures import build_scenario_system
from repro.data.workload import (
    apply_op,
    maintenance_ops,
    sample_linear_function,
    sample_predicate,
)
from repro.system import PCubeSystem


@dataclass
class RecordedOp:
    """One workload operation, concrete enough to re-apply exactly."""

    kind: str
    args: tuple
    commit_lsn: int


@dataclass
class Scenario:
    """The deterministic disk image a seeded invocation produces."""

    system: PCubeSystem
    manager: CheckpointManager
    history: list[RecordedOp]
    checkpoints: list


def build_scenario(args: argparse.Namespace) -> Scenario:
    rng = random.Random(args.seed)
    system = build_scenario_system(
        args.tuples,
        args.seed,
        fanout=args.fanout,
        wal_segment_bytes=args.segment_bytes,
    )
    manager = CheckpointManager(system)
    checkpoints = [manager.create()]  # the base image restore needs
    history: list[RecordedOp] = []
    remaining = args.ops
    while remaining > 0:
        step = min(args.checkpoint_every, remaining)
        for op in maintenance_ops(system.relation, rng, step):
            apply_op(system, op)
            history.append(RecordedOp(*op, system.wal.last_commit_lsn))
        remaining -= step
        checkpoints.append(manager.create())
    return Scenario(system, manager, history, checkpoints)


def _reference_system(
    args: argparse.Namespace, history: list[RecordedOp], to_lsn: int | None
) -> PCubeSystem:
    """The system as of ``to_lsn``, built by replaying the recorded
    history on a fresh disk — ground truth for restore verification."""
    system = build_scenario_system(args.tuples, args.seed, fanout=args.fanout)
    for op in history:
        if to_lsn is not None and op.commit_lsn > to_lsn:
            break
        apply_op(system, (op.kind, op.args))
    return system


def answer_fingerprint(system: PCubeSystem, seed: int = 99) -> list:
    """Query answers under sampled predicates — the byte-identity probe
    shared with the crash-recovery tests."""
    rng = random.Random(seed)
    fn = sample_linear_function(system.relation.schema.n_preference, rng)
    out = []
    for n_conjuncts in (1, 2):
        predicate = sample_predicate(system.relation, n_conjuncts, rng)
        sky = system.engine.skyline(predicate)
        topk = system.engine.topk(fn, 5, predicate)
        out.append((sky.tids, topk.tids, topk.scores))
    return out


def _catalog_json(scenario: Scenario) -> list[dict[str, Any]]:
    return [
        {
            "checkpoint_id": info.checkpoint_id,
            "epoch": info.epoch,
            "watermark_lsn": info.watermark_lsn,
            "n_rows": info.n_rows,
            "n_tombstones": info.n_tombstones,
            "row_pages": len(info.row_pages),
        }
        for info in scenario.manager.catalog()
    ]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.backup",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "command", choices=("create", "list", "restore"),
    )
    parser.add_argument("--tuples", type=int, default=120)
    parser.add_argument("--ops", type=int, default=24)
    parser.add_argument("--seed", type=int, default=20080401)
    parser.add_argument("--fanout", type=int, default=6)
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=8,
        metavar="N",
        help="take a checkpoint every N workload operations (default: 8)",
    )
    parser.add_argument(
        "--segment-bytes",
        type=int,
        default=1024,
        help="WAL segment-rotation threshold (small by default so the "
        "scenario actually exercises the sealed archive)",
    )
    parser.add_argument(
        "--to-lsn",
        type=int,
        default=None,
        metavar="LSN",
        help="restore: target commit LSN (default: latest state)",
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    for flag, value, least in (
        ("--tuples", args.tuples, 1),
        ("--fanout", args.fanout, 2),
        ("--ops", args.ops, 0),
        ("--checkpoint-every", args.checkpoint_every, 1),
        ("--segment-bytes", args.segment_bytes, 1),
    ):
        if value < least:
            parser.error(f"{flag} must be >= {least}")

    scenario = build_scenario(args)
    out: dict[str, Any] = {
        "command": args.command,
        "seed": args.seed,
        "ops": len(scenario.history),
        "last_commit_lsn": scenario.system.wal.last_commit_lsn,
        "checkpoints": _catalog_json(scenario),
    }

    if args.command in ("create", "list"):
        if args.command == "create":
            out["segments"] = [
                {
                    "segment": info.segment,
                    "records": info.records,
                    "first_lsn": info.first_lsn,
                    "last_lsn": info.last_lsn,
                    "sealed": info.sealed,
                }
                for info in scenario.system.wal.segments()
            ]
        _emit(out, args.json)
        return 0

    try:
        if args.to_lsn is not None and args.to_lsn > out["last_commit_lsn"]:
            raise CheckpointError(
                f"--to-lsn {args.to_lsn} is past the last commit lsn "
                f"{out['last_commit_lsn']}"
            )
        result = restore_system(scenario.system.disk, to_lsn=args.to_lsn)
    except CheckpointError as exc:
        out["status"] = "failed"
        out["error"] = str(exc)
        _emit(out, args.json)
        return 1
    reference = _reference_system(args, scenario.history, args.to_lsn)
    verified = answer_fingerprint(result.system) == answer_fingerprint(
        reference
    )
    out.update(
        {
            "restored_from_checkpoint": result.checkpoint.checkpoint_id,
            "watermark_lsn": result.checkpoint.watermark_lsn,
            "to_lsn": args.to_lsn,
            "ops_replayed": result.ops_replayed,
            "row_pages_read": result.row_pages_read,
            "fallbacks": result.fallbacks,
            "wal_metrics": result.wal_metrics,
            "status": "verified" if verified else "mismatch",
        }
    )
    _emit(out, args.json)
    return 0 if verified else 1


def _emit(out: dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(json.dumps(out, indent=2, sort_keys=True))
        return
    print(
        f"{out['command']}: {out['ops']} ops journalled, last commit lsn "
        f"{out['last_commit_lsn']}"
    )
    for info in out["checkpoints"]:
        print(
            f"  checkpoint {info['checkpoint_id']}: watermark lsn "
            f"{info['watermark_lsn']}, {info['n_rows']} rows "
            f"({info['n_tombstones']} tombstoned), "
            f"{info['row_pages']} row pages"
        )
    for info in out.get("segments", []):
        state = "sealed" if info["sealed"] else "active"
        print(
            f"  segment {info['segment']} [{state}]: "
            f"lsn {info['first_lsn']}..{info['last_lsn']} "
            f"({info['records']} records)"
        )
    if out.get("status") == "failed":
        print(f"  restore failed: {out['error']}")
    elif "status" in out:
        target = (
            "latest" if out["to_lsn"] is None else f"lsn {out['to_lsn']}"
        )
        print(
            f"  restored {target} from checkpoint "
            f"{out.get('restored_from_checkpoint')}: "
            f"{out.get('ops_replayed')} ops replayed, "
            f"{out['wal_metrics'].get('segments_skipped', 0)} segments "
            f"skipped -> {out['status']}"
        )


if __name__ == "__main__":
    sys.exit(main())
