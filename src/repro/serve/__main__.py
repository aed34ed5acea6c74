"""Self-checking serving entry points.

``python -m repro.serve --smoke`` builds the small seeded system, serves a
mixed seeded workload (skyline, top-k, dynamic skyline, lower hull)
through a multi-threaded :class:`~repro.serve.executor.QueryExecutor`, and
verifies:

* every concurrent answer is identical to the serial engine's answer for
  the same query (same epoch, so bit-equality is required, not hoped for);
* a snapshot pinned *before* a maintenance batch still answers with the
  old data afterwards, while the executor serves the new epoch;
* the run is clean — no failed queries, no consistency-audit findings.

``python -m repro.serve --health`` builds the same system over a
fault-injecting disk, serves a seeded skyline/top-k workload *through the
faults* (so retries, quarantines and degraded tiers actually fire), checks
that every degraded answer is still byte-identical to the serial engine,
runs one scrubber pass (which must find and heal the permanently
corrupted signature page the fault plan left behind), and prints the
executor's :meth:`~repro.serve.executor.QueryExecutor.health` report —
the operator view of serving, fault, quarantine, scrubber and supervisor
state.

Exit status 0 on success, 1 on any mismatch; a JSON summary goes to
stdout either way.  An out-of-range ``--threads`` or ``--queries`` (below 1)
is refused by the parser before any work: exit 2, nothing on stdout.  CI
runs both as serving gates.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from repro.data.fixtures import small_config
from repro.data.synthetic import generate_relation
from repro.data.workload import READ_KINDS, read_mix
from repro.query.session import QuerySession
from repro.serve.executor import QueryExecutor
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, FaultRule, FaultyDisk
from repro.system import build_system


def _run_serial(system, workload):
    """The reference answers, via the cold-pool ``system.engine``."""
    return [
        getattr(system.engine, kind)(**kwargs) for kind, kwargs in workload
    ]


def _divergences(executor, workload, serial, what: str) -> list[str]:
    """Submit the whole workload, then name every answer that is not the
    serial engine's (same published epoch, so equality is required)."""
    tickets = [getattr(executor, kind)(**kwargs) for kind, kwargs in workload]
    problems = []
    for index, (ticket, expected) in enumerate(zip(tickets, serial)):
        result = ticket.result(timeout=60.0)
        if (result.tids, result.scores) != (expected.tids, expected.scores):
            problems.append(
                f"query {index} ({workload[index][0]}): {what} answer "
                f"diverges from the serial engine"
            )
    return problems


def run_smoke(threads: int, n_queries: int, seed: int) -> int:
    system = build_system(generate_relation(small_config()))
    workload = read_mix(
        system.relation, random.Random(seed), n_queries, kinds=READ_KINDS
    )
    serial = _run_serial(system, workload)

    with QueryExecutor(system, threads=threads, queue_depth=2 * n_queries) as executor:
        # Phase 1: the whole workload concurrently.
        problems = _divergences(executor, workload, serial, "concurrent")

        # Phase 2: pin the current epoch, mutate, and check isolation.
        pinned = system.pin_snapshot()
        before = QuerySession.for_snapshot(pinned).skyline()
        schema = system.relation.schema
        bool_row = tuple(0 for _ in range(schema.n_boolean))
        system.insert(bool_row, tuple(0.0 for _ in range(schema.n_preference)))
        after_pinned = QuerySession.for_snapshot(pinned).skyline()
        if before.tids != after_pinned.tids:
            problems.append("pinned snapshot changed across maintenance")
        fresh = executor.skyline().result(timeout=60.0)
        if 0.0 not in [
            system.relation.pref_point(tid)[0] for tid in fresh.tids
        ]:
            problems.append(
                "post-maintenance epoch does not see the inserted origin "
                "tuple in its skyline"
            )
        if fresh.stats.epoch != pinned.epoch + 1:
            problems.append(
                f"expected the executor to serve epoch {pinned.epoch + 1}, "
                f"got {fresh.stats.epoch}"
            )
        system.unpin_snapshot(pinned)

    audit = system.verify_consistency()
    problems.extend(audit.problems)
    summary = executor.stats.snapshot()
    if summary["failed"]:
        problems.append(f"{summary['failed']} serving failures")

    print(
        json.dumps(
            {
                "ok": not problems,
                "threads": threads,
                "queries": summary["submitted"],
                "problems": problems,
                "serving": summary,
                "faults": system.pcube.store.fault_stats.snapshot(),
                "epochs": {
                    "published": system.epochs.stats.published,
                    "current": system.epochs.current_epoch,
                },
            },
            indent=2,
        )
    )
    return 0 if not problems else 1


def run_health(threads: int, n_queries: int, seed: int) -> int:
    """Serve a seeded workload through injected faults, report health.

    The fault plan fires transient read errors and one permanent
    corruption against the signature pages, so the report shows retries,
    degraded loads, quarantine skips and the quarantine backlog — while
    the conservative readers and the fallback chain must keep every answer
    byte-identical to the serial engine's.
    """
    disk = FaultyDisk(SimulatedDisk())
    system = build_system(generate_relation(small_config(), disk=disk))
    workload = read_mix(system.relation, random.Random(seed), n_queries)
    serial = _run_serial(system, workload)

    # Arm the faults only after the clean serial reference run.
    disk.plan = FaultPlan(
        [
            FaultRule(
                kind="transient",
                tag=f"{system.pcube.tag}:sig",
                probability=0.3,
                count=8,
            ),
            FaultRule(
                kind="corrupt", tag=f"{system.pcube.tag}:sig", after=4
            ),
        ],
        seed=seed,
    )

    with QueryExecutor(
        system, threads=threads, queue_depth=2 * n_queries
    ) as executor:
        supervisor = executor.enable_scrubbing(start=False)
        problems = _divergences(executor, workload, serial, "degraded")
        # A full synchronous scrub pass with the fault plan disarmed: the
        # permanent corruption rule damaged a signature page, so the pass
        # must find it, heal the owning cell and leave the audit clean.
        disk.plan = FaultPlan()
        scrub_findings = executor.scrubber.run_pass()
        if system.verify_consistency().problems:
            problems.append("consistency audit dirty after the scrub pass")
        health = executor.health()
        health["supervisor"] = supervisor.report()
        health["scrub_findings"] = [
            {"kind": f.kind, "subject": f.subject, "repaired": f.repaired}
            for f in scrub_findings
        ]

    health["ok"] = not problems
    health["problems"] = problems
    print(json.dumps(health, indent=2))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Concurrent serving smoke test for the P-Cube system.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="build the small seeded system and self-check a concurrent "
        "workload against the serial engine",
    )
    parser.add_argument(
        "--health",
        action="store_true",
        help="serve a seeded workload through injected storage faults and "
        "print the executor's health report (serving, fault and "
        "quarantine state)",
    )
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--queries", type=int, default=12)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    for flag, value in (("--threads", args.threads), ("--queries", args.queries)):
        if value < 1:
            parser.error(f"{flag} must be >= 1")
    if args.health:
        return run_health(args.threads, args.queries, args.seed)
    if not args.smoke:
        parser.print_help()
        return 2
    return run_smoke(args.threads, args.queries, args.seed)


if __name__ == "__main__":
    sys.exit(main())
