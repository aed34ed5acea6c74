"""Snapshot-isolated concurrent query serving (see DESIGN.md §9).

``repro.serve`` turns a built :class:`~repro.system.PCubeSystem` into a
multi-threaded query server: a :class:`QueryExecutor` drains a bounded
admission queue with a fixed worker pool, every query runs against a
pinned epoch snapshot (so concurrent maintenance never changes an answer
mid-flight), and a shared buffer pool keeps hot pages warm across queries.

Quick start::

    from repro.serve import QueryExecutor

    with QueryExecutor(system, threads=4) as executor:
        ticket = executor.skyline(predicate)
        result = ticket.result(timeout=5.0)

Every executor serves resiliently with one configuration: deadline-budgeted
storage retries, the store's quarantine (a cell whose partial stayed
unreadable is read through the exact degraded path, with none of its pages,
until a re-store publishes it repaired) and shedding of queued tickets
whose deadline lapsed (:class:`QueryShed`).  A deadline is per submission
(``deadline=``).

``python -m repro.serve --smoke`` runs a self-checking smoke workload and
``python -m repro.serve --health`` a resilience/fault health report.
"""

from repro.serve.executor import (
    AdmissionFull,
    QueryCancelled,
    QueryExecutor,
    QueryShed,
    QueryTimeout,
    Ticket,
)
from repro.serve.scrub import Finding, Scrubber, ScrubStats, Supervisor
from repro.serve.stats import ServingStats

__all__ = [
    "AdmissionFull",
    "Finding",
    "QueryCancelled",
    "QueryExecutor",
    "QueryShed",
    "QueryTimeout",
    "ScrubStats",
    "Scrubber",
    "ServingStats",
    "Supervisor",
    "Ticket",
]
