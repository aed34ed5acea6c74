"""Aggregated serving statistics (thread-safe).

Per-query numbers stay in each result's
:class:`~repro.query.stats.QueryStats`; this module owns the *fleet* view a
serving deployment watches: admission outcomes, queue-wait distribution
summary, per-epoch query counts and the shared buffer pool's aggregate
traffic.  It is a :class:`~repro.storage.counters.Tally`: every mutation
happens under one lock, and ``snapshot()`` returns a plain dict so callers
never read half-updated tallies.
"""

from __future__ import annotations

from repro.query.stats import QueryStats
from repro.storage.counters import Tally


class ServingStats(Tally):
    """What the :class:`~repro.serve.executor.QueryExecutor` aggregates.

    Outcome tallies:

    * ``submitted`` — tickets accepted: queued, or (a routed cache hit)
      answered on the submitting thread with a queue wait of 0;
    * ``rejected`` — submissions refused because the queue was full;
    * ``completed`` / ``failed`` — queries that returned / raised;
    * ``timed_out`` / ``cancelled`` — aborted via the ticker (both also
      count toward ``failed``);
    * ``shed`` — queued tickets evicted before running because their
      deadline had already passed (a deadline failure detected early, so
      also counted in both ``failed`` and ``timed_out``).

    Resilience tallies (aggregated from each query's
    :class:`~repro.query.stats.QueryStats` and reported by ``--health``):
    ``fault_retries``, ``failed_loads``, ``degraded_checks``,
    ``quarantine_skips``, ``degraded_queries`` and the per-tier counts in
    ``tiers``.  Which engine served a routed read, and what its cache
    lookup found, is the router's count
    (:class:`~repro.route.stats.RouterStats`), not repeated here.
    """

    ZEROS = dict(
        submitted=0,
        rejected=0,
        completed=0,
        failed=0,
        timed_out=0,
        cancelled=0,
        shed=0,
        queue_wait_seconds=0.0,
        queue_wait_max=0.0,
        queue_wait_mean=0.0,
        run_seconds=0.0,
        pool_hits=0,
        pool_misses=0,
        total_io=0,
        epochs_served={},
        fault_retries=0,
        failed_loads=0,
        degraded_checks=0,
        quarantine_skips=0,
        degraded_queries=0,
        tiers={},
    )

    def note_finished(
        self,
        outcome: str,
        queue_wait: float,
        run_seconds: float,
        epoch: int | None = None,
        stats: QueryStats | None = None,
    ) -> None:
        """Record one drained ticket.

        ``outcome`` is ``"completed"``, ``"failed"``, ``"timed_out"``,
        ``"cancelled"`` or ``"shed"``; everything but ``"completed"`` also
        increments ``failed`` because no answer was produced.
        """
        with self._lock:
            counts = self._counts
            counts["completed" if outcome == "completed" else "failed"] += 1
            if outcome == "shed":
                counts["shed"] += 1
                counts["timed_out"] += 1
            elif outcome in ("timed_out", "cancelled"):
                counts[outcome] += 1
            counts["queue_wait_seconds"] += queue_wait
            if queue_wait > counts["queue_wait_max"]:
                counts["queue_wait_max"] = queue_wait
            counts["queue_wait_mean"] = counts["queue_wait_seconds"] / (
                counts["completed"] + counts["failed"]
            )
            counts["run_seconds"] += run_seconds
            if epoch is not None:
                served = counts["epochs_served"]
                served[epoch] = served.get(epoch, 0) + 1
            if stats is not None:
                counts["pool_hits"] += stats.pool_hits
                counts["pool_misses"] += stats.pool_misses
                counts["total_io"] += stats.total_io()
                counts["fault_retries"] += stats.fault_retries
                counts["failed_loads"] += stats.failed_loads
                counts["degraded_checks"] += stats.degraded_checks
                counts["quarantine_skips"] += stats.quarantine_skips
                counts["degraded_queries"] += stats.degraded
                if stats.tier is not None:
                    tiers = counts["tiers"]
                    tiers[stats.tier] = tiers.get(stats.tier, 0) + 1
