"""Serving resilience: deadline-budgeted retries, circuit breakers, load shedding.

The PR-1 fault machinery (retries, quarantine, conservative readers) and
the PR-4 concurrent executor compose here into a serving layer that
degrades instead of falling over:

* a session hands its ticket's wall-clock deadline down to the one place
  a read is retried (:meth:`repro.storage.faults.RetryPolicy.call`, from
  ``load_partial``), so storage retries spend from the query's remaining
  time and never back off past it;
* :class:`~repro.core.breakers.BreakerBoard` (re-exported here) stops
  every arriving query from re-probing a (cell, ref-SID) partial that
  keeps failing;
* overload control lives in the executor itself: a queued ticket that can
  no longer meet its deadline is evicted instead of wasting a worker,
  failing fast with :class:`~repro.serve.executor.QueryShed` (queue depth
  and retry-after hint attached for client-side backoff).

What a query does once loads fail or are short-circuited is not decided
here: the reader answers the affected bit tests conservatively (tier
``conservative``, in :mod:`repro.core.readers`), and a fault that escapes
even that hands the query down the one fallback chain
(:mod:`repro.route.fallback`).  Everything stays exactness-preserving: a
lower tier answers the same bytes at higher I/O cost, and a breaker or
shed never silently drops a query — it fails it with a typed error the
caller can react to.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.breakers import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)


@dataclass(frozen=True)
class Resilience:
    """One knob object for everything this module adds to the executor.

    Attributes:
        breaker_threshold: Consecutive (cell, ref-SID) load failures before
            the circuit opens.  ``0`` disables breakers entirely.
        shed: Evict queued tickets whose deadline already passed, failing
            them with :class:`QueryShed` instead of running them.
    """

    breaker_threshold: int = 3
    shed: bool = True

    def build_board(self) -> BreakerBoard | None:
        if self.breaker_threshold < 1:
            return None
        return BreakerBoard(threshold=self.breaker_threshold)


__all__ = [
    "BreakerBoard",
    "CircuitBreaker",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "Resilience",
]
