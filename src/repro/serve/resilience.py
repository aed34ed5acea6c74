"""Serving resilience: retry budgets, circuit breakers, load shedding.

The PR-1 fault machinery (retries, quarantine, conservative readers) and
the PR-4 concurrent executor compose here into a serving layer that
degrades instead of falling over:

* :class:`RetryBudget` converts a ticket's wall-clock deadline into a
  deadline on the :class:`~repro.storage.faults.RetryPolicy`'s
  deterministic clock, so storage retries spend from the query's remaining
  time and never back off past it;
* :class:`CircuitBreaker` / :class:`BreakerBoard` stop every arriving
  query from re-probing a (cell, ref-SID) partial that keeps failing:
  after ``threshold`` consecutive fault or corrupt loads the breaker
  opens and readers jump straight to the degraded path with zero I/O on
  the bad pages; the next published epoch moves it to *half-open*, one
  probe tests the (possibly rebuilt) cell, and success closes it again;
* overload control lives in the executor itself: a queued ticket that can
  no longer meet its deadline is evicted instead of wasting a worker,
  failing fast with :class:`~repro.serve.executor.QueryShed` (queue depth
  and retry-after hint attached for client-side backoff).

What a query does once loads fail or are short-circuited is not decided
here: the reader answers the affected bit tests conservatively (tier
``conservative``, in :mod:`repro.core.store`), and a fault that escapes
even that hands the query down the one fallback chain
(:mod:`repro.route.fallback`).  Everything stays exactness-preserving: a
lower tier answers the same bytes at higher I/O cost, and a breaker or
shed never silently drops a query — it fails it with a typed error the
caller can react to.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.storage.faults import DeterministicClock


class RetryBudget:
    """A ticket deadline, translated per call into a retry-clock deadline.

    The :class:`~repro.storage.faults.RetryPolicy` backs off on a
    :class:`~repro.storage.faults.DeterministicClock` (no real sleeps), so
    "never sleep past the ticket's deadline" means: the *charged* backoff
    must fit into the wall-clock time the ticket still has.  Each storage
    load asks :meth:`clock_deadline` for the policy-clock instant beyond
    which no further backoff may be charged.
    """

    def __init__(self, deadline_at: float | None) -> None:
        #: ``time.perf_counter()`` instant the ticket expires, or ``None``.
        self.deadline_at = deadline_at

    def remaining(self) -> float | None:
        """Wall-clock seconds left, or ``None`` for no deadline."""
        if self.deadline_at is None:
            return None
        return self.deadline_at - time.perf_counter()

    def clock_deadline(self, clock: DeterministicClock) -> float | None:
        """The retry clock's deadline for a load starting *now*."""
        remaining = self.remaining()
        if remaining is None:
            return None
        return clock.now + max(remaining, 0.0)


# ---------------------------------------------------------------------- #
# circuit breakers
# ---------------------------------------------------------------------- #

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """The per-(cell, ref-SID) failure state machine.

    closed --K consecutive failures--> open --next epoch--> half-open
    half-open --probe succeeds--> closed; --probe fails--> open (again).

    Not thread-safe on its own; the :class:`BreakerBoard` serialises all
    transitions under one lock.
    """

    __slots__ = ("state", "failures", "opened_epoch", "probing")

    def __init__(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.opened_epoch: int | None = None
        self.probing = False


class BreakerBoard:
    """Every breaker of one serving deployment, plus their tallies.

    Keyed by ``(cell_id, ref_sid)`` — exactly the unit
    :meth:`~repro.core.store.SignatureStore.load_partial` loads, so one bad
    page never poisons the whole cell's other partials.

    Epoch healing needs no hook into the epoch manager: a breaker records
    the epoch it opened in, and :meth:`allow` compares it with the epoch of
    the *querying snapshot* — the first query of a newer epoch finds the
    breaker half-open and probes the (by then possibly rebuilt) pages.
    Live sessions (``epoch=None``) heal through :meth:`reset` instead,
    which the store calls when a quarantined cell is rebuilt.
    """

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self.threshold = threshold
        self._lock = threading.Lock()
        self._breakers: dict[tuple[str, int], CircuitBreaker] = {}
        # Tallies (reported through ServingStats / --health):
        self.opened = 0  # closed/half-open -> open transitions
        self.short_circuits = 0  # loads skipped because a breaker was open
        self.half_open_probes = 0  # trial loads allowed in half-open
        self.healed = 0  # half-open -> closed transitions

    def _get(self, cell_id: str, ref_sid: int) -> CircuitBreaker:
        key = (cell_id, ref_sid)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = CircuitBreaker()
        return breaker

    def allow(self, cell_id: str, ref_sid: int, epoch: int | None) -> bool:
        """May this query attempt the load?  ``False`` = degrade, zero I/O.

        In half-open state exactly one in-flight probe is allowed; every
        concurrent query degrades until the probe's outcome is recorded.
        """
        with self._lock:
            breaker = self._breakers.get((cell_id, ref_sid))
            if breaker is None or breaker.state == CLOSED:
                return True
            if (
                breaker.state == OPEN
                and epoch is not None
                and breaker.opened_epoch is not None
                and epoch > breaker.opened_epoch
            ):
                # A newer epoch was published since the breaker opened —
                # maintenance may have rebuilt the cell.  Probe it.
                breaker.state = HALF_OPEN
                breaker.probing = False
            if breaker.state == HALF_OPEN and not breaker.probing:
                breaker.probing = True
                self.half_open_probes += 1
                return True
            self.short_circuits += 1
            return False

    def record_success(self, cell_id: str, ref_sid: int) -> None:
        with self._lock:
            breaker = self._breakers.get((cell_id, ref_sid))
            if breaker is None:
                return
            if breaker.state == HALF_OPEN:
                self.healed += 1
            breaker.state = CLOSED
            breaker.failures = 0
            breaker.opened_epoch = None
            breaker.probing = False

    def record_failure(
        self, cell_id: str, ref_sid: int, epoch: int | None
    ) -> None:
        """One fault/corrupt load; may trip the breaker open."""
        with self._lock:
            breaker = self._get(cell_id, ref_sid)
            if breaker.state == HALF_OPEN:
                # The trial probe failed: straight back to open, stamped
                # with the probing epoch so only a *newer* one re-probes.
                breaker.state = OPEN
                breaker.opened_epoch = epoch
                breaker.probing = False
                breaker.failures = 0
                self.opened += 1
                return
            if breaker.state == OPEN:
                return
            breaker.failures += 1
            if breaker.failures >= self.threshold:
                breaker.state = OPEN
                breaker.opened_epoch = epoch
                breaker.failures = 0
                self.opened += 1

    def reset(self, cell_id: str) -> None:
        """Close every breaker of a cell (called after a rebuild)."""
        with self._lock:
            for (owner, _), breaker in self._breakers.items():
                if owner == cell_id:
                    breaker.state = CLOSED
                    breaker.failures = 0
                    breaker.opened_epoch = None
                    breaker.probing = False

    def state_of(self, cell_id: str, ref_sid: int) -> str:
        with self._lock:
            breaker = self._breakers.get((cell_id, ref_sid))
            return breaker.state if breaker is not None else CLOSED

    def cell_open(self, cell_id: str) -> bool:
        """Any non-closed breaker on this cell (any partial)?

        The router's cache-bypass probe: while a cell's storage is suspect
        the result cache must not mask the real path.
        """
        with self._lock:
            return any(
                breaker.state != CLOSED
                for (owner, _), breaker in self._breakers.items()
                if owner == cell_id
            )

    def open_count(self) -> int:
        with self._lock:
            return sum(
                1
                for breaker in self._breakers.values()
                if breaker.state != CLOSED
            )

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "threshold": self.threshold,
                "tracked": len(self._breakers),
                "open": sum(
                    1
                    for breaker in self._breakers.values()
                    if breaker.state != CLOSED
                ),
                "opened": self.opened,
                "short_circuits": self.short_circuits,
                "half_open_probes": self.half_open_probes,
                "healed": self.healed,
            }


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
    "RetryBudget",
]
