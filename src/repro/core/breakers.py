"""Circuit breakers over the unit a signature reader loads.

:class:`CircuitBreaker` / :class:`BreakerBoard` stop every arriving query
from re-probing a (cell, ref-SID) partial that keeps failing: after
``threshold`` consecutive fault or corrupt loads the breaker opens and
:class:`~repro.core.readers.CellSignatureReader` jumps straight to the
degraded path with zero I/O on the bad pages; the next published epoch
moves it to *half-open*, one probe tests the (possibly rebuilt) cell, and
success closes it again.  The serving layer owns the board (every
:class:`~repro.serve.executor.QueryExecutor` builds one at the default
threshold); the readers and the router only consult it.
"""

from __future__ import annotations

import threading

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
        self.opened_epoch = 0
        self.probing = False


class BreakerBoard:
    """Every breaker of one serving deployment, plus their tallies.

    Keyed by ``(cell_id, ref_sid)`` — exactly the unit
    :meth:`~repro.core.store.SignatureStore.load_partial` loads, so one bad
    page never poisons the whole cell's other partials.

    Healing needs no hook into the epoch manager or the store: a breaker
    records the epoch it opened in, and :meth:`allow` compares it with the
    epoch of the *querying snapshot* — the first query of a newer epoch
    finds the breaker half-open and probes the (by then possibly rebuilt)
    pages.  Every repair publishes an epoch
    (:meth:`~repro.system.PCubeSystem.repair_quarantined` and every
    maintenance op run under the single-writer protocol), so that one
    comparison is the only way back to closed.
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

    def allow(self, cell_id: str, ref_sid: int, epoch: int) -> bool:
        """May this query attempt the load?  ``False`` = degrade, zero I/O.

        In half-open state exactly one in-flight probe is allowed; every
        concurrent query degrades until the probe's outcome is recorded.
        """
        with self._lock:
            breaker = self._breakers.get((cell_id, ref_sid))
            if breaker is None or breaker.state == CLOSED:
                return True
            if breaker.state == OPEN and epoch > breaker.opened_epoch:
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
            breaker.probing = False

    def record_failure(self, cell_id: str, ref_sid: int, epoch: int) -> None:
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
