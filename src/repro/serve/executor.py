"""A multi-threaded query executor over pinned snapshots.

The serving pipeline, front to back:

* :meth:`QueryExecutor.submit` (or the per-kind conveniences) places a
  :class:`Ticket` on a **bounded admission queue**; a full queue rejects
  the submission immediately (:class:`AdmissionFull`) instead of building
  unbounded backlog — the caller sheds load or retries.
* With the result cache on (``routing=True``), a skyline/top-k first looks
  in it on the **submitting thread** (:meth:`~repro.route.QueryRouter.lookup`
  reads no storage): a hit comes back as an already-finished ticket and
  never enters the queue; only a miss or bypass is queued.
* A fixed pool of worker threads drains the queue.  Each worker **pins the
  current epoch snapshot**, binds a
  :class:`~repro.query.session.QuerySession` to it (sharing the executor's
  :class:`~repro.storage.buffer.BufferPool`), runs the query, and unpins —
  so maintenance can publish new epochs concurrently and old epochs are
  reclaimed exactly when their last in-flight query drains.
* A per-query **deadline** (measured from submission) and cooperative
  **cancellation** are enforced through the session's ticker, which the
  search loop polls on every heap pop; an expired or cancelled query
  aborts with :class:`QueryTimeout` / :class:`QueryCancelled` without
  poisoning the worker.
* Every executor is **resilient**, with one configuration: sessions run
  with deadline-budgeted storage retries, a cell whose partial stayed
  unreadable is quarantined in the store (every later read skips its
  pages and answers through the exact degraded path until a re-store
  publishes the repaired cell), and queued tickets whose deadline already
  lapsed are **shed** (:class:`QueryShed`) instead of wasting a worker.
* Every per-kind query runs down **one fallback chain**
  (:mod:`repro.route.fallback`): :data:`~repro.route.engines.SERVING_CHAIN`,
  whose exact scans answer conjunctive skylines and top-k when even the
  search structures fault (dynamic skylines, hulls and disjunctions have
  no scan engine and surface the fault).  Skylines and top-k run it
  through the executor's one :class:`~repro.route.QueryRouter`, which
  stamps ``stats.route`` and counts the route, with the cache on or off.

Results carry their epoch and queue wait in ``stats``, and the executor
aggregates fleet-level tallies in :class:`~repro.serve.stats.ServingStats`;
:meth:`health` bundles those with fault and quarantine state for
operators.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from typing import TYPE_CHECKING, Callable, Sequence

from repro.query.predicates import BooleanPredicate
from repro.query.ranking import RankingFunction
from repro.query.session import Predicate, QueryResult, QuerySession
from repro.route.cache import CACHED_KINDS
from repro.route.engines import RouteRequest, chain_for
from repro.route.fallback import run_chain
from repro.route.router import QueryRouter
from repro.serve.stats import ServingStats
from repro.storage.buffer import BufferPool

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import PCubeSystem


class QueryTimeout(Exception):
    """The query exceeded its deadline (queue wait included)."""


class QueryShed(QueryTimeout):
    """The executor evicted a queued query that could not meet its deadline.

    Raised *instead of running the query at all* — a :class:`QueryTimeout`
    subclass (a shed is a deadline failure, just detected before any work
    was wasted on it).  Carries what a client-side backoff needs:

    Attributes:
        queue_depth: Tickets still queued when this one was shed.
        deadline_remaining: Seconds left on the deadline at shed time
            (negative: the deadline had already passed).
        retry_after: Suggested client wait before resubmitting, derived
            from the executor's observed mean service time and backlog.
    """

    def __init__(
        self,
        kind: str,
        queue_depth: int,
        deadline_remaining: float,
        retry_after: float,
    ) -> None:
        super().__init__(
            f"{kind} query shed: deadline_remaining="
            f"{deadline_remaining:.3f}s with {queue_depth} queued; "
            f"retry after {retry_after:.3f}s"
        )
        self.kind = kind
        self.queue_depth = queue_depth
        self.deadline_remaining = deadline_remaining
        self.retry_after = retry_after


class QueryCancelled(Exception):
    """The query was cancelled before it produced an answer."""


class AdmissionFull(RuntimeError):
    """The bounded admission queue is at capacity; shed or retry.

    Attributes:
        queue_depth: The queue's capacity (tickets pending at rejection).
        deadline_remaining: Seconds the rejected submission had left on its
            deadline (``None`` when it carried no deadline).
        retry_after: Suggested client wait before resubmitting.
    """

    def __init__(
        self,
        queue_depth: int,
        deadline_remaining: float | None = None,
        retry_after: float = 0.0,
    ) -> None:
        super().__init__(
            f"admission queue full ({queue_depth} pending); "
            f"retry after {retry_after:.3f}s"
        )
        self.queue_depth = queue_depth
        self.deadline_remaining = deadline_remaining
        self.retry_after = retry_after


#: The two events every ticket born finished shares: ``done`` is set, and
#: ``cancel`` never is (:meth:`Ticket.cancel` refuses once done).
_DONE, _NEVER = threading.Event(), threading.Event()
_DONE.set()


class Ticket:
    """A submitted query: a future for its :class:`QueryResult`.

    Returned by :meth:`QueryExecutor.submit`; thread-safe.  ``result()``
    blocks until a worker finishes the query, then returns the
    :class:`~repro.query.session.QueryResult` or raises whatever the query
    raised (:class:`QueryTimeout` / :class:`QueryCancelled` included).
    A ticket constructed with its ``result`` (a cache hit answered at
    submission) is born finished.
    """

    def __init__(
        self,
        kind: str,
        run: Callable[[QuerySession], QueryResult] | None,
        deadline_at: float | None,
        result: QueryResult | None = None,
    ) -> None:
        self.kind = kind
        self._run = run
        self.deadline_at = deadline_at
        self.submitted_at = time.perf_counter()
        self.queue_wait_seconds = 0.0
        self.epoch: int | None = None
        self._result = result
        self._error: BaseException | None = None
        self._done = threading.Event() if result is None else _DONE
        self._cancel = threading.Event() if result is None else _NEVER

    def cancel(self) -> bool:
        """Request cancellation; returns False if already finished.

        Cooperative: a running query aborts at its next ticker poll, a
        queued one aborts when a worker picks it up.
        """
        if self._done.is_set():
            return False
        self._cancel.set()
        return True

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> QueryResult:
        if not self._done.wait(timeout):
            raise TimeoutError(f"{self.kind} ticket still pending")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def _finish(
        self,
        result: QueryResult | None,
        error: BaseException | None,
    ) -> None:
        self._result = result
        self._error = error
        self._done.set()

    def _ticker(self) -> None:
        """The cooperative abort probe (polled on every heap pop)."""
        if self._cancel.is_set():
            raise QueryCancelled(f"{self.kind} query cancelled")
        if (
            self.deadline_at is not None
            and time.perf_counter() > self.deadline_at
        ):
            raise QueryTimeout(f"{self.kind} query exceeded its deadline")


#: Queue sentinel that tells a worker to exit.
_STOP = object()


def _check_deadline(deadline: float | None) -> None:
    """Refuse a NaN deadline: it compares false with every clock reading,
    so it would be shed on every retry, or ignored on a cache hit."""
    if deadline is not None and math.isnan(deadline):
        raise ValueError("deadline must be a number of seconds or None, got nan")


class QueryExecutor:
    """A thread pool serving snapshot-isolated preference queries.

    Args:
        system: The built system; its epoch manager publishes what the
            workers pin (maintenance keeps working concurrently through
            the system's WAL-protected methods).
        threads: Worker count.
        queue_depth: Admission-queue capacity, at least 1: a submission
            that finds the queue full is refused (:class:`AdmissionFull`).
        pool: The shared buffer pool; by default one warm
            :class:`BufferPool` of ``pool_capacity`` pages over the
            system's disk, shared by all workers.
        routing: Turns the router's epoch-keyed result cache on (with its
            quarantine bypass).  Cached answers are canonicalised (skyline
            tids ascending, top-k sorted by ``(score, tid)``) and
            byte-identical to the cache-off answer *sets*; a cache hit is
            answered on the submitting thread (queue wait 0, no pin).
            ``False`` (the default) serves every query down the same
            chain with no lookup, in Algorithm 1's reporting order.

    Use as a context manager, or call :meth:`shutdown` explicitly.
    """

    def __init__(
        self,
        system: "PCubeSystem",
        threads: int = 4,
        queue_depth: int = 64,
        pool: BufferPool | None = None,
        pool_capacity: int = 4096,
        routing: bool = False,
    ) -> None:
        if threads < 1:
            raise ValueError("threads must be positive")
        if queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        self.system = system
        self.epochs = system.epochs
        self.pool = (
            pool
            if pool is not None
            else BufferPool(system.rtree.disk, capacity=pool_capacity)
        )
        self.router = QueryRouter.for_system(system, cache=routing)
        self.stats = ServingStats()
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self._closed = False
        # In-flight registry: ticket id -> (ticket, started_at).  The
        # supervisor reads it to spot queries running past any reasonable
        # horizon (hung) — deadlines alone cannot, since a query wedged
        # below the ticker's poll points never observes its deadline.
        self._inflight: dict[int, tuple[Ticket, float]] = {}
        self._inflight_lock = threading.Lock()
        self.scrubber = None
        self.supervisor = None
        # Serialises the closed-check + enqueue in submit() against
        # shutdown(), so no ticket can slip in behind the stop sentinels
        # and block its waiter forever.
        self._admission_lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(threads)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def submit(
        self,
        kind: str,
        run: Callable[[QuerySession], QueryResult],
        deadline: float | None = None,
    ) -> Ticket:
        """Admit one query; raises :class:`AdmissionFull` when saturated.

        ``run`` receives the snapshot-bound session and returns the query
        result; the per-kind conveniences below build it for you.  A full
        queue first evicts queued tickets whose deadline already lapsed
        (failing them with :class:`QueryShed`) before rejecting the new
        submission.  ``deadline`` is seconds from now (``None``: none; a
        NaN is refused with ``ValueError``).
        """
        _check_deadline(deadline)
        ticket = Ticket(
            kind,
            run,
            deadline_at=(
                time.perf_counter() + deadline if deadline is not None else None
            ),
        )
        with self._admission_lock:
            if self._closed:
                raise RuntimeError("executor is shut down")
            try:
                self._queue.put_nowait(ticket)
            except queue.Full:
                if not self._evict_expired_locked():
                    self._reject(ticket)
                try:
                    self._queue.put_nowait(ticket)
                except queue.Full:
                    self._reject(ticket)
        self.stats.bump(submitted=1)
        return ticket

    def _retry_after(self) -> float:
        """A backoff hint: the backlog's expected drain time per worker."""
        snapshot = self.stats.snapshot()
        drained = snapshot["completed"] + snapshot["failed"]
        mean_run = snapshot["run_seconds"] / drained if drained else 0.01
        backlog = self._queue.qsize() + 1
        return mean_run * backlog / max(1, len(self._workers))

    def _reject(self, ticket: Ticket) -> None:
        self.stats.bump(rejected=1)
        remaining = (
            ticket.deadline_at - time.perf_counter()
            if ticket.deadline_at is not None
            else None
        )
        raise AdmissionFull(
            self._queue.maxsize, remaining, self._retry_after()
        ) from None

    def _evict_expired_locked(self) -> int:
        """Shed queued tickets that can no longer meet their deadline.

        Called with the admission lock held when the queue is full.  Each
        evicted ticket resolves immediately with :class:`QueryShed`, so its
        waiters unblock without a worker ever picking it up.  Returns the
        number of tickets evicted.
        """
        now = time.perf_counter()
        survivors: list = []
        evicted: list[Ticket] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            # Balance the queue's unfinished-task count for this get —
            # survivors are re-registered by the put below, so join()
            # keeps waiting for exactly the tickets a worker will serve.
            self._queue.task_done()
            if (
                item is not _STOP
                and item.deadline_at is not None
                and now > item.deadline_at
            ):
                evicted.append(item)
            else:
                survivors.append(item)
        for item in survivors:
            self._queue.put_nowait(item)
        for ticket in evicted:
            error = QueryShed(
                ticket.kind,
                self._queue.qsize(),
                ticket.deadline_at - now,
                self._retry_after(),
            )
            self.stats.note_finished(
                "shed",
                queue_wait=now - ticket.submitted_at,
                run_seconds=0.0,
            )
            ticket._finish(None, error)
        return len(evicted)

    def _submit_request(
        self,
        kind: str,
        predicate: Predicate,
        deadline: float | None,
        **shape,
    ) -> Ticket:
        _check_deadline(deadline)
        request = RouteRequest(kind, predicate or BooleanPredicate(), **shape)
        if self.router.cache is not None and kind in CACHED_KINDS and not self._closed:
            ticket = self._answer_hit(request)
            if ticket is not None:
                return ticket
        return self.submit(
            kind,
            lambda session: self._answer(session, request),
            deadline=deadline,
        )

    def _answer_hit(self, request: RouteRequest) -> Ticket | None:
        """A result-cache hit as a finished ticket, on the submitting thread:
        no pin, no worker, no queue.  ``None`` on a miss or bypass; the
        worker's :meth:`~repro.route.QueryRouter.route` then looks again at
        its pinned epoch (another worker may have put the answer since)."""
        started = time.perf_counter()
        epoch = self.epochs.current_epoch
        hit = self.router.lookup(request, epoch)[0]
        if hit is None:
            return None
        ticket = Ticket(request.kind, None, None, result=hit)
        ticket.epoch = epoch
        self.stats.bump(submitted=1)
        self.stats.note_finished(
            "completed",
            queue_wait=0.0,
            run_seconds=time.perf_counter() - started,
            epoch=epoch,
            stats=hit.stats,
        )
        return ticket

    def _answer(
        self, session: QuerySession, request: RouteRequest
    ) -> QueryResult:
        """One queued query down its chain: through the router for
        skylines and top-k (stamped and counted, cached when the cache is
        on), straight to the chain runner for the other kinds."""
        if request.kind in CACHED_KINDS:
            return self.router.route(session, request)
        chain = chain_for(request)
        return run_chain(chain, session, request, self.router.ctx)[0]

    def skyline(
        self,
        predicate: Predicate = None,
        preference_by: tuple[str, ...] | None = None,
        deadline: float | None = None,
    ) -> Ticket:
        return self._submit_request(
            "skyline", predicate, deadline, preference_by=preference_by
        )

    def topk(
        self,
        fn: RankingFunction,
        k: int,
        predicate: Predicate = None,
        deadline: float | None = None,
    ) -> Ticket:
        return self._submit_request("topk", predicate, deadline, fn=fn, k=k)

    def dynamic_skyline(
        self,
        query_point: Sequence[float],
        predicate: BooleanPredicate | None = None,
        deadline: float | None = None,
    ) -> Ticket:
        return self._submit_request(
            "dynamic_skyline", predicate, deadline, query_point=tuple(query_point)
        )

    def lower_hull(
        self,
        predicate: BooleanPredicate | None = None,
        deadline: float | None = None,
    ) -> Ticket:
        return self._submit_request("lower_hull", predicate, deadline)

    # ------------------------------------------------------------------ #
    # the worker loop
    # ------------------------------------------------------------------ #

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                self._serve(item)
            finally:
                self._queue.task_done()
                # Let go of the ticket before blocking in ``get()``: a
                # local kept across the wait would pin the finished query's
                # result and search state until the *next* request arrives,
                # and free them on that request's clock.
                item = None

    def _preflight(self, ticket: Ticket) -> None:
        """Abort queued-but-doomed tickets before paying for a pin.

        A lapsed deadline at pickup time is a *shed* (the query never ran;
        the typed error carries backoff hints); cancellation wins over it.
        """
        if ticket.cancelled:
            raise QueryCancelled(f"{ticket.kind} query cancelled")
        if ticket.deadline_at is None:
            return
        remaining = ticket.deadline_at - time.perf_counter()
        if remaining > 0:
            return
        raise QueryShed(
            ticket.kind, self._queue.qsize(), remaining, self._retry_after()
        )

    def _serve(self, ticket: Ticket) -> None:
        queue_wait = time.perf_counter() - ticket.submitted_at
        ticket.queue_wait_seconds = queue_wait
        started = time.perf_counter()
        with self._inflight_lock:
            self._inflight[id(ticket)] = (ticket, started)
        outcome = "completed"
        result: QueryResult | None = None
        error: BaseException | None = None
        try:
            try:
                self._preflight(ticket)
                snapshot = self.epochs.pin()
                try:
                    ticket.epoch = snapshot.epoch
                    session = QuerySession.for_snapshot(
                        snapshot,
                        pool=self.pool,
                        ticker=ticket._ticker,
                        deadline_at=ticket.deadline_at,
                    )
                    result = ticket._run(session)
                    result.stats.queue_wait_seconds = queue_wait
                finally:
                    self.epochs.unpin(snapshot)
            except QueryShed as exc:
                outcome, error = "shed", exc
            except QueryTimeout as exc:
                outcome, error = "timed_out", exc
            except QueryCancelled as exc:
                outcome, error = "cancelled", exc
            except BaseException as exc:  # noqa: BLE001 - surfaced via Ticket
                outcome, error = "failed", exc
            try:
                self.stats.note_finished(
                    outcome,
                    queue_wait=queue_wait,
                    run_seconds=time.perf_counter() - started,
                    epoch=ticket.epoch,
                    stats=result.stats if result is not None else None,
                )
            except BaseException as exc:  # noqa: BLE001 - must not hang waiters
                # Aggregation is bookkeeping: a bug here must fail the
                # ticket, never leave its waiters blocked forever.
                if error is None:
                    result, error = None, exc
        finally:
            with self._inflight_lock:
                self._inflight.pop(id(ticket), None)
            ticket._finish(result if error is None else None, error)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def inflight(self) -> list[dict]:
        """Currently running queries (kind, seconds running, epoch)."""
        now = time.perf_counter()
        with self._inflight_lock:
            entries = list(self._inflight.values())
        return [
            {
                "kind": ticket.kind,
                "running_seconds": now - started,
                "epoch": ticket.epoch,
            }
            for ticket, started in entries
        ]

    def enable_scrubbing(
        self,
        pages_per_tick: int = 256,
        cells_per_tick: int = 16,
        interval: float = 0.005,
        start: bool = True,
    ):
        """Attach a background scrubber and supervisor (idempotent).

        The scrubber thread continuously re-verifies page checksums and
        cross-structure invariants under pinned epochs, quarantining and
        rebuilding damaged signature cells; the supervisor folds its
        findings into :meth:`health` together with hung-query and
        stalled-maintenance watches.  Returns the supervisor.
        """
        from repro.serve.scrub import Scrubber, Supervisor

        if self.scrubber is None:
            self.scrubber = Scrubber(
                self.system,
                pages_per_tick=pages_per_tick,
                cells_per_tick=cells_per_tick,
                interval=interval,
            )
            self.supervisor = Supervisor(
                system=self.system, executor=self, scrubber=self.scrubber
            )
        if start:
            self.scrubber.start()
        return self.supervisor

    def health(self) -> dict:
        """One operator-facing report: every tally's snapshot under its
        name (``serving``, ``faults``, ``maintenance``, ``epochs``, and the
        router's and scrubber's inside their reports), plus the current
        quarantine backlog — what ``python -m repro.serve --health``
        prints.
        """
        store = self.system.pcube.store
        quarantined = store.quarantined_cells()
        return {
            "epoch": self.epochs.current_epoch,
            "queue_depth": self._queue.qsize(),
            "workers": len(self._workers),
            "serving": self.stats.snapshot(),
            "faults": store.fault_stats.snapshot(),
            "maintenance": self.system.maintenance_stats.snapshot(),
            "epochs": self.epochs.stats.snapshot(),
            "quarantined_cells": [cell.cell_id for cell in quarantined],
            "router": self.router.snapshot(),
            "inflight": self.inflight(),
            "scrubber": (
                self.scrubber.report() if self.scrubber is not None else None
            ),
            "supervisor": (
                self.supervisor.report()
                if self.supervisor is not None
                else None
            ),
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def drain(self) -> None:
        """Block until every admitted ticket has been served."""
        self._queue.join()

    def shutdown(self, wait: bool = True) -> None:
        """Stop admitting, then stop the workers.

        With ``wait`` the already-admitted backlog is served first;
        without it the still-queued backlog is failed immediately — every
        abandoned ticket finishes with an "executor shut down" error so
        ``result()`` waiters unblock instead of hanging forever.
        """
        with self._admission_lock:
            if self._closed:
                return
            self._closed = True
        if self.scrubber is not None:
            self.scrubber.stop()
        if wait:
            self.drain()
        else:
            while True:
                try:
                    ticket = self._queue.get_nowait()
                except queue.Empty:
                    break
                self._queue.task_done()
                ticket._finish(
                    None, RuntimeError("executor shut down before serving")
                )
        for _ in self._workers:
            self._queue.put(_STOP)
        if wait:
            for worker in self._workers:
                worker.join()

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=exc_info[0] is None)
