"""Deterministic, seeded fault injection over the simulated disk.

Production disks fail; the paper's retrieval protocol (Section IV-B.2)
assumes they don't.  This module supplies the missing failure model:

* :class:`FaultPlan` — a declarative schedule of :class:`FaultRule`\\ s,
  matched by page tag prefix, exact page id, access count and (seeded)
  probability, so every fault sequence is reproducible bit for bit;
* :class:`FaultyDisk` — a transparent wrapper around
  :class:`~repro.storage.disk.SimulatedDisk` that consults the plan on
  every operation and injects transient read errors, permanent page
  corruption, or torn multi-page rewrites;
* :class:`RetryPolicy` — bounded retry with exponential backoff over a
  :class:`DeterministicClock` (no real sleeps, so tests and benchmarks stay
  fast and reproducible);
* :class:`FaultStats` — the tallies the robustness benchmarks report.

A typical schedule::

    plan = FaultPlan(
        rules=[
            FaultRule(kind="transient", tag="pcube:sig", count=2),
            FaultRule(kind="corrupt", tag="pcube:sig", after=5, count=1),
        ],
        seed=7,
    )
    disk = FaultyDisk(SimulatedDisk(), plan)

The first two partial-signature reads fail transiently (then succeed on
retry); the sixth matching read permanently corrupts its page, which every
later read detects as :class:`~repro.storage.errors.CorruptPageError`.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.storage.counters import IOCounters, Tally
from repro.storage.disk import SimulatedDisk
from repro.storage.errors import (
    CorruptPageError,
    StorageFault,
    TornWriteError,
    TransientIOError,
)
from repro.storage.page import Page

FAULT_KINDS = ("transient", "corrupt", "torn", "crash", "slow")


class SimulatedCrash(RuntimeError):
    """Process death at a declared crash point.

    Deliberately *not* a :class:`StorageFault`: nothing in the read/write
    path may absorb it (no retry, no degraded fallback, no quarantine) —
    it must unwind the whole operation exactly as a real crash would kill
    the process, leaving whatever the disk already holds as the only
    surviving state.  Recovery happens on "reopen" via
    :meth:`repro.system.PCubeSystem.recover`.
    """


# ---------------------------------------------------------------------- #
# deterministic time + retry
# ---------------------------------------------------------------------- #


class DeterministicClock:
    """A clock that only advances when told to sleep — no real waiting."""

    def __init__(self) -> None:
        self.now = 0.0

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self.now += seconds


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff for transient faults.

    ``max_attempts`` counts the initial try; ``max_attempts=1`` disables
    retrying.  Backoff is charged to the deterministic clock, so the total
    simulated wait is inspectable (``clock.now``) without real sleeps.

    ``jitter`` spreads each backoff delay by up to that fraction of itself,
    drawn from a seeded generator — deterministic for a fixed ``seed``, so
    retry schedules in tests and benchmarks replay bit for bit while
    concurrent retriers in a real deployment would still decorrelate.

    A *deadline* turns the policy into a budgeted one.  The serving layer
    hands :meth:`call` each ticket's wall-clock ``deadline_at``; since
    backoff is charged to the deterministic clock and never really slept,
    "never back off past the deadline" means the charged backoff must fit
    into the wall-clock time the ticket still has when the call starts.  A
    retry that would outspend it is not taken — the transient fault
    propagates immediately so the caller's degraded path runs while the
    query can still meet its deadline.
    """

    max_attempts: int = 4
    base_delay: float = 0.01
    multiplier: float = 2.0
    jitter: float = 0.0
    seed: int = 0
    clock: DeterministicClock = field(default_factory=DeterministicClock)
    retries: int = 0  # lifetime retry count across calls
    exhausted_budgets: int = 0  # retries skipped because the deadline forbade them

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.multiplier < 1.0:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        self._jitter_rng = random.Random(self.seed)

    def _next_delay(self, delay: float) -> float:
        """The jittered sleep for a nominal backoff ``delay``."""
        if self.jitter == 0.0:
            return delay
        return delay * (1.0 + self.jitter * self._jitter_rng.random())

    def call(
        self,
        fn: Callable[[], Any],
        on_retry: Callable[[int, Exception], None] | None = None,
        deadline_at: float | None = None,
    ) -> Any:
        """Run ``fn``, retrying on :class:`TransientIOError` with backoff.

        Permanent failures (:class:`CorruptPageError`, :class:`PageFault`)
        propagate immediately — retrying cannot fix them.  With a
        ``deadline_at`` (a ``time.perf_counter()`` instant), a backoff that
        would overshoot the time left is not slept: the fault propagates at
        once instead, so this call never charges the clock more than the
        wall-clock time that remained when it started (nothing, for a
        deadline already lapsed).
        """
        deadline = (
            None
            if deadline_at is None
            else self.clock.now + max(deadline_at - time.perf_counter(), 0.0)
        )
        delay = self.base_delay
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except TransientIOError as exc:
                if attempt == self.max_attempts:
                    raise
                sleep = self._next_delay(delay)
                if deadline is not None and self.clock.now + sleep > deadline:
                    self.exhausted_budgets += 1
                    raise
                self.retries += 1
                if on_retry is not None:
                    on_retry(attempt, exc)
                self.clock.sleep(sleep)
                delay *= self.multiplier
        raise AssertionError("unreachable")  # pragma: no cover


# ---------------------------------------------------------------------- #
# fault schedules
# ---------------------------------------------------------------------- #


@dataclass
class FaultRule:
    """One line of a fault schedule.

    Attributes:
        kind: ``"transient"`` (read fails, retry may succeed),
            ``"corrupt"`` (page payload permanently damaged; every later
            read raises :class:`CorruptPageError`), ``"torn"`` (a write /
            allocation raises :class:`TornWriteError` mid-rewrite),
            ``"crash"`` (the process dies: :class:`SimulatedCrash` is
            raised *before* the operation takes effect, so the page the
            access would have produced never reaches the disk) or
            ``"slow"`` (a latency spike: the operation succeeds but only
            after a real ``delay``-second stall — the chaos harness uses it
            to exercise deadlines and load shedding).
        op: Which operation the rule watches: ``"read"``, ``"write"`` or
            ``"allocate"``.  Defaults to ``"read"`` for transient/corrupt
            and is normally ``"allocate"`` or ``"write"`` for torn rules.
        tag: Page-tag prefix filter (``""`` matches every page).
        page_id: Exact page filter (``None`` matches every page).
        after: Skip this many matching accesses before firing.
        count: Fire at most this many times (``None`` = unlimited).
        probability: Fire with this probability per eligible access, drawn
            from the plan's seeded generator (1.0 = always).
        delay: For ``"slow"`` rules only: the real seconds the access
            stalls before proceeding.
    """

    kind: str
    op: str = "read"
    tag: str = ""
    page_id: int | None = None
    after: int = 0
    count: int | None = 1
    probability: float = 1.0
    delay: float = 0.0
    seen: int = field(default=0, repr=False)
    fired: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.op not in ("read", "write", "allocate"):
            raise ValueError(f"unknown fault op {self.op!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")

    def matches(self, op: str, tag: str, page_id: int | None) -> bool:
        if op != self.op:
            return False
        if self.tag and not tag.startswith(self.tag):
            return False
        if self.page_id is not None and page_id != self.page_id:
            return False
        return True

    def exhausted(self) -> bool:
        return self.count is not None and self.fired >= self.count


class FaultPlan:
    """A deterministic, seeded schedule of fault rules.

    The plan is stateful: each rule tracks how many matching accesses it has
    seen and how many times it has fired, so ``after``/``count`` windows are
    exact and reproducible for a fixed workload and seed.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0) -> None:
        self.rules = list(rules)
        self._rng = random.Random(seed)

    def add(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    def next_fault(self, op: str, tag: str, page_id: int | None) -> FaultRule | None:
        """The first rule that fires for this access, advancing rule state."""
        for rule in self.rules:
            if not rule.matches(op, tag, page_id):
                continue
            rule.seen += 1
            if rule.exhausted() or rule.seen <= rule.after:
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            rule.fired += 1
            return rule
        return None

    def pending(self) -> bool:
        """Whether any rule can still fire."""
        return any(not rule.exhausted() for rule in self.rules)


class CorruptPayload:
    """What a corrupted page holds: recognisably not the original object.

    Carries the original payload for post-mortem inspection only; nothing in
    the read path ever unwraps it — detection happens via the checksum.
    """

    def __init__(self, original: Any) -> None:
        self.original = original

    def __repr__(self) -> str:
        return f"CorruptPayload({type(self.original).__qualname__})"


class FaultStats(Tally):
    """Fault and recovery tallies (robustness-overhead reporting); bumped
    from whichever worker thread hit the fault."""

    ZEROS = dict(
        transient_errors=0,
        corrupt_pages=0,
        torn_writes=0,
        retries=0,
        degraded_loads=0,
        quarantines=0,
        rebuilds=0,
    )


# ---------------------------------------------------------------------- #
# the fault-injecting disk
# ---------------------------------------------------------------------- #


#: (op, kind) -> (error, message) for the faults that raise; ``slow`` and
#: ``corrupt`` let the access proceed, and a kind without an entry for the
#: op (``torn`` on a read, ``corrupt`` on a write) does nothing.
_RAISES: dict[tuple[str, str], tuple[type[Exception], str]] = {
    ("allocate", "crash"): (SimulatedCrash, "crash before allocation under {tag!r}"),
    ("allocate", "torn"): (TornWriteError, "torn allocation under tag {tag!r}"),
    ("allocate", "transient"): (TransientIOError, "transient allocation fault ({tag!r})"),
    ("write", "crash"): (SimulatedCrash, "crash before write on page {page_id}"),
    ("write", "torn"): (TornWriteError, "torn write on page {page_id}"),
    ("write", "transient"): (TransientIOError, "transient write fault on page {page_id}"),
    ("read", "crash"): (SimulatedCrash, "crash before read of page {page_id}"),
    ("read", "transient"): (TransientIOError, "transient read fault on page {page_id}"),
}


class FaultyDisk:
    """A :class:`SimulatedDisk` wrapper that injects scheduled faults.

    Drop-in compatible with ``SimulatedDisk`` (every structure in the
    system reads and writes through the same interface), so a whole system
    can be built over a ``FaultyDisk`` with an empty plan and armed later::

        disk = FaultyDisk(SimulatedDisk())
        system = build_system(generate_relation(config, disk=disk))
        disk.plan = FaultPlan([FaultRule(kind="transient", tag="pcube:sig")])

    Injection points:

    * ``read`` — ``transient`` rules raise :class:`TransientIOError` before
      the transfer; ``corrupt`` rules damage the page payload in place
      (without re-sealing), so this and every later read detects a checksum
      mismatch and raises :class:`CorruptPageError`.
    * ``write`` / ``allocate`` — ``torn`` rules raise
      :class:`TornWriteError` before the operation, modelling a rewrite
      interrupted part-way; ``transient`` rules raise
      :class:`TransientIOError`.
    * any op — ``slow`` rules charge ``rule.delay`` seconds to the inner
      disk's device clock and then let the access proceed (a latency spike,
      not a failure);
      ``crash`` rules raise :class:`SimulatedCrash` before the
      operation: the process is dead and only already-durable pages
      survive.  A rule with ``probability=0.0`` and ``count=None`` never
      fires but still counts matching accesses in ``rule.seen`` — the
      crash-sweep tests use this to enumerate a workload's crash points.
    """

    def __init__(
        self, inner: SimulatedDisk | None = None, plan: FaultPlan | None = None
    ) -> None:
        self.inner = inner if inner is not None else SimulatedDisk()
        self.plan = plan if plan is not None else FaultPlan()
        #: kind -> number of injected faults.
        self.fault_counts: Counter[str] = Counter()
        #: Chronological injection log: ``(op, kind, page_id)``.
        self.injected: list[tuple[str, str, int | None]] = []

    # -- the one fault dispatch ---------------------------------------- #

    def _inject(
        self, op: str, tag: str, page_id: int | None, page: Page | None = None
    ) -> None:
        """Consult the plan for one access and act on the rule that fires:
        raise its error, stall (``slow``) or damage the page (``corrupt``,
        reads only)."""
        rule = self.plan.next_fault(op, tag, page_id)
        if rule is None:
            return
        self.fault_counts[rule.kind] += 1
        self.injected.append((op, rule.kind, page_id))
        raised = _RAISES.get((op, rule.kind))
        if raised is not None:
            error, message = raised
            raise error(message.format(tag=tag, page_id=page_id))
        if rule.kind == "slow":
            self.inner.device.charge(rule.delay)
        elif rule.kind == "corrupt" and page is not None:
            if not isinstance(page.payload, CorruptPayload):
                page.payload = CorruptPayload(page.payload)
            # The checksum is deliberately NOT re-sealed: the mismatch is
            # the detection signal.

    # -- faultable operations ------------------------------------------ #

    def allocate(self, tag: str, size: int | None = None, payload: Any = None) -> int:
        self._inject("allocate", tag, None)
        return self.inner.allocate(tag, size, payload)

    def write(self, page_id: int, payload: Any, size: int | None = None) -> None:
        tag = self.inner.peek(page_id).tag if self.inner.exists(page_id) else ""
        self._inject("write", tag, page_id)
        self.inner.write(page_id, payload, size)

    def read(
        self,
        page_id: int,
        category: str,
        counters: IOCounters | None = None,
    ) -> Any:
        page = self.inner.peek(page_id)  # raises PageFault if not allocated
        # A transient read raises before the transfer: no access is counted.
        self._inject("read", page.tag, page_id, page)
        return self.inner.read(page_id, category, counters)

    # -- transparent delegation ---------------------------------------- #

    @property
    def page_size(self) -> int:
        return self.inner.page_size

    @property
    def read_latency(self) -> float:
        return self.inner.read_latency

    @read_latency.setter
    def read_latency(self, seconds: float) -> None:
        self.inner.read_latency = seconds

    @property
    def counters(self) -> IOCounters:
        return self.inner.counters

    @property
    def write_counters(self) -> IOCounters:
        return self.inner.write_counters

    def register_pool(self, pool: Any) -> None:
        self.inner.register_pool(pool)

    def free(self, page_id: int) -> None:
        self.inner.free(page_id)

    def exists(self, page_id: int) -> bool:
        return self.inner.exists(page_id)

    def peek(self, page_id: int) -> Page:
        return self.inner.peek(page_id)

    def pages(self, tag_prefix: str = "") -> Iterator[Page]:
        return self.inner.pages(tag_prefix)

    def size_bytes(self, tag_prefix: str = "") -> int:
        return self.inner.size_bytes(tag_prefix)

    def size_mb(self, tag_prefix: str = "") -> float:
        return self.inner.size_mb(tag_prefix)

    def oversized_pages(self) -> list[Page]:
        return self.inner.oversized_pages()


__all__ = [
    "CorruptPageError",
    "CorruptPayload",
    "DeterministicClock",
    "FaultPlan",
    "FaultRule",
    "FaultStats",
    "FaultyDisk",
    "RetryPolicy",
    "SimulatedCrash",
    "StorageFault",
    "TornWriteError",
    "TransientIOError",
]
