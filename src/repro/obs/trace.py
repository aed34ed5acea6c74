"""Structured query-execution tracing (the ``repro.obs`` layer).

The paper's claims are *measured* claims — execution time, disk accesses,
heap size — and every later optimisation needs to see *why* a query was
fast or slow: which prune arm fired on which entry, which partial
signatures were loaded for which cell, which phase spent the I/O.  This
module provides that visibility as a span tree:

* a :class:`Span` covers one phase (reader setup, heap init, the BBS
  search loop, ...) and records wall *and* CPU time plus the per-category
  :class:`~repro.storage.counters.IOCounters` delta observed while it was
  open;
* a :class:`TraceEvent` is a point record attached to the innermost open
  span — prune events tagged ``pref`` / ``bool`` / ``both``, partial-
  signature load events keyed ``(cell_id, ref_sid)``, node expansions,
  reader-assembly decisions;
* a :class:`Tracer` owns the stack and the finished roots and offers the
  aggregate views the tests and the bench runner consume
  (:meth:`Tracer.prune_counts`, :meth:`Tracer.sig_loads`,
  :meth:`Tracer.find_spans`, :meth:`Tracer.to_dict`).

Tracing is strictly opt-in: every instrumented call site in
``query/algorithm1.py``, ``query/session.py``, ``core/readers.py`` and
``core/pcube.py`` takes ``tracer=None`` and guards each hook with a single
``is not None`` test, so the disabled path costs one pointer comparison
per hook (<5% end-to-end, enforced by ``tests/obs/test_trace.py``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.storage.counters import IOCounters

#: The three prune-arm tags.  ``pref`` and ``bool`` mirror Algorithm 1's
#: two prune procedures (and sum to ``QueryStats.dominance_pruned`` /
#: ``boolean_pruned``); ``both`` marks entries known to fail both arms —
#: currently emitted by the engine's Lemma 2 prefilter when a previously
#: dominated entry also fails the new predicate's signature.
PRUNE_ARMS = ("pref", "bool", "both")

#: Canonical event kinds (arbitrary kinds are accepted).
PRUNE = "prune"
SIG_LOAD = "sig_load"
EXPAND = "expand"
REPORT = "report"
COVER = "cover"
DEGRADED = "degraded"


@dataclass
class TraceEvent:
    """One point record inside a span."""

    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, **self.fields}


class Span:
    """One timed phase of a query: wall/CPU clocks, I/O delta, children."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "events",
        "wall_seconds",
        "cpu_seconds",
        "io_delta",
        "_wall_started",
        "_cpu_started",
        "_io_before",
    )

    def __init__(self, name: str, attrs: dict[str, Any] | None = None) -> None:
        self.name = name
        self.attrs = attrs or {}
        self.children: list[Span] = []
        self.events: list[TraceEvent] = []
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.io_delta: dict[str, int] = {}
        self._wall_started = 0.0
        self._cpu_started = 0.0
        self._io_before: dict[str, int] = {}

    # -- lifecycle (driven by Tracer.span) ------------------------------ #

    def _open(self, counters: IOCounters | None) -> None:
        self._io_before = counters.snapshot() if counters is not None else {}
        self._cpu_started = time.process_time()
        self._wall_started = time.perf_counter()

    def _close(self, counters: IOCounters | None) -> None:
        self.wall_seconds = time.perf_counter() - self._wall_started
        self.cpu_seconds = time.process_time() - self._cpu_started
        if counters is not None:
            after = counters.snapshot()
            self.io_delta = {
                category: count - self._io_before.get(category, 0)
                for category, count in sorted(after.items())
                if count - self._io_before.get(category, 0)
            }

    # -- aggregate views ------------------------------------------------ #

    def io_total(self) -> int:
        return sum(self.io_delta.values())

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def iter_events(self) -> Iterator[TraceEvent]:
        """Every event in this subtree, span pre-order."""
        for span in self.iter_spans():
            yield from span.events

    def prune_counts(self) -> dict[str, int]:
        """Prune events in this subtree, tallied by arm."""
        counts = dict.fromkeys(PRUNE_ARMS, 0)
        for event in self.iter_events():
            if event.kind == PRUNE:
                counts[event.fields["arm"]] += 1
        return counts

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready view of the subtree (events summarised by kind)."""
        event_kinds: dict[str, int] = {}
        for event in self.events:
            event_kinds[event.kind] = event_kinds.get(event.kind, 0) + 1
        out: dict[str, Any] = {
            "name": self.name,
            "wall_ms": self.wall_seconds * 1e3,
            "cpu_ms": self.cpu_seconds * 1e3,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.io_delta:
            out["io"] = dict(self.io_delta)
        if event_kinds:
            out["events"] = dict(sorted(event_kinds.items()))
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, wall={self.wall_seconds * 1e3:.2f}ms, "
            f"events={len(self.events)}, children={len(self.children)})"
        )


class Tracer:
    """Collects the span tree and point events of one (or more) queries.

    Args:
        counters: The :class:`IOCounters` instance spans snapshot to
            compute per-span I/O deltas.  The query layer sets this to the
            running query's ``stats.counters`` (see
            :meth:`QuerySession._run`); it can also be attached late
            via :attr:`counters` before the first span opens.
    """

    def __init__(self, counters: IOCounters | None = None) -> None:
        self.counters = counters
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- span lifecycle ------------------------------------------------- #

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a child span of the innermost open span (or a new root)."""
        span = Span(name, attrs or None)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        span._open(self.counters)
        try:
            yield span
        finally:
            span._close(self.counters)
            self._stack.pop()

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # -- events --------------------------------------------------------- #

    def event(self, kind: str, **fields: Any) -> None:
        """Attach a point event to the innermost open span.

        Events emitted outside any span (e.g. a reader built ahead of the
        query span) land on a synthetic ``orphans`` root so they are never
        silently dropped.
        """
        if not self._stack:
            if not self.roots or self.roots[-1].name != "orphans":
                self.roots.append(Span("orphans"))
            self.roots[-1].events.append(TraceEvent(kind, fields))
            return
        self._stack[-1].events.append(TraceEvent(kind, fields))

    def prune(self, arm: str, **fields: Any) -> None:
        """Record one pruned candidate (``arm`` in :data:`PRUNE_ARMS`)."""
        if arm not in PRUNE_ARMS:
            raise ValueError(f"unknown prune arm {arm!r}; use {PRUNE_ARMS}")
        self.event(PRUNE, arm=arm, **fields)

    def sig_load(
        self, cell_id: str, ref_sid: int, outcome: str, seconds: float, **fields: Any
    ) -> None:
        """Record one partial-signature load attempt, keyed (cell, SID)."""
        self.event(
            SIG_LOAD,
            cell_id=cell_id,
            ref_sid=ref_sid,
            outcome=outcome,
            seconds=seconds,
            **fields,
        )

    # -- aggregate views ------------------------------------------------ #

    def iter_spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.iter_spans()

    def iter_events(self) -> Iterator[TraceEvent]:
        for root in self.roots:
            yield from root.iter_events()

    def find_spans(self, name: str) -> list[Span]:
        return [span for span in self.iter_spans() if span.name == name]

    def prune_counts(self) -> dict[str, int]:
        """All prune events across every root, tallied by arm."""
        counts = dict.fromkeys(PRUNE_ARMS, 0)
        for event in self.iter_events():
            if event.kind == PRUNE:
                counts[event.fields["arm"]] += 1
        return counts

    def sig_loads(self) -> list[tuple[str, int]]:
        """The ``(cell_id, ref_sid)`` keys of every load event, in order."""
        return [
            (event.fields["cell_id"], event.fields["ref_sid"])
            for event in self.iter_events()
            if event.kind == SIG_LOAD
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "spans": [root.to_dict() for root in self.roots],
            "prune_counts": self.prune_counts(),
        }

    def __repr__(self) -> str:
        return f"Tracer(roots={len(self.roots)}, open={len(self._stack)})"
