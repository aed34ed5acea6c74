"""The result cache: epoch-keyed, plus carry of entries a write cannot change.

A snapshot is fully determined by its epoch (DESIGN.md §9), so an entry
keyed ``(epoch, kind, cell, pref-subspace, digest)`` is exact for readers
pinned there.  A publish does not empty the cache: it *names what it wrote*
(``EpochManager.publish``), and the first lookup at a newer epoch
(:meth:`ResultCache.on_epoch`) re-keys to it every entry that **every**
delta in between provably leaves unchanged, and drops the rest.  Per
written row ``(tid, boolean row, new point | None)`` (proofs: DESIGN.md §12):

* **cell test** — the row fails the entry's predicate: keep.
* **answer test**, for a row in the cell: (1) the tid is a member — drop;
  (2) delete of a non-member — keep (a skyline non-member had a dominator
  in the skyline, which dominates whatever it dominated); (3) a new point a
  cached skyline member dominates on the entry's subspace — keep (it can
  neither enter nor evict); (4) a new point scoring strictly worse than the
  k-th of a *full* top-k — keep.  Strict only: an equal point, a tied k-th
  and a top-k shorter than k (any tuple of the cell enters it) drop.
* **unknown ⇒ drop** — a publisher that named no rows (recovery, quarantine
  repair), the publish after an abandoned write, a delta off the bounded
  log, a cache with no delta source.

A ``put`` from a reader pinned below the reconciled epoch is judged by the
same rule.

Cached serving stays byte-identical to computed serving because only
*canonicalised* answers are stored, and lookups are bypassed — not merely
missed — while any cell of the predicate is quarantined (suspect storage
answers through the degraded path, not from a cache that masks it), and
for a disjunction.
A session built by hand without an epoch (``epoch is None``) is never
cached: without an epoch there is no invalidation token.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.query.predicates import BooleanPredicate
from repro.query.session import Predicate
from repro.rtree.geometry import dominates

#: Key component for the empty predicate (the apex "cell").
APEX = "φ"
#: The query kinds whose answers are cached.
CACHED_KINDS = ("skyline", "topk")


@dataclass(frozen=True)
class CachedAnswer:
    """One canonicalised answer, its provenance, what the carry tests read."""

    tids: tuple[int, ...]
    scores: tuple[float, ...] | None
    strategy: str
    tier: str | None
    #: The epoch the answer was computed at (carries do not move it).
    computed_epoch: int | None = None
    #: The predicate as ``(boolean position, value)`` pairs.
    conjuncts: tuple[tuple[int, object], ...] | None = None
    fn: object | None = None
    k: int | None = None
    #: Skylines: compared preference positions, members' points on them.
    subspace: tuple[int, ...] | None = None
    points: tuple[tuple[float, ...], ...] = ()

    def verdict(self, rows) -> str:
        """``carried``, or the test that dropped it (module docstring)."""
        if self.conjuncts is None:
            return "dropped_cell"
        for tid, bool_row, point in rows:
            if any(bool_row[at] != value for at, value in self.conjuncts):
                continue
            if self.scores is not None and len(self.scores) < max(self.k, 1):
                return "dropped_cell"  # the whole cell is the answer
            if tid in self.tids:
                return "dropped_answer"
            if point is None:
                continue
            if self.scores is not None:
                if not self.fn.score(point) > self.scores[-1]:
                    return "dropped_answer"
                continue
            if self.subspace is not None:
                point = tuple(point[d] for d in self.subspace)
            if not any(dominates(member, point) for member in self.points):
                return "dropped_answer"
        return "carried"


def result_key(
    kind: str,
    predicate: Predicate,
    preference_by: tuple[str, ...] | None,
    fn,
    k: int | None,
    epoch: int,
) -> tuple | None:
    """The ``(epoch, kind, cell, pref-subspace, digest)`` cache key, or
    ``None`` for a disjunction: it has no one cell to key on.

    The digest folds in everything else that determines the answer bytes:
    the full conjunction (the cell id alone collapses distinct multi-dim
    predicates), the ranking function's ``cache_token()`` and ``k``.
    """
    if not isinstance(predicate, BooleanPredicate):
        return None
    token = fn.cache_token() if fn is not None else ()
    cell = APEX if predicate.is_empty() else predicate.cell().cell_id
    pref = ",".join(preference_by) if preference_by else "*"
    return (epoch, kind, cell, pref, (repr(predicate), token, k))


class ResultCache:
    """A thread-safe LRU of canonicalised skyline/top-k answers.

    It counts what happens to its *entries* — stored, evicted, carried or
    dropped at an epoch change; whether a lookup hit, missed or was
    bypassed is the router's count (:class:`~repro.route.stats.RouterStats`).
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, CachedAnswer]" = OrderedDict()
        # Newest epoch on_epoch has reconciled to; no entry is keyed below.
        self._reconciled = 0
        # ``invalidated`` is the three drop verdicts' sum.
        self._counts = dict.fromkeys(
            ("stores", "invalidated", "carried", "dropped_cell",
             "dropped_answer", "flushed_unknown", "evicted"),
            0,
        )

    # -- results -------------------------------------------------------- #

    def get(self, key: tuple) -> CachedAnswer | None:
        with self._lock:
            answer = self._entries.get(key)
            if answer is not None:
                self._entries.move_to_end(key)
            return answer

    def put(self, key: tuple, answer: CachedAnswer, deltas=None) -> None:
        with self._lock:
            if self._reconciled and key[0] < self._reconciled:  # an old pin
                key = self._carry(key, answer, self._reconciled, deltas, {})
                if key is None:
                    self._counts["invalidated"] += 1
                    return
            self._entries[key] = answer
            self._entries.move_to_end(key)
            self._counts["stores"] += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._counts["evicted"] += 1

    # -- invalidation --------------------------------------------------- #

    def _carry(self, key, answer, epoch, deltas, rows_since) -> tuple | None:
        """``key`` at ``epoch`` if every delta since spares it, else None."""
        if key[0] not in rows_since:  # one lookup per entry epoch
            rows_since[key[0]] = deltas(key[0], epoch) if deltas else None
        rows = rows_since[key[0]]
        outcome = "flushed_unknown" if rows is None else answer.verdict(rows)
        self._counts[outcome] += 1
        return (epoch, *key[1:]) if outcome == "carried" else None

    def on_epoch(self, epoch: int, deltas=None) -> int:
        """Reconcile to ``epoch``; returns the entries dropped.  O(1) unless
        ``epoch`` is newer than any seen: then every older entry is carried
        or dropped (module docstring; ``deltas`` is
        ``EpochManager.deltas_between``)."""
        if epoch <= self._reconciled:
            return 0
        with self._lock:
            if epoch <= self._reconciled:
                return 0
            before = len(self._entries)
            rows_since: dict = {}
            entries: "OrderedDict[tuple, CachedAnswer]" = OrderedDict()
            for key, answer in self._entries.items():
                if key[0] < epoch:
                    key = self._carry(key, answer, epoch, deltas, rows_since)
                if key is not None:
                    entries[key] = answer
            self._entries = entries
            self._reconciled = epoch
            dropped = before - len(entries)
            self._counts["invalidated"] += dropped
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                **self._counts,
            }
