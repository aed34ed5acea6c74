"""Tagged I/O counters.

The evaluation section of the paper distinguishes several kinds of disk
access.  We reproduce them as counter *categories*:

========  ==================================================================
Category  Meaning (paper reference)
========  ==================================================================
SSIG      partial-signature loads by the Signature method (Fig. 9, 15)
SBLOCK    R-tree block reads by the Signature method (Fig. 9)
DBLOCK    R-tree block reads by the Domination/Ranking baselines (Fig. 9)
DBOOL     random tuple accesses for boolean verification (minimal probing;
          Fig. 9)
BINDEX    B+-tree page reads by the Boolean-first / Index-merge baselines
BTABLE    heap-file (table scan) page reads by the Boolean-first baseline
RTREE     generic R-tree block reads (construction, maintenance)
BTREE     generic B+-tree page reads
========  ==================================================================

Counters are plain per-category tallies; methods record into whichever
category describes *why* the page was fetched.

Ownership discipline (the concurrent-serving contract): a query's accesses
are recorded into the :class:`IOCounters` owned by *that query's*
``QueryStats`` — threaded from the session through the buffer pool down to
the disk — never into shared module- or engine-level state, so two queries
running on different threads can never corrupt each other's tallies.  The
only shared counter sets are the disk-wide aggregates on
:class:`~repro.storage.disk.SimulatedDisk`, and :class:`IOCounters` itself
is lock-protected so even those stay exact under concurrency.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Iterator

#: Canonical category names used across the library.
SSIG = "SSIG"
SBLOCK = "SBLOCK"
DBLOCK = "DBLOCK"
DBOOL = "DBOOL"
BINDEX = "BINDEX"
BTABLE = "BTABLE"
RTREE = "RTREE"
BTREE = "BTREE"

KNOWN_CATEGORIES = (SSIG, SBLOCK, DBLOCK, DBOOL, BINDEX, BTABLE, RTREE, BTREE)

#: Write-side categories, recorded on a disk's *separate*
#: :attr:`~repro.storage.disk.SimulatedDisk.write_counters` so that the
#: read-access figures (9, 15) stay untouched while maintenance I/O
#: (Figure 7's rewrites) is measurable.
ALLOC = "ALLOC"
WRITE = "WRITE"
FREE = "FREE"

WRITE_CATEGORIES = (ALLOC, WRITE, FREE)


class IOCounters:
    """A mutable multiset of I/O events, keyed by category string.

    Arbitrary category names are accepted (component-specific tags are
    useful in tests); the module-level constants cover the paper's figures.

    Thread-safe: tallies are guarded by a private lock, so a counter set
    shared between threads (the disk-wide aggregates) stays exact, while
    per-query counter sets pay one uncontended lock acquisition per record.
    """

    def __init__(self) -> None:
        self._counts: Counter[str] = Counter()
        self._lock = threading.Lock()

    def record(self, category: str, n: int = 1) -> None:
        """Record ``n`` page accesses under ``category``."""
        if n < 0:
            raise ValueError("cannot record a negative number of accesses")
        with self._lock:
            self._counts[category] += n

    def get(self, category: str) -> int:
        """Number of accesses recorded under ``category``."""
        with self._lock:
            return self._counts.get(category, 0)

    def total(self) -> int:
        """Total accesses across all categories."""
        with self._lock:
            return sum(self._counts.values())

    def snapshot(self) -> dict[str, int]:
        """An immutable-by-copy view of the current tallies."""
        with self._lock:
            return dict(self._counts)

    def merge(self, other: "IOCounters") -> None:
        """Add another counter set into this one."""
        incoming = other.snapshot()
        with self._lock:
            self._counts.update(incoming)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self.snapshot().items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self)
        return f"IOCounters({inner})"


class Tally:
    """Named counts, declared once, changed under one lock, read as a copy.

    The one holder behind every fleet-level stats class (maintenance, fault,
    scrub, epoch, router, serving): a subclass is its docstring plus
    ``ZEROS``, the count names with their zero — ``0`` / ``0.0`` for a
    scalar, ``{}`` for a labelled count (label → n).  Everything else is
    derived from that declaration: ``snapshot()`` has exactly those keys
    (zeros included), a count reads as an attribute, and a name that was not
    declared is an error where it is used, never a new key.  A subclass
    whose event is more than additions (a maximum, a last-seen value), or
    is the per-read hot path, gives it a method that takes ``_lock`` once
    and updates ``_counts`` in place.  Unlike
    :class:`IOCounters`, whose categories are open and whose snapshot omits
    zeros, a tally's key set is fixed — ``--health`` consumers and the
    benchmark referee read keys by name.
    """

    ZEROS: dict = {}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {
            name: dict(zero) if isinstance(zero, dict) else zero
            for name, zero in self.ZEROS.items()
        }

    def bump(self, **deltas) -> None:
        """One event: every delta added under one lock acquisition; a dict
        delta adds label by label."""
        counts = self._counts
        with self._lock:
            for name, delta in deltas.items():
                if isinstance(delta, dict):
                    labelled = counts[name]
                    for label, n in delta.items():
                        labelled[label] = labelled.get(label, 0) + n
                else:
                    counts[name] += delta

    def snapshot(self) -> dict:
        """A point-in-time copy of every count, labelled counts copied."""
        with self._lock:
            return {
                name: dict(value) if isinstance(value, dict) else value
                for name, value in self._counts.items()
            }

    def __getattr__(self, name: str):
        # Reached only for names that are not real attributes: the counts.
        if name.startswith("_"):
            raise AttributeError(name)
        with self._lock:
            value = self._counts.get(name)
        if value is None:
            raise AttributeError(f"{type(self).__name__} has no count {name!r}")
        return dict(value) if isinstance(value, dict) else value

    def __setattr__(self, name: str, value) -> None:
        # ``tally.count += 1`` would read the count and then shadow it with
        # an unlocked instance attribute no snapshot sees.
        if name in self.ZEROS:
            raise AttributeError(
                f"{type(self).__name__}.{name}: counts change through bump()"
            )
        object.__setattr__(self, name, value)

