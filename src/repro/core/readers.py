"""Boolean-prune readers: the query-time face of the stored signatures.

Algorithm 1's ``boolean_prune`` asks one question of a reader — does the
entry at this position of this node contain data of the predicate? — per
entry (``check_entry``), per node (``check_block``) or per full path
(``check_path``); ``held_block`` is ``check_block`` from what the reader
holds already, never a load — ``None`` where that does not tell, and
``held_is_final`` where ``check_block`` would add nothing to it.  The
readers here answer it:

* :class:`CellSignatureReader` — one stored cell, loaded lazily.  It starts
  from the root-referenced partial and loads further partials only when the
  search requests a node that is not resident yet (Section IV-B.2's
  retrieval protocol); every load is counted under ``SSIG`` and timed for
  the Figure 15 breakdown.  A loaded partial stays compressed; the reader
  decompresses a node when a bit of it is first tested (nodes are
  compressed individually so that they can be, Section IV-B.1), and most
  nodes of a partial never are.
* :class:`AssembledReader` — a conjunction of cells, the paper's recursive
  intersection (Fig. 3) evaluated on demand.
* :class:`AnyOfReader` — a disjunction, the union operator of Fig. 3b (the
  paper's own example assembles ``A=a2 OR B=b2``): a bit is set exactly
  where :func:`repro.core.ops.union_all` of the disjuncts' full signatures
  sets it.
* :class:`EmptyReader` and :class:`SignatureAdapter` — a predicate that
  selects nothing, and an in-memory signature (the differential oracle).

Counting: a reader is handed the query's
:class:`~repro.query.stats.QueryStats` when it is built and bumps it where
the event happens — a partial loaded (``sig_loads``, and
``sig_lookahead_loads`` when an :class:`AssembledReader`'s look-ahead asked
for it), the time spent loading, a retry, a lost partial, a conservative
answer, a load skipped because the cell is quarantined — as the buffer pool
bumps the query's ``IOCounters``.  Every member of a group reader shares
its parent's record.

Degraded mode (the Diamond-Dicing contract: OLAP structures are rebuildable
caches over the base relation, so a lost or corrupt signature must never
produce a wrong answer, only a slower one): when a partial stays unreadable
after the store's retries, the owning :class:`CellSignatureReader` enters
*conservative mode* — bit tests that cannot be resolved answer ``True``
(losing boolean pruning, preserving Algorithm 1's correctness), leaf-level
checks are resolved exactly against the base relation via a fallback, and
the cell is quarantined until :meth:`PCube.rebuild_cell
<repro.core.pcube.PCube.rebuild_cell>` regenerates it from the base
relation.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Sequence

from repro.bitmap.compression import decompress
from repro.core.partial import retrieval_refs
from repro.core.sid import child_sid, sid_of_path
from repro.core.signature import Signature
from repro.cube.cuboid import Cell
from repro.query.stats import QueryStats
from repro.storage.buffer import BufferPool
from repro.storage.counters import IOCounters
from repro.storage.errors import StorageFault

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.store import SignatureStore, StoreView


#: Exact boolean resolver used in conservative mode: ``(cell, path,
#: counters) -> does the entry at path contain data of the cell?``  Must be
#: conservative (``True``) wherever it cannot answer exactly.
BooleanFallback = Callable[[Cell, tuple[int, ...], "IOCounters | None"], bool]


class EmptyReader:
    """Reader for a predicate that provably selects no tuples.

    The search asks it only ``check_path``: the root's pop-time
    ``check_path(())`` is ``False``, so no node is ever expanded and no
    block or entry is asked about (a disjunction drops an empty disjunct
    instead of holding this reader)."""

    def check_path(self, path) -> bool:
        return False


class SignatureAdapter:
    """Expose an in-memory :class:`Signature` with the reader interface
    (the differential oracle in tests, benchmarks and the audit)."""

    def __init__(self, signature: Signature) -> None:
        self.signature = signature
        self.fanout = signature.fanout

    def check_entry(self, parent_path, position) -> bool:
        """Asked only as an :class:`AssembledReader` member (its own
        ``check_block`` always resolves)."""
        return bool(self.check_block(parent_path, 1 << (position - 1)))

    def check_block(self, parent_path, wanted: int) -> int:
        return wanted & self.resident_mask(sid_of_path(parent_path, self.fanout))

    held_block = check_block
    held_is_final = True

    def resident_mask(self, sid: int) -> int:
        """The node ``sid``'s mask (0 where the signature has none): every
        node of an in-memory signature is resident."""
        return self.signature.node(sid)

    def check_path(self, path) -> bool:
        return self.signature.check_path(path)


class CellSignatureReader:
    """A lazily loaded, lazily decoded view of one cell's signature.

    Bit tests trigger partial loads per the paper's retrieval protocol; each
    load bumps ``stats`` (count, cause and wall-clock time — Figure 15
    reports the time against total query time), and its page is counted in
    ``stats.counters``.  Residency is decided on the loaded partials'
    blobs; a node is decompressed by the first bit test that reaches its SID
    and kept for the query.  A blob that does not decode therefore raises
    its ``CodecError`` from that bit test — the page checksum covers the
    blobs, so this is a writer bug and is not degraded around.

    When a partial is unreadable after retries the reader degrades instead
    of failing: the unresolvable refs are remembered, the cell is
    quarantined in the store, ``stats.degraded`` is set, and bit tests that
    depend on the lost nodes answer conservatively — ``True`` (no pruning)
    at internal nodes, and exactly via ``fallback`` (a base-relation probe)
    where one is provided.  Algorithm 1 then still returns exactly the
    fault-free answer, just with more block reads (the robustness overhead
    the stats record).  The reader that meets the fault keeps the cell's
    other partials for the rest of its query, but a reader built over a
    quarantined cell loads none: every load is skipped
    (``stats.quarantine_skips``) and every bit test takes the same
    degraded path until the cell is re-stored, because until then its
    pages are not trusted (they keep failing, or a faulted maintenance
    rewrite left them behind the tree).
    """

    def __init__(
        self,
        store: "SignatureStore | StoreView",
        cell: Cell,
        pool: BufferPool | None,
        stats: QueryStats,
        fallback: BooleanFallback | None = None,
        deadline_at: float | None = None,
    ) -> None:
        self.store = store
        self.cell = cell
        self.pool = pool
        self.stats = stats
        self.fallback = fallback
        self.deadline_at = deadline_at
        self.fanout = store.fanout
        #: The loaded partials' nodes, compressed, and the decoded masks of
        #: those tested so far.
        self._blobs: dict[int, bytes] = {}
        self._nodes: dict[int, int] = {}
        self._loaded_refs: set[int] = set()
        self._known_missing: set[int] = set()
        self._unreadable_refs: set[int] = set()
        # A quarantined cell awaits a rebuild: its pages may be behind the
        # tree (a faulted rewrite) or keep failing, so none is read.
        self._distrusted = store.is_quarantined(cell)
        # The first partial (root reference) is loaded up front, as the
        # paper prescribes ("To begin with, we load the first partial
        # signature referenced by the R-tree root").
        self._load_ref(0)

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #

    def _load_ref(self, ref_sid: int, lookahead: bool = False) -> bool | None:
        """Load the partial referenced by ``ref_sid`` — the one load site.

        Returns ``True`` when loaded, ``False`` when the store provably has
        no such partial, and ``None`` when the partial exists but could not
        be read (transient fault that outlived the retry budget, or
        corruption) — the caller must treat the nodes it may have held as
        unknown.  ``lookahead`` marks a load an :class:`AssembledReader`'s
        look-ahead asked for rather than the search's own bit test.
        """
        if ref_sid in self._loaded_refs:
            return True
        if ref_sid in self._known_missing:
            return False
        if ref_sid in self._unreadable_refs:
            return None
        stats = self.stats
        if self._distrusted:
            self._unreadable_refs.add(ref_sid)
            stats.quarantine_skips += 1
            stats.degraded = True
            return None
        started = time.perf_counter()
        try:
            partial = self.store.load_partial(
                self.cell,
                ref_sid,
                self.pool,
                stats,
                deadline_at=self.deadline_at,
            )
        except StorageFault as fault:
            self._unreadable_refs.add(ref_sid)
            stats.failed_loads += 1
            stats.degraded = True
            self.store.fault_stats.bump(degraded_loads=1)
            self.store.quarantine(self.cell, fault)
            found = None
        else:
            if partial is None:
                self._known_missing.add(ref_sid)
                found = False
            else:
                self._loaded_refs.add(ref_sid)
                self._blobs.update(partial.blobs.copy())
                stats.sig_loads += 1
                if lookahead:
                    stats.sig_lookahead_loads += 1
                found = True
        stats.sig_load_seconds += time.perf_counter() - started
        return found

    def _ensure_node(self, node_sid: int, lookahead: bool = False) -> bool | None:
        """Make the node ``node_sid`` resident.

        Returns ``True`` when resident, ``False`` when provably absent
        (every candidate partial was readable and none held it), ``None``
        when unresolvable (some candidate partial was unreadable).

        Follows the retrieval protocol: probe the partials referenced by
        each ancestor from the root downward until the node shows up.
        """
        if node_sid in self._blobs:
            return True
        unresolved = False
        for ref in retrieval_refs(node_sid, self.fanout):
            if ref in self._loaded_refs:
                continue
            outcome = self._load_ref(ref, lookahead)
            if outcome is None:
                unresolved = True
                continue
            if outcome and node_sid in self._blobs:
                return True
        if node_sid in self._blobs:
            return True
        return None if unresolved else False

    def resident_mask(self, sid: int) -> int | None:
        """The mask of the node ``sid`` if a loaded partial holds it —
        decompressed on its first use and kept for the query — else
        ``None``; nothing loads here.  Every bit test reads a node here."""
        mask = self._nodes.get(sid)
        if mask is None:
            blob = self._blobs.get(sid)
            if blob is None:
                return None
            mask = self._nodes[sid] = decompress(blob)[1]
        return mask

    # ------------------------------------------------------------------ #
    # bit tests (the query-time interface)
    # ------------------------------------------------------------------ #

    def _conservative(self, path: tuple[int, ...]) -> bool:
        """Answer an unresolvable bit test without losing correctness.

        With a fallback, leaf-level paths are answered exactly from the
        base relation (and internal paths conservatively); without one,
        every unresolvable test answers ``True`` — boolean pruning is lost
        for the affected subtree, result correctness is not.
        """
        self.stats.degraded_checks += 1
        if self.fallback is not None:
            return self.fallback(self.cell, path, self.stats.counters)
        return True

    def check_entry(self, parent_path: Sequence[int], position: int) -> bool:
        """Whether the entry at 1-based ``position`` of the node at
        ``parent_path`` contains data of this cell.

        This is the single-bit check Algorithm 1's ``boolean_prune`` issues
        for each candidate entry: the parent node was necessarily checked
        before (the search descends), so one bit suffices.
        """
        parent_sid = sid_of_path(parent_path, self.fanout)
        resident = self._ensure_node(parent_sid)
        if resident is None:
            return self._conservative(tuple(parent_path) + (position,))
        if not resident:
            return False
        return bool(self.resident_mask(parent_sid) >> (position - 1) & 1)

    def check_block(self, parent_path: Sequence[int], wanted: int) -> int | None:
        """The whole-node form of :meth:`check_entry`: which of the
        ``wanted`` entries (bit ``p − 1`` = 1-based position ``p``) of the
        node at ``parent_path`` contain data of this cell.

        One residency check — hence exactly the partial loads the first
        ``check_entry`` on this node would issue — then one mask AND.
        Returns ``None`` when the node is unresolvable; the caller then
        asks :meth:`check_entry` per wanted entry, which answers each one
        conservatively (and counts it) as before.
        """
        return self.check_sid(sid_of_path(parent_path, self.fanout), wanted)

    def check_sid(
        self, sid: int, wanted: int, lookahead: bool = False
    ) -> int | None:
        """:meth:`check_block` of the node ``sid`` — the entry an
        :class:`AssembledReader` asks; ``lookahead`` counts the loads it
        issues as that reader's look-ahead."""
        resident = self._ensure_node(sid, lookahead)
        if resident is None:
            return None
        if not resident:
            return 0
        return wanted & self.resident_mask(sid)

    def held_block(self, parent_path: Sequence[int], wanted: int) -> int | None:
        """:meth:`check_block` when a loaded partial holds the node, else
        ``None``: nothing loads here."""
        mask = self.resident_mask(sid_of_path(parent_path, self.fanout))
        return None if mask is None else wanted & mask

    held_is_final = True  # a held node is what ``check_block`` reads

    def check_path(self, path: Sequence[int]) -> bool:
        """Whether the entry addressed by a full path contains cell data."""
        if not path:
            resident = self._ensure_node(0)
            if resident is None:
                return self._conservative(())
            return bool(resident) and self.resident_mask(0) != 0
        return self.check_entry(tuple(path[:-1]), path[-1])


class AssembledReader:
    """Conjunction of several cell readers: the paper's recursive
    intersection (Section IV-B.2, Fig. 3), answered on demand.

    A bit is set iff it is set in every member **and**, above the leaf
    level, the intersection of the child subtrees is non-empty — bit for
    bit what :func:`repro.core.ops.intersect_all` computes from the full
    signatures, but evaluated per query and only where the search asks:
    :meth:`_nonempty` looks ahead below a candidate child, stops at the
    first witness and is memoised, so each member is asked each node at
    most once per query.  The look-ahead walks SIDs: a node's SID is worked
    out once from the path the search asks about, and its children are
    ``sid · (M + 1) + p``.  A member whose loaded partials hold the node
    answers from ``resident_mask``; only a node it does not hold yet goes
    through its ``check_sid`` (partial loads, retries, quarantine), and the
    loads the look-ahead issues there count as ``sig_lookahead_loads`` too.
    A node some member cannot resolve counts as non-empty during
    look-ahead — no fallback probe, no ``degraded_checks`` — and meets the
    members' conservative path when the search expands it.

    Args:
        readers: One reader per cell of the conjunction, all bumping the
            same query record and answering ``resident_mask`` (and, if it
            can answer ``None``, ``check_sid``).
        leaf_depth: Path length of the R-tree's leaf nodes
            (``rtree.root.level``): bits there denote tuples, are exact as
            they stand and end the look-ahead.
    """

    def __init__(
        self, readers: Sequence[CellSignatureReader], leaf_depth: int
    ) -> None:
        if not readers:
            raise ValueError("AssembledReader needs at least one reader")
        self.readers = list(readers)
        self.leaf_depth = leaf_depth
        self.fanout = self.readers[0].fanout
        #: Per query: node SID -> AND of the members' masks (``None`` =
        #: unresolvable), and node SID -> is its exact intersection non-empty.
        self._masks: dict[int, int | None] = {}
        self._nonempty_memo: dict[int, bool] = {}
        #: Node SID -> (member, AND so far) where a ``held`` walk stopped
        #: at a member that does not hold the node; the next walk goes on
        #: from there.
        self._stopped: dict[int, tuple[int, int]] = {}

    def _mask(
        self, sid: int, lookahead: bool = False, held: bool = False
    ) -> int | None:
        """The plain AND of the members' bits at the node ``sid``; member
        *k* sees only what passed members < *k* and is not consulted once
        nothing did.  ``None`` when a consulted member cannot resolve the
        node — or, ``held``, does not hold it: nothing loads then, and the
        next walk that may load starts at that member with the AND so far,
        so no member is asked about a node twice."""
        try:
            return self._masks[sid]
        except KeyError:
            pass
        stopped = self._stopped.get(sid)
        if stopped is not None and held:
            return None
        start, mask = stopped or (0, -1)  # -1: every entry wanted
        for index, reader in enumerate(self.readers[start:], start):
            bits = None if stopped else reader.resident_mask(sid)
            stopped = None
            if bits is None:
                if held:
                    self._stopped[sid] = (index, mask)
                    return None
                mask = reader.check_sid(sid, mask, lookahead)
            else:
                mask &= bits
            if not mask:  # unresolvable, or provably empty
                break
        self._masks[sid] = mask
        return mask

    def _nonempty(self, sid: int, depth: int) -> bool:
        """Whether the exact intersection has data under the node ``sid``
        at path length ``depth`` (Fig. 3's recursion, lowest child first,
        first witness wins)."""
        known = self._nonempty_memo.get(sid)
        if known is None:
            mask = self._mask(sid, lookahead=True)
            if mask is None or depth >= self.leaf_depth:
                known = mask != 0
            else:
                known = False
                first_child = sid * (self.fanout + 1)
                while mask and not known:
                    low = mask & -mask
                    mask ^= low
                    known = self._nonempty(first_child + low.bit_length(), depth + 1)
            self._nonempty_memo[sid] = known
        return known

    def check_entry(self, parent_path: Sequence[int], position: int) -> bool:
        depth = len(parent_path)
        return all(
            reader.check_entry(parent_path, position) for reader in self.readers
        ) and (
            depth >= self.leaf_depth
            or self._nonempty(
                child_sid(sid_of_path(parent_path, self.fanout), position, self.fanout),
                depth + 1,
            )
        )

    def check_block(
        self, parent_path: Sequence[int], wanted: int
    ) -> int | None:
        sid = sid_of_path(parent_path, self.fanout)
        mask = self._mask(sid)
        if mask is None:
            return None
        passed = wanted & mask
        depth = len(parent_path)
        if depth < self.leaf_depth:
            first_child = sid * (self.fanout + 1)
            pending = passed
            while pending:
                low = pending & -pending
                pending ^= low
                if not self._nonempty(first_child + low.bit_length(), depth + 1):
                    passed ^= low
        return passed

    def held_block(self, parent_path: Sequence[int], wanted: int) -> int | None:
        """The plain AND from the members' resident masks alone: every bit
        it clears :meth:`check_block` clears, which adds the look-ahead."""
        mask = self._mask(sid_of_path(parent_path, self.fanout), held=True)
        return None if mask is None else wanted & mask

    held_is_final = False  # the look-ahead still rejects

    def check_path(self, path: Sequence[int]) -> bool:
        if path:
            return self.check_entry(tuple(path[:-1]), path[-1])
        return all(
            reader.check_path(()) for reader in self.readers
        ) and self._nonempty(0, 0)


class AnyOfReader:
    """Disjunction of boolean-prune readers (OR on demand), each of them
    exact (a multi-cell disjunct is an :class:`AssembledReader`) and all
    bumping the same query record."""

    def __init__(self, readers: Sequence) -> None:
        if not readers:
            raise ValueError("AnyOfReader needs at least one reader")
        self.readers = list(readers)
        self.held_is_final = all(r.held_is_final for r in self.readers)

    def check_entry(self, parent_path, position) -> bool:
        return any(
            reader.check_entry(parent_path, position)
            for reader in self.readers
        )

    def check_block(self, parent_path, wanted: int) -> int | None:
        return self._union("check_block", parent_path, wanted)

    def held_block(self, parent_path, wanted: int) -> int | None:
        return self._union("held_block", parent_path, wanted)

    def _union(self, test: str, parent_path, wanted: int) -> int | None:
        """The OR of the members' ``test``: member *k* sees only the
        entries every member < *k* rejected — the per-entry ``any``
        short-circuit, a node at a time — and ``None`` answers for all."""
        passed = 0
        for reader in self.readers:
            if not wanted:
                break
            got = getattr(reader, test)(parent_path, wanted)
            if got is None:
                return None
            passed |= got
            wanted &= ~got
        return passed

    def check_path(self, path) -> bool:
        return any(reader.check_path(path) for reader in self.readers)
