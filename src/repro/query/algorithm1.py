"""Algorithm 1: the signature-based progressive search framework.

The paper's framework (Section V) in full generality:

* a candidate min-heap ordered by a lower-bound key — ``d(n) = Σ lows`` for
  skylines, ``f(n) = min f over the MBR`` for top-k;
* a ``prune`` procedure whose two arms are *preference pruning* (strategy
  specific) and *boolean pruning* (signature bit tests).  A child must pass
  both, and within one node expansion their order changes no read: an
  expansion first drops the children whose bit the reader already holds as
  0, tests only the rest for dominance, and asks the reader (which may
  load partials) only about the children that survive both;
* pruned entries are kept in ``d_list`` / ``b_list`` so drill-down and
  roll-up queries can rebuild the heap without starting from the root
  (Lemma 2);
* a search builds only what it reads: an expansion keys (and probes) only
  the children whose bit the reader holds, and a pushed child is a heap
  item that becomes a :class:`HeapEntry` when it is popped.  The heap
  and both lists record items — entries, heap items, and runs of the
  children an expansion pruned (a mask) — and one rule,
  :func:`_materialise`, turns them into entries when a follow-up first
  reads them;
* an optional *verifier* hook: the Domination baseline has no signature and
  instead verifies the boolean predicate by a random tuple access exactly
  when a data object is about to be reported (minimal probing [3], "between
  lines 7 and 8").

Entries carry their R-tree *path*, which is simultaneously the signature
address of their bit — the bridge between the two prunings.
"""

from __future__ import annotations

import heapq
import operator
from itertools import repeat
from typing import Callable, Protocol, Sequence

from repro.kernels.dominate import DominationBuffer
from repro.kernels.mindist import project_rows, row_tuples, sum_block
from repro.query.ranking import RankingFunction
from repro.query.stats import QueryStats
from repro.rtree.geometry import Rect
from repro.rtree.node import NodeBlock, RTreeNode
from repro.rtree.rtree import RTree
from repro.storage.buffer import BufferPool
from repro.storage.counters import SBLOCK


class BooleanReader(Protocol):
    """What Algorithm 1 needs from a signature reader."""

    def check_entry(self, parent_path: Sequence[int], position: int) -> bool: ...

    def check_block(
        self, parent_path: Sequence[int], wanted: int
    ) -> int | None:
        """``check_entry`` for a whole node: of the entries in ``wanted``
        (bit ``p − 1`` = position ``p``), the mask of those that may hold
        data; ``None`` when the node cannot be resolved and every entry
        must be asked through ``check_entry`` instead."""

    def held_block(
        self, parent_path: Sequence[int], wanted: int
    ) -> int | None:
        """``check_block`` without a load: of the entries in ``wanted``,
        a mask holding every one that may hold data, from what the reader
        holds already; ``None`` when it cannot tell without a load."""

    #: Whether ``check_block`` clears no bit that an answer of
    #: ``held_block`` kept, so the search need not ask it after one.
    held_is_final: bool

    def check_path(self, path: Sequence[int]) -> bool: ...


class HeapEntry:
    """A candidate: either an R-tree node or a data object (tuple).

    Node entries carry the MBR their *parent* stored for them (``rect``) —
    known without reading the node itself, which is what strategies must
    prune on.

    ``tie`` breaks sum-key collisions.  The skyline strategies' key is a
    float sum of coordinates, and rounding can make a dominated point's key
    *equal* to its dominator's (the real-arithmetic strict inequality
    collapses to a tie in the last ulp).  BBS's correctness argument needs
    the dominator out of the heap first, so strategies supply the probe
    vector itself as a lexicographic tie-break: float addition is monotone,
    hence componentwise-≤ implies key-≤, and on a key tie componentwise-≤
    plus somewhere-< implies lexicographically-<.  Node entries use the low
    corner, which is componentwise ≤ every contained point, so dominating
    chains pop first inductively.

    ``vetted`` is set on a child that an expansion of the running search
    tested with both arms before pushing it: the strategy's
    ``evaluated()`` mark at that moment.  Such an entry is not sent
    through ``check_path`` again at its pop (a reader answers a bit the
    same way twice) and its preference test looks only at results found
    since the mark.  ``None`` — the root, every entry of a resumed heap,
    children of a node the reader could not resolve — means the pop
    tests it in full.
    """

    __slots__ = (
        "key", "tie", "seq", "path", "node", "tid", "point", "rect", "vetted"
    )

    def __init__(
        self,
        key: float,
        seq: int,
        path: tuple[int, ...],
        node: RTreeNode | None = None,
        tid: int | None = None,
        point: tuple[float, ...] | None = None,
        rect: Rect | None = None,
        tie: tuple[float, ...] = (),
    ) -> None:
        self.vetted: int | None = None
        self.key = key
        self.tie = tie
        self.seq = seq
        self.path = path
        self.node = node
        self.tid = tid
        self.point = point
        self.rect = rect

    @property
    def is_tuple(self) -> bool:
        return self.tid is not None

    def __lt__(self, other: "HeapEntry") -> bool:
        return (self.key, self.tie, self.seq) < (other.key, other.tie, other.seq)

    def __repr__(self) -> str:
        what = f"tid={self.tid}" if self.is_tuple else f"node#{self.node.node_id}"
        return f"HeapEntry(key={self.key:.4g}, {what}, path={self.path})"


def mask_indices(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    if not mask & (mask - 1):  # one bit (most held masks), or none
        return [mask.bit_length() - 1] if mask else []
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


def _child_entry(
    expansion: tuple, index: int, key: float, tie: tuple[float, ...], seq: int
) -> HeapEntry:
    """The heap entry of child ``index`` of an expansion.

    An expansion is recorded once, as the tuple ``(parent_path, block,
    vetted, strategy, first_seq)``, and its pushed and pruned children
    refer to it by their index in the block."""
    parent_path, block = expansion[0], expansion[1]
    path = parent_path + (block.slots[index] + 1,)
    if block.leaf:
        return HeapEntry(
            key, seq, path,
            tid=block.tids[index], point=block.low_tuples[index], tie=tie,
        )
    child = block.entries[index]
    return HeapEntry(
        key, seq, path,
        node=child.child, point=block.low_tuples[index], rect=child.mbr, tie=tie,
    )


def _entry_of(item: tuple) -> HeapEntry:
    """The entry of one item of the search's heap, ``(key, tie, seq,
    origin, index)``: ``origin`` itself when ``index`` is ``None`` (the
    root, a carried entry), else child ``index`` of the expansion
    ``origin``, made now and marked as that expansion vetted it."""
    key, tie, seq, origin, index = item
    if index is None:
        return origin
    entry = _child_entry(origin, index, key, tie, seq)
    entry.vetted = origin[2]
    return entry


def _run_entries(expansion: tuple, mask: int) -> list[HeapEntry]:
    """The entries of the children one expansion pruned by one arm.

    Most pruned children are never looked at again, so an expansion
    records only its expansion tuple (see :func:`_child_entry`) and the
    index mask of the children an arm pruned; this builds exactly the
    entries the search would have pushed.  Their keys and tie rows are
    computed here and nowhere else: a served read never does it.
    """
    _, block, _, strategy, first_seq = expansion
    indices = mask_indices(mask)
    keys, ties = strategy.child_keys(block, indices)
    tie_rows = repeat(()) if ties is None else row_tuples(ties)
    return [
        _child_entry(expansion, i, key, tie, first_seq + i)
        for i, key, tie in zip(indices, keys, tie_rows)
    ]


def _materialise(items: list) -> list[HeapEntry]:
    """The one rule that turns a :class:`SearchState` list's recorded
    items into entries: a :class:`HeapEntry` stands for itself, a pruned
    run ``(expansion, mask)`` for its children's entries, a heap item
    ``(key, tie, seq, origin, index)`` for its one entry.  In place and in
    order, so the list object stays the same, an entry keeps its
    identity, and a heap stays a heap."""
    if all(type(item) is HeapEntry for item in items):
        return items
    entries: list[HeapEntry] = []
    for item in items:
        if type(item) is HeapEntry:
            entries.append(item)
        elif len(item) == 2:
            entries.extend(_run_entries(*item))
        else:
            entries.append(_entry_of(item))
    items[:] = entries
    return items


def _recorded(name: str) -> property:
    """A :class:`SearchState` list, read through :func:`_materialise`."""
    slot = "_" + name
    return property(
        lambda state: _materialise(getattr(state, slot)),
        lambda state, items: setattr(state, slot, items),
    )


class SearchState:
    """Everything a query leaves behind for incremental follow-ups.

    ``results`` holds reported entries in report order; ``b_list`` the
    entries pruned by boolean predicates; ``d_list`` the entries pruned by
    preference (domination / k-th score); ``heap`` whatever was still
    pending when the search stopped (non-empty only for early-terminating
    top-k runs), as a heap.  A search records the last three as items,
    appended as it goes — a :class:`HeapEntry` (the root, a carried
    entry), a heap item (a pushed child, or any entry pruned at its pop)
    or a pruned run (the children one arm pruned in one expansion) — and
    their first read turns the items into entries (:func:`_materialise`);
    a served read, which never reads them, makes none.
    """

    __slots__ = ("results", "seq", "_heap", "_b_list", "_d_list")

    heap = _recorded("heap")
    b_list = _recorded("b_list")
    d_list = _recorded("d_list")

    def __init__(self, heap=(), b_list=(), d_list=(), seq: int = 0) -> None:
        self.results: list[HeapEntry] = []
        self.seq = seq
        self._heap, self._b_list, self._d_list = (
            list(heap), list(b_list), list(d_list)
        )

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq


class SkylineStrategy:
    """Preference pruning by skyline domination (BBS-style).

    Section III allows the preference criterion to name a *subset* of the
    preference dimensions (``N'1, ..., N'j ⊆ N``); passing ``subspace``
    (0-based positions) restricts dominance and the heap key to those
    dimensions.  Projection of an MBR is an MBR, so the low-corner pruning
    argument carries over unchanged.  Points equal on the whole subspace
    do not dominate each other and all survive.
    """

    def __init__(
        self, dims: int, subspace: Sequence[int] | None = None
    ) -> None:
        self.dims = dims
        if subspace is not None:
            subspace = tuple(subspace)
            if not subspace:
                raise ValueError("subspace must name at least one dimension")
            if len(set(subspace)) != len(subspace):
                raise ValueError("subspace repeats a dimension")
            if any(not 0 <= d < dims for d in subspace):
                raise ValueError(f"subspace positions outside [0, {dims})")
        self.subspace = subspace
        self._buffer = DominationBuffer(
            len(subspace) if subspace is not None else dims
        )

    def _project(self, point: Sequence[float]) -> tuple[float, ...]:
        """A point in the space dominance is judged in."""
        if self.subspace is None:
            return tuple(point)
        return tuple(point[d] for d in self.subspace)

    def _corner(self, rect: Rect) -> tuple[float, ...]:
        """The low corner of a region's image in that space: the heap
        key's argument, the tie-break and the domination probe at once."""
        return self._project(rect.lows)

    def node_key(self, rect: Rect) -> float:
        return sum(self._corner(rect))

    def child_keys(self, block: NodeBlock, indices: list[int] | None):
        """``(keys, ties)`` of the children at ``indices`` of a node's
        block (``None``: every child), in that order — every strategy's
        keying, and the only one: ``keys`` are their heap keys, ``ties``
        their tie rows (tuples or matrix rows; ``None``: every tie is
        ``()``).

        Leaf points and inner low corners alike are the ``lows`` rows: the
        low corner is the heap key's argument, the tie row and the
        domination probe.  In the full space those are the block's own
        corner tuples and its ``Σ lows``, both kept on it.
        """
        if self.subspace is None:
            sums, corners = block.low_sums(), block.low_tuples
            if indices is None:
                return sums, corners
            return (
                list(map(sums.__getitem__, indices)),
                list(map(corners.__getitem__, indices)),
            )
        rows = project_rows(block.rows(indices)[0], self.subspace)
        return sum_block(rows), rows

    def evaluate(self, block: NodeBlock, indices: list[int] | None):
        """``(keys, dominated, ties)`` for the children at ``indices`` of a
        node's block (``None``: every child) — the others are pruned
        already — every strategy's contract: ``keys`` and ``ties`` as
        :meth:`child_keys` gives them, and bit ``i`` of the integer
        ``dominated`` says the preference arm prunes child ``i`` now.

        The tie rows are the probes: the kernel is handed exactly those
        rows, once, and its verdicts are put back at their indices.  They
        hold for the whole expansion because the buffer only grows at
        pops.
        """
        keys, ties = self.child_keys(block, indices)
        bits = self._buffer.dominates_block(ties, packed=True)
        if indices is None:
            return keys, bits, ties
        dominated = 0
        while bits:
            low = bits & -bits
            dominated |= 1 << indices[low.bit_length() - 1]
            bits ^= low
        return keys, dominated, ties

    def evaluated(self) -> int:
        """How many skyline points ``evaluate`` tests against right now."""
        return len(self._buffer)

    def node_tie(self, rect: Rect) -> tuple[float, ...]:
        return self._corner(rect)

    def prune(self, entry: HeapEntry) -> bool:
        """Dominated by a discovered skyline point?

        Every entry has a probe: a tuple entry its data point, a node
        entry the low corner of the MBR its parent stored for it —
        dominating the corner dominates the whole region.  A vetted
        entry's tie row is that probe, and only the points added since
        its evaluation can be news.
        """
        if entry.vetted is not None:
            return self._buffer.dominates_point(entry.tie, entry.vetted)
        assert entry.point is not None
        if entry.is_tuple:
            return self._buffer.dominates_point(self._project(entry.point))
        assert entry.rect is not None
        return self._buffer.dominates_point(self._corner(entry.rect))

    def add_result(self, entry: HeapEntry) -> bool:
        assert entry.point is not None
        self._buffer.add(self._project(entry.point))
        return True

    def finished(self, next_key: float) -> bool:
        return False


class TopKStrategy:
    """Preference pruning by the k-th best score discovered so far."""

    def __init__(self, fn: RankingFunction, k: int) -> None:
        k = operator.index(k)  # an integer of any type; a float is refused
        if k < 1:
            raise ValueError("k must be at least 1")
        self.fn = fn
        self.k = k
        self.scores: list[float] = []  # sorted ascending, at most k

    def node_key(self, rect: Rect) -> float:
        return self.fn.lower_bound(rect)

    def child_keys(self, block: NodeBlock, indices: list[int] | None):
        """Scores (leaf) or region lower bounds (inner node) for the
        children at ``indices``; no tie rows — every tie is ``()``."""
        lows, highs = block.rows(indices)
        if block.leaf:
            return self.fn.score_block(lows), None
        return self.fn.lower_bound_rows(lows, highs), None

    def evaluate(self, block: NodeBlock, indices: list[int] | None):
        """The keys of the children at ``indices`` and the mask of those
        the current k-th score already beats."""
        keys, _ = self.child_keys(block, indices)
        if len(self.scores) < self.k:
            return keys, 0, None
        worst = self.scores[-1]
        beaten = sum(
            1 << i
            for i, key in zip(range(len(keys)) if indices is None else indices, keys)
            if key >= worst
        )
        return keys, beaten, None

    def evaluated(self) -> int:
        return 0  # ``prune`` is one comparison with the current k-th score

    def node_tie(self, rect: Rect) -> tuple[float, ...]:
        return ()  # top-k correctness is tie-order independent (≥ tests)

    def prune(self, entry: HeapEntry) -> bool:
        """At least k discovered objects score no worse than the bound."""
        return len(self.scores) >= self.k and entry.key >= self.scores[-1]

    def add_result(self, entry: HeapEntry) -> bool:
        if len(self.scores) >= self.k and entry.key >= self.scores[-1]:
            return False
        self.scores.append(entry.key)
        self.scores.sort()
        if len(self.scores) > self.k:
            self.scores.pop()
        return True

    def finished(self, next_key: float) -> bool:
        """Best-first order: once k results exist and the next bound is no
        better than the worst of them, nothing can improve the answer."""
        return len(self.scores) >= self.k and next_key >= self.scores[-1]


Strategy = SkylineStrategy | TopKStrategy


def make_root_state(rtree: RTree, strategy: Strategy) -> SearchState:
    """A fresh state whose heap holds only the R-tree root."""
    state = SearchState()
    root = rtree.root
    if root.live_count() == 0:
        return state
    mbr = root.mbr()
    entry = HeapEntry(
        key=strategy.node_key(mbr),
        seq=state.next_seq(),
        path=(),
        node=root,
        point=mbr.lows,
        rect=mbr,
        tie=strategy.node_tie(mbr),
    )
    state.heap.append(entry)
    return state


def run_algorithm1(
    rtree: RTree,
    strategy: Strategy,
    stats: QueryStats,
    reader: BooleanReader | None = None,
    verifier: Callable[[int], bool] | None = None,
    pool: BufferPool | None = None,
    block_category: str = SBLOCK,
    state: SearchState | None = None,
    ticker: Callable[[], None] | None = None,
) -> SearchState:
    """Run (or resume) Algorithm 1 until the heap empties or top-k finishes.

    Args:
        rtree: The shared partition template.
        strategy: Skyline or top-k preference pruning.
        stats: Mutated in place with counters and peaks.
        reader: Signature reader for boolean pruning; ``None`` disables the
            boolean arm (the Domination baseline, or ``BP = φ``).
        verifier: Minimal-probing hook called on data objects about to be
            reported; returning False discards the object.
        pool: Buffer pool for counted node reads (falls back to raw disk
            reads on the tree's disk).
        block_category: Counter category for node reads (``SBLOCK`` for the
            Signature method, ``DBLOCK`` for Domination).
        state: Resume from a reconstructed state (drill-down / roll-up).
        ticker: Called once per heap pop; the serving executor uses it for
            deadline/cancellation checks (it raises to abort the query).
            The partially filled ``state``/``stats`` stay consistent — the
            caller just must not report them as a completed answer.
    """
    if state is None:
        state = make_root_state(rtree, strategy)
    # The loop's heap is the state's own heap list, holding ``(key, tie,
    # seq, origin, index)`` items so ``heapq`` compares in C — ``seq`` is
    # unique, so ``origin`` and ``index`` are never compared, and the
    # order is ``HeapEntry.__lt__``'s.  A carried entry is its own origin
    # (index ``None``); a pushed child is an index into its expansion
    # tuple (see ``_child_entry``), and becomes a ``HeapEntry`` only when
    # it is popped — or when the heap is next read, however the loop
    # ends.  Marks left by an earlier run say nothing about this strategy
    # and reader.
    heap = state.heap
    for entry in heap:
        entry.vetted = None
    heap[:] = [(e.key, e.tie, e.seq, e, None) for e in heap]
    heapq.heapify(heap)
    stats.note_heap(len(heap))
    b_list, d_list = state._b_list, state._d_list

    while heap:
        if ticker is not None:
            ticker()
        item = heapq.heappop(heap)
        key, tie, seq, origin, index = item
        if strategy.finished(key):
            heapq.heappush(heap, item)  # keep it for incremental reuse
            break
        if index is None:
            entry = origin
        else:  # ``_entry_of``, with one call fewer per pop
            entry = _child_entry(origin, index, key, tie, seq)
            entry.vetted = origin[2]
        # --- prune procedure (paper lines 14-20): preference then
        # boolean.  A vetted entry passed both when its parent was
        # expanded: only results found since can prune it, and its
        # bit is not tested again.  A pruned entry is recorded as the
        # item it was popped as, so the entry itself dies here.
        if strategy.prune(entry):
            stats.dominance_pruned += 1
            d_list.append(item)
            continue
        if (
            reader is not None
            and entry.vetted is None
            and not reader.check_path(entry.path)
        ):
            stats.boolean_pruned += 1
            b_list.append(item)
            continue

        if entry.tid is not None:
            if verifier is not None:
                stats.verified += 1
                if not verifier(entry.tid):
                    stats.verify_failed += 1
                    continue
            if strategy.add_result(entry):
                state.results.append(entry)
                stats.results += 1
            continue

        # --- expand the node: one counted R-tree block read.
        node = entry.node
        assert node is not None and node.page_id is not None
        if pool is not None:
            pool.get(node.page_id, block_category, stats.counters)
        else:
            rtree.disk.read(node.page_id, block_category, stats.counters)
        stats.nodes_expanded += 1

        # One block evaluation per expanded node.  The bits the
        # reader holds already go first: a child whose bit is 0 is
        # boolean-pruned, dominated or not, and the strategy keys
        # and tests for dominance only the others.  The reader is
        # then asked, with loads, about the preference arm's
        # survivors at once — unless its held bits were its final
        # answer — and only children that pass both are pushed.
        # Every live child still consumes one ``seq``, in slot
        # order, whatever happens to it.
        block = node.block()
        first_seq = state.seq + 1
        state.seq += len(block)
        resolved = True
        parent_path = entry.path
        # Index masks from here on: what one arm prunes is one
        # ``&`` away, and only the survivors are ever iterated.
        held, settled = block.all_mask, False
        if reader is not None:
            bits = reader.held_block(
                parent_path, block.slot_mask(block.all_mask)
            )
            if bits is not None:
                held = block.index_mask(bits)
                settled = reader.held_is_final
        # ``keys`` and ``ties`` list the held children only, in index
        # order: child ``indices[j]`` is at ``j``.
        indices = None if held == block.all_mask else mask_indices(held)
        keys, dominated, ties = strategy.evaluate(block, indices)
        survivors = alive = held & ~dominated
        if reader is not None and alive and not settled:
            wanted = block.slot_mask(alive)
            passed = reader.check_block(parent_path, wanted)
            if passed is None:
                # The reader cannot resolve this node: ask entry by
                # entry, which answers (and counts) conservatively —
                # and the children it lets through are tested again
                # at their pop, as every entry used to be.
                resolved = False
                passed = 0
                for i in mask_indices(alive):
                    if reader.check_entry(parent_path, block.slots[i] + 1):
                        passed |= 1 << block.slots[i]
            if passed != wanted:
                survivors = alive & block.index_mask(passed)
        filtered = (block.all_mask ^ held) | (alive ^ survivors)
        stats.dominance_pruned += dominated.bit_count()
        stats.boolean_pruned += filtered.bit_count()
        # The pushed children's mark: the buffer only grows at pops,
        # so it is what the strategy tested them against.
        vetted = strategy.evaluated() if survivors and resolved else None
        expansion = (parent_path, block, vetted, strategy, first_seq)
        if dominated:
            d_list.append((expansion, dominated))
        if filtered:
            b_list.append((expansion, filtered))
        if survivors:
            if indices is None:
                at = picked = mask_indices(survivors)
            elif survivors == held:
                at, picked = range(len(indices)), indices
            else:
                at = [j for j, i in enumerate(indices) if survivors >> i & 1]
                picked = [indices[j] for j in at]
            tie_rows = repeat(()) if ties is None else row_tuples(ties, at)
            for i, j, tie in zip(picked, at, tie_rows):
                heapq.heappush(heap, (keys[j], tie, first_seq + i, expansion, i))
        stats.note_heap(len(heap))
    return state
