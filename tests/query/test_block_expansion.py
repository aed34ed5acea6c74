"""Differential suite for Algorithm 1's block expansion.

``run_algorithm1`` evaluates one expanded node as a block and keeps pruned
children as runs.  :func:`reference_algorithm1` below is the per-child
expansion it replaced — one heap entry, one bit of what the reader holds
already, one ``strategy.prune`` and one ``reader.check_entry`` per live
child, in that order, through the scalar protocol only — kept here as the
oracle.  Both must leave behind the same answers, the same
:class:`QueryStats`, the same counted I/O and the same search state down
to ``seq`` and ``tie``, for fresh, drill-down and roll-up queries, with
healthy and with unreadable signatures — on the product's kernels and, with
every kernel swapped for its scalar formula in :mod:`tests.kernels.reference`,
on the oracle's: bit-exact kernels must give the same searches end to end.
"""

import heapq
import random
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager, nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ops import intersect_all
from repro.core.readers import SignatureAdapter
from repro.core.sid import sid_of_path
from repro.data.fixtures import build_sweep_system, small_config, sweep_config
from repro.data.synthetic import generate_relation
from repro.data.workload import sample_predicate
from repro.kernels import dominate
from repro.query.algorithm1 import (
    HeapEntry,
    SearchState,
    SkylineStrategy,
    TopKStrategy,
    make_root_state,
    run_algorithm1,
)
from repro.query.dynamic import DynamicSkylineStrategy
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import (
    LinearFunction,
    SeparableFunction,
    WeightedSquaredDistance,
)
from repro.query.stats import QueryStats
from repro.rtree.frozen import freeze
from repro.rtree.geometry import dominates
from repro.rtree.rtree import RTree
from repro.storage.buffer import BufferPool
from repro.storage.counters import DBOOL, SBLOCK
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, FaultRule, FaultyDisk
from repro.system import build_system
from tests.kernels import reference


# --------------------------------------------------------------------------- #
# the kernels a case runs on: the product's, or the scalar oracle's
# --------------------------------------------------------------------------- #


@contextmanager
def oracle_kernels():
    """Every product kernel replaced, wherever a ``repro`` module bound it,
    by its namesake in :mod:`tests.kernels.reference`.  Frozen nodes build a
    fresh block per call meanwhile, so no block outlives the swap."""
    from repro.baselines import index_merge, skyline_algs
    from repro.kernels import dominate, mindist, sigops
    from repro.rtree.frozen import FrozenRNode
    from repro.rtree.node import NodeBlock

    oracle = {
        name
        for name, obj in vars(reference).items()
        if getattr(obj, "__module__", None) == reference.__name__
    }
    swaps = {
        id(getattr(module, name)): getattr(reference, name)
        for module in (mindist, dominate, sigops, skyline_algs, index_merge)
        for name in oracle
        if hasattr(module, name)
    }
    with ExitStack() as stack:
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                swap = swaps.get(id(value))
                if swap is not None:
                    stack.enter_context(mock.patch.object(module, attr, swap))
        stack.enter_context(
            mock.patch.object(FrozenRNode, "block", lambda node: NodeBlock(node))
        )
        yield


KERNELS = {"numpy": nullcontext, "python": oracle_kernels}
backends = pytest.mark.parametrize("backend", sorted(KERNELS))


def on_kernels(backend):
    return KERNELS[backend]()


# --------------------------------------------------------------------------- #
# the oracle: per-child expansion
# --------------------------------------------------------------------------- #


def point_key(strategy, point):
    """A data point's heap key, one point at a time: its score for a top-k,
    the coordinate sum in dominance space for a skyline."""
    if isinstance(strategy, TopKStrategy):
        return strategy.fn.score(point)
    return sum(strategy._project(point))


def point_tie(strategy, point):
    """A data point's tie row: none for a top-k (ties are order-free there),
    the point in dominance space for a skyline."""
    if isinstance(strategy, TopKStrategy):
        return ()
    return strategy._project(point)


def reference_algorithm1(
    rtree,
    strategy,
    stats,
    reader=None,
    verifier=None,
    pool=None,
    block_category=SBLOCK,
    state=None,
    ticker=None,
):
    """Algorithm 1 with every child handled on its own."""
    if state is None:
        state = make_root_state(rtree, strategy)
    heap, b_list, d_list = state.heap, state.b_list, state.d_list
    heapq.heapify(heap)
    stats.note_heap(len(heap))
    while heap:
        if ticker is not None:
            ticker()
        entry = heapq.heappop(heap)
        if strategy.finished(entry.key):
            heapq.heappush(heap, entry)
            break
        if strategy.prune(entry):
            stats.dominance_pruned += 1
            d_list.append(entry)
            continue
        if reader is not None and not reader.check_path(entry.path):
            stats.boolean_pruned += 1
            b_list.append(entry)
            continue
        if entry.is_tuple:
            if verifier is not None:
                stats.verified += 1
                if not verifier(entry.tid):
                    stats.verify_failed += 1
                    continue
            if strategy.add_result(entry):
                state.results.append(entry)
                stats.results += 1
            continue
        node = entry.node
        if pool is not None:
            pool.get(node.page_id, block_category, stats.counters)
        else:
            rtree.disk.read(node.page_id, block_category, stats.counters)
        stats.nodes_expanded += 1
        # What the reader holds for this node, asked once and loading
        # nothing: a child whose bit it holds as 0 fails the boolean arm
        # before the preference arm is asked.
        held = None
        if reader is not None:
            held = reader.held_block(
                entry.path, sum(1 << slot for slot, _ in node.live_entries())
            )
        for slot, child in node.live_entries():
            path = entry.path + (slot + 1,)
            if child.is_leaf_entry:
                point = child.mbr.lows
                child_entry = HeapEntry(
                    key=point_key(strategy, point),
                    seq=state.next_seq(),
                    path=path,
                    tid=child.tid,
                    point=point,
                    tie=point_tie(strategy, point),
                )
            else:
                child_entry = HeapEntry(
                    key=strategy.node_key(child.mbr),
                    seq=state.next_seq(),
                    path=path,
                    node=child.child,
                    point=child.mbr.lows,
                    rect=child.mbr,
                    tie=strategy.node_tie(child.mbr),
                )
            if held is not None and not held >> slot & 1:
                stats.boolean_pruned += 1
                b_list.append(child_entry)
                continue
            if strategy.prune(child_entry):
                stats.dominance_pruned += 1
                d_list.append(child_entry)
                continue
            if reader is not None and not reader.check_entry(
                entry.path, slot + 1
            ):
                stats.boolean_pruned += 1
                b_list.append(child_entry)
                continue
            heapq.heappush(heap, child_entry)
        stats.note_heap(len(heap))
    return state


@contextmanager
def per_child_expansion():
    """Route every signature-method search through the oracle (the
    session's runner is the one caller of ``run_algorithm1``)."""
    with mock.patch(
        "repro.query.session.run_algorithm1", reference_algorithm1
    ):
        yield


def flat(entries):
    return [
        (
            e.key,
            e.seq,
            e.path,
            e.tid,
            e.point,
            e.tie,
            None if e.node is None else e.node.node_id,
            None if e.rect is None else (e.rect.lows, e.rect.highs),
        )
        for e in entries
    ]


def state_facts(state):
    return {
        "results": flat(state.results),
        "heap": flat(state.heap),
        "b_list": flat(state.b_list),
        "d_list": flat(state.d_list),
        "seq": state.seq,
    }


def stats_facts(stats):
    return {
        "io": stats.counters.snapshot(),
        "pool": (stats.pool_hits, stats.pool_misses),
        "peak_heap": stats.peak_heap,
        "nodes_expanded": stats.nodes_expanded,
        "results": stats.results,
        "boolean_pruned": stats.boolean_pruned,
        "dominance_pruned": stats.dominance_pruned,
        "verified": stats.verified,
        "verify_failed": stats.verify_failed,
        "sig_loads": (stats.sig_loads, stats.sig_lookahead_loads),
        "fault_retries": stats.fault_retries,
        "failed_loads": stats.failed_loads,
        "degraded_checks": stats.degraded_checks,
        "quarantine_skips": stats.quarantine_skips,
        "degraded": stats.degraded,
        "tier": stats.tier,
    }


def result_facts(result):
    return {
        "tids": result.tids,
        "scores": result.scores,
        "stats": stats_facts(result.stats),
        "state": state_facts(result.state),
    }


# --------------------------------------------------------------------------- #
# full queries: kinds × conjuncts × kernels × {fresh, drill-down, roll-up}
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def system():
    return build_sweep_system(3_000, fanout=12, cardinality=6, seed=41)


QUERIES = {
    "skyline": ("skyline", {}),
    "subspace": ("skyline", {"preference_by": ("N1", "N3")}),
    "topk-linear": ("topk", {"fn": LinearFunction([0.6, -0.2, 0.9]), "k": 12}),
    "topk-wsd": (
        "topk",
        {
            "fn": WeightedSquaredDistance([0.3, 0.7, 0.5], [1.0, 0.5, 2.0]),
            "k": 12,
        },
    ),
    "topk-separable": (
        "topk",
        {
            "fn": SeparableFunction(
                [
                    (0, "linear", 0.8, 0.0),
                    (1, "squared", 1.5, 0.4),
                    (2, "linear", -0.3, 0.0),
                ]
            ),
            "k": 12,
        },
    ),
    "dynamic": ("dynamic_skyline", {"query_point": (0.4, 0.6, 0.5)}),
}


def run_query(system, name, predicate):
    kind, kwargs = QUERIES[name]
    engine = system.engine
    if kind == "skyline":
        return engine.skyline(predicate, **kwargs)
    if kind == "topk":
        return engine.topk(kwargs["fn"], kwargs["k"], predicate)
    return engine.dynamic_skyline(kwargs["query_point"], predicate)


def predicate_for(system, n_conjuncts, seed=5):
    return sample_predicate(
        system.relation, n_conjuncts, random.Random(seed)
    )


@backends
@pytest.mark.parametrize("n_conjuncts", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_fresh_query_matches_per_child_expansion(
    system, backend, name, n_conjuncts
):
    predicate = predicate_for(system, n_conjuncts)
    with on_kernels(backend):
        got = run_query(system, name, predicate)
        with per_child_expansion():
            want = run_query(system, name, predicate)
    assert result_facts(got) == result_facts(want)
    # Both arms really ran (an early-terminating top-k may never reach a
    # k-th score to prune with).
    if n_conjuncts:
        assert got.stats.boolean_pruned > 0
    if QUERIES[name][0] != "topk":
        assert got.stats.dominance_pruned > 0


@contextmanager
def materialised_intersection(system):
    """Serve every conjunction from the paper's recursive intersection of
    the members' *full* signatures (Fig. 3), built up front — the exact
    bits, from code that shares nothing with the serving reader.  What it
    holds before the domination test is the members' plain AND, as the
    serving reader holds it (the look-ahead comes after that test), so a
    pruned child is filed under the same arm by both."""

    def reader_for_predicate(conjuncts, *args, **kwargs):
        cells = BooleanPredicate(conjuncts).atomic_cells()
        members = [system.pcube.store.load_full_signature(c) for c in cells]
        reader = SignatureAdapter(intersect_all(members))

        def held_block(parent_path, wanted):
            sid = sid_of_path(parent_path, reader.fanout)
            for member in members:
                wanted &= member.node(sid)
            return wanted

        reader.held_block = held_block
        return reader

    with mock.patch.object(
        system.epochs.current.pcube, "reader_for_predicate", reader_for_predicate
    ):
        yield


@pytest.mark.parametrize("n_conjuncts", [2, 3])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_multi_conjunct_read_matches_per_child_expansion_on_exact_bits(
    system, name, n_conjuncts
):
    """The per-child oracle on the materialised intersection: the serving
    read must leave the same answers, search state (``seq``, visit order,
    lists) and counters — everything but how the signature was loaded."""
    predicate = predicate_for(system, n_conjuncts)
    got = run_query(system, name, predicate)
    with per_child_expansion(), materialised_intersection(system):
        want = run_query(system, name, predicate)
    got_facts, want_facts = result_facts(got), result_facts(want)
    assert got_facts["stats"]["io"].pop("SSIG") > 0
    assert "SSIG" not in want_facts["stats"]["io"]
    assert got_facts["stats"].pop("sig_loads")[0] > 0
    assert want_facts["stats"].pop("sig_loads") == (0, 0)
    assert got_facts["stats"].pop("pool") != want_facts["stats"].pop("pool")
    assert got_facts == want_facts


RESUMABLE = sorted(
    name for name, (kind, _) in QUERIES.items() if kind != "dynamic_skyline"
)


@backends
@pytest.mark.parametrize("n_conjuncts", [1, 2, 3])
@pytest.mark.parametrize("name", RESUMABLE)
def test_drill_down_and_roll_up_match_per_child_expansion(
    system, backend, name, n_conjuncts
):
    """Lemma 2 reads the previous query's lists: runs materialised on
    demand must rebuild the same heap the eager entries did."""
    stronger = predicate_for(system, n_conjuncts)
    dim, value = list(stronger)[-1]
    weaker = stronger.roll_up(dim)

    def follow_ups():
        engine = system.engine
        drilled = engine.drill_down(run_query(system, name, weaker), dim, value)
        rolled = engine.roll_up(run_query(system, name, stronger), dim)
        return result_facts(drilled), result_facts(rolled)

    with on_kernels(backend):
        got = follow_ups()
        with per_child_expansion():
            want = follow_ups()
    assert got == want


# --------------------------------------------------------------------------- #
# readers: conjunction short-circuit and unreadable partials
# --------------------------------------------------------------------------- #


def _search(system, runner, predicate, strategy):
    stats = QueryStats()
    pool = BufferPool(system.engine.rtree.disk, capacity=4096)
    reader = system.engine.pcube.reader_for_predicate(
        predicate.conjuncts, pool, stats
    )
    state = runner(system.engine.rtree, strategy, stats, reader=reader, pool=pool)
    return reader, stats, state


@pytest.fixture(scope="module")
def paged_system():
    """128-byte pages spread every cell's signature over ~25 partials, so a
    member consulted once too often shows up as an extra SSIG load."""
    relation = generate_relation(
        sweep_config(3_000, cardinality=6, seed=41),
        disk=SimulatedDisk(page_size=128),
    )
    return build_system(relation, fanout=12)


@backends
@pytest.mark.parametrize("seed", [9, 10, 11])
@pytest.mark.parametrize("n_conjuncts", [2, 3])
def test_assembled_reader_issues_the_same_partial_loads(
    paged_system, backend, n_conjuncts, seed
):
    """Member k of a conjunction is consulted only while some wanted child
    passed the members before it — per member, not just in total."""
    system = paged_system
    predicate = predicate_for(system, n_conjuncts, seed=seed)
    with on_kernels(backend):
        reader, stats, state = _search(
            system, run_algorithm1, predicate, SkylineStrategy(3)
        )
        ref_reader, ref_stats, ref_state = _search(
            system, reference_algorithm1, predicate, SkylineStrategy(3)
        )
    assert len(reader.readers) == n_conjuncts
    assert all(len(r._loaded_refs) > 1 for r in reader.readers)
    assert stats.sig_loads == ref_stats.sig_loads
    assert stats.sig_lookahead_loads == ref_stats.sig_lookahead_loads
    assert [sorted(r._loaded_refs) for r in reader.readers] == [
        sorted(r._loaded_refs) for r in ref_reader.readers
    ]
    assert stats.counters.snapshot() == ref_stats.counters.snapshot()
    assert state_facts(state) == state_facts(ref_state)


def _node_paths(root):
    """Every node of a frozen tree by ``id``, with its path."""
    paths, stack = {}, [(root, ())]
    while stack:
        node, path = stack.pop()
        paths[id(node)] = path
        if not node.is_leaf:
            stack.extend(
                (entry.child, path + (slot + 1,))
                for slot, entry in node.live_entries()
            )
    return paths


@pytest.mark.parametrize("name", ["skyline", "dynamic"])
def test_the_kernel_is_handed_only_the_children_whose_held_bit_is_set(
    paged_system, name
):
    """On cells of many partials, a 1-conjunct read hands
    ``dominates_block`` exactly the live children whose bit the stored
    signature sets when a loaded partial holds their node, and every live
    child otherwise; it answers, reads and loads what the kernel-first
    order (the same search told that the reader holds nothing) does."""
    from repro.kernels.dominate import DominationBuffer
    from repro.rtree.frozen import FrozenRNode

    system = paged_system
    engine = system.engine
    predicate = predicate_for(system, 1)
    (cell,) = predicate.atomic_cells()
    assert system.pcube.store.n_partials(cell) > 1
    full = system.pcube.store.load_full_signature(cell)
    fanout = system.pcube.fanout
    paths = _node_paths(engine.rtree.root)

    def search(holds):
        stats = QueryStats()
        pool = BufferPool(engine.rtree.disk, capacity=4096)
        reader = engine.pcube.reader_for_predicate(predicate.conjuncts, pool, stats)
        if not holds:
            reader.held_block = lambda parent_path, wanted: None
        strategy = (
            SkylineStrategy(3)
            if name == "skyline"
            else DynamicSkylineStrategy(QUERIES["dynamic"][1]["query_point"])
        )
        expected, handed = [], []
        real_block = FrozenRNode.block
        real_kernel = DominationBuffer.dominates_block

        def block(node):
            view = real_block(node)
            sid = sid_of_path(paths[id(node)], fanout)
            live = view.slot_mask(view.all_mask)
            if sid in reader._blobs:
                expected.append((live & full.node(sid)).bit_count())
            else:
                expected.append(len(view))
            return view

        def dominates_block(self, probes, **kwargs):
            handed.append(len(probes))
            return real_kernel(self, probes, **kwargs)

        with (
            mock.patch.object(FrozenRNode, "block", block),
            mock.patch.object(DominationBuffer, "dominates_block", dominates_block),
        ):
            state = run_algorithm1(
                engine.rtree, strategy, stats, reader=reader, pool=pool
            )
        assert len(handed) == len(expected) == stats.nodes_expanded
        return state, stats, expected, handed

    state, stats, expected, handed = search(holds=True)
    assert handed == expected
    kernel_first, first_stats, _, all_rows = search(holds=False)
    assert sum(handed) < sum(all_rows)
    assert [e.tid for e in state.results] == [e.tid for e in kernel_first.results]
    assert stats.counters.snapshot() == first_stats.counters.snapshot()
    assert stats.sig_loads == first_stats.sig_loads > 1
    assert stats.nodes_expanded == first_stats.nodes_expanded
    assert (
        stats.boolean_pruned + stats.dominance_pruned
        == first_stats.boolean_pruned + first_stats.dominance_pruned
    )
    assert stats.boolean_pruned > first_stats.boolean_pruned


def _faulty_system():
    # Small pages: a cell has many partials, so one can be lost while the
    # nodes held by the others still resolve.
    disk = FaultyDisk(SimulatedDisk(page_size=128))
    system = build_system(generate_relation(small_config(), disk=disk), fanout=8)
    return disk, system


@backends
@pytest.mark.faults
@pytest.mark.parametrize("lost_read", [0, 1, 4])
@pytest.mark.parametrize("n_conjuncts", [1, 2])
def test_unreadable_partial_takes_the_conservative_path(
    backend, n_conjuncts, lost_read
):
    """A corrupt partial makes the block test answer ``None`` for the nodes
    it held; the search then asks entry by entry, exactly as the per-child
    expansion did: same answers, same ``degraded_checks``, same DBOOL
    probes.  ``lost_read`` picks which signature read is lost — a root
    partial (everything unresolvable) or a deeper one (a subtree)."""

    def degraded_run(patched):
        disk, system = _faulty_system()
        predicate = sample_predicate(
            system.relation, n_conjuncts, random.Random(3)
        )
        baseline = system.engine.skyline(predicate)
        disk.plan = FaultPlan(
            [
                FaultRule(
                    kind="corrupt", tag="pcube:sig", after=lost_read, count=1
                )
            ]
        )
        with patched():
            degraded = system.engine.skyline(predicate)
        assert disk.fault_counts["corrupt"] == 1
        return baseline, degraded

    @contextmanager
    def unpatched():
        yield

    with on_kernels(backend):
        baseline, got = degraded_run(unpatched)
        _, want = degraded_run(per_child_expansion)
    assert got.tids == baseline.tids
    assert got.stats.degraded and got.stats.degraded_checks > 0
    assert got.stats.counters.get(DBOOL) > baseline.stats.counters.get(DBOOL)
    assert result_facts(got) == result_facts(want)


def test_check_block_answers_none_when_unresolvable():
    disk, system = _faulty_system()
    predicate = sample_predicate(system.relation, 1, random.Random(3))
    disk.plan = FaultPlan([FaultRule(kind="corrupt", tag="pcube:sig", count=1)])
    stats = QueryStats()
    reader = system.engine.pcube.reader_for_predicate(predicate.conjuncts, stats=stats)
    assert stats.degraded
    assert reader.check_block((), 0b11) is None
    assert stats.degraded_checks == 0  # only per-entry answers count
    assert reader.check_entry((), 1) is True  # conservative at the root
    assert stats.degraded_checks == 1


def test_check_block_agrees_with_check_path(system):
    """Every reader's whole-node test is its per-entry test (the path
    check of each child), as a mask."""
    from repro.core.bloom_sig import BloomConjunction, BloomSignature

    rng = random.Random(17)
    one = predicate_for(system, 1, seed=2)
    two = predicate_for(system, 2, seed=4)
    cells = [
        system.pcube.store.load_full_signature(cell)
        for cell in two.atomic_cells()
    ]
    readers = [
        system.engine.pcube.reader_for_predicate(one.conjuncts),
        system.engine.pcube.reader_for_predicate(two.conjuncts),
        SignatureAdapter(intersect_all(cells)),
        system.engine.pcube.reader_for_dnf([one, two]),
        BloomSignature.from_signature(cells[0]),
        BloomConjunction([BloomSignature.from_signature(c) for c in cells]),
    ]
    fanout = system.pcube.fanout
    paths = [(), (1,), (2,), (1, 1), (fanout, 1)]
    for reader in readers:
        for path in paths:
            wanted = rng.getrandbits(fanout)
            expected = sum(
                1 << (position - 1)
                for position in range(1, fanout + 1)
                if wanted >> (position - 1) & 1
                and reader.check_path(path + (position,))
            )
            assert reader.check_block(path, wanted) == expected, (reader, path)


# --------------------------------------------------------------------------- #
# pruned lists
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def leaf_node():
    """A frozen leaf of seven children in eight slots (slot 3 is empty)."""
    rng = random.Random(8)
    tree = RTree(dims=2, max_entries=8)
    for tid in range(8):
        tree.insert(tid, (rng.random(), rng.random()))
    tree.delete(3)
    root = freeze(tree).root
    assert root.is_leaf and root.block().slots == [0, 1, 2, 4, 5, 6, 7]
    return root


RECORDED = ("heap", "b_list", "d_list")


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["skyline", "topk"]),
    st.lists(
        st.tuples(
            st.sampled_from(RECORDED),
            st.one_of(
                st.none(),  # an entry: the root, a carried or a pop-time one
                st.integers(min_value=0, max_value=6),  # a heap item
                st.sets(  # a run: the children one arm pruned
                    st.integers(min_value=0, max_value=6), min_size=1
                ),
            ),
            st.one_of(st.none(), st.sampled_from(RECORDED)),  # a read after
        ),
        max_size=16,
    ),
    st.permutations(RECORDED),
)
def test_recorded_items_read_as_the_eager_oracles_entries(
    leaf_node, shape, steps, last_reads
):
    """Whatever the interleaving of entries, heap items and runs in the
    three lists — and wherever reads fall between them — each list reads
    as the entries the per-child oracle would have appended, in append
    order, and an entry once read keeps its identity."""
    strategy = (
        SkylineStrategy(2)
        if shape == "skyline"
        else TopKStrategy(LinearFunction([0.3, 0.7]), 3)
    )
    block, children = leaf_node.block(), list(leaf_node.live_entries())
    state = SearchState()
    expected = {name: [] for name in RECORDED}
    seen = {name: [] for name in RECORDED}
    seq = 0

    def oracle(parent, first_seq, i, vetted=None):
        slot, child = children[i]
        point = child.mbr.lows
        entry = HeapEntry(
            key=point_key(strategy, point),
            seq=first_seq + i,
            path=parent + (slot + 1,),
            tid=child.tid,
            point=point,
            tie=point_tie(strategy, point),
        )
        entry.vetted = vetted
        return entry

    for step, (name, item, read) in enumerate(steps):
        recorded = getattr(state, "_" + name)
        if item is None:
            seq += 1
            entry = HeapEntry(0.5, seq, (9, seq), tid=100 + seq)
            recorded.append(entry)
            expected[name].append(entry)
        else:
            parent, vetted = (step + 1,), step % 3 or None
            expansion = (parent, block, vetted, strategy, seq + 1)
            if isinstance(item, int):
                want = oracle(parent, seq + 1, item, vetted)
                recorded.append((want.key, want.tie, want.seq, expansion, item))
                expected[name].append(want)
            else:
                recorded.append((expansion, sum(1 << i for i in item)))
                expected[name].extend(
                    oracle(parent, seq + 1, i) for i in sorted(item)
                )
            seq += len(block)
        if read is not None:
            seen[read] = list(getattr(state, read))
    for name in last_reads:
        got = getattr(state, name)
        assert got is getattr(state, name) is getattr(state, "_" + name)
        assert all(type(entry) is HeapEntry for entry in got)
        assert flat(got) == flat(expected[name])
        assert [e.vetted for e in got] == [e.vetted for e in expected[name]]
        assert all(a is b for a, b in zip(seen[name], got))
        assert all(
            a is b
            for a, b in zip(expected[name], got)
            if a.tid is not None and a.tid >= 100
        )


def test_frozen_node_blocks_are_built_once_and_kept():
    system = build_sweep_system(600, fanout=8, seed=3)
    frozen_root = system.engine.rtree.root
    block = frozen_root.block()
    assert frozen_root.block() is block
    assert system.engine.rtree.root is frozen_root  # one snapshot, one tree
    assert block.slots == [s for s, _ in frozen_root.live_entries()]


def test_resumed_state_accepts_runs_on_top_of_carried_entries(system):
    """A resume hands ``run_algorithm1`` lists that already hold entries;
    new runs land behind them."""
    first = run_algorithm1(system.engine.rtree, SkylineStrategy(3), QueryStats())
    carried = list(first.d_list)[:5]
    resume = SearchState()
    resume.d_list = list(carried)
    resume.heap = list(first.results)
    resume.seq = first.seq
    second = run_algorithm1(
        system.engine.rtree, SkylineStrategy(3), QueryStats(), state=resume
    )
    assert list(second.d_list)[:5] == carried
    assert {e.tid for e in second.results} == {e.tid for e in first.results}


@backends
def test_topk_and_dynamic_strategies_direct(system, backend):
    """Strategy-level: ``evaluate`` equals the scalar protocol row by row,
    leaf and inner blocks alike."""
    with on_kernels(backend):
        root = system.engine.rtree.root
        leaf = root
        while not leaf.is_leaf:
            leaf = next(e.child for _, e in leaf.live_entries())
        for node in (root, leaf):
            block = node.block()
            for strategy in (
                SkylineStrategy(3),
                SkylineStrategy(3, subspace=(2, 0)),
                TopKStrategy(LinearFunction([0.5, -1.0, 0.25]), 3),
                DynamicSkylineStrategy((0.2, 0.9, 0.5)),
            ):
                keys, dominated, ties = strategy.evaluate(block, None)
                assert dominated == 0
                for i, (_, child) in enumerate(node.live_entries()):
                    if block.leaf:
                        key = point_key(strategy, child.mbr.lows)
                        tie = point_tie(strategy, child.mbr.lows)
                    else:
                        key = strategy.node_key(child.mbr)
                        tie = strategy.node_tie(child.mbr)
                    assert keys[i] == key
                    if ties is None:
                        assert tie == ()
                    else:
                        assert tuple(float(v) for v in ties[i]) == tie


# --------------------------------------------------------------------------- #
# each piece of work once: lazy decode, vetted entries, the tuple heap
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def system_2k():
    return build_sweep_system(2_000, fanout=12, cardinality=6, seed=41)


class Watched:
    """What the searches of one query did: per ``run_algorithm1`` call the
    paths its initial heap held and the paths it sent through
    ``reader.check_path``; over the whole query the ``HeapEntry.__lt__``
    calls made inside the searches, the blobs the readers decompressed and
    the (reader, SID) pairs they bit-tested."""

    def __init__(self):
        self.initial_paths = []
        self.checked_paths = []
        self.lt_calls = 0
        self.decoded = []
        self.tested = set()
        self.readers = []


@contextmanager
def watching(runner):
    """Run every signature-method search of the block through ``runner``
    (``run_algorithm1`` or the per-child oracle) under a :class:`Watched`."""
    from repro.core import readers as readers_module
    from repro.core.readers import CellSignatureReader

    watched = Watched()
    real_decompress = readers_module.decompress
    real_resident_mask = CellSignatureReader.resident_mask
    real_lt = HeapEntry.__lt__

    def decompress(blob):
        watched.decoded.append(blob)
        return real_decompress(blob)

    def resident_mask(self, sid):
        mask = real_resident_mask(self, sid)
        if mask is not None:
            watched.tested.add((id(self), sid))
            if self not in watched.readers:
                watched.readers.append(self)
        return mask

    def counted_lt(self, other):
        watched.lt_calls += 1
        return real_lt(self, other)

    def search(rtree, strategy, stats, reader=None, state=None, **kwargs):
        watched.initial_paths.append(
            [()] if state is None else [e.path for e in state.heap]
        )
        checked = []
        watched.checked_paths.append(checked)
        real_check_path = reader.check_path

        def check_path(path):
            checked.append(tuple(path))
            return real_check_path(path)

        reader.check_path = check_path
        try:
            with mock.patch.object(HeapEntry, "__lt__", counted_lt):
                return runner(
                    rtree, strategy, stats, reader=reader, state=state, **kwargs
                )
        finally:
            del reader.check_path

    with (
        mock.patch.object(readers_module, "decompress", decompress),
        mock.patch.object(CellSignatureReader, "resident_mask", resident_mask),
        mock.patch("repro.query.session.run_algorithm1", search),
    ):
        yield watched


ONCE = ["skyline", "topk-linear", "dynamic"]


@pytest.mark.parametrize("n_conjuncts", [1, 2])
@pytest.mark.parametrize("name", ONCE)
def test_fresh_read_decodes_what_it_tests_and_vets_an_entry_once(
    system_2k, name, n_conjuncts
):
    predicate = predicate_for(system_2k, n_conjuncts)
    with watching(run_algorithm1) as got:
        result = run_query(system_2k, name, predicate)
    with watching(reference_algorithm1) as want:
        reference = run_query(system_2k, name, predicate)
    assert result_facts(result) == result_facts(reference)
    # One decompression per distinct SID bit-tested, fewer than the loaded
    # partials hold: a return to whole-partial decode fails here.
    assert len(got.readers) == n_conjuncts
    assert len(got.decoded) == len(got.tested)
    assert got.tested == {
        (id(r), sid) for r in got.readers for sid in r._nodes
    }
    assert len(got.tested) < sum(len(r._blobs) for r in got.readers)
    # Only the root takes the pop-time bit test; every other entry was
    # pushed by an expansion that had tested it.  The oracle re-tests each
    # popped entry that survives the preference arm.
    assert got.checked_paths == [[()]]
    assert len(want.checked_paths[0]) > 1
    assert all(e.vetted is not None for e in result.state.results)
    assert all(e.vetted is not None for e in result.state.heap)
    # The loop's heap is ordered by C tuple comparison.
    assert got.lt_calls == 0 < want.lt_calls


@pytest.mark.parametrize("n_conjuncts", [1, 2])
@pytest.mark.parametrize("name", ["skyline", "topk-linear"])
def test_resumed_read_retests_exactly_the_carried_entries(
    system_2k, name, n_conjuncts
):
    """Drill-down and roll-up start from a carried heap: those entries
    were vetted — if at all — against another run's reader and results,
    so each one that reaches the boolean arm is tested there, once, as the
    oracle tests it; no entry pushed by this run's expansions is."""
    system = system_2k
    stronger = predicate_for(system, n_conjuncts + 1)
    dim, value = list(stronger)[-1]
    weaker = stronger.roll_up(dim)

    def follow_ups(runner):
        # The oracle resumes only from states the oracle left: it does not
        # reset the marks ``run_algorithm1`` leaves on its entries.
        engine = system.engine
        with mock.patch("repro.query.session.run_algorithm1", runner):
            coarse = run_query(system, name, weaker)
            fine = run_query(system, name, stronger)
        return (
            lambda: engine.drill_down(coarse, dim, value),
            lambda: engine.roll_up(fine, dim),
        )

    for got_run, want_run in zip(
        follow_ups(run_algorithm1), follow_ups(reference_algorithm1)
    ):
        with watching(run_algorithm1) as got:
            result = got_run()
        with watching(reference_algorithm1) as want:
            reference = want_run()
        assert result_facts(result) == result_facts(reference)
        (initial,), (checked,) = got.initial_paths, got.checked_paths
        assert got.initial_paths == want.initial_paths
        assert len(set(initial)) == len(initial) > 1
        carried = set(initial)
        assert checked and set(checked) <= carried
        assert checked == [p for p in want.checked_paths[0] if p in carried]
        assert got.lt_calls == 0 < want.lt_calls
        assert len(got.decoded) == len(got.tested)


def _is_heap(entries):
    return all(
        not entries[i] < entries[(i - 1) // 2] for i in range(1, len(entries))
    )


@backends
@pytest.mark.parametrize("stop_at", [1, 2, 40])
@pytest.mark.parametrize("name", ["skyline", "topk-linear"])
def test_a_raising_ticker_leaves_the_heap_the_oracle_leaves(
    system_2k, backend, name, stop_at
):
    """The loop orders ``(key, tie, seq, entry)`` tuples, but what a run
    leaves in ``state.heap`` — however it ends — is the pending
    ``HeapEntry`` list, arranged as ``heapq`` over the entries arranges it."""

    class Stop(Exception):
        pass

    def interrupted(runner):
        strategy = (
            SkylineStrategy(3)
            if name == "skyline"
            else TopKStrategy(QUERIES[name][1]["fn"], 12)
        )
        state = make_root_state(system_2k.engine.rtree, strategy)
        heap = state.heap
        reader = system_2k.engine.pcube.reader_for_predicate(
            predicate_for(system_2k, 2).conjuncts
        )
        pops = iter(range(1, stop_at + 1))

        def ticker():
            if next(pops) == stop_at:
                raise Stop

        with pytest.raises(Stop):
            runner(
                system_2k.engine.rtree,
                strategy,
                QueryStats(),
                reader=reader,
                state=state,
                ticker=ticker,
            )
        assert state.heap is heap
        return state

    with on_kernels(backend):
        got = interrupted(run_algorithm1)
        want = interrupted(reference_algorithm1)
    assert all(type(entry) is HeapEntry for entry in got.heap)
    assert _is_heap(got.heap)
    assert len(got.heap) == len(want.heap) and (stop_at == 1 or got.heap)
    assert state_facts(got) == state_facts(want)


def test_a_finished_topk_leaves_a_resumable_entry_heap(system_2k):
    result = system_2k.engine.topk(
        LinearFunction([0.6, 0.2, 0.9]), 3, predicate_for(system_2k, 1)
    )
    heap = result.state.heap
    assert heap and all(type(entry) is HeapEntry for entry in heap)
    assert _is_heap(heap)


#: ``(degraded_checks, counted I/O, tids)`` of the degraded skyline below as
#: measured at the commit before entries were vetted (38d2e5b), when a
#: conjunction was the plain AND of its members, per ``(exact fallback?,
#: which signature read is lost)``.
DEGRADED_PLAIN_AND = {
    (False, 0): (121, {"SSIG": 10, "SBLOCK": 34}, [1186, 347, 825, 195]),
    (False, 2): (17, {"SSIG": 8, "SBLOCK": 19}, [508, 942, 591]),
    (True, 0): (
        300,
        {"SSIG": 10, "SBLOCK": 71, "DBOOL": 134},
        [844, 747, 264, 195],
    ),
    (True, 2): (
        75,
        {"SSIG": 10, "SBLOCK": 51, "DBOOL": 75},
        [844, 747, 264, 195],
    ),
}

#: The same reads on the exact intersection: the same answers and base
#: relation probes; the look-ahead prunes subtrees the plain AND descended
#: into (fewer blocks, and fewer conservative answers where those subtrees
#: held lost nodes) and loads the partials it looks into.
DEGRADED = {
    (False, 0): (111, {"SSIG": 12, "SBLOCK": 23}, [1186, 347, 825, 195]),
    (False, 2): (17, {"SSIG": 14, "SBLOCK": 13}, [508, 942, 591]),
    (True, 0): (
        281,
        {"SSIG": 12, "SBLOCK": 47, "DBOOL": 134},
        [844, 747, 264, 195],
    ),
    (True, 2): (
        75,
        {"SSIG": 14, "SBLOCK": 31, "DBOOL": 75},
        [844, 747, 264, 195],
    ),
}


@backends
@pytest.mark.faults
@pytest.mark.parametrize("lost_read", [0, 2])
@pytest.mark.parametrize("exact", [False, True], ids=["no-fallback", "fallback"])
def test_degraded_read_keeps_its_pop_time_tests(backend, exact, lost_read):
    """Children let through by a block the reader could not resolve are
    unvetted: their pop-time test still runs and still counts — every
    unresolvable bit answered ``True`` (no fallback) or from the base
    relation (``DBOOL`` probes) — so a degraded read reports what the
    oracle reports: the plain AND's answers and probes, on fewer blocks."""
    from repro.core.readers import AssembledReader, CellSignatureReader

    def degraded_search(runner):
        disk, system = _faulty_system()
        engine = system.engine
        predicate = sample_predicate(system.relation, 2, random.Random(3))
        stats = QueryStats()
        pool = BufferPool(system.engine.rtree.disk, capacity=4096)
        disk.plan = FaultPlan(
            [FaultRule(kind="corrupt", tag="pcube:sig", after=lost_read, count=1)]
        )
        reader = AssembledReader(
            [
                CellSignatureReader(
                    engine.pcube.store,
                    cell,
                    pool,
                    stats,
                    fallback=engine.pcube.boolean_fallback if exact else None,
                )
                for cell in predicate.atomic_cells()
            ],
            system.engine.rtree.root.level,
        )
        unresolved = set()
        resolve = reader.check_block

        def check_block(parent_path, wanted):
            passed = resolve(parent_path, wanted)
            if passed is None:
                unresolved.add(tuple(parent_path))
            return passed

        reader.check_block = check_block
        state = runner(
            system.engine.rtree, SkylineStrategy(2), stats, reader=reader, pool=pool
        )
        assert disk.fault_counts["corrupt"] == 1
        if runner is run_algorithm1:
            # Vetted: pushed by an expansion whose block the reader resolved.
            assert unresolved
            assert all(
                (e.vetted is None) == (e.path[:-1] in unresolved)
                for e in state.results
            )
        return reader, stats, state

    with on_kernels(backend):
        reader, stats, state = degraded_search(run_algorithm1)
        ref_reader, ref_stats, ref_state = degraded_search(reference_algorithm1)
    assert stats.degraded and stats.failed_loads == 1
    assert (
        stats.degraded_checks,
        stats.counters.snapshot(),
        [e.tid for e in state.results],
    ) == DEGRADED[exact, lost_read]
    checks, io, tids = DEGRADED_PLAIN_AND[exact, lost_read]
    assert stats.degraded_checks <= checks
    assert stats.sblock < io["SBLOCK"] and stats.counters.get(DBOOL) == io.get("DBOOL", 0)
    assert [e.tid for e in state.results] == tids
    assert stats.degraded_checks == ref_stats.degraded_checks
    assert stats_facts(stats) == stats_facts(ref_stats)
    assert state_facts(state) == state_facts(ref_state)


# --------------------------------------------------------------------------- #
# an expansion costs what its survivors cost: one domination pass, kept keys,
# masks instead of index lists, one heap entry per push
# --------------------------------------------------------------------------- #


def loop_decides(points, probes):
    """How many of ``probes``, in order, the block loop of widths 2–4
    decides before its comparison budget runs out: ``_PROBE_CHARGE`` per
    probe up front, and the buffer's length for each probe the witness
    (the last dominator found; the first buffered point to begin with)
    misses."""
    spent = dominate._PROBE_CHARGE * len(probes)
    if spent > dominate._BLOCK_SCAN_BUDGET:
        return 0
    witness = points[0]
    for j, probe in enumerate(probes):
        if dominates(witness, probe):
            continue
        spent += len(points)
        if spent > dominate._BLOCK_SCAN_BUDGET:
            return j
        witness = next((s for s in points if dominates(s, probe)), witness)
    return len(probes)


@contextmanager
def counting_expansions():
    """Count what the reads inside the block did per expansion: calls of
    ``dominates_block`` (and how many met an empty buffer or exceeded the
    one-pass bound; of the others, how many probes the block loop's budget
    leaves undecided), ``_block_dominates`` passes and the probes they
    test, block key sums, pruned runs turned into entries, heap entries
    built, heap pushes and heap pops."""
    import heapq as real_heapq
    from types import SimpleNamespace

    from repro.kernels.dominate import DominationBuffer
    from repro.query import algorithm1
    from repro.rtree import node as node_module

    counts = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    real_block = DominationBuffer.dominates_block

    def dominates_block(self, probes, **kwargs):
        counts["dominates_block"] += 1
        if len(self) == 0:
            counts["empty_buffer"] += 1
        elif len(self) * len(probes) > dominate._ONE_PASS_PAIRS:
            counts["escalated"] += 1
        else:
            undecided = len(probes) - loop_decides(self._points, probes)
            counts["over_budget"] += undecided > 0
            counts["undecided"] += undecided
        return real_block(self, probes, **kwargs)

    real_pass = dominate._block_dominates

    def block_pass(block, probes, dims, other=None):
        counts["passes"] += 1
        counts["probes_passed"] += len(probes)
        return real_pass(block, probes, dims, other)

    shim = SimpleNamespace(
        heapify=real_heapq.heapify,
        heappop=counted("pops", real_heapq.heappop),
        heappush=counted("pushes", real_heapq.heappush),
    )
    with (
        mock.patch.object(DominationBuffer, "dominates_block", dominates_block),
        mock.patch.object(dominate, "_block_dominates", block_pass),
        mock.patch.object(
            node_module, "sum_block", counted("key_sums", node_module.sum_block)
        ),
        mock.patch.object(
            algorithm1, "_run_entries", counted("runs_read", algorithm1._run_entries)
        ),
        mock.patch.object(
            HeapEntry, "__init__", counted("entries_built", HeapEntry.__init__)
        ),
        mock.patch.object(algorithm1, "heapq", shim),
    ):
        yield counts


@backends
@pytest.mark.parametrize("n_conjuncts", [0, 1])
@pytest.mark.parametrize("name", ["skyline", "subspace", "dynamic"])
def test_an_expansion_is_one_domination_call_and_one_pass(
    system, backend, name, n_conjuncts
):
    """One ``dominates_block`` call per expansion, and at most one numpy
    pass in it: none while the block loop's comparison budget lasts, one
    over exactly the probes the loop left once it runs out."""
    predicate = predicate_for(system, n_conjuncts)
    with on_kernels(backend), counting_expansions() as counts:
        result = run_query(system, name, predicate)
    stats = result.stats
    assert counts["dominates_block"] == stats.nodes_expanded > 1
    # Buffer × block stays under the one-pass bound on this tree, so every
    # call that has a buffer to test against is the width's loop.
    assert counts["escalated"] == 0 < counts["empty_buffer"]
    # The loop decides each block alone: its budget outlasts blocks of 12.
    assert counts["over_budget"] == counts["passes"] == 0
    if backend == "numpy":
        # Where the budget runs out — here one that a block of four
        # probes overdraws with their charge alone, and that leaves a
        # smaller block a few comparisons — one numpy pass tests the
        # probes the loop left undecided, no more, and the read is the
        # same read.  (The kernel is handed only the children whose held
        # bit is set: at one conjunct, rarely a full block of 12.)
        budget = dominate._PROBE_CHARGE * 4 - 1
        with (
            mock.patch.object(dominate, "_BLOCK_SCAN_BUDGET", budget),
            counting_expansions() as tight,
        ):
            assert result_facts(
                run_query(system, name, predicate)
            ) == result_facts(result)
        assert tight["passes"] == tight["over_budget"] > 0
        assert tight["probes_passed"] == tight["undecided"] > 0
    # A served read builds the root and what it pushes, and leaves what it
    # pruned as masks.
    assert counts["pushes"] > stats.results
    assert counts["entries_built"] == counts["pushes"] + 1
    assert counts["runs_read"] == 0
    # ... and a run's children are the arm's pruned count once read.
    assert len(result.state.d_list) == stats.dominance_pruned > 0


def test_pruned_runs_become_the_oracles_entries_on_the_first_read(system_2k):
    """Iterating a list, or resuming from it, is what turns masks into
    entries — the per-child oracle's entries, in its order."""
    stronger = predicate_for(system_2k, 2)
    dim, value = list(stronger)[-1]
    weaker = stronger.roll_up(dim)
    with per_child_expansion():
        reference = run_query(system_2k, "skyline", weaker)
    with counting_expansions() as counts:
        result = run_query(system_2k, "skyline", weaker)
        assert counts["runs_read"] == 0
        assert flat(result.state.d_list) == flat(reference.state.d_list)
        d_runs = counts["runs_read"]
        assert 0 < d_runs <= result.stats.nodes_expanded
        assert flat(result.state.b_list) == flat(reference.state.b_list)
        assert counts["runs_read"] > d_runs
        list(result.state.d_list), list(result.state.b_list)
        assert counts["runs_read"] <= 2 * result.stats.nodes_expanded
    with counting_expansions() as counts:
        fresh = run_query(system_2k, "skyline", weaker)
        assert counts["runs_read"] == 0
        drilled = system_2k.engine.drill_down(fresh, dim, value)
        assert counts["runs_read"] > 0
    with per_child_expansion():
        assert result_facts(drilled) == result_facts(
            system_2k.engine.drill_down(reference, dim, value)
        )


def test_full_space_skyline_keys_are_kept_on_the_frozen_block():
    """``Σ lows`` is a function of the block: the first skyline on a
    snapshot sums each block it expands once, the second sums nothing,
    through a pinned session or ``system.engine`` alike (one snapshot, one
    frozen tree); a subspace or dynamic skyline's keys are not the
    block's."""
    from repro.query.session import QuerySession

    system = build_sweep_system(1_500, fanout=8, seed=3)
    predicate = predicate_for(system, 1)
    snapshot = system.pin_snapshot()
    try:
        session = QuerySession.for_snapshot(snapshot)
        with counting_expansions() as counts:
            first = session.skyline(predicate)
            assert counts["key_sums"] == first.stats.nodes_expanded > 1
            second = system.engine.skyline(predicate)
            session.skyline(predicate, preference_by=("N1", "N3"))
            session.dynamic_skyline((0.4, 0.6, 0.5), predicate)
            assert counts["key_sums"] == first.stats.nodes_expanded
        assert result_facts(first) == result_facts(second)
    finally:
        system.unpin_snapshot(snapshot)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=11)), st.data())
def test_block_masks_translate_between_indices_and_slots(live_slots, data):
    """``slot_mask`` / ``index_mask`` are inverse on a node with holes and
    the identity on one without; ``all_mask`` has one bit per child."""
    from repro.rtree.node import NodeBlock, RTreeNode

    node = RTreeNode(0, 0, 12, dims=2)
    for s in live_slots:
        node.tids[s] = s
        node.coords[s] = (float(s), 0.0)
    block = NodeBlock(node)
    slots = sorted(live_slots)
    assert block.slots == slots and block.all_mask == (1 << len(slots)) - 1
    assert block.dense == (slots == list(range(len(slots))))
    picked = data.draw(st.sets(st.sampled_from(slots))) if slots else set()
    indices = sum(1 << slots.index(s) for s in picked)
    wanted = sum(1 << s for s in picked)
    assert block.slot_mask(indices) == wanted
    assert block.index_mask(wanted) == indices
    assert block.slot_mask(block.all_mask) == sum(1 << s for s in slots)


# --------------------------------------------------------------------------- #
# what a search builds: heap items until the pop, keys for the held children
# --------------------------------------------------------------------------- #


def test_a_served_topk_makes_entries_only_for_what_it_pops(system_2k):
    """A top-k stops with most of its heap unread: a child is a heap item
    until it is popped, and only the root and the popped children become
    ``HeapEntry`` objects — the rest become entries when ``state.heap`` is
    first read, the oracle's entries, in place."""
    fn = LinearFunction([0.6, 0.2, 0.9])
    with counting_expansions() as counts:
        result = system_2k.engine.topk(fn, 10, BooleanPredicate())
    assert 0 < counts["entries_built"] <= counts["pops"] < counts["pushes"]
    with per_child_expansion():
        reference = system_2k.engine.topk(fn, 10, BooleanPredicate())
    heap = result.state._heap  # the recorded items, unread
    assert all(type(item) is tuple for item in heap)
    with counting_expansions() as read:
        assert flat(result.state.heap) == flat(reference.state.heap)
    assert result.state.heap is heap
    assert read["entries_built"] == len(heap) == counts["pushes"] + 1 - counts["pops"]


class PaddedReader:
    """An exact reader whose held bits are padded up to ``size`` children of
    each node: every bit it adds, ``check_block`` clears again, so a search
    keys and tests for dominance exactly ``size`` children of a node whose
    block has that many."""

    held_is_final = False

    def __init__(self, exact, size):
        self.exact, self.size, self.sizes = exact, size, Counter()

    def held_block(self, parent_path, wanted):
        held = self.exact.check_block(parent_path, wanted)
        extra = wanted & ~held
        while held.bit_count() < self.size and extra:
            low = extra & -extra
            held |= low
            extra ^= low
        self.sizes[held.bit_count()] += 1
        return held

    def check_block(self, parent_path, wanted):
        return self.exact.check_block(parent_path, wanted)

    def check_entry(self, parent_path, position):
        return self.exact.check_entry(parent_path, position)

    def check_path(self, path):
        return self.exact.check_path(path)


@pytest.fixture(scope="module")
def wide_system():
    """Nodes of up to 24 children: held masks on both sides of the kernels'
    loop bound fit in one block."""
    return build_sweep_system(3_000, fanout=24, cardinality=6, seed=41)


def _strategy(name, dims=3):
    kind, kwargs = QUERIES[name]
    if kind == "topk":
        return TopKStrategy(kwargs["fn"], kwargs["k"])
    if kind == "dynamic_skyline":
        return DynamicSkylineStrategy(kwargs["query_point"])
    subspace = None
    if "preference_by" in kwargs:
        subspace = tuple(int(dim[1:]) - 1 for dim in kwargs["preference_by"])
    return SkylineStrategy(dims, subspace)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_held_masks_either_side_of_the_loop_bound_match_the_oracle(
    wide_system, name, offset
):
    """Held masks of the kernels' loop bound ± 1 children: the keys, ties
    and probes of a loop-sized block and of a numpy-sized one give the
    per-child oracle's search — answers, counters, lists and heap."""
    from repro.kernels import mindist

    size = mindist._LOOP_ROWS + offset
    system = wide_system
    (cell,) = predicate_for(system, 1).atomic_cells()
    exact = SignatureAdapter(system.pcube.store.load_full_signature(cell))

    def search(runner):
        reader = PaddedReader(exact, size)
        stats = QueryStats()
        pool = BufferPool(system.engine.rtree.disk, capacity=4096)
        state = runner(
            system.engine.rtree, _strategy(name), stats, reader=reader, pool=pool
        )
        return reader, stats, state

    reader, stats, state = search(run_algorithm1)
    _, ref_stats, ref_state = search(reference_algorithm1)
    assert reader.sizes[size] > 0
    assert stats_facts(stats) == stats_facts(ref_stats)
    assert state_facts(state) == state_facts(ref_state)


@pytest.mark.parametrize("name", ["skyline", "topk-linear", "topk-wsd"])
def test_follow_ups_of_an_unread_result_match_the_eager_oracle(system_2k, name):
    """A drill-down and a roll-up resumed from results whose heap and lists
    nothing has read — items and runs until the resume reads them — rebuild
    what the oracle's eager entries rebuild."""
    stronger = predicate_for(system_2k, 2)
    dim, value = list(stronger)[-1]
    weaker = stronger.roll_up(dim)
    engine = system_2k.engine
    with counting_expansions() as counts:
        coarse = run_query(system_2k, name, weaker)
        fine = run_query(system_2k, name, stronger)
    assert counts["runs_read"] == 0 and counts["entries_built"] <= counts["pops"]
    for state in (coarse.state, fine.state):  # recorded, and still unread
        assert all(type(item) is tuple for item in state._heap)
        assert any(type(item) is tuple for item in state._b_list + state._d_list)
    got = (
        result_facts(engine.drill_down(coarse, dim, value)),
        result_facts(engine.roll_up(fine, dim)),
    )
    with per_child_expansion():
        want = (
            result_facts(
                engine.drill_down(run_query(system_2k, name, weaker), dim, value)
            ),
            result_facts(engine.roll_up(run_query(system_2k, name, stronger), dim)),
        )
    assert got == want
