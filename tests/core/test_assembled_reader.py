"""The on-demand intersection (``AssembledReader``) against its oracles.

Paper Fig. 3: a bit of an assembled signature survives iff it is set in
every input *and* the intersection below it is non-empty.  The reader
evaluates that per query over the stored partials; here it must agree bit
for bit with :func:`repro.core.ops.intersect_all` run on the full
signatures, stay under the plain AND, decode no node twice, and keep every
answer under an unreadable partial — over deep trees (tiny fanouts),
multi-partial cells (small pages) and 2–4 conjuncts.
"""

import random
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.baselines.naive import naive_skyline
from repro.core import readers as readers_module
from repro.core.ops import intersect_all
from repro.core.readers import (
    AssembledReader,
    CellSignatureReader,
    EmptyReader,
    SignatureAdapter,
)
from repro.core.sid import sid_of_path
from tests.reference import path_of_sid
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.data.workload import sample_predicate
from repro.query.algorithm1 import SkylineStrategy, TopKStrategy, run_algorithm1
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import LinearFunction
from repro.query.stats import QueryStats
from repro.storage.buffer import BufferPool
from repro.storage.counters import DBOOL
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, FaultRule, FaultyDisk
from repro.system import build_system

#: (fanout, page size): trees 4–8 levels deep, 2–40 partials per cell.
SHAPES = [(2, 48), (3, 64), (4, 128), (4, 4096)]


def build(fanout, page_size, seed, faulty=False):
    disk = SimulatedDisk(page_size=page_size)
    if faulty:
        disk = FaultyDisk(disk)
    relation = generate_relation(
        SyntheticConfig(
            n_tuples=260, n_boolean=4, cardinality=3, n_preference=2, seed=seed
        ),
        disk=disk,
    )
    return build_system(relation, fanout=fanout)


def predicates(system, rng):
    """Per conjunct count 2..4: one predicate anchored at a tuple and one
    with independently drawn values (often an empty conjunction of
    non-empty cells — every inner bit of the plain AND is then false)."""
    dims = system.relation.schema.boolean_dims
    for n_conjuncts in (2, 3, 4):
        yield sample_predicate(system.relation, n_conjuncts, rng)
        yield BooleanPredicate(
            {dim: rng.randrange(3) for dim in rng.sample(dims, n_conjuncts)}
        )


def node_paths(system):
    return sorted(
        {
            path[:depth]
            for path in system.rtree.all_paths().values()
            for depth in range(len(path))
        }
    )


def member_readers(system, cells, pool=None, stats=None):
    if stats is None:
        stats = QueryStats()
    return [
        CellSignatureReader(
            system.pcube.store,
            cell,
            pool,
            stats,
            fallback=system.engine.pcube.boolean_fallback,
        )
        for cell in cells
    ]


def plain_and(system, cells, pool=None, stats=None):
    """The plain AND is the assembled reader told that every level is the
    leaf level: no bit is looked below."""
    return AssembledReader(member_readers(system, cells, pool, stats), 0)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("fanout, page_size", SHAPES)
def test_every_bit_equals_the_recursive_intersection(fanout, page_size, seed):
    system = build(fanout, page_size, seed)
    rng = random.Random(seed)
    full = (1 << fanout) - 1
    paths = node_paths(system)
    assert system.rtree.root.level >= 3
    compared = 0
    for predicate in predicates(system, rng):
        cells = predicate.atomic_cells()
        signatures = [
            system.pcube.store.load_full_signature(cell) for cell in cells
        ]
        oracle = SignatureAdapter(intersect_all(signatures))
        plain = plain_and(system, cells)
        # Three fresh readers, asked in three orders: the memo must not
        # depend on what was asked first.
        block_stats = QueryStats()
        by_block = system.engine.pcube.reader_for_cells(cells, stats=block_stats)
        by_entry = system.engine.pcube.reader_for_cells(cells)
        by_path = system.engine.pcube.reader_for_cells(cells)
        assert type(by_block) is AssembledReader
        assert by_block.leaf_depth == system.rtree.root.level
        assert by_path.check_path(()) == oracle.check_path(())
        for path in rng.sample(paths, len(paths)):
            exact = oracle.check_block(path, full)
            assert by_block.check_block(path, full) == exact
            assert exact & ~plain.check_block(path, full) == 0
            wanted = rng.getrandbits(fanout)
            assert by_block.check_block(path, wanted) == wanted & exact
            for position in range(1, fanout + 1):
                bit = bool(exact >> (position - 1) & 1)
                assert by_entry.check_entry(path, position) == bit
                assert by_path.check_path(path + (position,)) == bit
            compared += 1
        assert not block_stats.degraded and block_stats.degraded_checks == 0
    assert compared == 6 * len(paths)


@contextmanager
def counting_decodes():
    decoded = []
    real = readers_module.decompress

    def decompress(nbits, blob):
        decoded.append(blob)
        return real(nbits, blob)

    with mock.patch.object(readers_module, "decompress", decompress):
        yield decoded


def _search(system, reader, strategy, pool, stats):
    return run_algorithm1(
        system.engine.rtree, strategy, stats, reader=reader, pool=pool
    )


@pytest.mark.parametrize("fanout, page_size", SHAPES)
def test_look_ahead_decodes_each_node_once_and_only_where_the_plain_and_reads(
    fanout, page_size
):
    """Cost bound: at most one decode per node of each member cell per
    query, and — with the preference arm switched off (a top-k that never
    fills) — every node the exact search touches is one whose *block* the
    plain AND's search reads."""
    system = build(fanout, page_size, seed=3)
    rng = random.Random(3)
    never_prunes = LinearFunction([1.0, 1.0])
    for predicate in predicates(system, rng):
        cells = predicate.atomic_cells()
        sizes = [
            len(list(system.pcube.store.load_full_signature(cell).masks()))
            for cell in cells
        ]
        runs = {}
        for name in ("exact", "plain"):
            stats = QueryStats()
            pool = BufferPool(system.rtree.disk, capacity=4096)
            reader = (
                system.engine.pcube.reader_for_cells(cells, pool, stats)
                if name == "exact"
                else plain_and(system, cells, pool, stats)
            )
            with counting_decodes() as decoded:
                state = _search(
                    system, reader, TopKStrategy(never_prunes, 10**9), pool, stats
                )
            runs[name] = (reader, stats, state, len(decoded))
        (exact, stats, state, decodes), (plain, plain_stats, plain_state, _) = (
            runs["exact"],
            runs["plain"],
        )
        assert [e.tid for e in state.results] == [
            e.tid for e in plain_state.results
        ]
        assert decodes == sum(len(r._nodes) for r in exact.readers)
        for member, plain_member, n_nodes in zip(
            exact.readers, plain.readers, sizes
        ):
            assert len(member._nodes) <= n_nodes
            assert set(member._nodes) <= set(plain_member._nodes)
            assert member._loaded_refs <= plain_member._loaded_refs
        assert stats.sblock <= plain_stats.sblock
        assert stats.sblock + stats.ssig <= plain_stats.sblock + plain_stats.ssig
        # Lemma 1 on the serving reader: every expanded node holds an answer
        # tuple's ancestor — one block per distinct node on the result paths.
        wanted_nodes = {
            e.path[:depth] for e in state.results for depth in range(len(e.path))
        }
        assert stats.nodes_expanded == len(wanted_nodes)


@pytest.mark.parametrize("fanout, page_size", SHAPES[:3])
def test_every_partial_load_is_counted_once_with_its_cause(fanout, page_size):
    """On multi-partial cells, the query record counts each partial load
    once — with no pool, exactly the reader's ``SSIG`` page reads — and
    counts as look-ahead exactly the loads issued inside ``_nonempty``: a
    non-zero share of a two-cell conjunction's loads."""
    system = build(fanout, page_size, seed=3)
    rng = random.Random(3)
    for _ in range(3):
        predicate = sample_predicate(system.relation, 2, rng)
        stats = QueryStats()
        pool = BufferPool(system.rtree.disk, capacity=4096)
        with watching_look_ahead() as (loads, _):
            reader = system.engine.pcube.reader_for_predicate(
                predicate.conjuncts, stats=stats  # no pool: every load reads
            )
            _search(system, reader, SkylineStrategy(2), pool, stats)
        assert len(reader.readers) == 2
        assert stats.sig_loads == stats.ssig == len(loads)
        assert stats.sig_lookahead_loads == sum(
            looking for *_, looking in loads
        )
        assert 0 < stats.sig_lookahead_loads < stats.sig_loads


#: Per shape, per predicate of ``predicates(build(*shape, seed=3),
#: Random(3))``: ``(sig_loads, sig_lookahead_loads)`` of its skyline, then of
#: its top-5 under ``TOP5`` — first recorded while the look-ahead still
#: walked node paths, so walking SIDs issues the very same loads with the
#: same causes; re-recorded when node blobs lost their width (denser pages,
#: fewer loads at the small page sizes).
RECORDED_LOADS = {
    (2, 48): [
        (36, 34, 36, 34), (23, 21, 35, 33), (56, 53, 56, 53),
        (51, 48, 58, 55), (47, 43, 66, 62), (66, 62, 66, 62),
    ],
    (3, 64): [
        (12, 10, 14, 12), (13, 11, 15, 13), (22, 19, 22, 19),
        (21, 18, 21, 18), (23, 19, 27, 23), (23, 19, 29, 25),
    ],
    (4, 128): [
        (6, 4, 6, 4), (6, 4, 6, 4), (9, 6, 9, 6),
        (9, 6, 9, 6), (11, 7, 11, 7), (12, 8, 12, 8),
    ],
    (4, 4096): [
        (2, 0, 2, 0), (2, 0, 2, 0), (3, 0, 3, 0),
        (3, 0, 3, 0), (4, 0, 4, 0), (4, 0, 4, 0),
    ],
}
TOP5 = LinearFunction([1.0, 2.0])


class Asked:
    """What an ``AssembledReader`` asked its members: every (member, SID)
    it read through ``resident_mask`` (its one question; ``check_sid``
    follows only a ``None``), those that answered ``None``, the
    ``check_sid`` calls, and every ``sid_of_path`` call made inside its
    look-ahead."""

    def __init__(self):
        self.asked = []
        self.not_resident = []
        self.check_sid = []
        self.converted = []


@contextmanager
def asking_members():
    got = Asked()
    depth = [0]
    in_mask, in_check_sid = [0], [0]
    real_mask = AssembledReader._mask
    real_resident_mask = CellSignatureReader.resident_mask
    real_check_sid = CellSignatureReader.check_sid
    real_nonempty = AssembledReader._nonempty
    real_sid_of_path = readers_module.sid_of_path

    def mask(self, sid, lookahead=False, held=False):
        in_mask[0] += 1
        try:
            return real_mask(self, sid, lookahead, held)
        finally:
            in_mask[0] -= 1

    def resident_mask(self, sid):
        bits = real_resident_mask(self, sid)
        if in_mask[0] and not in_check_sid[0]:
            got.asked.append((self, sid))
            if bits is None:
                got.not_resident.append((self, sid))
        return bits

    def check_sid(self, sid, wanted, lookahead=False):
        got.check_sid.append((self, sid))
        in_check_sid[0] += 1
        try:
            return real_check_sid(self, sid, wanted, lookahead)
        finally:
            in_check_sid[0] -= 1

    def nonempty(self, sid, node_depth):
        depth[0] += 1
        try:
            return real_nonempty(self, sid, node_depth)
        finally:
            depth[0] -= 1

    def sid_of_path(path, fanout):
        if depth[0]:
            got.converted.append(tuple(path))
        return real_sid_of_path(path, fanout)

    with (
        mock.patch.object(AssembledReader, "_mask", mask),
        mock.patch.object(CellSignatureReader, "resident_mask", resident_mask),
        mock.patch.object(CellSignatureReader, "check_sid", check_sid),
        mock.patch.object(AssembledReader, "_nonempty", nonempty),
        mock.patch.object(readers_module, "sid_of_path", sid_of_path),
    ):
        yield got


@pytest.mark.parametrize("fanout, page_size", SHAPES)
def test_the_sid_walk_asks_each_member_each_node_once_and_loads_as_recorded(
    fanout, page_size
):
    system = build(fanout, page_size, seed=3)
    rng = random.Random(3)
    loads, resident_reads = [], 0
    for predicate in predicates(system, rng):
        row = ()
        for run in (
            lambda: system.engine.skyline(predicate),
            lambda: system.engine.topk(TOP5, 5, predicate),
        ):
            with asking_members() as got:
                stats = run().stats
            assert len(set(got.asked)) == len(got.asked) > 0
            assert got.converted == []
            # A resident node is read from its decoded mask: ``check_sid``
            # (residency probe, loads) is asked only about the others.
            assert got.check_sid == got.not_resident
            resident_reads += len(got.asked) - len(got.not_resident)
            row += (stats.sig_loads, stats.sig_lookahead_loads)
        loads.append(row)
    assert loads == RECORDED_LOADS[(fanout, page_size)]
    assert resident_reads > 0


@pytest.mark.parametrize("fanout, page_size", SHAPES[:3])
def test_a_held_walk_that_stops_hands_on_to_the_next_walk(fanout, page_size):
    """``held_block`` loads nothing and answers ``None`` on a node that a
    member does not hold yet; the ``check_block`` after it goes on from
    that member, so no member is asked about the node twice, and it
    answers and loads what a reader never asked ``held_block`` does."""
    system = build(fanout, page_size, seed=3)
    rng = random.Random(3)
    full = (1 << fanout) - 1
    paths = node_paths(system)
    stopped = 0
    for predicate in predicates(system, rng):
        cells = predicate.atomic_cells()
        for path in rng.sample(paths, 40):
            stats, twin_stats = QueryStats(), QueryStats()
            reader = system.engine.pcube.reader_for_cells(cells, stats=stats)
            twin = system.engine.pcube.reader_for_cells(cells, stats=twin_stats)
            loaded = stats.sig_loads
            with asking_members() as got:
                held = reader.held_block(path, full)
                assert stats.sig_loads == loaded
                passed = reader.check_block(path, full)
            assert len(set(got.asked)) == len(got.asked) > 0
            assert passed == twin.check_block(path, full)
            assert (stats.sig_loads, stats.sig_lookahead_loads) == (
                twin_stats.sig_loads,
                twin_stats.sig_lookahead_loads,
            )
            if held is None:
                stopped += 1
            else:
                assert passed & ~held == 0
    assert stopped > 0


def truth(system, predicate):
    relation = system.relation
    return set(
        naive_skyline(
            [
                (tid, relation.pref_point(tid))
                for tid in relation.tids()
                if predicate.matches(relation, tid)
            ]
        )
    )


@contextmanager
def watching_look_ahead():
    """Record, per partial load and per conservative answer, whether it
    happened inside ``AssembledReader._nonempty`` (the look-ahead)."""
    depth = [0]
    loads, conservative = [], []
    real_nonempty = AssembledReader._nonempty
    real_load = CellSignatureReader._load_ref
    real_conservative = CellSignatureReader._conservative

    def nonempty(self, sid, node_depth):
        depth[0] += 1
        try:
            return real_nonempty(self, sid, node_depth)
        finally:
            depth[0] -= 1

    def load_ref(self, ref_sid, lookahead=False):
        # The cause the reader counts is the call stack's.
        assert lookahead == (depth[0] > 0)
        new = ref_sid not in self._loaded_refs | self._unreadable_refs
        outcome = real_load(self, ref_sid, lookahead)
        if new and outcome is not False:
            loads.append((self.cell, ref_sid, depth[0] > 0))
        return outcome

    def conservatively(self, path):
        conservative.append(depth[0] > 0)
        return real_conservative(self, path)

    with (
        mock.patch.object(AssembledReader, "_nonempty", nonempty),
        mock.patch.object(CellSignatureReader, "_load_ref", load_ref),
        mock.patch.object(CellSignatureReader, "_conservative", conservatively),
    ):
        yield loads, conservative


@pytest.mark.faults
@pytest.mark.parametrize("n_conjuncts", [2, 3])
@pytest.mark.parametrize("fanout, page_size", SHAPES[:3])
def test_partial_lost_under_look_ahead_costs_pruning_not_answers(
    fanout, page_size, n_conjuncts
):
    """Corrupt, one at a time, partials whose first load of the query is
    issued by the look-ahead: the node counts as non-empty there (no
    fallback probe, no ``degraded_checks``), the search meets the lost
    nodes on the members' conservative path when it expands them, and the
    skyline is the naive one."""
    system = build(fanout, page_size, seed=5, faulty=True)
    disk = system.rtree.disk
    rng = random.Random(5)
    exercised = 0
    for _ in range(4):
        predicate = sample_predicate(system.relation, n_conjuncts, rng)
        expected = truth(system, predicate)
        with watching_look_ahead() as (loads, _):
            clean = system.engine.skyline(predicate)
        assert set(clean.tids) == expected
        by_look_ahead = [
            (cell, ref) for cell, ref, looking in loads if looking and ref
        ]
        for cell, ref in by_look_ahead[:3]:
            page_id = system.pcube.store.directory_snapshot()[cell.cell_id][ref]
            disk.plan = FaultPlan(
                [FaultRule(kind="transient", page_id=page_id, count=None)]
            )
            with watching_look_ahead() as (loads, conservative):
                degraded = system.engine.skyline(predicate)
            disk.plan = FaultPlan()
            lost = [(c, r, looking) for c, r, looking in loads if (c, r) == (cell, ref)]
            assert lost == [(cell, ref, True)]
            assert set(degraded.tids) == expected
            assert degraded.stats.failed_loads == 1 and degraded.stats.degraded
            assert degraded.stats.tier == "conservative"
            # Every conservative answer was asked for by the search itself.
            assert conservative.count(True) == 0
            assert degraded.stats.degraded_checks == len(conservative)
            assert degraded.stats.sblock >= clean.stats.sblock
            system.pcube.store.clear_quarantine(cell)
            exercised += 1
    assert exercised >= 3


@pytest.mark.faults
def test_unresolvable_node_counts_as_non_empty_without_a_probe():
    """Reader level: the look-ahead below a readable node runs into a lost
    partial — the bit stays set, nothing is counted as a degraded check and
    the base relation is not probed; asking for the lost node itself is
    what takes the conservative path."""
    fanout = 3
    system = build(fanout, 64, seed=5, faulty=True)
    disk, store = system.rtree.disk, system.pcube.store
    predicate = sample_predicate(system.relation, 2, random.Random(1))
    cells = predicate.atomic_cells()
    other = store.load_full_signature(cells[1])
    # A node of the first cell that sits on another page than its parent,
    # under a bit the second cell has set too.
    pages = {
        ref: set(disk.peek(page_id).payload.blobs)
        for ref, page_id in store.directory_snapshot()[cells[0].cell_id].items()
    }
    lost_ref, lost_path = next(
        (ref, path)
        for ref, sids in sorted(pages.items())
        for path in (path_of_sid(sid, fanout) for sid in sorted(sids))
        if path
        and sid_of_path(path[:-1], fanout) not in sids
        and other.check_path(path)
    )
    disk.plan = FaultPlan(
        [
            FaultRule(
                kind="corrupt",
                page_id=store.directory_snapshot()[cells[0].cell_id][lost_ref],
                count=1,
            )
        ]
    )
    stats = QueryStats()
    reader = system.engine.pcube.reader_for_cells(cells, stats=stats)
    bit = 1 << (lost_path[-1] - 1)
    assert reader.check_block(lost_path[:-1], bit) == bit
    assert stats.failed_loads == 1 and stats.degraded
    assert stats.degraded_checks == 0 and stats.counters.get(DBOOL) == 0
    assert reader.check_block(lost_path, (1 << fanout) - 1) is None
    assert stats.degraded_checks == 0
    reader.check_entry(lost_path, 1)
    assert stats.degraded_checks == 1


def test_empty_cell_short_circuits_to_the_empty_reader():
    system = build(4, 4096, seed=1)
    reader = system.engine.pcube.reader_for_predicate({"A1": 0, "A2": 99})
    assert isinstance(reader, EmptyReader)


def test_skylines_on_every_shape_match_naive_and_the_oracle():
    """Query level: the serving path reads exactly the blocks a search on
    the materialised ``intersect_all`` signature reads."""
    for fanout, page_size in SHAPES:
        system = build(fanout, page_size, seed=7)
        rng = random.Random(7)
        for predicate in predicates(system, rng):
            result = system.engine.skyline(predicate)
            assert set(result.tids) == truth(system, predicate)
            signatures = [
                system.pcube.store.load_full_signature(cell)
                for cell in predicate.atomic_cells()
            ]
            stats = QueryStats()
            pool = BufferPool(system.rtree.disk, capacity=4096)
            state = _search(
                system,
                SignatureAdapter(intersect_all(signatures)),
                SkylineStrategy(2),
                pool,
                stats,
            )
            assert [e.tid for e in state.results] == result.tids
            assert result.stats.sblock == stats.sblock
            assert result.stats.nodes_expanded == stats.nodes_expanded
            assert result.stats.peak_heap == stats.peak_heap
