"""The signature store and its per-cell readers."""

from dataclasses import replace

import pytest

from repro.bitmap.compression import CodecError, compress
from repro.core import partial as partial_module
from repro.core import readers as readers_module
from repro.core import store as store_module
from repro.core.partial import PartialSignature, decompose
from repro.core.readers import AssembledReader
from repro.core.signature import Signature
from repro.core.store import MissingPartialError, SignatureStore
from repro.cube.cuboid import Cell
from repro.query.stats import QueryStats
from repro.storage.buffer import BufferPool
from repro.storage.counters import SSIG
from repro.storage.disk import SimulatedDisk
from repro.storage.errors import TornWriteError
from repro.storage.faults import (
    FaultPlan,
    FaultRule,
    FaultyDisk,
    SimulatedCrash,
)
from tests.reference import ancestor_sids, path_of_sid, tuple_paths

FANOUT = 4
CELL = Cell(("A",), ("a1",))
OTHER = Cell(("A",), ("a2",))


@pytest.fixture
def disk():
    # Tiny pages force multi-partial decomposition.
    return SimulatedDisk(page_size=48)


@pytest.fixture
def store(disk):
    return SignatureStore(disk, fanout=FANOUT, codec="raw")


WIDE_PATHS = [(a, b, c) for a in (1, 2, 3) for b in (1, 2) for c in (1, 2)]


def wide_signature():
    return Signature.from_paths(WIDE_PATHS, FANOUT)


def test_put_and_full_reload(store):
    signature = wide_signature()
    n_partials = store.put_signature(CELL, signature)
    assert n_partials > 1
    assert store.has_cell(CELL)
    assert store.n_partials(CELL) == n_partials
    assert store.load_full_signature(CELL) == signature


@pytest.mark.parametrize("nbits, mask", [(FANOUT + 1, 1 << FANOUT), (FANOUT - 1, 0b101)])
def test_a_node_decoded_at_another_width_is_refused(store, nbits, mask):
    """A stored blob whose width is not the fanout is refused on reload,
    whether its mask fits the fanout or not."""
    store.replace_partials(
        CELL, [PartialSignature(ref_sid=0, blobs={0: compress(nbits, mask)})]
    )
    with pytest.raises(ValueError, match="bits wide, fanout is"):
        store.load_full_signature(CELL)


def test_an_empty_rewrite_drops_the_cell(store, disk):
    """A rewrite that leaves no node stores no partial: the cell leaves
    the directory and its pages are freed, as a build leaves it absent."""
    store.put_signature(CELL, wide_signature())
    store.put_signature(CELL, removed=WIDE_PATHS)
    assert not store.has_cell(CELL) and store.cells() == []
    assert list(disk.pages("pcube:sig")) == []


def test_missing_cell(store):
    assert not store.has_cell(OTHER)
    assert store.load_partial(OTHER, 0) is None
    assert store.load_full_signature(OTHER) == Signature(FANOUT)


def test_loads_are_counted(store, disk):
    store.put_signature(CELL, wide_signature())
    stats = QueryStats()
    store.load_full_signature(CELL, stats=stats)
    assert stats.ssig == store.n_partials(CELL)


def test_replace_frees_old_pages(store, disk):
    store.put_signature(CELL, wide_signature())
    before = len(list(disk.pages("pcube:sig")))
    store.put_signature(CELL, Signature.from_paths([(1, 1)], FANOUT))
    after = len(list(disk.pages("pcube:sig")))
    assert after < before
    assert store.load_full_signature(CELL) == Signature.from_paths(
        [(1, 1)], FANOUT
    )


def test_reader_loads_root_partial_up_front(store):
    store.put_signature(CELL, wide_signature())
    stats = QueryStats()
    store.reader(CELL, stats=stats)
    assert stats.ssig == stats.sig_loads == 1


def test_reader_checks_without_extra_loads_when_resident(store):
    signature = Signature.from_paths([(1, 2)], FANOUT)
    store.put_signature(CELL, signature)  # fits one partial
    stats = QueryStats()
    reader = store.reader(CELL, stats=stats)
    assert reader.check_entry((), 1)
    assert not reader.check_entry((), 3)
    assert reader.check_entry((1,), 2)
    assert stats.ssig == 1  # still just the root partial


def test_reader_lazy_loading_on_demand(store):
    signature = wide_signature()
    store.put_signature(CELL, signature)
    stats = QueryStats()
    reader = store.reader(CELL, stats=stats)
    loads_before = stats.sig_loads
    # Probe a deep entry that is not in the first partial.
    for path in tuple_paths(signature):
        reader.check_path(path)
    assert stats.sig_loads > loads_before
    assert stats.sig_loads <= store.n_partials(CELL)
    assert stats.ssig == stats.sig_loads
    assert stats.sig_lookahead_loads == 0  # no assembled reader asked


def count_decompressions(monkeypatch):
    decoded = []
    real = readers_module.decompress

    def counting(blob):
        decoded.append(blob)
        return real(blob)

    monkeypatch.setattr(readers_module, "decompress", counting)
    return decoded


def test_reader_decodes_a_node_on_its_first_bit_test_only(store, monkeypatch):
    """Loading a partial decodes nothing; each SID is decompressed once,
    by the first bit test that touches it, whichever form the test takes."""
    store.put_signature(CELL, wide_signature())
    decoded = count_decompressions(monkeypatch)
    reader = store.reader(CELL)
    assert reader.stats.sig_loads == 1 and decoded == []
    assert reader.check_entry((), 1)
    assert len(decoded) == 1
    assert reader.check_block((), 0b1111) == 0b0111
    assert reader.check_path(()) and not reader.check_path((4,))
    assert len(decoded) == 1  # the root node, every time
    assert reader.check_path((1, 1, 1))  # asks node (1, 1) for its bit 1
    assert reader.check_block((1, 1), 0b1111) == 0b0011
    assert sorted(reader._nodes) == sorted(
        sid for sid in reader._blobs if path_of_sid(sid, FANOUT) in ((), (1, 1))
    )
    assert len(decoded) == len(reader._nodes) == 2 < len(reader._blobs)
    # Absent nodes answer from residency alone.
    assert not reader.check_entry((4,), 1)
    assert len(decoded) == 2


def test_reader_meets_an_undecodable_blob_at_its_first_touch(store, disk):
    """A blob that does not decode (page re-sealed: the checksum passes)
    neither fails the load nor degrades the reader; the first bit test on
    that SID raises, tests on other nodes answer, the eager reassembly
    raises as it always did."""
    signature = wide_signature()
    store.put_signature(CELL, signature)
    page = disk.peek(store.directory_snapshot()[CELL.cell_id][0])
    sid = max(page.payload.blobs)
    assert sid != 0
    damaged = {**page.payload.blobs, sid: b"\xff\x00\xff"}
    page.payload = replace(page.payload, blobs=damaged)
    page.seal()
    reader = store.reader(CELL)
    assert reader.stats.sig_loads == 1 and not reader.stats.degraded
    assert reader.check_entry((), 1) == signature.check_path((1,))
    with pytest.raises(CodecError):
        reader.check_entry(path_of_sid(sid, FANOUT), 1)
    with pytest.raises(CodecError):
        reader.check_block(path_of_sid(sid, FANOUT), 0b1)
    assert not reader.stats.degraded and CELL not in store.quarantined_cells()
    with pytest.raises(CodecError):
        store.load_full_signature(CELL)


def test_one_partial_loader_serves_the_store_and_its_views(store):
    """``load_partial`` stays defined on both classes (the e2e span
    recorder wraps them through ``cls.__dict__``) and is the same loader."""
    assert (
        vars(SignatureStore)["load_partial"]
        is vars(store_module.StoreView)["load_partial"]
    )
    store.put_signature(CELL, wide_signature())
    view = store.view(store.directory_snapshot())
    deferred = []
    store.free_hook = deferred.append  # what the epoch manager does
    store.put_signature(CELL, Signature.from_paths([(1, 1)], FANOUT))
    assert len(deferred) == view.n_partials(CELL)
    # The view still resolves the partials of the directory it was given.
    assert view.n_partials(CELL) > store.n_partials(CELL) == 1
    stats = QueryStats()
    assert view.load_full_signature(CELL, stats=stats) == wide_signature()
    assert stats.ssig == view.n_partials(CELL)
    assert view.load_partial(OTHER, 0) is None
    assert view.reader(CELL).check_path((3, 2, 2))


def test_reader_results_match_signature(store):
    signature = wide_signature()
    store.put_signature(CELL, signature)
    reader = store.reader(CELL)
    for a in range(1, FANOUT + 1):
        for b in range(1, FANOUT + 1):
            for c in range(1, FANOUT + 1):
                assert reader.check_path((a, b, c)) == signature.check_path(
                    (a, b, c)
                )


def test_reader_through_buffer_pool(store, disk):
    store.put_signature(CELL, wide_signature())
    pool = BufferPool(disk, capacity=64)
    stats = QueryStats()
    reader = store.reader(CELL, pool=pool, stats=stats)
    reader.check_path((1, 1, 1))
    first = stats.ssig
    # A second reader over the same pool hits the cache.
    stats2 = QueryStats()
    reader2 = store.reader(CELL, pool=pool, stats=stats2)
    reader2.check_path((1, 1, 1))
    assert stats2.ssig < first or first == 1


def test_reader_empty_path_means_nonempty_cell(store):
    store.put_signature(CELL, Signature.from_paths([(2, 2)], FANOUT))
    reader = store.reader(CELL)
    assert reader.check_path(())
    empty_reader = store.reader(OTHER)
    assert not empty_reader.check_path(())


def test_reader_load_seconds_accumulates(store):
    store.put_signature(CELL, wide_signature())
    reader = store.reader(CELL)
    for path in tuple_paths(wide_signature()):
        reader.check_path(path)
    assert reader.stats.sig_load_seconds >= 0.0
    assert reader.stats.sig_loads >= 1


def test_assembled_reader_conjunction(store):
    sig_a = Signature.from_paths([(1, 1), (2, 2)], FANOUT)
    sig_b = Signature.from_paths([(1, 1), (3, 3)], FANOUT)
    store.put_signature(CELL, sig_a)
    store.put_signature(OTHER, sig_b)
    stats = QueryStats()
    reader = AssembledReader(
        [store.reader(CELL, stats=stats), store.reader(OTHER, stats=stats)], 1
    )
    assert reader.check_path((1, 1))
    assert not reader.check_path((2, 2))
    assert not reader.check_path((3, 3))
    assert stats.sig_loads >= 2
    # Both cells have data under nodes 1..3 of the root; only node 1 holds a
    # tuple of both (paper Fig. 3: the other bits are cleared).
    assert reader.check_block((), 0b1111) == 0b0001
    assert [reader.check_entry((), p) for p in (1, 2, 3, 4)] == [
        True, False, False, False
    ]


def test_assembled_reader_requires_readers():
    with pytest.raises(ValueError):
        AssembledReader([], 1)


def test_missing_partial_is_a_typed_error(store, monkeypatch):
    store.put_signature(CELL, wide_signature())
    monkeypatch.setattr(store, "load_partial", lambda *a, **k: None)
    with pytest.raises(MissingPartialError) as excinfo:
        store.load_full_signature(CELL)
    assert excinfo.value.cell_id == CELL.cell_id


def test_quarantine_is_listed_counted_once_and_lifted(store):
    """The store's half of the contract; the rebuild itself is
    ``PCube.rebuild_cell`` (``tests/core/test_pcube.py``)."""
    signature = wide_signature()
    store.put_signature(CELL, signature)
    store.quarantine(CELL, "corrupt page")
    assert CELL in store.quarantined_cells()
    assert store.quarantined_cells() == [CELL]
    assert store.fault_stats.quarantines == 1
    store.quarantine(CELL, "again")  # re-quarantining is not double-counted
    assert store.fault_stats.quarantines == 1
    store.clear_quarantine(CELL)
    store.clear_quarantine(CELL)  # lifting twice is harmless
    assert CELL not in store.quarantined_cells()
    assert store.load_full_signature(CELL) == signature


def test_load_partial_retries_transient_faults():
    disk = FaultyDisk(SimulatedDisk(page_size=48))
    store = SignatureStore(disk, fanout=FANOUT, codec="raw")
    signature = wide_signature()
    store.put_signature(CELL, signature)
    disk.plan = FaultPlan([FaultRule(kind="transient", count=2)])
    stats = QueryStats()
    assert store.load_full_signature(CELL, stats=stats) == signature
    assert store.fault_stats.retries == stats.fault_retries == 2
    assert store.fault_stats.transient_errors == 0  # none outlived retries


def test_torn_rewrite_leaves_old_partials_readable():
    disk = FaultyDisk(SimulatedDisk(page_size=48))
    store = SignatureStore(disk, fanout=FANOUT, codec="raw")
    old = wide_signature()
    store.put_signature(CELL, old)
    pages_before = len(list(disk.pages("pcube:sig")))
    # First new-generation page lands, the second allocation tears.
    disk.plan = FaultPlan(
        [FaultRule(kind="torn", op="allocate", tag="pcube:sig", after=1, count=1)]
    )
    with pytest.raises(TornWriteError):
        store.put_signature(CELL, old)
    assert store.load_full_signature(CELL) == old  # old generation intact
    # The page that landed before the tear is freed at once: no orphan.
    assert len(list(disk.pages("pcube:sig"))) == pages_before
    assert store.orphan_pages() == []
    replacement = Signature.from_paths([(2, 2)], FANOUT)
    store.put_signature(CELL, replacement)
    assert store.load_full_signature(CELL) == replacement


def test_reader_degrades_on_corrupt_partial():
    disk = FaultyDisk(SimulatedDisk(page_size=48))
    store = SignatureStore(disk, fanout=FANOUT, codec="raw")
    store.put_signature(CELL, Signature.from_paths([(1, 2)], FANOUT))
    disk.plan = FaultPlan([FaultRule(kind="corrupt", tag="pcube:sig", count=1)])
    stats = QueryStats()
    reader = store.reader(CELL, stats=stats)
    assert stats.degraded
    assert stats.failed_loads == 1
    assert CELL in store.quarantined_cells()
    # Conservative mode: unresolvable bit tests answer True — pruning is
    # lost, correctness is not.
    assert reader.check_entry((), 1)
    assert reader.check_entry((), 3)
    assert stats.degraded_checks == 2


def test_reader_degraded_mode_uses_exact_fallback():
    disk = FaultyDisk(SimulatedDisk(page_size=48))
    store = SignatureStore(disk, fanout=FANOUT, codec="raw")
    store.put_signature(CELL, Signature.from_paths([(1, 2)], FANOUT))
    disk.plan = FaultPlan([FaultRule(kind="corrupt", tag="pcube:sig", count=1)])
    probed = []

    def fallback(cell, path, counters):
        probed.append(path)
        return path == (1, 2)

    reader = store.reader(CELL, fallback=fallback)
    assert reader.stats.degraded
    assert reader.check_path((1, 2))
    assert not reader.check_path((1, 3))  # exact, not conservative
    assert probed == [(1, 2), (1, 3)]


def test_a_reader_of_a_quarantined_cell_trusts_none_of_its_pages(store, disk):
    """A quarantined cell awaits a rebuild, and its pages may be behind the
    tree (a faulted rewrite): a reader built meanwhile loads none of them
    and answers every bit test through the exact fallback."""
    store.put_signature(CELL, Signature.from_paths([(1, 2)], FANOUT))
    store.quarantine(CELL, "a rewrite failed")
    probed = []

    def fallback(cell, path, counters):
        probed.append(path)
        return path == (1, 3)  # the tree moved the tuple

    reads_before = disk.counters.get(SSIG)
    reader = store.reader(CELL, fallback=fallback)
    assert disk.counters.get(SSIG) - reads_before == 0
    assert reader.stats.degraded and reader.stats.failed_loads == 0
    assert reader.stats.quarantine_skips == 1 and reader.stats.sig_loads == 0
    assert not reader.check_path((1, 2))
    assert reader.check_path((1, 3))
    assert probed == [(1, 2), (1, 3)]
    store.clear_quarantine(CELL)
    assert store.reader(CELL).check_path((1, 2))


# --------------------------------------------------------------------------- #
# read-modify-write rewrites (put_signature(removed=..., added=...))
# --------------------------------------------------------------------------- #


def stored_bytes(store, cell):
    """The cell's partials as they sit on the pages, uncounted (none for
    a cell the store does not hold)."""
    return [
        (partial.ref_sid, list(partial.blobs.items()), partial.size_bytes)
        for partial in (
            store.disk.peek(page_id).payload
            for page_id in store.directory_snapshot().get(cell.cell_id, {}).values()
        )
    ]


def from_scratch_bytes(store, signature):
    return [
        (partial.ref_sid, list(partial.blobs.items()), partial.size_bytes)
        for partial in decompose(signature, store.disk.page_size, store.codec)
    ]


def count_compressions(monkeypatch):
    """Every node the store compresses, as ``(nbits, mask)``: an edited
    node and a derived one both go through ``compress``."""
    compressed = []
    real = partial_module.compress

    def counting(nbits, mask, codec="adaptive"):
        compressed.append((nbits, mask))
        return real(nbits, mask, codec)

    monkeypatch.setattr(partial_module, "compress", counting)
    return compressed


#: One tuple leaves ``wide_signature`` and one joins on a new leaf.
LEFT, JOINED = (3, 2, 2), (2, 3, 1)


def moved_signature():
    """``wide_signature`` after the move, generated from scratch, and the
    nodes the two paths pass."""
    paths = [path for path in WIDE_PATHS if path != LEFT] + [JOINED]
    dirty = set(ancestor_sids(LEFT[:-1], FANOUT) + ancestor_sids(JOINED[:-1], FANOUT))
    return Signature.from_paths(paths, FANOUT), dirty


def test_rewrite_compresses_only_the_moved_paths_nodes_and_stores_the_same_bytes(
    store, disk, monkeypatch
):
    store.put_signature(CELL, wide_signature())
    old_partials = store.n_partials(CELL)
    assert old_partials > 1
    signature, dirty = moved_signature()
    reads_before = disk.counters.get(SSIG)
    compressed = count_compressions(monkeypatch)
    store.put_signature(CELL, removed=[LEFT], added=[JOINED])
    assert len(compressed) == len(dirty) < len(list(signature.masks()))
    # One counted read per old partial, nothing else.
    assert disk.counters.get(SSIG) - reads_before == old_partials
    assert stored_bytes(store, CELL) == from_scratch_bytes(store, signature)
    assert store.load_full_signature(CELL) == signature


def test_rewrite_of_a_new_cell_edits_an_empty_signature(store, monkeypatch):
    compressed = count_compressions(monkeypatch)
    store.put_signature(OTHER, added=WIDE_PATHS)
    assert len(compressed) == len(list(wide_signature().masks()))
    assert stored_bytes(store, OTHER) == from_scratch_bytes(store, wide_signature())


@pytest.mark.parametrize("kind", ["corrupt", "transient"])
def test_rewrite_refuses_to_edit_an_unreadable_cell(kind):
    """An old partial's read fails: the edit has nothing to start from, so
    it writes nothing and says which partial; the caller re-derives."""
    disk = FaultyDisk(SimulatedDisk(page_size=48))
    store = SignatureStore(disk, fanout=FANOUT, codec="raw")
    store.put_signature(CELL, wide_signature())
    refs = store.directory_snapshot()[CELL.cell_id]
    # The second old partial's read fails.
    rule = FaultRule(kind=kind, tag="pcube:sig", after=1, count=1)
    disk.plan = FaultPlan([rule])
    with pytest.raises(MissingPartialError) as caught:
        store.put_signature(CELL, removed=[LEFT], added=[JOINED])
    assert rule.fired == 1
    assert caught.value.ref_sid == list(refs)[1]
    assert store.directory_snapshot()[CELL.cell_id] is refs
    assert CELL not in store.quarantined_cells()


def test_crash_on_the_old_partial_read_leaves_the_old_generation():
    disk = FaultyDisk(SimulatedDisk(page_size=48))
    store = SignatureStore(disk, fanout=FANOUT, codec="raw")
    old = wide_signature()
    store.put_signature(CELL, old)
    pages_before = len(list(disk.pages("pcube:sig")))
    disk.plan = FaultPlan(
        [FaultRule(kind="crash", op="read", tag="pcube:sig", count=1)]
    )
    with pytest.raises(SimulatedCrash):
        store.put_signature(CELL, removed=[LEFT], added=[JOINED])
    assert len(list(disk.pages("pcube:sig"))) == pages_before
    assert store.load_full_signature(CELL) == old
