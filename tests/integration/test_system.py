"""The build_system facade and whole-system lifecycle."""

import pytest

from repro.baselines.boolean_first import build_boolean_indexes
from repro.bitmap import compression
from repro.core import partial as partial_module
from repro.core.signature import Signature
from repro.cube.cuboid import Cuboid
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.rtree.geometry import Rect
from repro.rtree.node import RTreeNode
from repro.storage.counters import ALLOC, WRITE
from repro.system import build_system


@pytest.fixture
def relation():
    return generate_relation(
        SyntheticConfig(
            n_tuples=400, n_boolean=2, cardinality=4, n_preference=2, seed=19
        )
    )


def test_build_bulk_default(relation):
    system = build_system(relation, fanout=8)
    assert len(system.rtree) == 400
    assert system.pcube.n_cells() == 8
    assert system.timings.rtree_seconds > 0
    assert system.timings.pcube_seconds > 0


def test_a_served_build_allocates_no_btree_page(relation):
    """The B+-trees are the baselines' structures: a served system never
    maintains them, so its build makes none."""
    system = build_system(relation, fanout=8)
    assert system.disk.size_bytes("btree") == 0


def spy(monkeypatch, owner, name, log, what):
    """Log ``what(*args)`` of every call to ``owner.name``, then make it."""
    real = getattr(owner, name)

    def logged(*args, **kwargs):
        log.append(what(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, logged)


def test_a_build_does_each_piece_of_work_once(relation, monkeypatch):
    """Counted, not timed: one grouping per cuboid, one encoder run per
    distinct node mask and no signature object, no MBR re-derived from
    a built node, paths equal to the per-tuple climb, one page write per
    node of the baselines' B+-tree batch — and a first freeze whose only
    union of boxes is the root's, when the search first asks for it."""
    groupings, asked, boxed, unions, signatures = [], [], [], [], []
    spy(monkeypatch, Cuboid, "label", groupings, lambda self, *_, **__: self.dims)
    spy(monkeypatch, Cuboid, "group", groupings, lambda *_, **__: "group")
    spy(
        monkeypatch,
        partial_module,
        "compress",
        asked,
        lambda nbits, mask, codec: (nbits, mask, codec),
    )
    spy(monkeypatch, Signature, "__init__", signatures, lambda *_: "init")
    spy(monkeypatch, RTreeNode, "mbr", boxed, lambda self: self.node_id)
    compression.compress.cache_clear()
    written: dict[int, int] = {}
    real_write = relation.disk.write

    def recording_write(page_id, payload, size=None):
        written[page_id] = written.get(page_id, 0) + 1
        real_write(page_id, payload, size)

    monkeypatch.setattr(relation.disk, "write", recording_write)
    system = build_system(relation, fanout=8)
    assert signatures == []
    indexes = build_boolean_indexes(relation)

    assert sorted(groupings) == sorted(c.dims for c in system.pcube.cuboids)
    info = compression.compress.cache_info()
    assert info.misses == len(set(asked)) < len(asked) == info.hits + info.misses
    # Each level's boxes come from its children's rows, never from a node.
    assert boxed == []
    nodes = list(system.rtree.nodes())
    paths = system.rtree.all_paths()
    snapshot = system.epochs.current.rtree  # the build's first freeze
    for tid in relation.live_tids():
        assert snapshot.entry_at(paths[tid]).tid == tid
    # A B+-tree node is written once by the batch (its root once more, by
    # the constructor); an R-tree node when created and when filled.
    btree_pages = {page.page_id for page in relation.disk.pages("btree:")}
    assert sum(written[page_id] for page_id in btree_pages) == len(btree_pages) + len(
        indexes
    )
    assert all(written[n.page_id] == 2 for n in nodes)
    counters = relation.disk.write_counters
    assert counters.get(WRITE) == sum(written.values()) < 2 * counters.get(ALLOC)

    spy(monkeypatch, Rect, "union_all", unions, lambda *_: "union")
    session = system.engine
    for _ in range(2):
        session.skyline()
    assert unions == ["union"]
    frozen = [snapshot.root]
    for node in frozen:
        assert (node._mbr is not None) == (node is snapshot.root)
        frozen.extend(e.child for _, e in node.live_entries() if not node.is_leaf)
    assert len(frozen) == len(nodes)
    # The frozen leaves hold the live leaves' entry objects.
    live = {id(e) for n in nodes if n.is_leaf for _, e in n.live_entries()}
    assert all(
        id(entry) in live
        for node in frozen
        if node.is_leaf
        for slot, entry in node.live_entries()
    )


def test_build_insert_method(relation):
    system = build_system(relation, fanout=8, rtree_method="insert")
    assert len(system.rtree) == 400
    result = system.engine.skyline()
    assert result.tids


def test_build_unknown_method_rejected(relation):
    with pytest.raises(ValueError):
        build_system(relation, rtree_method="magic")


def test_default_fanout_derived_from_page_size(relation):
    system = build_system(relation)
    # 2 preference dims at 4 KB pages -> the paper's M = 204.
    assert system.rtree.max_entries == 204


def test_space_accounting_views(relation):
    system = build_system(relation, fanout=8)
    assert system.rtree_size_mb() > 0
    assert system.pcube_size_mb() > 0
    assert system.disk is relation.disk


def test_everything_shares_one_disk(relation):
    system = build_system(relation, fanout=8)
    tags = {page.tag.split(":")[0] for page in system.disk.pages()}
    assert {"heap", "rtree", "pcube"} <= tags
