"""The build's disk image, pinned.

``build_system`` promises bytes, not just answers: the same relation and
arguments give the same pages, paths and trees (DESIGN.md §5, "Build").
Each piece is digested apart so a failure names it — every page's id, tag,
logical size and checksum, the tuple paths in the order ``all_paths()``
lists them, the store's directory, the R-tree's nodes, and the build's
allocate / write / free counts.

Two builds are pinned: 2 000 tuples at fanout 64, and 300 tuples at fanout
6 on 128-byte pages, where the tree is deeper and cells span several
partials.  The literals were recorded before the build moved onto column
arrays, and re-recorded when the store's (cell, ref) B+-tree went (its
pages and writes left the image, later page ids shifted; paths, counted
signatures and R-tree stayed).  The cube keeps no counted signatures any
more, so their digest left the image; every other value stayed.  The
served build stopped making the baselines' per-dimension B+-trees, so their
digest, pages and writes left the image (they were allocated last: no
other page id moved, and paths, store and R-tree stayed).  A change that
means to move the image re-records them and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.storage.disk import SimulatedDisk
from repro.system import build_system

#: name -> (n_tuples, cardinality, fanout, page size, pinned image)
BUILDS = {
    "2000-tuples-fanout-64": (
        2000, 100, 64, None,
        {
            "pages": (363, "65383c7dc493999b"),
            "paths": "43231253bea1f97e",
            "store": "1f8bf048ecb85775",
            "rtree": "208547d139aa6b1d",
            "writes": {"ALLOC": 338, "WRITE": 75, "FREE": 1},
        },
    ),
    "300-tuples-fanout-6": (
        300, 10, 6, 128,
        {
            "pages": (341, "c0b4739e61c8e0e0"),
            "paths": "1e90c5b2fe0883e3",
            "store": "6a24dc471532be01",
            "rtree": "d0b0f8ad5297bb3c",
            "writes": {"ALLOC": 192, "WRITE": 171, "FREE": 1},
        },
    ),
}


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def build_image(system, writes) -> dict:
    disk = system.disk
    pages = sorted((p.page_id, p.tag, p.size, p.checksum) for p in disk.pages())
    store = system.pcube.store
    rtree = [
        (
            node.node_id,
            node.page_id,
            node.level,
            tuple(
                (slot, entry.tid, entry.mbr.lows, entry.mbr.highs,
                 entry.child and entry.child.node_id)
                for slot, entry in node.live_entries()
            ),
        )
        for node in system.rtree.nodes()
    ]
    return {
        "pages": (len(pages), digest(pages)),
        "paths": digest(list(system.rtree.all_paths().items())),
        "store": digest(store.directory_entries()),
        "rtree": digest(rtree),
        "writes": writes,
    }


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_a_build_writes_the_pinned_image(name):
    n_tuples, cardinality, fanout, page_size, pinned = BUILDS[name]
    disk = SimulatedDisk() if page_size is None else SimulatedDisk(page_size=page_size)
    relation = generate_relation(
        SyntheticConfig(n_tuples=n_tuples, cardinality=cardinality, seed=7),
        disk=disk,
    )
    before = disk.write_counters.snapshot()
    system = build_system(relation, fanout=fanout)
    after = disk.write_counters.snapshot()
    writes = {key: after[key] - before.get(key, 0) for key in after}
    assert build_image(system, writes) == pinned
    assert not list(disk.pages("pcube:index"))
    assert system.verify_consistency().ok
    if page_size is not None:
        assert system.rtree.root.level >= 2
        store = system.pcube.store
        cells = [
            cell
            for cuboid in system.pcube.cuboids
            for cell in cuboid.group(system.relation)
        ]
        assert max(store.n_partials(cell) for cell in cells) >= 2
