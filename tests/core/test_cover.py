"""Materialised-cover selection for multi-dimensional predicates."""

import random

import pytest

from repro.baselines.naive import naive_skyline
from repro.core.pcube import PCube
from repro.core.readers import EmptyReader
from repro.cube.cuboid import Cell, Cuboid
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.query.predicates import BooleanPredicate
from repro.query.session import QuerySession
from repro.rtree.bulk import bulk_load
from tests.reference import cube_view


@pytest.fixture(scope="module")
def rich_system():
    """A P-Cube that materialises atomic cuboids plus (A1, A2)."""
    config = SyntheticConfig(
        n_tuples=600, n_boolean=3, cardinality=4, n_preference=2, seed=61
    )
    relation = generate_relation(config)
    rtree = bulk_load(
        list(relation.pref_points()), dims=2, max_entries=8, disk=relation.disk
    )
    cuboids = [
        Cuboid(("A1",)),
        Cuboid(("A2",)),
        Cuboid(("A3",)),
        Cuboid(("A1", "A2")),
    ]
    pcube = PCube.build(relation, rtree, cuboids=cuboids)
    return relation, rtree, pcube


def session(pcube) -> QuerySession:
    view = cube_view(pcube)
    return QuerySession(view.relation, view.rtree, view)


def test_cover_prefers_widest_cuboid(rich_system):
    relation, rtree, pcube = rich_system
    cover = cube_view(pcube).cover_for_dims({"A1": 1, "A2": 2})
    assert cover == [Cell(("A1", "A2"), (1, 2))]


def test_cover_mixes_widths(rich_system):
    relation, rtree, pcube = rich_system
    cover = cube_view(pcube).cover_for_dims({"A1": 1, "A2": 2, "A3": 3})
    assert Cell(("A1", "A2"), (1, 2)) in cover
    assert Cell(("A3",), (3,)) in cover
    assert len(cover) == 2


def test_cover_atomic_fallback(rich_system):
    relation, rtree, pcube = rich_system
    cover = cube_view(pcube).cover_for_dims({"A3": 0})
    assert cover == [Cell(("A3",), (0,))]


def test_cover_detects_empty_combination(rich_system):
    relation, rtree, pcube = rich_system
    # Find a (A1, A2) pair that never co-occurs (cardinality 4 over 600
    # rows makes all 16 pairs likely live; use an out-of-domain value).
    assert cube_view(pcube).cover_for_dims({"A1": 99, "A2": 0}) is None
    reader = cube_view(pcube).reader_for_predicate({"A1": 99, "A2": 0})
    assert isinstance(reader, EmptyReader)


def test_cover_missing_cuboid_rejected():
    config = SyntheticConfig(
        n_tuples=100, n_boolean=2, cardinality=3, n_preference=2, seed=3
    )
    relation = generate_relation(config)
    rtree = bulk_load(
        list(relation.pref_points()), dims=2, max_entries=8, disk=relation.disk
    )
    pcube = PCube.build(relation, rtree, cuboids=[Cuboid(("A1",))])
    with pytest.raises(ValueError):
        cube_view(pcube).cover_for_dims({"A2": 1})


def test_queries_agree_across_materialisations(rich_system):
    """The cover changes I/O, never answers."""
    relation, rtree, pcube = rich_system
    rng = random.Random(5)
    for _ in range(5):
        anchor = rng.randrange(len(relation))
        predicate = BooleanPredicate(
            {
                "A1": relation.bool_value(anchor, "A1"),
                "A2": relation.bool_value(anchor, "A2"),
            }
        )
        tids = session(pcube).skyline(predicate).tids
        expected = set(
            naive_skyline(
                [
                    (tid, relation.pref_point(tid))
                    for tid in relation.tids()
                    if predicate.matches(relation, tid)
                ]
            )
        )
        assert set(tids) == expected


def test_wider_cover_reads_the_same_blocks_on_fewer_partials(rich_system):
    """One (A1,A2) signature vs the assembled intersection of two atomic
    ones: the same bits, so the same blocks — the materialised conjunction
    saves partial loads, not pruning."""
    relation, rtree, pcube = rich_system
    atomic_only = PCube.build(
        relation,
        rtree,
        cuboids=[Cuboid(("A1",)), Cuboid(("A2",)), Cuboid(("A3",))],
        tag="pcube-atomic",
    )
    rng = random.Random(6)
    for _ in range(5):
        anchor = rng.randrange(len(relation))
        predicate = BooleanPredicate(
            {
                "A1": relation.bool_value(anchor, "A1"),
                "A2": relation.bool_value(anchor, "A2"),
            }
        )
        rich = session(pcube).skyline(predicate)
        atomic = session(atomic_only).skyline(predicate)
        assert rich.stats.sblock == atomic.stats.sblock
        assert rich.stats.ssig <= atomic.stats.ssig


def test_assembled_equals_generated_for_every_pair(rich_system):
    """Cuboid-lattice containment: for every materialised (A1, A2) cell,
    the on-demand assembly of the A1 and A2 cells sets exactly the
    generated signature's bits, node by node — and the plain AND of the
    factors sets more somewhere.  (The audit needs no rule for it: each
    cell equal to its rebuild implies it.)"""
    from repro.core.integrity import iter_cell_checks
    from repro.core.readers import AssembledReader, SignatureAdapter
    from tests.reference import path_of_sid

    relation, rtree, pcube = rich_system
    checked = list(
        iter_cell_checks(
            relation,
            rtree.all_paths(),
            pcube.cuboids,
            pcube.fanout,
            pcube.signature_of,
        )
    )
    pairs = [cell for cell, _ in checked if len(cell.dims) == 2]
    assert len(pairs) == 16
    assert all(not problems for _, problems in checked)

    def node_masks(reader, sids):
        return [
            reader.check_block(path_of_sid(sid, pcube.fanout), -1) for sid in sids
        ]

    wider = 0
    for cell in pairs:
        atoms = [
            SignatureAdapter(pcube.signature_of(Cell((dim,), (value,))))
            for dim, value in zip(cell.dims, cell.values)
        ]
        generated = pcube.signature_of(cell)
        sids = sorted({*generated.node_sids(), *atoms[0].signature.node_sids()})
        want = [
            generated.node(sid).mask if generated.node(sid) is not None else 0
            for sid in sids
        ]
        assert node_masks(AssembledReader(atoms, rtree.root.level), sids) == want
        wider += node_masks(AssembledReader(atoms, 0), sids) != want
    assert wider > 0


def test_maintenance_covers_multidim_cuboids(rich_system):
    from repro.core.maintenance import insert_tuple
    from repro.core.signature import Signature

    relation, rtree, pcube = rich_system
    rng = random.Random(7)
    for _ in range(20):
        insert_tuple(
            relation,
            rtree,
            pcube,
            (rng.randrange(4), rng.randrange(4), rng.randrange(4)),
            (rng.random(), rng.random()),
        )
    paths = rtree.all_paths()
    cuboid = Cuboid(("A1", "A2"))
    for cell, tids in cuboid.group(relation).items():
        expected = Signature.from_paths(
            [paths[tid] for tid in tids], rtree.max_entries
        )
        assert pcube.signature_of(cell) == expected
