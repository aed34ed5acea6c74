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
from tests.reference import tuple_paths


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


def test_cover_prefers_widest_cuboid(rich_system):
    relation, rtree, pcube = rich_system
    cover = pcube.cover_for_dims({"A1": 1, "A2": 2})
    assert cover == [Cell(("A1", "A2"), (1, 2))]


def test_cover_mixes_widths(rich_system):
    relation, rtree, pcube = rich_system
    cover = pcube.cover_for_dims({"A1": 1, "A2": 2, "A3": 3})
    assert Cell(("A1", "A2"), (1, 2)) in cover
    assert Cell(("A3",), (3,)) in cover
    assert len(cover) == 2


def test_cover_atomic_fallback(rich_system):
    relation, rtree, pcube = rich_system
    cover = pcube.cover_for_dims({"A3": 0})
    assert cover == [Cell(("A3",), (0,))]


def test_cover_detects_empty_combination(rich_system):
    relation, rtree, pcube = rich_system
    # Find a (A1, A2) pair that never co-occurs (cardinality 4 over 600
    # rows makes all 16 pairs likely live; use an out-of-domain value).
    assert pcube.cover_for_dims({"A1": 99, "A2": 0}) is None
    reader = pcube.reader_for_predicate({"A1": 99, "A2": 0})
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
        pcube.cover_for_dims({"A2": 1})


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
        tids = QuerySession(relation, rtree, pcube).skyline(predicate).tids
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
        rich = QuerySession(relation, rtree, pcube).skyline(predicate)
        atomic = QuerySession(relation, rtree, atomic_only).skyline(predicate)
        assert rich.stats.sblock == atomic.stats.sblock
        assert rich.stats.ssig <= atomic.stats.ssig


def test_audit_holds_assembled_equal_to_generated_for_every_pair(rich_system):
    """The lattice rule of the audit (ROADMAP item 7): for every
    materialised (A1, A2) cell, the on-demand assembly of the A1 and A2
    cells sets exactly the generated signature's bits."""
    from repro.bitmap.bitarray import BitArray
    from repro.core.integrity import iter_cell_checks, lattice_problems
    from repro.core.readers import AssembledReader, SignatureAdapter
    from repro.core.signature import Signature

    relation, rtree, pcube = rich_system
    checked = [
        (cell, problems)
        for cell, problems in iter_cell_checks(
            relation,
            rtree.all_paths(),
            pcube.cuboids,
            pcube.fanout,
            pcube.signature_of,
            pcube.counted_of,
        )
    ]
    pairs = [cell for cell, _ in checked if len(cell.dims) == 2]
    assert len(pairs) == 16
    assert all(not problems for _, problems in checked)

    # What the rule catches: a stored pair signature that is the plain AND
    # of its factors (a superset: inner-node false positives), and one that
    # lost a node.
    leaf_depth = rtree.root.level
    caught = 0
    for cell in pairs:
        atoms = [pcube.signature_of(atom) for atom in cell.atoms()]
        generated = pcube.signature_of(cell)
        assert lattice_problems(cell, generated, atoms, leaf_depth) == []
        plain = Signature(pcube.fanout)
        for sid in atoms[0].node_sids():
            if atoms[1].node(sid) is not None:
                plain.set_node(sid, atoms[0].node(sid) & atoms[1].node(sid))
        lazy = AssembledReader([SignatureAdapter(atom) for atom in atoms], 0)
        assert all(lazy.check_path(path) for path in tuple_paths(generated))
        if plain != generated:
            assert lattice_problems(cell, plain, atoms, leaf_depth)
            caught += 1
        pruned = generated.copy()
        pruned.set_node(max(generated.node_sids()), BitArray(pcube.fanout))
        assert lattice_problems(cell, pruned, atoms, leaf_depth)
    assert caught > 0


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
