"""The signature is its own count: the build's derivation and
maintenance's bit edit, both held against per-path generation
(``Signature.from_paths``) and the tests' reference walks."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.integrity import iter_cell_checks
from repro.core.partial import compress_masks
from repro.core.pcube import PathColumns
from repro.core.signature import Signature, move_paths, path_sids
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.storage.disk import SimulatedDisk
from repro.system import build_system
from tests.reference import ancestor_sids, tuple_paths


def moved(signature, removed=(), added=()):
    """``signature`` with ``move_paths`` applied to a copy of its masks."""
    fanout = signature.fanout
    masks = {
        sid: 0 for path in (*removed, *added) for sid in path_sids(path, fanout)
    }
    masks.update(signature.masks())
    move_paths(masks, removed, added, fanout)
    return Signature.from_masks(fanout, masks)


# --------------------------------------------------------------------------- #
# the bit edit
# --------------------------------------------------------------------------- #


def test_additions_set_what_per_path_generation_sets():
    paths = [(1, 2), (1, 3), (4, 1)]
    assert moved(Signature(4), added=paths) == Signature.from_paths(paths, 4)


def test_a_removal_keeps_an_ancestor_bit_another_tuple_still_needs():
    signature = Signature.from_paths([(1, 2), (1, 3)], 4)
    after = moved(signature, removed=[(1, 2)])
    # Root bit 1 still covers the second tuple.
    assert after.node(0) & 1
    assert after == Signature.from_paths([(1, 3)], 4)
    assert not moved(after, removed=[(1, 3)])


def test_a_removal_clears_upward_while_nodes_empty():
    signature = Signature.from_paths([(1, 1, 1), (2, 1, 1), (2, 1, 2)], 3)
    after = moved(signature, removed=[(1, 1, 1)])
    assert after == Signature.from_paths([(2, 1, 1), (2, 1, 2)], 3)
    # The two nodes under root child 1 emptied and left.
    assert set(after.masks()) == {0, 2, 2 * 4 + 1}


def test_removals_go_before_additions():
    """One op can vacate a slot and refill it (a split re-seats tuples):
    the refilled bit stays set, whichever order the records came in."""
    signature = Signature.from_paths([(1, 2), (2, 1)], 3)
    after = moved(signature, removed=[(1, 2), (2, 1)], added=[(1, 2), (3, 3)])
    assert after == Signature.from_paths([(1, 2), (3, 3)], 3)


def test_path_sids_name_the_nodes_a_path_passes():
    assert path_sids((2, 1, 3), 4) == [0, 2, 2 * 5 + 1]
    assert path_sids((2, 1, 3), 4) == ancestor_sids((2, 1), 4)


def test_from_masks_drops_empty_nodes():
    signature = Signature.from_masks(4, {0: 0b1, 1: 0b10, 2: 0})
    assert signature == Signature.from_paths([(1, 2)], 4)
    assert set(signature.masks()) == {0, 1}


#: Tuple paths of one tree all end at the leaf level, and a leaf slot holds
#: one tuple: a cell's live tuples are a *set* of full paths.
EDIT_FANOUT = 3
slot_paths = st.lists(
    st.integers(min_value=1, max_value=EDIT_FANOUT), min_size=3, max_size=3
).map(tuple)
picks = st.integers(min_value=0, max_value=1_000)


class BitEditMachine(RuleBasedStateMachine):
    """One cell's stored signature beside the set of slots its tuples
    hold; each step is one merged op — tuples leave, others join, and a
    slot an op vacates may be refilled by the same op."""

    def __init__(self):
        super().__init__()
        self.signature = Signature(EDIT_FANOUT)
        self.model: set[tuple] = set()

    def apply(self, removed, added):
        self.signature = moved(self.signature, removed, added)
        self.model = (self.model - set(removed)) | set(added)

    @rule(path=slot_paths)
    def insert(self, path):
        if path not in self.model:
            self.apply([], [path])

    @rule(victim=picks)
    def delete(self, victim):
        if self.model:
            self.apply([sorted(self.model)[victim % len(self.model)]], [])

    @rule(victims=st.lists(picks, max_size=4), joins=st.lists(slot_paths, max_size=4))
    def reorganise(self, victims, joins):
        """A split's merged changes: some tuples leave their slots, and
        the joining paths may take any slot left free — vacated ones too."""
        live = sorted(self.model)
        removed = sorted({live[v % len(live)] for v in victims}) if live else []
        free = set(removed) | (set(joins) - self.model)
        self.apply(removed, sorted(set(joins) & free))

    @invariant()
    def the_bits_are_the_model(self):
        assert self.signature == Signature.from_paths(self.model, EDIT_FANOUT)
        assert set(tuple_paths(self.signature)) == self.model


BitEditMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
test_bit_edit_is_exact = BitEditMachine.TestCase


@pytest.mark.parametrize("fanout", [2, 6, 65])
def test_interleaved_stress(fanout):
    rng = random.Random(12)
    signature = Signature(fanout)
    alive: set[tuple] = set()
    for _ in range(500):
        if alive and rng.random() < 0.45:
            path = rng.choice(sorted(alive))
            alive.discard(path)
            signature = moved(signature, removed=[path])
        else:
            path = tuple(rng.randint(1, fanout) for _ in range(3))
            if path in alive:
                continue  # a slot holds one tuple
            alive.add(path)
            signature = moved(signature, added=[path])
        assert signature == Signature.from_paths(alive, fanout)


# --------------------------------------------------------------------------- #
# the build's derivation
# --------------------------------------------------------------------------- #


def labelled_paths(fanouts):
    return st.sampled_from(fanouts).flatmap(
        lambda fanout: st.tuples(
            st.just(fanout),
            st.integers(min_value=1, max_value=4).flatmap(
                lambda depth: st.lists(
                    st.tuples(
                        st.integers(min_value=-1, max_value=3),
                        st.lists(
                            st.integers(min_value=1, max_value=fanout),
                            min_size=depth,
                            max_size=depth,
                        ).map(tuple),
                    ),
                    max_size=50,
                )
            ),
        )
    )


def path_columns(paths, fanout):
    """``PathColumns`` over a tid -> path map."""
    tids = np.array(list(paths), dtype=np.int64)
    depth = len(next(iter(paths.values()), ()))
    matrix = np.array(list(paths.values()), dtype=np.int64).reshape(len(tids), depth)
    return PathColumns(tids, matrix, fanout)


def assert_cells_equal_per_path_generation(fanout, rows):
    labels = np.array([label for label, _ in rows], dtype=np.int64)
    paths = path_columns({tid: path for tid, (_, path) in enumerate(rows)}, fanout)
    derived = paths.masks(labels, 5)
    for cell in range(5):
        members = [path for label, path in rows if label == cell]
        assert derived[cell] == Signature.from_paths(members, fanout).masks()


@settings(max_examples=60, deadline=None)
@given(labelled_paths(range(2, 10)))
def test_signatures_equal_per_path_generation(data):
    """The array derivation (one sort by path, one by cell, and one OR per
    run per level) gives every cell the bits adding its members' paths one
    by one gives.  Label -1 joins no cell; cell 4 has no member."""
    assert_cells_equal_per_path_generation(*data)


@settings(max_examples=30, deadline=None)
@given(labelled_paths([64, 65, 130]))
def test_signatures_of_nodes_wider_than_a_word(data):
    """A run ORs one 64-bit word at a time; a wider node folds its words."""
    assert_cells_equal_per_path_generation(*data)


#: Fanouts from 2 to 130: one word, a node of exactly one word (64), and
#: nodes spanning two (65, 128) and three (129, 130) words.
FANOUTS = [2, 3, 5, 8, 13, 31, 63, 64, 65, 100, 127, 128, 129, 130]


@settings(max_examples=60, deadline=None)
@given(labelled_paths(FANOUTS), st.randoms(use_true_random=False))
def test_blobs_are_the_masks_compressed_in_sid_order(data, rng):
    """The build's view of the runs (``PathColumns.blobs``, one compress
    per distinct node value) holds, per cell, what compressing per-path
    generation's masks node by node gives, in ascending SID order, and the
    signature view (``PathColumns.masks``) those masks.  Label -1 joins no
    cell and cell 4 has no member; the rows come in an order that is not
    path order, and a shuffle of them derives the same."""
    fanout, rows = data
    labels = np.array([label for label, _ in rows], dtype=np.int64)
    paths = path_columns({tid: path for tid, (_, path) in enumerate(rows)}, fanout)
    blobs, masks = paths.blobs(labels, 5), paths.masks(labels, 5)
    for cell in range(5):
        members = [path for label, path in rows if label == cell]
        expected = Signature.from_paths(members, fanout).masks()
        assert masks[cell] == expected
        assert list(blobs[cell]) == sorted(blobs[cell])
        assert blobs[cell] == compress_masks(expected, fanout)
    shuffled = list(enumerate(rows))
    rng.shuffle(shuffled)
    again = path_columns({tid: path for tid, (_, path) in shuffled}, fanout)
    assert again.blobs(labels, 5) == blobs


def test_signatures_refuse_a_member_without_a_path():
    paths = path_columns({0: (1, 2)}, 4)
    with pytest.raises(KeyError):
        paths.masks(np.array([0, 0]), 1)
    with pytest.raises(ValueError):
        path_columns({0: (1, 5)}, 4)
    with pytest.raises(ValueError):
        PathColumns(np.arange(2), np.ones((1, 2), dtype=np.int64), 4)


# --------------------------------------------------------------------------- #
# under epochs: the bits a snapshot reads are the pages it pinned
# --------------------------------------------------------------------------- #


def test_a_pinned_snapshot_keeps_its_signatures_through_later_writes():
    relation = generate_relation(
        SyntheticConfig(
            n_tuples=400, n_boolean=2, cardinality=3, n_preference=2, seed=5
        ),
        disk=SimulatedDisk(),
    )
    system = build_system(relation, fanout=6, rtree_method="insert")
    pinned = system.pin_snapshot()
    paths = pinned.rtree.all_paths()
    rng = random.Random(4)
    for step in range(20):
        live = sorted(system.relation.live_tids())
        if step % 3 == 0:
            system.delete(rng.choice(live))
        elif step % 3 == 1:
            system.update(rng.choice(live), (rng.random(), rng.random()))
        else:
            system.insert(
                system.relation.bool_row(rng.choice(live)),
                (rng.random(), rng.random()),
            )
    problems = [
        problem
        for _, found in iter_cell_checks(
            pinned.relation,
            paths,
            system.pcube.cuboids,
            system.pcube.fanout,
            pinned.store.load_full_signature,
        )
        for problem in found
    ]
    system.unpin_snapshot(pinned)
    assert problems == []
    report = system.verify_consistency()
    assert report.ok, report.problems
