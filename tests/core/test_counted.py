"""Counted signatures: the O(depth) maintenance bookkeeping."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.bitmap.bitarray import BitArray
from repro.core.counted import CountedSignature, PathColumns
from repro.core.integrity import iter_cell_checks
from repro.core.signature import Signature
from repro.data.synthetic import SyntheticConfig, generate_relation
from repro.storage.disk import SimulatedDisk
from repro.system import build_system
from tests.reference import ancestor_sids


def test_add_then_view():
    counted = CountedSignature(4)
    counted.add_path((1, 2))
    counted.add_path((1, 3))
    assert counted.to_signature() == Signature.from_paths([(1, 2), (1, 3)], 4)


def test_counts_accumulate():
    counted = CountedSignature(4)
    counted.add_path((1, 2))
    counted.add_path((1, 3))
    assert counted._counts[0][1] == 2  # two tuples under root child 1
    assert counted._counts[1][2] == 1


def test_remove_clears_bit_only_at_zero():
    counted = CountedSignature(4)
    counted.add_path((1, 2))
    counted.add_path((1, 3))
    counted.remove_path((1, 2))
    # Root bit 1 still supported by the second tuple.
    assert counted.node(0).get(0)
    assert counted.to_signature() == Signature.from_paths([(1, 3)], 4)
    counted.remove_path((1, 3))
    assert not counted
    assert not counted.to_signature()


def test_remove_uncounted_path_fails_loudly():
    counted = CountedSignature(4)
    counted.add_path((1, 2))
    with pytest.raises(KeyError):
        counted.remove_path((2, 2))


def test_path_validation():
    counted = CountedSignature(4)
    with pytest.raises(ValueError):
        counted.add_path(())
    with pytest.raises(ValueError):
        counted.add_path((0,))
    with pytest.raises(ValueError):
        counted.remove_path(())


def test_from_paths():
    paths = [(1, 1), (1, 1), (2, 3)]  # duplicate path counted twice
    counted = CountedSignature.from_paths(paths, 4)
    assert counted._counts[0][1] == 2
    counted.remove_path((1, 1))
    assert counted.node(0).get(0)  # still one left


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=9).flatmap(
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
)
def test_count_cells_equals_per_path_counting(data):
    """The array count (one lexsort per level) gives every cell the counts
    adding its members' paths one by one gives — the per-path primitive is
    the reference.  Label -1 counts into no cell; cell 4 has no member."""
    fanout, rows = data
    labels = np.array([label for label, _ in rows], dtype=np.int64)
    paths = PathColumns({tid: path for tid, (_, path) in enumerate(rows)}, fanout)
    counted = CountedSignature.count_cells(labels, 5, paths)
    for cell in range(5):
        members = [path for label, path in rows if label == cell]
        assert counted[cell] == CountedSignature.from_paths(members, fanout)


def test_count_cells_refuses_a_counted_tuple_without_a_path():
    paths = PathColumns({0: (1, 2)}, 4)
    with pytest.raises(KeyError):
        CountedSignature.count_cells(np.array([0, 0]), 1, paths)
    with pytest.raises(ValueError):
        PathColumns({0: (1, 2), 1: (1,)}, 4)


def test_dirty_sids():
    counted = CountedSignature(4)
    assert counted.dirty_sids((2, 1, 3)) == [0, 2, 2 * 5 + 1]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.booleans(),
            st.lists(
                st.integers(min_value=1, max_value=4), min_size=1, max_size=4
            ).map(tuple),
        ),
        max_size=60,
    )
)
def test_counted_matches_multiset_model(operations):
    """Random add/remove streams: the bitmap view must always equal the
    signature of the surviving path multiset."""
    counted = CountedSignature(4)
    model: list[tuple] = []
    for is_add, path in operations:
        if is_add or path not in model:
            counted.add_path(path)
            model.append(path)
        else:
            counted.remove_path(path)
            model.remove(path)
        assert counted.to_signature() == Signature.from_paths(model, 4)


def test_interleaved_stress():
    rng = random.Random(12)
    counted = CountedSignature(6)
    alive: list[tuple] = []
    for _ in range(500):
        if alive and rng.random() < 0.45:
            path = alive.pop(rng.randrange(len(alive)))
            counted.remove_path(path)
        else:
            path = tuple(
                rng.randrange(1, 7) for _ in range(rng.randrange(1, 5))
            )
            counted.add_path(path)
            alive.append(path)
    assert counted.to_signature() == Signature.from_paths(alive, 6)


# --------------------------------------------------------------------------- #
# per-node copy-on-write: a copy shares node dicts, nobody sees the other's
# writes
# --------------------------------------------------------------------------- #

COW_FANOUT = 3
# Tuple paths of one tree all end at the leaf level.
cow_paths = st.lists(
    st.integers(min_value=1, max_value=COW_FANOUT), min_size=3, max_size=3
).map(tuple)
picks = st.integers(min_value=0, max_value=1_000)


def counts_of(paths, fanout):
    """``sid -> {position -> count}`` of a path multiset, from scratch."""
    counts: dict = {}
    for path in paths:
        for sid, component in zip(ancestor_sids(path, fanout), path):
            node = counts.setdefault(sid, {})
            node[component] = node.get(component, 0) + 1
    return counts


class CopyOnWriteMachine(RuleBasedStateMachine):
    """A counted signature and copies of it (and of the copies), each beside
    the path multiset it should hold; any of them may be written to or
    copied at any step."""

    def __init__(self):
        super().__init__()
        self.signatures = [CountedSignature(COW_FANOUT)]
        self.models: list[list[tuple]] = [[]]

    def pick(self, which):
        index = which % len(self.signatures)
        return self.signatures[index], self.models[index]

    @rule(which=picks, path=cow_paths)
    def add(self, which, path):
        counted, model = self.pick(which)
        counted.add_path(path)
        model.append(path)

    @rule(which=picks, victim=picks)
    def remove(self, which, victim):
        counted, model = self.pick(which)
        if model:
            counted.remove_path(model.pop(victim % len(model)))

    @rule(which=picks, victim=picks, path=cow_paths)
    def move(self, which, victim, path):
        counted, model = self.pick(which)
        if model:
            counted.remove_path(model.pop(victim % len(model)))
            counted.add_path(path)
            model.append(path)

    @rule(which=picks)
    def copy(self, which):
        counted, model = self.pick(which)
        self.signatures.append(counted.copy())
        self.models.append(list(model))

    @rule(which=picks, path=cow_paths)
    def remove_uncounted(self, which, path):
        """On a throwaway copy: the removal may move counts on its way to
        the uncounted node, and none of that may reach the original."""
        counted, model = self.pick(which)
        if path not in model:
            with pytest.raises(KeyError):
                counted.copy().remove_path(path)

    @invariant()
    def every_signature_equals_its_model(self):
        for counted, model in zip(self.signatures, self.models):
            expected = counts_of(model, COW_FANOUT)
            assert counted._counts == expected
            assert counted == CountedSignature.from_paths(model, COW_FANOUT)
            assert counted.n_nodes() == len(expected)
            assert set(counted.node_sids()) == set(expected)
            bitmap = counted.to_signature()
            assert bitmap == Signature.from_paths(model, COW_FANOUT)
            for sid, node in expected.items():
                bits = BitArray(
                    COW_FANOUT, sum(1 << (position - 1) for position in node)
                )
                assert counted.node(sid) == bitmap.node(sid) == bits
            assert counted.node(10**6) is None


CopyOnWriteMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
test_copy_on_write_is_exact = CopyOnWriteMachine.TestCase


def test_a_copy_copies_only_the_nodes_it_writes():
    paths = [(a, b, c) for a in (1, 2, 3) for b in (1, 2, 3) for c in (1, 2)]
    original = CountedSignature.from_paths(paths, 4)
    frozen = counts_of(paths, 4)
    duplicate = original.copy()
    assert all(
        duplicate._counts[sid] is node for sid, node in original._counts.items()
    )
    duplicate.remove_path((2, 1, 1))
    duplicate.add_path((2, 1, 3))
    touched = set(duplicate.dirty_sids((2, 1, 1)))
    for sid, node in original._counts.items():
        assert (duplicate._counts[sid] is node) == (sid not in touched)
    assert original._counts == frozen
    # The original copies on its own first write too: the duplicate still
    # holds the shared dicts.
    original.add_path((1, 1, 1))
    assert duplicate._counts[0][1] == 6 and original._counts[0][1] == 7


def test_a_pinned_snapshot_keeps_its_counts_through_later_writes():
    relation = generate_relation(
        SyntheticConfig(
            n_tuples=400, n_boolean=2, cardinality=3, n_preference=2, seed=5
        ),
        disk=SimulatedDisk(),
    )
    system = build_system(relation, fanout=6, rtree_method="insert")
    system.enable_epochs()
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
            pinned.counted.get,
        )
        for problem in found
    ]
    system.unpin_snapshot(pinned)
    assert problems == []
    report = system.verify_consistency()
    assert report.ok, report.problems
