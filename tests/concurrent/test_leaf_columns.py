"""Copy-on-write leaf columns under a concurrent writer.

The writer edits a live leaf's ``tids`` / ``coords`` columns in place, and
a freeze copies the columns of every leaf it touched.  So readers pinned at
any published epoch keep seeing that epoch while the writer inserts,
updates and deletes rows of the same few leaves: every answer equals the
naive answer over the pinned relation, and no published frozen leaf's
columns ever change.
"""

from __future__ import annotations

import os
import random
import sys
import threading

import pytest

from repro.baselines.naive import naive_skyline
from repro.query.predicates import BooleanPredicate
from repro.query.session import QuerySession
from tests.concurrent.test_epochs import assert_nothing_pinned

pytestmark = pytest.mark.concurrent

#: More readers than cores, so the writer is preempted mid-edit.
READERS = (os.cpu_count() or 1) + 2
WRITES = 45
PREDICATES = ({}, {"A1": 0}, {"A2": 1})


def leaf_image(snapshot) -> dict[int, tuple[bytes, bytes]]:
    """Every frozen leaf's columns, as bytes."""
    image = {}
    stack = [snapshot.rtree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            image[node.node_id] = (node.tids.tobytes(), node.coords.tobytes())
        else:
            stack.extend(entry.child for _, entry in node.live_entries())
    return image


def naive_answer(snapshot, conjuncts) -> list[int]:
    """The skyline of the pinned relation's matching live rows."""
    view = snapshot.relation
    rows = [
        (tid, view.pref_point(tid))
        for tid in view.live_tids()
        if all(view.bool_value(tid, dim) == v for dim, v in conjuncts.items())
    ]
    return sorted(naive_skyline(rows))


def write_into_leaves(system, leaves, done, errors):
    """Insert, update and delete rows of ``leaves``: inserted and moved
    points land inside one of the leaves' boxes."""
    try:
        rng = random.Random(52)
        boxes = [leaf.mbr() for leaf in leaves]
        victims = [
            entry.tid for leaf in leaves for _, entry in leaf.live_entries()
        ]
        rng.shuffle(victims)
        bool_row = system.relation.bool_row(victims[0])

        def point():
            box = rng.choice(boxes)
            return tuple(
                rng.uniform(lo, hi) for lo, hi in zip(box.lows, box.highs)
            )

        for step in range(WRITES):
            if step % 3 == 0:
                tid, _ = system.insert(bool_row, point())
                victims.append(tid)
            elif step % 3 == 1:
                system.update(victims[step % len(victims)], point())
            else:
                system.delete(victims.pop(0))
    except Exception as exc:  # pragma: no cover - surfaced by the assert
        errors.append(f"writer: {exc!r}")
    finally:
        done.set()


def test_pinned_readers_see_their_epoch_while_a_writer_edits_leaves(
    fresh_system,
):
    system = fresh_system(n_tuples=500, seed=52)
    leaves = [node for node in system.rtree.nodes() if node.is_leaf][:3]
    first = system.pin_snapshot()
    first_image = leaf_image(first)
    first_answers = [naive_answer(first, c) for c in PREDICATES]
    done = threading.Event()
    errors: list[str] = []
    checked = [0] * READERS

    def reader(index: int) -> None:
        try:
            while not done.is_set() or checked[index] < 2:
                snapshot = system.pin_snapshot()
                try:
                    image = leaf_image(snapshot)
                    session = QuerySession.for_snapshot(snapshot)
                    for conjuncts in PREDICATES:
                        got = session.skyline(BooleanPredicate(conjuncts)).tids
                        if sorted(got) != naive_answer(snapshot, conjuncts):
                            errors.append(
                                f"reader {index}: skyline {conjuncts} at "
                                f"epoch {snapshot.epoch} is not the naive one"
                            )
                    if leaf_image(snapshot) != image:
                        errors.append(
                            f"reader {index}: a leaf of epoch "
                            f"{snapshot.epoch} changed while pinned"
                        )
                    checked[index] += 1
                finally:
                    system.unpin_snapshot(snapshot)
        except Exception as exc:  # pragma: no cover
            errors.append(f"reader {index}: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(READERS)
        ]
        threads.append(
            threading.Thread(
                target=write_into_leaves, args=(system, leaves, done, errors)
            )
        )
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive(), "stress thread hung"
    finally:
        sys.setswitchinterval(interval)

    assert errors == []
    assert min(checked) >= 2
    assert system.epochs.current_epoch >= first.epoch + WRITES
    # The first epoch, pinned through every write, reads as it did.
    assert leaf_image(first) == first_image
    assert [naive_answer(first, c) for c in PREDICATES] == first_answers
    session = QuerySession.for_snapshot(first)
    for conjuncts, expected in zip(PREDICATES, first_answers):
        assert sorted(session.skyline(BooleanPredicate(conjuncts)).tids) == expected
    system.unpin_snapshot(first)
    assert_nothing_pinned(system)
    assert system.verify_consistency().ok
