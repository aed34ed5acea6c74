"""Relation heap file: access paths, page accounting, growth."""

import numpy as np
import pytest

from repro.cube.relation import Relation
from repro.cube.schema import Schema
from repro.storage.counters import BTABLE, DBOOL, IOCounters
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def schema():
    return Schema(("A", "B"), ("X", "Y"))


@pytest.fixture
def relation(schema):
    bool_rows = [(i % 3, i % 2) for i in range(20)]
    pref_rows = [(i / 20, 1 - i / 20) for i in range(20)]
    return Relation(schema, bool_rows, pref_rows)


def test_row_access(relation):
    assert relation.bool_row(4) == (1, 0)
    assert relation.pref_point(4) == (0.2, 0.8)
    assert relation.bool_value(4, "A") == 1
    assert relation.bool_value(4, "B") == 0


def test_len_and_tids(relation):
    assert len(relation) == 20
    assert list(relation.tids()) == list(range(20))


def test_width_validation(schema):
    with pytest.raises(ValueError):
        Relation(schema, [(1,)], [(0.0, 0.0)])
    with pytest.raises(ValueError):
        Relation(schema, [(1, 2)], [(0.0,)])
    with pytest.raises(ValueError):
        Relation(schema, [(1, 2)], [])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_preference_values_are_refused(schema, bad):
    with pytest.raises(ValueError, match="finite"):
        Relation(schema, [(1, 2)], [(0.5, bad)])
    with pytest.raises(ValueError, match="finite"):
        Relation(schema, np.array([[1, 2]]), np.array([[bad, 0.5]]))
    relation = Relation(schema, [(1, 2)], [(0.5, 0.5)])
    with pytest.raises(ValueError, match="finite"):
        relation.append((1, 2), (bad, 0.5))
    with pytest.raises(ValueError, match="finite"):
        relation.overwrite_pref(0, (0.5, bad))
    assert len(relation) == 1
    assert relation.pref_point(0) == (0.5, 0.5)


def scanned(relation, counters=None):
    """The tids of a page-at-a-time table scan, tombstoned rows included."""
    view = relation.view(0)  # a relation with no epoch manager: every row
    return [tid for page in view.scan_pages(counters, BTABLE) for tid in page]


def test_scan_reads_every_heap_page_once(schema):
    disk = SimulatedDisk(page_size=128)  # tiny pages => many heap pages
    bool_rows = [(i, i) for i in range(100)]
    pref_rows = [(float(i), float(i)) for i in range(100)]
    relation = Relation(schema, bool_rows, pref_rows, disk=disk)
    counters = IOCounters()
    assert scanned(relation, counters) == list(range(100))
    assert counters.get(BTABLE) == relation.heap_page_count()
    assert relation.heap_page_count() > 1


def test_fetch_counts_one_page_read(relation):
    counters = IOCounters()
    bool_row, pref_row = relation.view(0).fetch(7, counters=counters)
    assert bool_row == relation.bool_row(7)
    assert pref_row == relation.pref_point(7)
    assert counters.get(DBOOL) == 1


def test_fetch_out_of_range(relation):
    with pytest.raises(IndexError):
        relation.view(0).fetch(99)


def test_append_grows_heap(schema):
    disk = SimulatedDisk(page_size=128)
    relation = Relation(schema, [], [], disk=disk)
    for i in range(50):
        tid = relation.append((i, i), (float(i), float(i)))
        assert tid == i
    assert len(relation) == 50
    assert scanned(relation) == list(range(50))
    assert relation.bool_row(49) == (49, 49)


def test_append_validates_width(relation):
    with pytest.raises(ValueError):
        relation.append((1,), (0.0, 0.0))
    with pytest.raises(ValueError):
        relation.append((1, 2), (0.0,))


def test_overwrite_pref(relation):
    relation.overwrite_pref(3, (9.0, 9.0))
    assert relation.pref_point(3) == (9.0, 9.0)
    with pytest.raises(ValueError):
        relation.overwrite_pref(3, (1.0,))


def test_overwrite_pref_refuses_a_tid_outside_the_rows(schema):
    """A negative tid names no row: ``overwrite_pref`` refuses it, as
    ``tombstone`` does, and no row — the last one included — changes.
    After an append the matrix holds more rows than the relation, so
    writing at index −1 would land past the last row."""
    relation = Relation(schema, [(0, 0)] * 3, [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)])
    relation.append((1, 1), (0.7, 0.8))
    before = list(relation.pref_points())
    for tid in (-1, -len(relation), len(relation)):
        with pytest.raises(IndexError):
            relation.overwrite_pref(tid, (9.0, 9.0))
        with pytest.raises(IndexError):
            relation.tombstone(tid)
        assert not relation.is_live(tid)
    assert list(relation.pref_points()) == before


def test_pref_points_enumerates_all(relation):
    points = list(relation.pref_points())
    assert len(points) == 20
    assert points[0] == (0, (0.0, 1.0))


def test_values_coerced_to_float(schema):
    relation = Relation(schema, [(1, 1)], [(1, 2)])
    assert relation.pref_point(0) == (1.0, 2.0)
    assert isinstance(relation.pref_point(0)[0], float)


# --------------------------------------------------------------------------- #
# tombstones
# --------------------------------------------------------------------------- #


def test_tombstone_hides_row_from_live_views(relation):
    relation.tombstone(5)
    assert not relation.is_live(5)
    assert 5 not in set(relation.live_tids())
    assert all(tid != 5 for tid, _ in relation.pref_points())
    assert relation.live_count() == 19
    # Row data and numbering survive: len() and fetch are unchanged.
    assert len(relation) == 20
    assert relation.bool_row(5) == (2, 1)


def test_tombstone_is_idempotent_and_bounds_checked(relation):
    relation.tombstone(5)
    relation.tombstone(5)
    assert relation.live_count() == 19
    with pytest.raises(IndexError):
        relation.tombstone(20)


def test_scan_still_reads_pages_holding_only_tombstones(schema):
    disk = SimulatedDisk(page_size=128)
    bool_rows = [(i, i) for i in range(20)]
    pref_rows = [(float(i), float(i)) for i in range(20)]
    relation = Relation(schema, bool_rows, pref_rows, disk=disk)
    for tid in range(20):
        relation.tombstone(tid)
    counters = IOCounters()
    assert not any(relation.is_live(tid) for tid in scanned(relation, counters))
    # Liveness is a row property; the pages are still transferred.
    assert counters.get(BTABLE) == relation.heap_page_count()


# --------------------------------------------------------------------------- #
# heap repair (crash recovery support)
# --------------------------------------------------------------------------- #


def test_paged_count_tracks_appends(schema):
    relation = Relation(schema, [(1, 1)] * 3, [(0.0, 0.0)] * 3)
    assert relation.paged_count() == 3
    relation.append((2, 2), (0.5, 0.5))
    assert relation.paged_count() == 4
    assert relation.repair_heap() == 0  # nothing buffered


def test_repair_heap_pages_the_tail_after_an_interrupted_append(schema):
    from repro.storage.faults import (
        FaultPlan,
        FaultRule,
        FaultyDisk,
        SimulatedCrash,
    )

    disk = FaultyDisk(SimulatedDisk(page_size=128))
    bool_rows = [(i, i) for i in range(4)]
    pref_rows = [(float(i), float(i)) for i in range(4)]
    relation = Relation(schema, bool_rows, pref_rows, disk=disk)
    rows_per_page = relation.rows_per_page
    # Fill the open page, then crash on the allocation of the next one.
    disk.plan = FaultPlan([FaultRule(kind="crash", op="allocate", tag="heap")])
    while len(relation) % rows_per_page != 0:
        relation.append((9, 9), (0.9, 0.9))
    with pytest.raises(SimulatedCrash):
        relation.append((7, 7), (0.7, 0.7))
    disk.plan = FaultPlan()
    # The row landed in memory but never reached a heap page.
    assert len(relation) == relation.paged_count() + 1
    assert relation.repair_heap() == 1
    assert relation.paged_count() == len(relation)
    assert scanned(relation) == list(range(len(relation)))
    assert relation.bool_row(len(relation) - 1) == (7, 7)


# --------------------------------------------------------------------------- #
# the column arrays: projections are views, and writes never reach them
# --------------------------------------------------------------------------- #


def test_a_projection_keeps_its_values_across_writes(relation):
    """``columnar`` hands out views of the relation's own arrays: a later
    overwrite, tombstone or append never shows in one handed out before."""
    before = relation.columnar()
    pref, live = before.pref.copy(), before.live.copy()
    relation.overwrite_pref(3, (9.0, 9.0))
    relation.tombstone(4)
    relation.append((1, 1), (0.5, 0.5))
    assert before.n == 20
    assert (before.pref == pref).all() and (before.live == live).all()
    after = relation.columnar()
    assert after.n == 21
    assert after.pref[3].tolist() == [9.0, 9.0] and not after.live[4]
    assert relation.pref_point(3) == (9.0, 9.0)


def test_adopted_matrices_are_not_written(schema):
    """The generators' matrices are adopted without a copy, and an
    overwrite copies before it writes: the caller's matrix stays."""
    bools = np.array([[1, 2], [3, 4]])
    prefs = np.array([[0.1, 0.2], [0.3, 0.4]])
    relation = Relation(schema, bools, prefs)
    relation.overwrite_pref(0, (0.9, 0.9))
    relation.append((5, 6), (0.5, 0.6))
    assert prefs.tolist() == [[0.1, 0.2], [0.3, 0.4]]
    assert bools.tolist() == [[1, 2], [3, 4]]
    assert relation.pref_point(0) == (0.9, 0.9)
    assert relation.bool_row(2) == (5, 6)


def test_a_value_of_another_type_turns_a_column_into_a_dictionary(schema):
    """Integer columns hold their values; the first other value re-codes
    the column by first appearance, and every row reads back as stored."""
    relation = Relation(schema, [(7, 1), (3, 1)], [(0.0, 0.0)] * 2)
    before = relation.columnar()
    relation.append(("x", 1), (0.0, 0.0))
    relation.append((7, 2), (0.0, 0.0))
    assert [relation.bool_row(t) for t in range(4)] == [
        (7, 1), (3, 1), ("x", 1), (7, 2)
    ]
    after = relation.columnar()
    assert after.match_mask({"A": 7}).tolist() == [True, False, False, True]
    assert after.match_mask({"A": "x"}).tolist() == [False, False, True, False]
    assert before.codes[:, 0].tolist() == [7, 3]
    assert before.match_mask({"A": 7}).tolist() == [True, False]
    with pytest.raises(IndexError):
        relation.bool_row(4)
