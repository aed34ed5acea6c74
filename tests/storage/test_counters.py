"""Tagged I/O counters, and the tally every fleet-level stats class is."""

import threading

import pytest

from repro.core.epoch import EpochStats
from repro.query.stats import MaintenanceStats
from repro.route.stats import RouterStats
from repro.serve.scrub import ScrubStats
from repro.serve.stats import ServingStats
from repro.storage.counters import (
    DBLOCK,
    KNOWN_CATEGORIES,
    SBLOCK,
    SSIG,
    IOCounters,
    Tally,
)
from repro.storage.faults import FaultStats

TALLIES = (
    MaintenanceStats,
    FaultStats,
    ScrubStats,
    EpochStats,
    RouterStats,
    ServingStats,
)


def test_fresh_counters_are_zero():
    counters = IOCounters()
    assert counters.total() == 0
    for category in KNOWN_CATEGORIES:
        assert counters.get(category) == 0


def test_record_and_get():
    counters = IOCounters()
    counters.record(SSIG)
    counters.record(SBLOCK, 3)
    assert counters.get(SSIG) == 1
    assert counters.get(SBLOCK) == 3
    assert counters.total() == 4


def test_negative_record_rejected():
    with pytest.raises(ValueError):
        IOCounters().record(SSIG, -1)


def test_custom_categories_accepted():
    counters = IOCounters()
    counters.record("my-component")
    assert counters.get("my-component") == 1


def test_snapshot_is_a_copy():
    counters = IOCounters()
    counters.record(DBLOCK)
    snap = counters.snapshot()
    snap[DBLOCK] = 99
    assert counters.get(DBLOCK) == 1


def test_merge_adds():
    a = IOCounters()
    b = IOCounters()
    a.record(SSIG, 2)
    b.record(SSIG, 3)
    b.record(DBLOCK)
    a.merge(b)
    assert a.get(SSIG) == 5
    assert a.get(DBLOCK) == 1
    assert b.get(SSIG) == 3  # merge does not mutate the source


def test_iteration_is_sorted():
    counters = IOCounters()
    counters.record("z")
    counters.record("a")
    assert [k for k, _ in counters] == ["a", "z"]


# -- the tally ----------------------------------------------------------- #


@pytest.mark.parametrize("cls", TALLIES, ids=lambda cls: cls.__name__)
def test_a_tally_is_its_declaration(cls):
    """Snapshot keys are exactly the declared counts (zeros before any
    event), labelled counts come back as copies, and an undeclared name is
    an error where it is used — never a new key."""
    tally = cls()
    assert issubclass(cls, Tally) and "snapshot" not in vars(cls)
    assert tally.snapshot() == cls.ZEROS
    assert list(tally.snapshot()) == list(cls.ZEROS)  # declaration order

    scalars = [name for name, zero in cls.ZEROS.items() if zero == 0]
    labelled = [name for name, zero in cls.ZEROS.items() if zero == {}]
    assert len(scalars) + len(labelled) == len(cls.ZEROS)
    tally.bump(**{scalars[0]: 2}, **{name: {"x": 1} for name in labelled})
    tally.bump(**{name: {"x": 2, "y": 1} for name in labelled})
    assert getattr(tally, scalars[0]) == tally.snapshot()[scalars[0]] == 2
    for name in labelled:
        assert tally.snapshot()[name] == {"x": 3, "y": 1}
        tally.snapshot()[name]["x"] = 99
        getattr(tally, name)["x"] = 99
        assert tally.snapshot()[name] == {"x": 3, "y": 1}
        assert cls.ZEROS[name] == {}  # instances never share the zero

    before = tally.snapshot()
    with pytest.raises(KeyError):
        tally.bump(no_such_count=1)
    with pytest.raises(AttributeError):
        tally.no_such_count
    with pytest.raises(AttributeError):  # ``+=`` would bypass the lock
        setattr(tally, scalars[0], 5)
    assert tally.snapshot() == before


def test_tally_bumps_from_many_threads_are_exact():
    tally = FaultStats()

    def work():
        for _ in range(2000):
            tally.bump(retries=1, degraded_loads=2)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert (tally.retries, tally.degraded_loads) == (8000, 16000)


def test_serving_stats_gauges_follow_the_counts():
    stats = ServingStats()
    stats.note_finished("completed", queue_wait=0.2, run_seconds=1.0, epoch=3)
    stats.note_finished("shed", queue_wait=0.4, run_seconds=0.0)
    view = stats.snapshot()
    assert (view["completed"], view["failed"]) == (1, 1)
    assert (view["shed"], view["timed_out"]) == (1, 1)
    assert view["queue_wait_max"] == 0.4
    assert view["queue_wait_mean"] == pytest.approx(0.3)
    assert view["epochs_served"] == {3: 1}
