"""The device model: modelled latency is charged exactly, whatever the host's
sleep overshoots by.  No wall clock: the sleeper and the clock are fakes."""

import random
import threading

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.counters import SBLOCK
from repro.storage.disk import DeviceClock, SimulatedDisk
from repro.storage.faults import FaultPlan, FaultRule, FaultyDisk

LATENCY = 2e-4
READS = 1000


class FakeHost:
    """A clock that moves only inside ``sleep``, by the request plus an
    overshoot the test chooses."""

    def __init__(self, overshoot=lambda seconds, call: 0.0):
        self.now = 0.0
        self.overshoot = overshoot
        self.requests: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds > 0.0
        self.now += seconds + self.overshoot(seconds, len(self.requests))
        self.requests.append(seconds)

    def device(self) -> DeviceClock:
        return DeviceClock(sleep=self.sleep, clock=self.clock)


def _seeded_overshoot():
    rng = random.Random(11)
    return lambda seconds, call: rng.uniform(0.0, 3e-4)


@pytest.mark.parametrize(
    "overshoot",
    [
        lambda seconds, call: 0.0,
        lambda seconds, call: 0.55 * seconds,
        _seeded_overshoot(),
        lambda seconds, call: 0.010 if call == 100 else 0.0,
    ],
    ids=["exact", "plus-55-percent", "seeded-random", "one-10ms-stall"],
)
def test_charged_time_sums_to_reads_times_latency(overshoot):
    host = FakeHost(overshoot)
    disk = SimulatedDisk(read_latency=LATENCY)
    disk.device = host.device()
    page_id = disk.allocate("t", payload="x")
    for _ in range(READS):
        assert disk.read(page_id, SBLOCK) == "x"
    assert host.now == pytest.approx(READS * LATENCY, rel=0.01)
    assert disk.counters.get(SBLOCK) == READS


def test_a_stall_is_repaid_by_skipping_sleeps_not_by_negative_ones():
    host = FakeHost(lambda seconds, call: 0.001 if call == 0 else 0.0)
    device = host.device()
    for _ in range(10):
        device.charge(LATENCY)
    # 1.2 ms went by in the first sleep: five further reads are already paid.
    assert host.requests == pytest.approx([LATENCY] * 5)


def test_a_read_is_charged_from_its_first_instruction():
    """Time the read spends on its own bookkeeping before it sleeps (here:
    2 µs between the two clock readings) comes out of the next sleep."""
    host = FakeHost()
    ticking = iter(range(10**6))
    disk = SimulatedDisk(read_latency=LATENCY)
    disk.device = DeviceClock(
        sleep=host.sleep, clock=lambda: host.now + 2e-6 * next(ticking)
    )
    page_id = disk.allocate("t", payload="x")
    for _ in range(3):
        disk.read(page_id, SBLOCK)
    assert host.requests == pytest.approx([LATENCY, LATENCY - 2e-6, LATENCY - 2e-6])


def test_each_thread_keeps_its_own_debt():
    lock = threading.Lock()
    requests: dict[str, list[float]] = {"a": [], "b": []}
    clock = [0.0]

    def sleep(seconds):
        with lock:
            requests[threading.current_thread().name].append(seconds)
            # Thread a's sleeps overshoot by half; thread b's are exact.
            extra = 0.5 * seconds if threading.current_thread().name == "a" else 0.0
            clock[0] += seconds + extra

    device = DeviceClock(sleep=sleep, clock=lambda: clock[0])
    turn = {"a": threading.Semaphore(1), "b": threading.Semaphore(0)}

    def reader(me, other):
        for _ in range(4):
            assert turn[me].acquire(timeout=10)
            device.charge(LATENCY)
            turn[other].release()

    threads = [
        threading.Thread(target=reader, args=("a", "b"), name="a"),
        threading.Thread(target=reader, args=("b", "a"), name="b"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert requests["b"] == pytest.approx([LATENCY] * 4)  # never owed anything
    assert requests["a"][0] == pytest.approx(LATENCY)
    assert all(r < LATENCY for r in requests["a"][1:])  # repaying its own debt


def test_zero_latency_never_touches_the_device_clock():
    class Untouchable:
        def charge(self, seconds):
            raise AssertionError("latency 0 must not reach the device clock")

    disk = SimulatedDisk()
    disk.device = Untouchable()
    page_id = disk.allocate("t", payload="x")
    assert disk.read(page_id, SBLOCK) == "x"
    assert BufferPool(disk, capacity=2).get(page_id, SBLOCK) == "x"


def test_the_sleep_holds_neither_the_disk_lock_nor_the_pool_lock():
    disk = SimulatedDisk(read_latency=LATENCY)
    pool = BufferPool(disk, capacity=2)
    slept = []

    def sleep(seconds):
        assert not disk._lock.locked()
        assert not pool._lock.locked()
        slept.append(seconds)

    disk.device = DeviceClock(sleep=sleep, clock=lambda: 0.0)
    page_id = disk.allocate("t", payload="x")
    assert pool.get(page_id, SBLOCK) == "x"
    assert slept == [LATENCY]


def test_faulty_disk_forwards_read_latency_to_the_device_it_wraps():
    disk = FaultyDisk(SimulatedDisk())
    assert disk.read_latency == 0.0
    disk.read_latency = LATENCY
    assert disk.inner.read_latency == LATENCY
    host = FakeHost()
    disk.inner.device = host.device()
    page_id = disk.allocate("t", payload="x")
    assert disk.read(page_id, SBLOCK) == "x"
    assert host.requests == [LATENCY]


@pytest.mark.parametrize("op", ["read", "write", "allocate"])
def test_slow_faults_stall_through_the_same_device_clock(op):
    disk = FaultyDisk(SimulatedDisk())
    host = FakeHost()
    disk.inner.device = host.device()
    page_id = disk.allocate("t", payload="x")
    disk.plan = FaultPlan([FaultRule(kind="slow", op=op, delay=0.05)])
    if op == "read":
        assert disk.read(page_id, SBLOCK) == "x"
    elif op == "write":
        disk.write(page_id, "y")
    else:
        disk.allocate("t", payload="z")
    assert host.requests == [0.05]
    assert disk.fault_counts["slow"] == 1
