"""The simulated disk: allocation, counted reads, space accounting."""

import pytest

from repro.storage.counters import IOCounters, SBLOCK, SSIG
from repro.storage.disk import PageFault, SimulatedDisk


def test_allocate_assigns_unique_ids():
    disk = SimulatedDisk()
    ids = {disk.allocate("t") for _ in range(100)}
    assert len(ids) == 100


def test_read_returns_payload_and_counts():
    disk = SimulatedDisk()
    page_id = disk.allocate("rtree", payload="hello")
    counters = IOCounters()
    assert disk.read(page_id, SBLOCK, counters) == "hello"
    assert counters.get(SBLOCK) == 1
    assert disk.counters.get(SBLOCK) == 1


def test_read_without_local_counters_still_counts_globally():
    disk = SimulatedDisk()
    page_id = disk.allocate("x", payload=1)
    disk.read(page_id, SSIG)
    assert disk.counters.get(SSIG) == 1


def test_read_unknown_page_faults():
    disk = SimulatedDisk()
    with pytest.raises(PageFault):
        disk.read(42, SBLOCK)


def test_write_replaces_payload_and_size():
    disk = SimulatedDisk()
    page_id = disk.allocate("t", size=10, payload="a")
    disk.write(page_id, "b", size=20)
    assert disk.peek(page_id).payload == "b"
    assert disk.peek(page_id).size == 20


def test_free_then_read_faults():
    disk = SimulatedDisk()
    page_id = disk.allocate("t")
    disk.free(page_id)
    with pytest.raises(PageFault):
        disk.read(page_id, SBLOCK)


def test_double_free_faults():
    disk = SimulatedDisk()
    page_id = disk.allocate("t")
    disk.free(page_id)
    with pytest.raises(PageFault):
        disk.free(page_id)


def test_size_accounting_by_tag_prefix():
    disk = SimulatedDisk()
    disk.allocate("pcube:sig", size=100)
    disk.allocate("pcube:index", size=50)
    disk.allocate("rtree", size=200)
    assert disk.size_bytes("pcube") == 150
    assert disk.size_bytes("pcube:sig") == 100
    assert disk.size_bytes("rtree") == 200
    assert disk.size_bytes() == 350
    assert len(list(disk.pages("pcube"))) == 2


def test_size_mb():
    disk = SimulatedDisk()
    disk.allocate("t", size=1024 * 1024)
    assert disk.size_mb("t") == pytest.approx(1.0)


def test_default_allocation_is_full_page():
    disk = SimulatedDisk(page_size=4096)
    page_id = disk.allocate("t")
    assert disk.peek(page_id).size == 4096


def test_oversized_pages_flagged():
    disk = SimulatedDisk(page_size=100)
    disk.allocate("ok", size=100)
    big = disk.allocate("big", size=101)
    oversized = disk.oversized_pages()
    assert [p.page_id for p in oversized] == [big]


def test_peek_does_not_count():
    disk = SimulatedDisk()
    page_id = disk.allocate("t", payload=7)
    disk.peek(page_id)
    assert disk.counters.total() == 0


def test_invalid_page_size_rejected():
    with pytest.raises(ValueError):
        SimulatedDisk(page_size=0)


def test_write_accounting_is_separate_from_read_counters():
    disk = SimulatedDisk()
    page_id = disk.allocate("t", payload=1)
    other = disk.allocate("t", payload=2)
    disk.write(page_id, 3)
    disk.write(page_id, 4)
    disk.free(other)
    assert disk.write_counters.get("ALLOC") == 2
    assert disk.write_counters.get("WRITE") == 2
    assert disk.write_counters.get("FREE") == 1
    # Build/maintenance traffic never pollutes the paper's read figures.
    assert disk.counters.total() == 0


def test_pools_registered_while_a_writer_notifies():
    """Readers register per-query pools while the writer invalidates: the
    writer's walk of the registry must never see it change size."""
    import sys
    import threading

    from repro.storage.buffer import BufferPool

    disk = SimulatedDisk()
    page = disk.allocate("t", payload=0)
    pools = [BufferPool(disk, capacity=4) for _ in range(50)]
    errors: list[str] = []
    done = threading.Event()

    def register():
        while not done.is_set():
            pools.append(BufferPool(disk, capacity=4))
            del pools[100:]

    def notify():
        try:
            for value in range(400):
                disk.write(page, payload=value)
        except RuntimeError as exc:
            errors.append(repr(exc))
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fn) for fn in (register, notify)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert errors == []
