"""Tests for the memory device model: timing, contention, data integrity."""

import pytest

from repro.hardware.memory import MemoryAccessError, MemoryDevice, SparseBuffer
from repro.hardware.specs import MemorySpec
from repro.sim import Simulator


def tiny_spec(**overrides):
    base = dict(
        name="test",
        kind="dram",
        capacity_bytes=1 << 20,
        read_latency_ns=100,
        write_latency_ns=100,
        read_bw=1.0,  # 1 B/ns aggregate
        write_bw=1.0,
        channels=1,
    )
    base.update(overrides)
    return MemorySpec(**base)


def run_proc(sim, gen):
    p = sim.spawn(gen)
    sim.run()
    assert p.ok, p.exception
    return p.value


# ---------------------------------------------------------------------------
# SparseBuffer
# ---------------------------------------------------------------------------
def test_sparse_buffer_roundtrip():
    buf = SparseBuffer(1 << 30)
    buf.write(12345, b"hello world")
    assert buf.read(12345, 11) == b"hello world"


def test_sparse_buffer_unwritten_reads_zero():
    buf = SparseBuffer(1 << 30)
    assert buf.read(999_999, 8) == b"\x00" * 8


def test_sparse_buffer_cross_page_write():
    buf = SparseBuffer(1 << 30)
    page = SparseBuffer.PAGE_SIZE
    payload = bytes(range(256)) * 2
    buf.write(page - 100, payload)
    assert buf.read(page - 100, len(payload)) == payload


def test_sparse_buffer_lazy_allocation():
    buf = SparseBuffer(128 << 30)  # 128 GiB logical
    assert buf.resident_bytes == 0
    buf.write(0, b"x")
    assert buf.resident_bytes == 1


def test_sparse_buffer_access_inside_one_page_and_across_the_boundary():
    """An access that ends exactly on the page boundary stays in one page,
    one byte more spans two; both see the same bytes, and a page holds no
    more than its furthest written byte."""
    page = SparseBuffer.PAGE_SIZE
    assert page == 4096
    buf = SparseBuffer(1 << 30)
    inside = bytes(range(1, 101))
    buf.write(page - 100, inside)            # ends on the boundary
    assert buf.resident_bytes == page
    buf.write(3 * page - 100, inside + b"!")  # one byte into the next page
    assert buf.resident_bytes == 2 * page + 1
    for base, data in ((page - 100, inside), (3 * page - 100, inside + b"!")):
        got = buf.read(base, len(data))
        assert got == data and type(got) is bytes
        assert buf.read(base - 1, len(data) + 2) == b"\x00" + data + b"\x00"
    assert buf.read(7 * page + 5, 16) == bytes(16)  # untouched page


def test_sparse_buffer_holds_only_up_to_the_furthest_byte_written():
    """A 150-byte frame at the head of a 4 KiB slot costs 150 host bytes; a
    write past a page's end grows it and zero-fills the gap, a write below
    its end does not grow it, and bytes past the end read as zeros."""
    page = SparseBuffer.PAGE_SIZE
    buf = SparseBuffer(1 << 30)
    frame = bytes(range(150))
    buf.write(5 * page, frame)
    assert buf.resident_bytes == 150
    assert buf.read(5 * page, 200) == frame + bytes(50)  # straddles the end
    assert buf.read(5 * page + 300, 10) == bytes(10)      # wholly past it
    buf.write(5 * page + 1000, b"tail")                   # past the end: a gap
    assert buf.resident_bytes == 1004
    assert buf.read(5 * page + 148, 858) == frame[148:] + bytes(850) + b"tail" + bytes(2)
    buf.write(5 * page + 10, b"mid")                      # below the end
    assert buf.resident_bytes == 1004
    assert buf.read(5 * page + 9, 5) == frame[9:10] + b"mid" + frame[13:14]
    assert buf.read(5 * page + 1000, page - 1000) == b"tail" + bytes(page - 1004)


def test_sparse_buffer_empty_write_touches_no_page():
    buf = SparseBuffer(1 << 30)
    buf.write(12345, b"")
    assert buf.resident_bytes == 0 and buf.read(12345, 0) == b""
    buf.write(12345, b"x")
    buf.write(12999, b"")  # past the held end: holds no more
    assert buf.resident_bytes == 12345 % SparseBuffer.PAGE_SIZE + 1


# ---------------------------------------------------------------------------
# MemoryDevice timing
# ---------------------------------------------------------------------------
def test_read_service_time_is_latency_plus_transfer():
    sim = Simulator()
    dev = MemoryDevice(sim, tiny_spec())
    # 100 ns latency + 1000 B at 1 B/ns = 1100 ns
    assert dev.read_service_time(1000) == 1100
    assert dev.write_service_time(1000) == 1100


def test_asymmetric_bandwidth_shows_in_service_time():
    sim = Simulator()
    dev = MemoryDevice(sim, tiny_spec(kind="nvm", read_bw=2.0, write_bw=0.5))
    assert dev.read_service_time(1000) == 100 + 500
    assert dev.write_service_time(1000) == 100 + 2000


def test_timed_read_returns_data_and_advances_clock():
    sim = Simulator()
    dev = MemoryDevice(sim, tiny_spec())
    dev.poke(64, b"payload!")

    def proc(sim):
        data = yield from dev.read(64, 8)
        return data, sim.now

    data, when = run_proc(sim, proc(sim))
    assert data == b"payload!"
    assert when == dev.read_service_time(8)


def test_timed_write_stores_data():
    sim = Simulator()
    dev = MemoryDevice(sim, tiny_spec())

    def proc(sim):
        yield from dev.write(128, b"abcd")

    run_proc(sim, proc(sim))
    assert dev.peek(128, 4) == b"abcd"
    assert dev.bytes_written.total == 4


def test_channel_contention_queues_requests():
    sim = Simulator()
    dev = MemoryDevice(sim, tiny_spec(channels=1))
    done = []

    def reader(sim, i):
        yield from dev.read(0, 900)  # 100 + 900 = 1000 ns each
        done.append((sim.now, i))

    for i in range(3):
        sim.spawn(reader(sim, i))
    sim.run()
    assert [t for t, _ in done] == [1000, 2000, 3000]


def test_multiple_channels_serve_in_parallel():
    sim = Simulator()
    dev = MemoryDevice(sim, tiny_spec(channels=2, read_bw=2.0))
    done = []

    def reader(sim, i):
        yield from dev.read(0, 900)  # per-channel bw 1 B/ns -> 1000 ns
        done.append(sim.now)

    for i in range(2):
        sim.spawn(reader(sim, i))
    sim.run()
    assert done == [1000, 1000]


def test_out_of_bounds_rejected():
    sim = Simulator()
    dev = MemoryDevice(sim, tiny_spec(capacity_bytes=1024))
    with pytest.raises(MemoryAccessError):
        dev.peek(1020, 8)
    with pytest.raises(MemoryAccessError):
        dev.poke(-1, b"x")

    def bad_read(sim):
        yield from dev.read(1024, 1)

    p = sim.spawn(bad_read(sim))
    sim.run()
    assert not p.ok
    assert isinstance(p.exception, MemoryAccessError)


def test_persistence_flag():
    sim = Simulator()
    assert MemoryDevice(sim, tiny_spec(kind="nvm")).is_persistent
    assert not MemoryDevice(sim, tiny_spec(kind="dram", name="d2")).is_persistent


def test_metrics_recorded():
    sim = Simulator()
    dev = MemoryDevice(sim, tiny_spec())

    def proc(sim):
        yield from dev.write(0, b"12345678")
        yield from dev.read(0, 8)

    run_proc(sim, proc(sim))
    assert dev.bytes_read.total == 8
    assert dev.bytes_written.total == 8
    assert dev.bytes_read.count == dev.bytes_written.count == 1
    assert dev.resident_bytes == 8


def test_nvm_vs_dram_latency_gap_under_same_load():
    """An NVM read must take longer than a DRAM read of the same size —
    the gap Gengar's DRAM cache removes."""
    sim = Simulator()
    dram = MemoryDevice(sim, tiny_spec(name="dram"), name="dram")
    nvm = MemoryDevice(
        sim,
        tiny_spec(name="nvm", kind="nvm", read_latency_ns=300, read_bw=0.5),
        name="nvm",
    )
    times = {}

    def reader(sim, dev, tag):
        start = sim.now
        yield from dev.read(0, 4096)
        times[tag] = sim.now - start

    sim.spawn(reader(sim, dram, "dram"))
    sim.spawn(reader(sim, nvm, "nvm"))
    sim.run()
    assert times["nvm"] > times["dram"]
