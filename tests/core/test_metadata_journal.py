"""Tests for the persistent metadata journal and master rebuild."""

import pytest

from repro.core import server as server_module
from repro.core.master import MasterError
from repro.core.protocol import (
    JOURNAL_OP_ALLOC,
    JOURNAL_OP_FREE,
    pack_journal_record,
    unpack_journal_record,
)

from tests.core.conftest import build_pool, fast_config, journal_entries

small_journal = journal_entries(256)


def journal_pool(**overrides):
    cfg = fast_config(metadata_journal=True, **overrides)
    return build_pool(num_servers=2, num_clients=1, config=cfg)


# ---------------------------------------------------------------------------
# Record encoding
# ---------------------------------------------------------------------------
def test_journal_record_roundtrip():
    raw = pack_journal_record(JOURNAL_OP_ALLOC, 7, 0xABCD, 4096)
    assert len(raw) == 32
    op, lock_idx, gaddr, size, req_id = unpack_journal_record(raw)
    assert (op, lock_idx, gaddr, size) == (JOURNAL_OP_ALLOC, 7, 0xABCD, 4096)
    assert req_id == 0  # default: no idempotency token


def test_journal_record_roundtrip_with_req_id():
    raw = pack_journal_record(JOURNAL_OP_FREE, 3, 0x1000, 64, req_id=(9 << 32) | 5)
    op, lock_idx, gaddr, size, req_id = unpack_journal_record(raw)
    assert (op, lock_idx, gaddr, size) == (JOURNAL_OP_FREE, 3, 0x1000, 64)
    assert req_id == (9 << 32) | 5


def test_journal_record_validation():
    with pytest.raises(ValueError):
        pack_journal_record(99, 0, 0, 0)
    with pytest.raises(ValueError):
        unpack_journal_record(bytes(32))  # zero magic


# ---------------------------------------------------------------------------
# Journaling during normal operation
# ---------------------------------------------------------------------------
def test_allocations_are_journaled_to_nvm():
    sim, pool = journal_pool()
    client = pool.clients[0]

    def app(sim):
        addrs = []
        for _ in range(4):
            addrs.append((yield from client.gmalloc(1024)))
        yield from client.gfree(addrs[1])
        return addrs

    (addrs,) = pool.run(app(sim))
    # The journals hold one record per alloc/free, persisted in NVM.
    total = 0
    for server in pool.servers.values():
        if server._journal_count:
            count = int.from_bytes(
                server.data_device.peek(server.journal_base, 8), "little")
            assert count == server._journal_count
            total += count
    assert total == 5  # 4 allocs + 1 free


def test_journal_region_is_excluded_from_allocation():
    sim, pool = journal_pool()
    server = pool.servers[0]
    assert server.data_capacity < server.data_device.capacity
    handle = pool.master._servers[0]
    assert handle.allocator.capacity == server.data_capacity


def test_journal_disabled_by_default():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    assert pool.servers[0].journal_base is None

    def app(sim):
        try:
            yield from pool.master.rebuild()
        except MasterError:
            return "no-journal"

    (outcome,) = pool.run(app(sim))
    assert outcome == "no-journal"


# ---------------------------------------------------------------------------
# Rebuild after a full master restart
# ---------------------------------------------------------------------------
def test_master_rebuild_restores_directory_and_data():
    sim, pool = journal_pool()
    client = pool.clients[0]

    def before(sim):
        addrs = []
        for i in range(6):
            g = yield from client.gmalloc(512)
            yield from client.gwrite(g, bytes([i + 1]) * 512)
            addrs.append(g)
        yield from client.gsync()
        yield from client.gfree(addrs[2])
        return addrs

    (addrs,) = pool.run(before(sim))
    live = [g for i, g in enumerate(addrs) if i != 2]

    # Master restart: all volatile metadata evaporates...
    pool.master.reset_volatile_state()
    assert len(pool.master.directory) == 0

    # ...and the journal brings it back.
    def rebuild(sim):
        recovered = yield from pool.master.rebuild()
        return recovered

    (recovered,) = pool.run(rebuild(sim))
    assert recovered == 5
    for g in live:
        assert g in pool.master.directory

    # Clients can still read everything (their metadata re-resolves).
    def after(sim):
        out = []
        for g in live:
            client._metas.drop(g)
            out.append((yield from client.gread(g, length=4)))
        return out

    (values,) = pool.run(after(sim))
    expected = [bytes([i + 1]) * 4 for i in range(6) if i != 2]
    assert values == expected


def test_rebuild_allocator_prevents_overlap():
    """New allocations after rebuild never overlap recovered objects."""
    sim, pool = journal_pool()
    client = pool.clients[0]

    def before(sim):
        addrs = []
        for _ in range(4):
            g = yield from client.gmalloc(1024)
            yield from client.gwrite(g, b"\x77" * 1024)
            addrs.append(g)
        yield from client.gsync()
        return addrs

    (old_addrs,) = pool.run(before(sim))
    pool.master.reset_volatile_state()

    def rebuild_and_alloc(sim):
        yield from pool.master.rebuild()
        fresh = []
        for _ in range(4):
            g = yield from client.gmalloc(1024)
            fresh.append(g)
        return fresh

    (fresh,) = pool.run(rebuild_and_alloc(sim))
    assert not set(fresh) & set(old_addrs)

    # Old data is untouched by the new allocations' existence.
    def check(sim):
        out = []
        for g in old_addrs:
            client._metas.drop(g)
            out.append((yield from client.gread(g, length=4)))
        return out

    (values,) = pool.run(check(sim))
    assert values == [b"\x77" * 4] * 4


def test_rebuild_reuses_freed_lock_indices():
    # One server: lock indices are a per-server namespace.
    sim, pool = build_pool(
        num_servers=1, num_clients=1,
        config=fast_config(metadata_journal=True),
    )
    client = pool.clients[0]

    def before(sim):
        a = yield from client.gmalloc(64)
        b = yield from client.gmalloc(64)
        yield from client.gfree(a)
        return a, b

    (result,) = pool.run(before(sim))
    _a, b = result
    b_lock = pool.master.directory.get(b).lock_idx
    pool.master.reset_volatile_state()

    def rebuild(sim):
        yield from pool.master.rebuild()
        # A new allocation may reuse the freed object's lock index but
        # must never collide with the live object's.
        c = yield from client.gmalloc(64)
        return c

    (c,) = pool.run(rebuild(sim))
    assert pool.master.directory.get(b).lock_idx == b_lock
    assert pool.master.directory.get(c).lock_idx != b_lock


def test_rebuild_reads_a_journal_longer_than_one_reply(monkeypatch):
    """400 records do not fit one 4 KiB RPC reply: rebuild reads the
    journal a page at a time and recovers every object."""
    monkeypatch.setattr(server_module, "JOURNAL_ENTRIES", 512)
    sim, pool = build_pool(
        num_servers=1, num_clients=1,
        config=fast_config(metadata_journal=True),
    )
    client = pool.clients[0]

    def fill(sim):
        for _ in range(400):
            yield from client.gmalloc(64)

    pool.run(fill(sim))
    pool.master.reset_volatile_state()
    rebuild = sim.spawn(pool.master.rebuild())
    # Bounded: a reply lost on the server side would wait forever.
    sim.run(until=sim.now + 10_000_000)
    assert rebuild.triggered, "rebuild is still waiting for a journal page"
    assert rebuild.value == 400


def test_journal_full_rejects_allocation(monkeypatch):
    monkeypatch.setattr(server_module, "JOURNAL_ENTRIES", 3)
    sim, pool = build_pool(
        num_servers=1, num_clients=1,
        config=fast_config(metadata_journal=True),
    )
    client = pool.clients[0]
    from repro.core import FatalError

    def app(sim):
        for _ in range(3):
            yield from client.gmalloc(64)
        try:
            yield from client.gmalloc(64)
        except FatalError as exc:
            return str(exc)

    (msg,) = pool.run(app(sim))
    assert "journal full" in msg


def test_locks_work_after_rebuild():
    sim, pool = journal_pool()
    client = pool.clients[0]

    def before(sim):
        g = yield from client.gmalloc(64)
        yield from client.gwrite(g, bytes(64))
        yield from client.gsync()
        return g

    (gaddr,) = pool.run(before(sim))
    pool.master.reset_volatile_state()

    def after(sim):
        yield from pool.master.rebuild()
        client._metas.drop(gaddr)
        yield from client.glock(gaddr, write=True)
        yield from client.gwrite(gaddr, b"post-rebuild" + bytes(52))
        yield from client.gunlock(gaddr, write=True)
        data = yield from client.gread(gaddr, length=12)
        return data

    (data,) = pool.run(after(sim))
    assert data == b"post-rebuild"
