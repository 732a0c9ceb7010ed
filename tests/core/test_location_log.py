"""The location log: clients learn every cache promotion and demotion of a
shard from their next ``report`` to it (PROTOCOLS §3.5).

Each master shard logs the gaddr of every location change it makes; a
report carries the client's cursor into that log and the reply brings the
current location of everything changed since.  A cursor the log cannot
serve (behind its tail, or from another incarnation of the master) resyncs:
the client devalues every location it holds for that shard's servers.
"""

import pickle
from dataclasses import replace

import pytest

from repro.core import master as master_module
from repro.core.client import RetryPolicy
from repro.core.protocol import LOCATION_REPLY_UPDATES
from repro.rdma.rpc import DEFAULT_BUFFER_SIZE

from tests.core.conftest import build_pool, fast_config


def quiet_config(**overrides):
    """No planner epoch and no automatic report inside a test: every
    location change and every report is the test's own."""
    return fast_config(epoch_ns=10**12, report_every_ops=10**6, **overrides)


def alloc(client, n, size=64):
    gaddrs = []
    for i in range(n):
        gaddr = yield from client.gmalloc(size)
        yield from client.gwrite(gaddr, bytes([i % 251 + 1]) * size)
        gaddrs.append(gaddr)
    yield from client.gsync()
    return gaddrs


def demote(pool, gaddr):
    master = pool.master
    sid = master.directory.get(gaddr).server_id
    return master._demote(master._servers[sid], master._policies[sid], gaddr)


def held(client, gaddr):
    return client._cached_meta(gaddr)


def test_an_allocating_client_learns_a_promotion_without_reading_it():
    sim, pool = build_pool(num_servers=1, config=quiet_config())
    a, b = pool.clients
    (x, y), = pool.run(alloc(b, 2))
    a_x, = pool.run(a.gmalloc(64))
    assert not held(a, a_x).cached
    pool.run(pool.master.pin(a_x))
    # a's report names only y: the cursor, not the entries, brings a_x.
    pool.run(a.gread(y))
    pool.run(a._send_report())
    assert held(a, a_x).cached
    assert a.m_location_updates.count == 1
    hits = a.m_cache_hits.count
    pool.run(a.gread(a_x))
    assert a.m_cache_hits.count == hits + 1


def test_a_client_learns_a_demotion_before_it_reads_the_stale_slot():
    sim, pool = build_pool(num_servers=1, config=quiet_config())
    a, b = pool.clients
    (x, y), = pool.run(alloc(b, 2))
    pool.run(pool.master.pin(x))
    pool.run(a.gread(x))
    pool.run(a._send_report())
    assert held(a, x).cached
    pool.run(demote(pool, x))
    pool.run(a.gread(y))
    pool.run(a._send_report())
    assert not held(a, x).cached
    misses, nvm = a.m_tag_misses.count, a.m_nvm_reads.count
    (data,) = pool.run(a.gread(x))
    assert data == bytes([1]) * 64
    assert a.m_tag_misses.count == misses
    assert a.m_nvm_reads.count == nvm + 1


def test_more_changes_than_one_reply_holds_arrive_over_successive_reports():
    n = LOCATION_REPLY_UPDATES + 20
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=quiet_config())
    (a,) = pool.clients
    (gaddrs,) = pool.run(alloc(a, n))

    def pin_all(sim):
        for gaddr in gaddrs:
            yield from pool.master.pin(gaddr)

    pool.run(pin_all(sim))
    learned = []
    for _ in range(3):
        pool.run(a._send_report())
        learned.append(sum(held(a, g).cached for g in gaddrs))
    assert learned == [LOCATION_REPLY_UPDATES, n, n]
    assert a.m_location_resyncs.count == 0


def test_a_reply_at_the_cap_fits_the_rpc_buffer():
    widest = (1 << 64) - 1
    reply = {"updates": [(widest - i, True, widest - i)
                         for i in range(LOCATION_REPLY_UPDATES)],
             "cursor": widest, "lease": "unknown"}
    framed = (widest, ("ok", {"t": widest, "r": reply}))
    assert len(pickle.dumps(framed, protocol=pickle.HIGHEST_PROTOCOL)) \
        < DEFAULT_BUFFER_SIZE


def test_the_reply_reads_the_directory_and_deduplicates():
    """Promote, demote, promote: one update, carrying the final location."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=quiet_config())
    (a,) = pool.clients
    master = pool.master
    ((x,),) = pool.run(alloc(a, 1))
    cursor = master._loc_head
    pool.run(master.pin(x))
    pool.run(demote(pool, x))
    pool.run(master.pin(x))
    record = master.directory.get(x)
    reply = master._location_changes(cursor)
    assert reply == {"updates": [(x, True, record.cache_offset)],
                     "cursor": cursor + 3}


# ----------------------------------------------------------------------
# Resync
# ----------------------------------------------------------------------
def _check_resync(pool, client, gaddrs, before):
    epochs = {sid: client._srv_epoch.get(sid, 0) for sid in pool.servers}
    pool.run(client._send_report())
    assert client.m_location_resyncs.count == before + 1
    assert all(client._srv_epoch.get(sid, 0) == epochs[sid] + 1
               for sid in pool.servers)
    assert all(held(client, g) is None for g in gaddrs)
    for i, gaddr in enumerate(gaddrs):
        (data,) = pool.run(client.gread(gaddr))
        assert data == bytes([i % 251 + 1]) * 64


def test_a_cursor_behind_the_logs_tail_resyncs(monkeypatch):
    monkeypatch.setattr(master_module, "LOCATION_LOG_ENTRIES", 4)
    sim, pool = build_pool(num_servers=2, config=quiet_config())
    a, b = pool.clients
    (gaddrs,) = pool.run(alloc(b, 6))
    pool.run(*[a.gread(g) for g in gaddrs])

    def pin_all(sim):
        for gaddr in gaddrs:
            yield from pool.master.pin(gaddr)

    pool.run(pin_all(sim))
    _check_resync(pool, a, gaddrs, 0)
    # The cursor is the log's head now: the next report resyncs no more.
    pool.run(a._send_report())
    assert a.m_location_resyncs.count == 1


def test_a_master_reset_and_rebuild_resyncs():
    sim, pool = build_pool(num_servers=2, num_clients=1,
                           config=quiet_config(metadata_journal=True))
    (a,) = pool.clients
    (gaddrs,) = pool.run(alloc(a, 4))
    pool.run(pool.master.pin(gaddrs[0]))
    pool.run(a._send_report())
    assert held(a, gaddrs[0]).cached
    pool.master.reset_volatile_state()
    pool.run(pool.master.rebuild())
    _check_resync(pool, a, gaddrs, 0)


@pytest.fixture
def unjittered_retries(monkeypatch):
    from_config = RetryPolicy.from_config
    monkeypatch.setattr(RetryPolicy, "from_config", staticmethod(
        lambda config: replace(from_config(config), jitter=False)))


def test_a_promoted_standby_resyncs(unjittered_retries):
    config = quiet_config(client_lease_ns=100_000, metadata_journal=True,
                          master_terms=True)
    sim, pool = build_pool(num_servers=2, num_clients=1, config=config,
                           standby_master=True)
    (a,) = pool.clients
    (gaddrs,) = pool.run(alloc(a, 4))
    old = pool.master

    def promote(sim):
        pool.promote_standby(rebuild=True)
        while pool.master._recovering:
            yield sim.timeout(10_000)
        yield from a.gmalloc(64)  # the stale-term reply rotates a over

    pool.run(promote(sim))
    assert pool.master is not old
    _check_resync(pool, a, gaddrs, a.m_location_resyncs.count)


def test_a_free_is_not_logged():
    """Scope: freeing an object changes no location another client is told
    of (ROADMAP item 11 owns recycled-address metadata)."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=quiet_config())
    (a,) = pool.clients
    ((x,),) = pool.run(alloc(a, 1))
    head = pool.master._loc_head
    pool.run(a.gfree(x))
    assert pool.master._loc_head == head
