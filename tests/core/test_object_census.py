"""Object census: steady-state data-path work retains nothing per message.

A work request's completion is delivered by the event ``post_send`` returns
— the verb's own process — and nowhere else.  While every QP also pushed
each completion into a send CQ that nothing ever polled, a pool kept one
``WorkCompletion`` per WR for its whole life (about 0.2 KB each: the ledger's
``meta_churn`` held 41,000 of them after 8,000 ops).  This pins the fix where
a leak of that kind shows first: in the number of live kernel and verbs
objects after twice the work.  At quiescence the drain holds no state and
every client's scratch region is wholly free.
"""

import gc
from collections import Counter

import pytest

from repro.rdma.wr import WorkCompletion
from repro.sim import Event, Process

from tests.core.conftest import build_pool, fast_config

CENSUS = (WorkCompletion, Event, Process)


def _census():
    gc.collect()
    return Counter(type(obj) for obj in gc.get_objects() if type(obj) in CENSUS)


def _scratch_idle(pool):
    """At quiescence every client's scratch region is wholly free and has
    no waiters: a span lent is a span given back."""
    for client in pool.clients:
        scratch = client._reads.scratch
        assert scratch.idle, (client.name, scratch._runs,
                              len(scratch._waiters))


def test_reads_and_writes_leave_no_objects_behind():
    """N reads and writes, then 2N more: the live counts of completions,
    events and processes after a collection do not grow with N."""
    sim, pool = build_pool()
    addrs = {}

    def setup(sim, client):
        addrs[client] = []
        for i in range(8):
            gaddr = yield from client.gmalloc(256)
            yield from client.gwrite(gaddr, bytes([i]) * 256)
            addrs[client].append(gaddr)
        yield from client.gsync()

    def work(sim, client, rounds):
        own = addrs[client]
        for i in range(rounds):
            gaddr = own[i % len(own)]
            yield from client.gwrite(gaddr, bytes([i % 251]) * 256)
            assert (yield from client.gread(gaddr)) == bytes([i % 251]) * 256
            if i % 8 == 7:
                yield from client.gread_many(own)
        yield from client.gsync()

    pool.run(*(setup(sim, c) for c in pool.clients))
    n = 40
    pool.run(*(work(sim, c, n) for c in pool.clients))  # warm: lazy set-up done
    pool.run(*(work(sim, c, n) for c in pool.clients))
    after_n = _census()
    pool.run(*(work(sim, c, 2 * n) for c in pool.clients))
    _scratch_idle(pool)
    after_3n = _census()
    for kind in CENSUS:
        # 2N more rounds are hundreds more WRs (+260 completions while the
        # send CQ kept them); a handful of objects may come and go with cache
        # promotions and ring growth, never hundreds.
        assert after_3n[kind] - after_n[kind] <= 8, (
            f"{kind.__name__}: {after_n[kind]} live after N, "
            f"{after_3n[kind]} after 3N")


def test_backed_up_bursts_leave_no_drain_state_behind():
    """Bursts that back the rings up past half full are drained overlapped;
    at quiescence the drain holds no per-object chain, no ready frame, no
    admitted write, no out-of-order retirement and no parked frame group,
    and after 2N more bursts no more live events or processes than after
    N."""
    sim, pool = build_pool(config=fast_config(enable_cache=False))
    addrs = {}

    def setup(sim, client):
        addrs[client] = []
        for _ in range(6):
            addrs[client].append((yield from client.gmalloc(1024)))
        # Larger than a 4 KiB slot: its writes are 3-frame groups.
        addrs[client].append((yield from client.gmalloc(10 * 1024)))

    def bursts(sim, client, rounds):
        own, group = addrs[client][:-1], addrs[client][-1]
        for r in range(rounds):
            for server in pool.servers.values():
                server.drain.stall(20_000)
            for i in range(12):  # one object twice per burst: a chain
                gaddr = own[i % len(own)]
                yield from client.gwrite(gaddr, bytes([(r + i) % 251]) * 1024)
            yield from client.gwrite(group, bytes([r % 251]) * (10 * 1024))
            yield from client.gsync()

    def quiescent():
        for server in pool.servers.values():
            assert not server.drain._applying
            assert not server.drain._ready
            assert server.drain._applies == 0
            for ring in server.drain.rings.values():
                assert not ring.done and not ring.handed and not ring.parked
                assert ring.drained == ring.seq
        _scratch_idle(pool)

    pool.run(*(setup(sim, c) for c in pool.clients))
    n = 4
    pool.run(*(bursts(sim, c, n) for c in pool.clients))  # warm: writers spawned
    assert all(s.drain._writers for s in pool.servers.values())
    quiescent()
    after_n = _census()
    pool.run(*(bursts(sim, c, 2 * n) for c in pool.clients))
    quiescent()
    after_3n = _census()
    for kind in CENSUS:
        assert after_3n[kind] - after_n[kind] <= 8, (
            f"{kind.__name__}: {after_n[kind]} live after N, "
            f"{after_3n[kind]} after 3N")


def test_the_location_log_stays_within_its_bound(monkeypatch):
    """Each lifecycle (allocate, pin, read, free) logs one location change;
    N and then 2N more leave the master's log at its bound and every client
    with one cursor per shard."""
    from repro.core import directory as directory_module

    monkeypatch.setattr(directory_module, "LOCATION_LOG_ENTRIES", 16)
    sim, pool = build_pool()

    def lifecycles(sim, client, rounds):
        for i in range(rounds):
            gaddr = yield from client.gmalloc(256)
            yield from client.gwrite(gaddr, bytes([i % 251]) * 256)
            yield from client.gsync()
            yield from pool.master.pin(gaddr)
            for _ in range(8):
                assert (yield from client.gread(gaddr)) == bytes([i % 251]) * 256
            yield from client.gfree(gaddr)

    n = 12
    pool.run(*(lifecycles(sim, c, n) for c in pool.clients))
    log = pool.master.directory._loc_log
    after_n = len(log)
    pool.run(*(lifecycles(sim, c, 2 * n) for c in pool.clients))
    assert after_n == len(log) == 16
    assert all(len(c._metas.cursors) == len(pool.masters) for c in pool.clients)


def test_lock_lifecycles_leave_no_holder_behind():
    """Allocate, write-lock, write, unlock, free, N and then 2N more times:
    a released lock leaves no holder entry behind, so the per-client lock
    state stays empty however many objects came and went."""
    sim, pool = build_pool()

    def lifecycles(sim, client, rounds):
        for i in range(rounds):
            gaddr = yield from client.gmalloc(256)
            yield from client.glock(gaddr)
            yield from client.gwrite(gaddr, bytes([i % 251]) * 256)
            yield from client.gunlock(gaddr)
            yield from client.gfree(gaddr)

    n = 8
    pool.run(*(lifecycles(sim, c, n) for c in pool.clients))
    assert all(not c.locks._holders for c in pool.clients)
    after_n = _census()
    pool.run(*(lifecycles(sim, c, 2 * n) for c in pool.clients))
    assert all(not c.locks._holders for c in pool.clients)
    assert _census()[Process] - after_n[Process] <= 8


@pytest.mark.xfail(strict=True, reason=(
    "Master._alloc_replies and _freed_reqs keep one idempotency entry per "
    "gmalloc and gfree for the master's whole life (a reshard exports them "
    "whole): pruning needs each client's low-water req_seq on the wire "
    "(ROADMAP item 33)"))
def test_alloc_and_free_lifecycles_leave_no_dedup_entries_behind():
    """Allocate, write, free, N and then 2N more times: the master's replay
    memo for gmalloc and gfree stays flat once every reply has been seen."""
    sim, pool = build_pool()

    def lifecycles(sim, client, rounds):
        for i in range(rounds):
            gaddr = yield from client.gmalloc(256)
            yield from client.gwrite(gaddr, bytes([i % 251]) * 256)
            yield from client.gfree(gaddr)

    def memo():
        return sum(len(m._alloc_replies) + len(m._freed_reqs)
                   for m in pool.masters)

    n = 8
    pool.run(*(lifecycles(sim, c, n) for c in pool.clients))
    after_n = memo()
    pool.run(*(lifecycles(sim, c, 2 * n) for c in pool.clients))
    assert memo() - after_n <= 8, (after_n, memo())
