"""Tests for owner-tagged locks and dead-client eviction."""

from collections import Counter

import pytest

from repro.core import server_of
from repro.core.master import MasterError
from repro.core.protocol import (
    READER_UNIT,
    lock_is_free,
    lock_is_write_locked,
    lock_owner,
    lock_reader_count,
    write_lock_word,
)

from repro.faults import ClientCrash, FaultPlan, MasterCrash, MasterRecover

from tests.core.conftest import build_pool, fast_config

LEASE = 100_000


# ---------------------------------------------------------------------------
# Lock-word layout
# ---------------------------------------------------------------------------
def test_write_lock_word_layout():
    word = write_lock_word(7)
    assert lock_is_write_locked(word)
    assert lock_owner(word) == 7
    assert lock_reader_count(word) == 0


def test_reader_increments_do_not_disturb_owner():
    word = write_lock_word(42) + 3 * 2  # three in-flight reader increments
    assert lock_owner(word) == 42
    assert lock_reader_count(word) == 3
    assert lock_is_write_locked(word)


def test_write_lock_word_validates_uid():
    with pytest.raises(ValueError):
        write_lock_word(0)
    with pytest.raises(ValueError):
        write_lock_word(1 << 32)


def test_free_word():
    assert lock_is_free(0)
    assert not lock_is_free(write_lock_word(1))


# ---------------------------------------------------------------------------
# Client uids
# ---------------------------------------------------------------------------
def test_clients_get_distinct_uids():
    sim, pool = build_pool(num_servers=1, num_clients=3)
    uids = [c.uid for c in pool.clients]
    assert len(set(uids)) == 3
    assert all(u > 0 for u in uids)


def test_lock_word_carries_holder_uid():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.glock(gaddr, write=True)
        record = pool.master.directory.get(gaddr)
        word = pool.servers[0].lock_mr.read_u64(record.lock_idx * 8)
        yield from client.gunlock(gaddr, write=True)
        after = pool.servers[0].lock_mr.read_u64(record.lock_idx * 8)
        return word, after

    (result,) = pool.run(app(sim))
    word, after = result
    assert lock_owner(word) == client.uid
    assert lock_is_write_locked(word)
    assert after == 0


# ---------------------------------------------------------------------------
# Eviction
# ---------------------------------------------------------------------------
def test_evict_client_releases_only_its_locks():
    sim, pool = build_pool(num_servers=2, num_clients=2)
    dead, alive = pool.clients

    def setup(sim):
        abandoned = []
        for _ in range(3):
            g = yield from dead.gmalloc(64)
            yield from dead.glock(g, write=True)
            abandoned.append(g)
        held = yield from alive.gmalloc(64)
        yield from alive.glock(held, write=True)
        return abandoned, held

    (result,) = pool.run(setup(sim))
    abandoned, held = result

    def evict(sim):
        recovered = yield from pool.master.evict_client(dead.name)
        return recovered

    (recovered,) = pool.run(evict(sim))
    assert recovered == 3

    # The abandoned locks are acquirable again; the live one still held.
    for g in abandoned:
        record = pool.master.directory.get(g)
        server = pool.servers[record.server_id]
        assert server.lock_mr.read_u64(record.lock_idx * 8) == 0
    live_record = pool.master.directory.get(held)
    live_word = pool.servers[live_record.server_id].lock_mr.read_u64(
        live_record.lock_idx * 8)
    assert lock_owner(live_word) == alive.uid


def test_eviction_preserves_inflight_reader_counts():
    sim, pool = build_pool(num_servers=1, num_clients=2)
    dead, reader = pool.clients

    def setup(sim):
        g = yield from dead.gmalloc(64)
        yield from dead.gwrite(g, bytes(64))
        yield from dead.gsync()
        yield from dead.glock(g, write=True)
        return g

    (gaddr,) = pool.run(setup(sim))
    got = []

    def blocked_reader(sim):
        yield from reader.glock(gaddr, write=False)  # spins on writer bit
        got.append(sim.now)
        yield from reader.gunlock(gaddr, write=False)

    def evictor(sim):
        yield sim.timeout(30_000)
        yield from pool.master.evict_client(dead.name)

    r = sim.spawn(blocked_reader(sim))
    e = sim.spawn(evictor(sim))
    sim.run_until_complete(sim.all_of([r, e]))
    assert got and got[0] >= 30_000  # reader proceeded only after eviction


def test_evict_unknown_client_rejected():
    sim, pool = build_pool(num_servers=1, num_clients=1)

    def app(sim):
        try:
            yield from pool.master.evict_client("ghost")
        except MasterError:
            return "rejected"

    (outcome,) = pool.run(app(sim))
    assert outcome == "rejected"


def test_evict_client_holding_nothing_is_noop():
    sim, pool = build_pool(num_servers=1, num_clients=2)
    idle, worker = pool.clients

    def setup(sim):
        g = yield from worker.gmalloc(64)
        yield from worker.glock(g, write=True)
        return g

    (gaddr,) = pool.run(setup(sim))

    def evict(sim):
        recovered = yield from pool.master.evict_client(idle.name)
        return recovered

    (recovered,) = pool.run(evict(sim))
    assert recovered == 0
    record = pool.master.directory.get(gaddr)
    word = pool.servers[record.server_id].lock_mr.read_u64(record.lock_idx * 8)
    assert lock_owner(word) == worker.uid  # untouched


# ---------------------------------------------------------------------------
# One recovery pass for every trigger
# ---------------------------------------------------------------------------
def _wait(pool, ns):
    def wait(sim):
        yield ns

    pool.run(wait(pool.sim))


def _lease_expiry(pool, dead):
    pool.inject_faults(FaultPlan.of(
        ClientCrash(at_ns=pool.sim.now + 1, client=dead.name)))
    _wait(pool, 3 * LEASE)


def _restart(pool, dead):
    dead.crash()
    pool.run(dead.restart())


def _orphan_sweep(pool, dead):
    t0 = pool.sim.now
    pool.inject_faults(FaultPlan.of(
        ClientCrash(at_ns=t0 + 1_000, client=dead.name),
        MasterCrash(at_ns=t0 + 2_000),
        MasterRecover(at_ns=t0 + 40_000, rebuild=True),
    ))
    _wait(pool, 40_000 + 3 * LEASE)
    assert dead.name not in pool.master._client_uids


TRIGGERS = [_lease_expiry, _restart, _orphan_sweep]


@pytest.mark.parametrize("trigger", TRIGGERS,
                         ids=[t.__name__.lstrip("_") for t in TRIGGERS])
def test_every_trigger_clears_only_the_dead_incarnations_writer_half(trigger):
    """The dead client's word loses its writer half and keeps its reader.
    A word re-taken under a fresh epoch is kept: by the dead client's next
    incarnation after a fence, or by a client that re-attached to the
    restarted master.  A live client's word and its reader count are kept."""
    sim, pool = build_pool(
        num_servers=1, num_clients=3,
        config=fast_config(client_lease_ns=LEASE, metadata_journal=True))
    dead, rejoined, live = pool.clients

    def alloc(sim):
        gaddrs = []
        for _ in range(3):
            gaddrs.append((yield from live.gmalloc(64)))
        return gaddrs

    (gaddrs,) = pool.run(alloc(sim))
    server = pool.servers[0]
    offsets = [pool.master.directory.get(g).lock_idx * 8 for g in gaddrs]
    if trigger is _orphan_sweep:
        retaken = write_lock_word(rejoined.uid, rejoined.fence_epoch)
    else:
        retaken = write_lock_word(dead.uid, dead.fence_epoch + 1)
    words = [write_lock_word(dead.uid, dead.fence_epoch) + READER_UNIT,
             retaken,
             write_lock_word(live.uid, live.fence_epoch) + READER_UNIT]
    for offset, word in zip(offsets, words):
        server.lock_mr.write_u64(offset, word)

    trigger(pool, dead)

    assert [server.lock_mr.read_u64(o) for o in offsets] == \
        [READER_UNIT] + words[1:]
    assert pool.master.lock_recoveries.total == 1


def test_recovery_sends_one_call_per_server():
    """64 live objects on 2 servers: the eviction scans each server's
    intents and then sends each server one recovery call, not one per
    object."""
    sim, pool = build_pool(num_servers=2, num_clients=2)
    dead, alive = pool.clients

    def setup(sim):
        gaddrs = []
        for _ in range(64):
            gaddrs.append((yield from alive.gmalloc(64)))
        yield from dead.glock(gaddrs[0], write=True)
        return gaddrs

    (gaddrs,) = pool.run(setup(sim))
    assert {server_of(g) for g in gaddrs} == {0, 1}
    calls = Counter()
    for sid, handle in pool.master._servers.items():
        def counted(method, request=None, sid=sid, call=handle.rpc.call):
            calls[sid, method] += 1
            return call(method, request)
        handle.rpc.call = counted

    (recovered,) = pool.run(pool.master.evict_client(dead.name))
    assert recovered == 1
    recovery = Counter()
    for (sid, method), n in calls.items():
        if method != "txn_intent_scan":
            recovery[sid] += n
    assert recovery == {0: 1, 1: 1}
