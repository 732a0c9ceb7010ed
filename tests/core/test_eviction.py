"""Tests for owner-tagged locks and dead-client eviction."""

from collections import Counter

import pytest

from repro.core import FencedError, server_of
from repro.core.addressing import make_gaddr, offset_of
from repro.core.master import MasterError
from repro.core.protocol import (
    MAX_FENCE_EPOCH,
    READER_UNIT,
    lock_is_free,
    lock_is_write_locked,
    lock_owner,
    lock_reader_count,
    write_lock_word,
)

from repro.core.recovery import _RECOVER_MAX_LOCKS, _fragments
from repro.faults import (
    ClientCrash,
    FaultPlan,
    MasterCrash,
    MasterRecover,
    Partition,
)
from repro.rdma.rpc import DEFAULT_BUFFER_SIZE, RpcError, _encode

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
        MasterRecover(at_ns=t0 + 40_000),
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
    if trigger is _orphan_sweep:
        # The sweep journals its fence: a zombie of the dead incarnation
        # re-attaching at the epoch it died with is granted a fresh one,
        # and still is after a second failover has replayed the journal.
        def reattach(sim):
            info = yield from pool.master._handle_attach({
                "client": dead.name, "uid": dead.uid,
                "epoch": dead.fence_epoch})
            return info["epoch"]

        assert pool.run(reattach(sim))[0] > dead.fence_epoch
        _orphan_sweep(pool, dead)
        assert pool.run(reattach(sim))[0] > dead.fence_epoch


def _before_the_recheck(method, request):
    """The sweep's first call to the server."""
    return True


def _after_the_recheck(method, request):
    """The sweep's first call that names a dead holder's words."""
    return method == "recover_dead" and request.get("owners") != {}


MOMENTS = [_before_the_recheck, _after_the_recheck]


@pytest.mark.parametrize("moment", MOMENTS,
                         ids=[m.__name__.lstrip("_") for m in MOMENTS])
def test_a_client_re_attaching_inside_the_orphan_sweep_loses_nothing_it_holds(
        moment):
    """A client partitioned from a master that fails over holds a write
    lock and a ring.  It re-attaches while the orphan sweep runs, right
    before the sweep's call at ``moment`` reaches its server.  Either the
    sweep sees it re-attached and leaves its word and ring alone, or it
    is granted a bumped epoch: its release is then refused typed and its
    next write heals the ring.  No word is cleared under an epoch the
    client still holds."""
    sim, pool = build_pool(
        num_servers=1, num_clients=2,
        config=fast_config(client_lease_ns=LEASE, metadata_journal=True))
    client = pool.clients[0]
    server = pool.servers[0]

    def hold(sim):
        g = yield from client.gmalloc(64)
        yield from client.gwrite(g, b"a" * 64)
        yield from client.gsync()
        yield from client.glock(g, write=True)
        return g

    (gaddr,) = pool.run(hold(sim))
    epoch, ring = client.fence_epoch, server.drain.rings[client.name]
    offset = pool.master.directory.get(gaddr).lock_idx * 8
    t0 = sim.now
    injector = pool.inject_faults(FaultPlan.of(
        Partition(start_ns=t0 + 1_000, end_ns=t0 + 100 * LEASE,
                  group_a=(client.name,), group_b=("master",)),
        MasterCrash(at_ns=t0 + 2_000),
        MasterRecover(at_ns=t0 + 40_000)))
    handle = pool.master._servers[0]
    call, fired = handle.rpc.call, []

    def hooked(method, request=None):
        if (not fired and sim.active.name.endswith("orphan_sweep")
                and moment(method, request)):
            fired.append(method)
            injector.uninstall()
            yield from client.reattach_master()
        return (yield from call(method, request))

    handle.rpc.call = hooked
    _wait(pool, 40_000 + 3 * LEASE)
    assert fired
    word = server.lock_mr.read_u64(offset)
    if moment is _before_the_recheck:
        assert client.fence_epoch == epoch
        assert word == write_lock_word(client.uid, epoch)
        assert server.drain.attached(client.name) is ring
        pool.run(client.gunlock(gaddr))
    else:
        assert client.fence_epoch > epoch
        assert lock_is_free(word)
        assert server.drain.attached(client.name) is None
        with pytest.raises(FencedError):
            pool.run(client.gunlock(gaddr))

    def rewrite(sim):
        yield from client.gwrite(gaddr, b"b" * 64)
        yield from client.gsync()
        return (yield from client.gread(gaddr))

    assert pool.run(rewrite(sim)) == [b"b" * 64]
    assert lock_is_free(server.lock_mr.read_u64(offset))


def _largest_fit(method, request_for):
    """The largest ``n`` whose ``request_for(n)`` encodes into the RPC
    buffer beside any request id below 2**31."""
    def fits(n):
        try:
            _encode(((1 << 31) - 1, method, request_for(n)), DEFAULT_BUFFER_SIZE)
        except RpcError:
            return False
        return True

    return next(n for n in range(DEFAULT_BUFFER_SIZE, 0, -1) if fits(n))


def _die_after_the_commit_point(point, txn):
    if point == "post-intent":
        raise RuntimeError("client died right after the commit point")


def test_a_fragment_near_the_buffer_size_rolls_forward_in_the_first_sweep():
    """A client dies with a committed intent whose one write is as large
    as its ``txn_intent_put`` could carry, and three clients survive the
    master failover.  The orphan sweep's first pass loads that fragment
    beside its filter, applies it and frees the dead client's word."""
    sim, pool = build_pool(
        num_servers=1, num_clients=4,
        config=fast_config(client_lease_ns=LEASE, metadata_journal=True))
    dead, reader = pool.clients[:2]

    def doomed_commit(sim):
        g = yield from dead.gmalloc(4096)
        txn = yield from dead.txn.begin([g])
        size = _largest_fit("txn_intent_put", lambda n: {
            "txn": txn.id, "owner": dead.uid, "epoch": dead.fence_epoch,
            "writes": [(g, 0, b"C" * n)]})
        txn.write(g, b"C" * size)
        dead.txn.commit_hook = _die_after_the_commit_point
        with pytest.raises(RuntimeError):
            yield from txn.commit()
        return g, size

    ((gaddr, size),) = pool.run(doomed_commit(sim))
    assert size > 3900
    offset = pool.master.directory.get(gaddr).lock_idx * 8
    server = pool.servers[0]
    assert lock_owner(server.lock_mr.read_u64(offset)) == dead.uid
    _orphan_sweep(pool, dead)

    assert pool.master.txn_rolled_forward.count == 1
    assert lock_is_free(server.lock_mr.read_u64(offset))
    assert pool.run(reader.gread(gaddr, 0, size)) == [b"C" * size]


def test_the_sweep_applies_on_another_shards_server_behind_its_drain():
    """A client dies with a frame staged on server 1 (shard 1's) behind a
    stalled drain, and with a committed intent, coordinated by server 0,
    that writes the same object.  Both masters crash and only shard 0's
    recovers, so its orphan sweep is the one recovery: server 1 applies
    the fragment only after it has drained the staged frame, and the
    committed bytes are what its NVM holds."""
    sim, pool = build_pool(
        num_servers=2, num_clients=1,
        config=fast_config(client_lease_ns=LEASE, metadata_journal=True,
                           num_master_shards=2))
    (dead,) = pool.clients
    home = pool.servers[1]

    def setup(sim):
        gaddrs = {}
        while len(gaddrs) < 2:
            g = yield from dead.gmalloc(64)
            gaddrs.setdefault(server_of(g), g)
        home.drain.stall(3 * LEASE)
        yield from dead.gwrite(gaddrs[1], b"S" * 64)
        txn = yield from dead.txn.begin([gaddrs[0], gaddrs[1]])
        txn.write(gaddrs[0], b"c" * 64)
        txn.write(gaddrs[1], b"C" * 64)
        dead.txn.commit_hook = _die_after_the_commit_point
        with pytest.raises(RuntimeError):
            yield from txn.commit()
        return gaddrs[1]

    (gaddr,) = pool.run(setup(sim))
    applied = []
    apply = home._apply

    def logged(g, obj_offset, payload):
        yield from apply(g, obj_offset, payload)
        applied.append(payload[:1])

    home._apply = logged
    t0 = sim.now
    pool.inject_faults(FaultPlan.of(
        ClientCrash(at_ns=t0 + 1_000, client=dead.name),
        MasterCrash(at_ns=t0 + 2_000, shard=0),
        MasterCrash(at_ns=t0 + 2_000, shard=1),
        MasterRecover(at_ns=t0 + 40_000, shard=0)))
    _wait(pool, 40_000 + 4 * LEASE)

    assert pool.masters[0].txn_rolled_forward.count == 1
    assert applied == [b"S", b"C"]
    assert home.data_device.peek(offset_of(gaddr), 64) == b"C" * 64


def _count_master_calls(pool):
    """Count the master's RPCs to each server by ``(sid, method)``."""
    calls = Counter()
    for sid, handle in pool.master._servers.items():
        def counted(method, request=None, sid=sid, call=handle.rpc.call):
            calls[sid, method] += 1
            return call(method, request)
        handle.rpc.call = counted
    return calls


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
    calls = _count_master_calls(pool)

    (recovered,) = pool.run(pool.master.evict_client(dead.name))
    assert recovered == 1
    recovery = Counter()
    for (sid, method), n in calls.items():
        if method != "txn_intent_scan":
            recovery[sid] += n
    assert recovery == {0: 1, 1: 1}


def test_roll_forward_applies_and_clears_before_any_word_is_freed():
    """A committed intent coordinated by each server: the fence sends each
    server its fragment in a ``recover_dead`` of its own, clears both
    intents, and only then sends each server its lock indices.  The master
    sends no ``txn_apply``."""
    sim, pool = build_pool(num_servers=2, num_clients=2)
    dead, alive = pool.clients

    def setup(sim):
        homes = {}
        while len(homes) < 2:
            g = yield from alive.gmalloc(64)
            homes.setdefault(server_of(g), g)
        for sid, g in homes.items():
            yield from pool.servers[sid].intents.put({
                "txn": f"{dead.name}.t{sid}", "owner": dead.uid,
                "epoch": dead.fence_epoch,
                "writes": [(g, 0, bytes([sid + 1]) * 64)]})
        return homes

    (homes,) = pool.run(setup(sim))
    steps = []
    for sid, handle in pool.master._servers.items():
        def logged(method, request=None, sid=sid, call=handle.rpc.call):
            if method == "recover_dead":
                steps.append((sid, "writes" if "writes" in request
                              else "locks"))
            elif method != "txn_intent_scan":
                steps.append((sid, method))
            return call(method, request)
        handle.rpc.call = logged

    pool.run(pool.master.evict_client(dead.name))
    assert steps == [
        (0, "writes"), (1, "writes"),
        (0, "txn_intent_clear"), (1, "txn_intent_clear"),
        (0, "locks"), (1, "locks")]
    assert pool.master.txn_rolled_forward.count == 2

    def read_back(sim):
        data = []
        for sid in (0, 1):
            data.append((yield from alive.gread(homes[sid])))
        return data

    (data,) = pool.run(read_back(sim))
    assert data == [b"\x01" * 64, b"\x02" * 64]


def test_a_fence_scans_while_its_journal_append_flies_and_loads_after():
    """The fence's FENCE append and the pass's read-only intent scans
    overlap, but no ``recover_dead`` (a fragment load or a lock load) is
    sent before the append has returned, even when the journal is slower
    than every scan: the retired epoch is durable before anything is
    applied, retired or cleared."""
    sim, pool = build_pool(
        num_servers=2, num_clients=2,
        config=fast_config(client_lease_ns=LEASE, metadata_journal=True))
    dead, alive = pool.clients

    def setup(sim):
        g = yield from alive.gmalloc(64)
        yield from pool.servers[server_of(g)].intents.put({
            "txn": f"{dead.name}.t0", "owner": dead.uid,
            "epoch": dead.fence_epoch, "writes": [(g, 0, b"\x07" * 64)]})
        yield from dead.glock(g, write=True)

    pool.run(setup(sim))
    steps = []
    for sid, handle in pool.master._servers.items():
        def logged(method, request=None, call=handle.rpc.call):
            steps.append((sim.now, method, "sent"))
            if method == "journal_append":
                yield 20_000  # a slow journal
            reply = yield from call(method, request)
            steps.append((sim.now, method, "returned"))
            return reply
        handle.rpc.call = logged

    (recovered,) = pool.run(pool.master.evict_client(dead.name))
    assert recovered == 1 and pool.master.txn_rolled_forward.count == 1
    journaled = next((t for t, method, what in steps
                      if method == "journal_append" and what == "returned"),
                     None)
    assert journaled is not None, "the fence returned before its journal"
    appended = next(t for t, method, what in steps
                    if method == "journal_append" and what == "sent")
    assert any(method == "txn_intent_scan" and what == "sent"
               and appended <= t < journaled for t, method, what in steps)
    loads = [t for t, method, what in steps
             if method == "recover_dead" and what == "sent"]
    assert len(loads) == 3 and min(loads) >= journaled


def test_recovery_loads_fit_the_rpc_buffer():
    """A fragment load carries one intent's writes homed on one server
    beside a fence's filter, which pickles no larger than the txn id,
    owner and epoch the intent's own ``txn_intent_put`` carried: any
    write-set that committed fits.  A lock load of ``_RECOVER_MAX_LOCKS``
    indices fits too, and so does its reply."""
    name, uid, epoch = "client65535", 65535, MAX_FENCE_EPOCH
    fence = {"owners": {uid: epoch}, "clients": [name]}
    homes = [make_gaddr(0, 64), make_gaddr(1, 64), make_gaddr(0, 1 << 30)]
    req_id = 1 << 40

    def fits(method, request):
        try:
            _encode((req_id, method, request), DEFAULT_BUFFER_SIZE)
        except RpcError:
            return False
        return True

    def intent(txn, size):
        return {"txn": txn, "owner": uid, "epoch": epoch,
                "writes": [(g, 8, bytes(size)) for g in homes]}

    size = next(n for n in range(DEFAULT_BUFFER_SIZE, 0, -1)
                if fits("txn_intent_put", intent(f"{name}.t1", n)))
    small = intent(f"{name}.t2", 16)
    fragments = _fragments([(0, intent(f"{name}.t1", size)), (1, small)])
    assert fragments == {
        0: [[(homes[0], 8, bytes(size)), (homes[2], 8, bytes(size))],
            [(homes[0], 8, bytes(16)), (homes[2], 8, bytes(16))]],
        1: [[(homes[1], 8, bytes(size))], [(homes[1], 8, bytes(16))]]}
    assert all(fits("recover_dead", dict(fence, writes=writes))
               for frags in fragments.values() for writes in frags)

    top = 1 << 16
    idxs = list(range(top - _RECOVER_MAX_LOCKS, top))
    assert fits("recover_dead", dict(fence, lock_idxs=idxs))
    reply = {"cleared": [(idx, uid) for idx in idxs], "retired": [name]}
    _encode((req_id, reply), DEFAULT_BUFFER_SIZE)


def test_recovery_waits_only_for_the_drain_loops_it_retired():
    """A dead client's loop drains a frame behind a stalled drain.  While
    the recovery waits for it, a second dead client's name gets a new,
    live loop (as a re-attach installs): the recovery waits for the loop
    it retired, not for the new one, which nothing will stop."""
    sim, pool = build_pool(num_servers=1, num_clients=3)
    x, y, _ = pool.clients
    server = pool.servers[0]

    def stage(sim):
        g = yield from x.gmalloc(64)
        server.drain.stall(50_000)
        yield from x.gwrite(g, b"x" * 64)

    pool.run(stage(sim))
    done = []

    def recover(sim):
        yield from server._handle_recover_dead({
            "owners": {x.uid: None, y.uid: None},
            "clients": [x.name, y.name], "lock_idxs": []})
        done.append(sim.now)

    def live_loop(sim):
        yield 10_000_000

    def reattach(sim):
        yield 1_000
        server.drain.rings[y.name].proc = sim.spawn(live_loop(sim))

    pool.run(recover(sim), reattach(sim))
    assert done and done[0] < 100_000
