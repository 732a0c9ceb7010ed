"""Crash atomicity across the commit window.

A transaction's commit has exactly one durability point: the intent-record
append on its coordinator.  These tests kill the client at every named
point around it — ``pre-intent`` (nothing durable → rollback), then
``post-intent`` / ``mid-apply`` / ``pre-clear`` (intent durable → the
master's lease sweep rolls the whole write-set forward), and finally
``post-clear`` (fully applied → nothing to recover).  In every case the
write-set must end up all-or-nothing and the locks must come back.

One test crashes the MASTER at the same instant as the client: the
restarted master's orphan-lock sweep must find the intent by scanning the
servers (it has no volatile state left) and still roll it forward.  The
last two stage an older write behind a stalled drain first: neither the
roll-forward nor a live commit may be overwritten when it drains.
"""

import pytest

from repro.core import server as server_module
from repro.core.addressing import server_of
from repro.core.protocol import lock_is_free, lock_owner
from repro.rdma.rpc import RpcError
from tests.core.conftest import build_pool, fast_config

LEASE = 100_000
A = b"A" * 256
B = b"B" * 256
ZERO = b"\x00" * 256
O = b"O" * 256  # an older write, staged behind a stalled drain
N = b"N" * 256
STALL = 400_000


class _Kill(Exception):
    """Models the victim process dying at an exact commit point."""


def crash_config(**overrides):
    defaults = dict(client_lease_ns=LEASE, metadata_journal=True)
    defaults.update(overrides)
    return fast_config(**defaults)


def _setup(pool, victim):
    """Two zeroed objects homed on two *different* servers, so a mid-apply
    kill really does leave one server applied and one not."""
    def alloc(sim):
        gaddrs = []
        while len(gaddrs) < 2:
            g = yield from victim.gmalloc(256)
            yield from victim.gwrite(g, ZERO)
            if not gaddrs or server_of(g) != server_of(gaddrs[0]):
                gaddrs.append(g)
        yield from victim.gsync()
        return gaddrs

    (gaddrs,) = pool.run(alloc(pool.sim))
    assert server_of(gaddrs[0]) != server_of(gaddrs[1])
    return sorted(gaddrs)


def _kill_at(pool, victim, gaddrs, point, crash_master=False):
    """Run a two-object commit on ``victim`` and kill it at ``point``."""
    def hook(p, txn):
        if p != point:
            return
        victim.txn.commit_hook = None
        victim.crash()
        if crash_master:
            pool.master.crash()
        raise _Kill(point)

    victim.txn.commit_hook = hook

    def run_victim(sim):
        try:
            txn = yield from victim.txn.begin(gaddrs)
            txn.write(gaddrs[0], A)
            txn.write(gaddrs[1], B)
            yield from txn.commit()
        except _Kill:
            return "killed"
        return "survived"

    (outcome,) = pool.run(run_victim(pool.sim))
    assert outcome == "killed"


def _settle(pool, lease_multiples=6):
    def wait(sim):
        yield sim.timeout(lease_multiples * LEASE)

    pool.run(wait(pool.sim))


def _read_pair(pool, reader, gaddrs):
    def rd(sim):
        d0 = yield from reader.gread(gaddrs[0], length=256)
        d1 = yield from reader.gread(gaddrs[1], length=256)
        return bytes(d0), bytes(d1)

    (pair,) = pool.run(rd(pool.sim))
    return pair


def _assert_locks_recovered(pool, survivor, gaddrs):
    """A fresh transaction over the same set must commit — the dead
    client's locks were force-unlocked, not leaked."""
    def app(sim):
        def body(txn):
            txn.write(gaddrs[0], b"S" * 256)
            return True
            yield  # pragma: no cover

        return (yield from survivor.txn.run(gaddrs, body))

    (ok,) = pool.run(app(pool.sim))
    assert ok is True


def test_kill_before_intent_rolls_back():
    sim, pool = build_pool(seed=11, num_servers=2, num_clients=2,
                           config=crash_config())
    victim, survivor = pool.clients
    g = _setup(pool, victim)
    _kill_at(pool, victim, g, "pre-intent")
    _settle(pool)
    assert _read_pair(pool, survivor, g) == (ZERO, ZERO)
    assert sim.metrics.counter("master.txn_rolled_forward").count == 0
    _assert_locks_recovered(pool, survivor, g)


@pytest.mark.parametrize("point", ["post-intent", "mid-apply", "pre-clear"])
def test_kill_past_commit_point_rolls_forward(point):
    sim, pool = build_pool(seed=12, num_servers=2, num_clients=2,
                           config=crash_config())
    victim, survivor = pool.clients
    g = _setup(pool, victim)
    _kill_at(pool, victim, g, point)
    _settle(pool)
    # All-or-nothing, and specifically ALL: the intent was durable.
    assert _read_pair(pool, survivor, g) == (A, B)
    assert sim.metrics.counter("master.txn_rolled_forward").count == 1
    _assert_locks_recovered(pool, survivor, g)


def test_kill_after_clear_needs_no_roll_forward():
    sim, pool = build_pool(seed=13, num_servers=2, num_clients=2,
                           config=crash_config())
    victim, survivor = pool.clients
    g = _setup(pool, victim)
    _kill_at(pool, victim, g, "post-clear")
    _settle(pool)
    # Applied and cleared before the crash: visible with no recovery work.
    assert _read_pair(pool, survivor, g) == (A, B)
    assert sim.metrics.counter("master.txn_rolled_forward").count == 0
    _assert_locks_recovered(pool, survivor, g)


def test_master_and_client_crash_orphan_sweep_rolls_forward():
    sim, pool = build_pool(seed=14, num_servers=2, num_clients=2,
                           config=crash_config())
    victim, survivor = pool.clients
    g = _setup(pool, victim)
    _kill_at(pool, victim, g, "post-intent", crash_master=True)
    _settle(pool, lease_multiples=2)
    pool.master.recover()
    sim.spawn(pool.master.recovery_process(),
              name="master.recovery")
    # Rebuild + one lease of re-attach grace + the sweep itself.
    _settle(pool, lease_multiples=8)
    assert _read_pair(pool, survivor, g) == (A, B)
    assert sim.metrics.counter("master.txn_rolled_forward").count == 1
    _assert_locks_recovered(pool, survivor, g)


def test_concurrent_intent_puts_never_share_a_slot():
    """Two commits persisting intents on one coordinator at the same
    instant must land in distinct slots.

    The slot allocator reads the volatile index, yields to write NVM,
    then records its claim — without reserving first, both handlers see
    the same free slot, the second blob overwrites the first, and the
    second transaction's intent *clear* then destroys the first's
    durable commit record: its roll-forward silently evaporates.  Found
    by the chaos soak (seed 21: a mid-apply kill whose conserved-total
    audit came back one transfer leg short).
    """
    sim, pool = build_pool(seed=5, config=crash_config())
    server = next(iter(pool.servers.values()))

    def put(txn_id, gaddr):
        def proc(sim):
            return (yield from server.intents.put({
                "txn": txn_id, "owner": 9, "epoch": 1,
                "writes": [(gaddr, 0, b"x" * 16)],
            }))
        return proc(sim)

    slot_a, slot_b = pool.run(put("c.t1", 0x100), put("c.t2", 0x200))
    assert slot_a != slot_b

    # Clearing one must leave the other durable and scannable.
    def clear_then_scan(sim):
        yield from server.intents.clear({"txn": "c.t2"})
        server.intents.reset()  # force the NVM-truth rebuild path
        return (yield from server.intents.scan({"owners": [9]}))

    (records,) = pool.run(clear_then_scan(sim))
    assert [r["txn"] for r in records] == ["c.t1"]


def test_first_scan_after_a_restart_reads_the_length_table_once():
    """Every fence scans intents, so the first scan after a server restart
    must not pay a device read per slot: it reads the length table in one
    device read, then one read per live record, and the rebuilt index is
    what the next clear finds."""
    sim, pool = build_pool(seed=5, config=crash_config())
    server = next(iter(pool.servers.values()))

    def put(sim, txn_id, gaddr):
        return (yield from server.intents.put({
            "txn": txn_id, "owner": 9, "epoch": 1,
            "writes": [(gaddr, 0, b"x" * 16)],
        }))

    pool.run(put(sim, "c.t1", 0x100))
    pool.run(put(sim, "c.t2", 0x200))
    pool.run(put(sim, "c.t3", 0x300))
    server.crash()
    server.recover()
    reads = []
    real_read = server.data_device.read

    def counting_read(offset, length):
        reads.append((offset, length))
        return real_read(offset, length)

    server.data_device.read = counting_read

    def scan(sim):
        return (yield from server.intents.scan({"owners": [9]}))

    (records,) = pool.run(scan(sim))
    assert [r["txn"] for r in records] == ["c.t1", "c.t2", "c.t3"]
    assert len(reads) == 1 + 3
    assert reads[0] == (server.intents.intent_base, server_module.TXN_INTENT_ENTRIES * 8)

    def clear(sim):
        return (yield from server.intents.clear({"txn": "c.t2"}))

    (cleared,) = pool.run(clear(sim))
    assert cleared and len(reads) == 1 + 3
    (records,) = pool.run(scan(sim))
    assert [r["txn"] for r in records] == ["c.t1", "c.t3"]


def _stage_stalled(pool, writer, gaddr, data):
    """Stage ``data`` on ``gaddr`` behind a drain stalled for ``STALL`` ns:
    the frame sits in the ring, undrained, while what follows runs."""
    pool.servers[server_of(gaddr)].drain.stall(STALL)

    def stage(sim):
        yield from writer.gwrite(gaddr, data)

    pool.run(stage(pool.sim))


def test_roll_forward_lands_after_the_dead_clients_staged_frame():
    """A frame the victim staged before its intent drains before the
    roll-forward, not over it: recovery retires the ring and waits for its
    drain loop to exit before applying the committed bytes."""
    sim, pool = build_pool(seed=12, num_servers=2, num_clients=2,
                           config=crash_config())
    victim, survivor = pool.clients
    g = _setup(pool, victim)
    _stage_stalled(pool, victim, g[0], O)
    _kill_at(pool, victim, g, "post-intent")
    _settle(pool)
    assert _read_pair(pool, survivor, g) == (A, B)
    assert sim.metrics.counter("master.txn_rolled_forward").count == 1
    _assert_locks_recovered(pool, survivor, g)


def test_commit_drains_the_clients_own_staged_write_first():
    """A live commit syncs a server whose ring overlay holds an object of
    its fragment before applying there, so the client's own earlier write
    cannot drain after the commit and overwrite it."""
    sim, pool = build_pool(seed=12, num_servers=2, num_clients=2,
                           config=crash_config())
    writer, reader = pool.clients
    g = _setup(pool, writer)
    _stage_stalled(pool, writer, g[0], O)

    def commit(sim):
        def body(txn):
            txn.write(g[0], N)
            return True
            yield  # pragma: no cover

        return (yield from writer.txn.run(g[:1], body))

    assert pool.run(commit(sim)) == [True]
    _settle(pool, lease_multiples=STALL // LEASE)
    assert _read_pair(pool, reader, g)[0] == N


def _words(pool, gaddrs):
    """The lock words of ``gaddrs`` on their home servers."""
    return [pool.servers[server_of(g)].lock_mr.read_u64(
        pool.master.directory.get(g).lock_idx * 8) for g in gaddrs]


def _commit(pool, writer, gaddr, data):
    def run(sim):
        def body(txn):
            txn.write(gaddr, data)
            return True
            yield  # pragma: no cover

        return (yield from writer.txn.run([gaddr], body))

    assert pool.run(run(pool.sim)) == [True]


def test_a_failed_intent_clear_keeps_the_words_until_a_sweep_clears_it():
    """The fence applies the fragments but cannot clear the intent: the
    dead writer's words stay held, so no newer writer takes them while a
    later sweep could still re-apply the intent.  The victim's restart
    sweeps again (its fence names a newer epoch than the words carry): it
    re-applies, clears the intent and frees the words, and a newer commit
    then survives every further sweep."""
    sim, pool = build_pool(seed=12, num_servers=2, num_clients=2,
                           config=crash_config())
    victim, survivor = pool.clients
    g = _setup(pool, victim)
    uid = victim.uid
    failed = []
    for handle in pool.master._all_servers.values():
        def flaky(method, request=None, call=handle.rpc.call):
            if method == "txn_intent_clear" and not failed:
                failed.append(request["txn"])
                raise RpcError("coordinator unreachable")
            return call(method, request)
        handle.rpc.call = flaky
    _kill_at(pool, victim, g, "post-intent")
    _settle(pool)
    assert failed and _read_pair(pool, survivor, g) == (A, B)
    assert sim.metrics.counter("master.txn_rolled_forward").count == 0
    assert [lock_owner(w) for w in _words(pool, g)] == [uid, uid]

    pool.run(victim.restart())
    assert sim.metrics.counter("master.txn_rolled_forward").count == 1
    assert all(lock_is_free(w) for w in _words(pool, g))
    _commit(pool, survivor, g[0], N)
    pool.run(pool.master.evict_client(victim.name))
    assert _read_pair(pool, survivor, g) == (N, B)


def test_a_master_crash_while_words_are_freed_re_applies_nothing():
    """The master dies right after the first server's words were freed.
    Every intent of the pass was cleared before that, so the restarted
    master's orphan sweep re-applies nothing over the commit a survivor
    made on the freed words meanwhile."""
    sim, pool = build_pool(seed=14, num_servers=2, num_clients=2,
                           config=crash_config())
    victim, survivor = pool.clients
    g = _setup(pool, victim)
    uid = victim.uid
    freed = []
    for sid, handle in pool.master._servers.items():
        def crashing(method, request=None, sid=sid, call=handle.rpc.call):
            reply = yield from call(method, request)
            if "lock_idxs" in (request or {}) and not freed:
                freed.append(sid)
                pool.master.crash()
            return reply
        handle.rpc.call = crashing
    _kill_at(pool, victim, g, "post-intent")
    _settle(pool, lease_multiples=2)
    assert freed and pool.master.crashes == 1
    assert sim.metrics.counter("master.txn_rolled_forward").count == 1
    pool.master.recover()
    pool.run(pool.master.recovery_process())
    # The survivor commits before the sweep, which waits out a lease of
    # re-attach grace after the journal replay.
    (mine,) = [x for x in g if server_of(x) == freed[0]]
    (other,) = [x for x in g if x != mine]
    _commit(pool, survivor, mine, N)
    assert lock_owner(_words(pool, [other])[0]) == uid  # not swept yet
    _settle(pool, lease_multiples=8)
    assert sim.metrics.counter("master.txn_rolled_forward").count == 1
    assert _read_pair(pool, survivor, g) == tuple(
        N if x == mine else data for x, data in zip(g, (A, B)))
    _assert_locks_recovered(pool, survivor, g)


def test_a_write_over_a_kibibyte_rolls_forward():
    """A 3 KiB committed write rides one fragment load whole."""
    sim, pool = build_pool(seed=12, num_servers=2, num_clients=2,
                           config=crash_config())
    victim, survivor = pool.clients
    big = bytes(range(256)) * 12

    def alloc(sim):
        g = yield from victim.gmalloc(len(big))
        yield from victim.gsync()
        return g

    (g,) = pool.run(alloc(sim))

    def hook(point, txn):
        if point == "post-intent":
            victim.txn.commit_hook = None
            victim.crash()
            raise _Kill(point)

    victim.txn.commit_hook = hook

    def run_victim(sim):
        try:
            txn = yield from victim.txn.begin([g])
            txn.write(g, big)
            yield from txn.commit()
        except _Kill:
            return "killed"

    assert pool.run(run_victim(sim)) == ["killed"]
    _settle(pool)
    assert sim.metrics.counter("master.txn_rolled_forward").count == 1

    def read(sim):
        return bytes((yield from survivor.gread(g, length=len(big))))

    assert pool.run(read(sim)) == [big]
