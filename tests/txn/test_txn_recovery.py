"""Crash atomicity across the commit window.

A transaction's commit has exactly one durability point: the intent-record
append on its coordinator.  These tests kill the client at every named
point around it — ``pre-intent`` (nothing durable → rollback), then
``post-intent`` / ``mid-apply`` / ``pre-clear`` (intent durable → the
master's lease sweep rolls the whole write-set forward), and finally
``post-clear`` (fully applied → nothing to recover).  In every case the
write-set must end up all-or-nothing and the locks must come back.

The last test crashes the MASTER at the same instant as the client: the
restarted master's orphan-lock sweep must find the intent by scanning the
servers (it has no volatile state left) and still roll it forward.
"""

import pytest

from repro.core.addressing import server_of
from tests.core.conftest import build_pool, fast_config

LEASE = 100_000
A = b"A" * 256
B = b"B" * 256
ZERO = b"\x00" * 256


class _Kill(Exception):
    """Models the victim process dying at an exact commit point."""


def crash_config(**overrides):
    defaults = dict(enable_txn=True, client_lease_ns=LEASE, metadata_journal=True)
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
    sim.spawn(pool.master.recovery_process(rebuild=True),
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
            return (yield from server._handle_txn_intent_put({
                "txn": txn_id, "owner": 9, "epoch": 1,
                "writes": [(gaddr, 0, b"x" * 16)],
            }))
        return proc(sim)

    slot_a, slot_b = pool.run(put("c.t1", 0x100), put("c.t2", 0x200))
    assert slot_a != slot_b

    # Clearing one must leave the other durable and scannable.
    def clear_then_scan(sim):
        yield from server._handle_txn_intent_clear({"txn": "c.t2"})
        server._intent_index = None  # force the NVM-truth rebuild path
        return (yield from server._handle_txn_intent_scan({"owners": [9]}))

    (records,) = pool.run(clear_then_scan(sim))
    assert [r["txn"] for r in records] == ["c.t1"]
