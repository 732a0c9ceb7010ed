"""Multi-client fuzz: disjoint writers converge after a global sync.

Each client owns a disjoint set of objects and applies a random write
sequence concurrently with the others.  After every client syncs, all of
NVM must equal the union of the per-client oracles — no cross-client
interference, no lost drains, regardless of interleaving.

The kill fuzz adds random client deaths on top: victims die (possibly
mid-RDMA_WRITE, leaving a torn slot), and afterwards no dead client may
still hold a lock past one lease interval and no torn frame may have
reached NVM.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import FatalError
from repro.faults import ClientCrash, FaultPlan
from tests.core.conftest import FUZZ_MAX_EVENTS, build_pool, fast_config

_write = st.tuples(st.integers(0, 4), st.integers(0, 255),
                   st.integers(0, 1023), st.integers(1, 96))
#: Writes past one 4 KiB slot's payload: frame groups of two or three frames.
_group_write = st.tuples(st.integers(0, 4), st.integers(0, 255),
                         st.integers(0, 1023), st.integers(4_096, 11_000))
_any_write = st.one_of(_write, _group_write)


@given(
    plans=st.lists(st.lists(_write, min_size=1, max_size=12),
                   min_size=2, max_size=3),
    seed=st.integers(0, 40),
)
@settings(max_examples=20, deadline=None)
def test_disjoint_writers_converge(plans, seed):
    sim, pool = build_pool(seed=seed, num_servers=2,
                           num_clients=max(2, len(plans)),
                           max_events=FUZZ_MAX_EVENTS)
    clients = pool.clients[: len(plans)]
    size = 1024

    def setup(sim):
        owned = []
        for client in clients:
            addrs = []
            for _ in range(5):
                addrs.append((yield from client.gmalloc(size)))
            owned.append(addrs)
        return owned

    (owned,) = pool.run(setup(sim))
    oracles = [{g: bytearray(size) for g in addrs} for addrs in owned]

    def worker(idx, plan):
        client = clients[idx]
        for obj_idx, byte, offset, length in plan:
            gaddr = owned[idx][obj_idx % 5]
            length = min(length, size - offset)
            data = bytes([byte]) * length
            yield from client.gwrite(gaddr, data, offset=offset)
            oracles[idx][gaddr][offset : offset + length] = data
        yield from client.gsync()

    pool.run(*[worker(i, plan) for i, plan in enumerate(plans)])

    # Audit NVM directly against the union of the oracles.
    from repro.core.addressing import offset_of, server_of

    for oracle in oracles:
        for gaddr, expected in oracle.items():
            server = pool.servers[server_of(gaddr)]
            actual = server.data_device.peek(offset_of(gaddr), size)
            assert actual == bytes(expected), f"object {gaddr:#x} diverged"
    assert pool.master.check_extents() == []


_LEASE = 100_000


@given(
    plans=st.lists(st.lists(_any_write, min_size=1, max_size=10),
                   min_size=2, max_size=2),
    victim_plan=st.lists(_any_write, min_size=1, max_size=6),
    seed=st.integers(0, 40),
    kill_delay=st.integers(1_000, 60_000),
    tear=st.booleans(),
)
@example(  # regression: the crash lands mid-RDMA_WRITE of the victim's
    # second write; the injected torn doorbell must queue BEHIND the
    # in-flight frame on the QP, or the drain's seq cursor rejects the
    # good frame as torn and a synced write silently never reaches NVM.
    plans=[[(0, 0, 0, 1)], [(0, 0, 0, 1)]],
    victim_plan=[(0, 0, 0, 1), (0, 1, 0, 1)],
    seed=0, kill_delay=6000, tear=True,
)
@example(  # the victim dies with two of a 3-frame group's frames landed:
    # the drain parks them, and they are discarded with the retired ring.
    plans=[[(0, 0, 0, 1)], [(0, 0, 0, 1)]],
    victim_plan=[(0, 1, 0, 11_000), (1, 2, 0, 11_000)],
    seed=0, kill_delay=5_500, tear=False,
)
@settings(max_examples=15, deadline=None)
def test_random_client_kills_leave_no_stale_locks_or_torn_data(
        plans, victim_plan, seed, kill_delay, tear):
    """client2 dies at a random point (sometimes mid-RDMA_WRITE); the
    survivors keep fuzzing.  Afterwards the victim's lock must be free
    within one lease interval, every synced byte must match its oracle
    (a torn re-stage that slipped past the commit word would corrupt the
    victim's last object), and the ring must be retired.  Objects span three
    slots, so a write may be a frame group the victim dies in the middle
    of: the oracle still holds it to all or nothing."""
    sim, pool = build_pool(
        seed=seed, num_servers=2, num_clients=3,
        config=fast_config(client_lease_ns=_LEASE),
        max_events=FUZZ_MAX_EVENTS)
    survivors, victim = pool.clients[:2], pool.clients[2]
    size = 3 * 4096  # three slots: a write may stage as a frame group

    def setup(sim):
        owned = []
        for client in pool.clients:
            addrs = []
            for _ in range(5):
                addrs.append((yield from client.gmalloc(size)))
            owned.append(addrs)
        return owned

    (owned,) = pool.run(setup(sim))
    oracles = [{g: bytearray(size) for g in addrs} for addrs in owned]
    locked_gaddr = owned[2][0]

    pool.inject_faults(FaultPlan.of(
        ClientCrash(at_ns=sim.now + kill_delay, client=victim.name,
                    tear_inflight=tear),
    ))

    def survivor_worker(idx, plan):
        client = survivors[idx]
        for obj_idx, byte, offset, length in plan:
            gaddr = owned[idx][obj_idx % 5]
            length = min(length, size - offset)
            data = bytes([byte]) * length
            yield from client.gwrite(gaddr, data, offset=offset)
            oracles[idx][gaddr][offset : offset + length] = data
        yield from client.gsync()

    def victim_worker(sim):
        # A gwrite that returned has its frame in the ring, which drains
        # whether or not a gsync follows, so the oracle takes it then.  The
        # crash flushes the victim's next verb (FatalError): nothing more
        # of it lands, and the only other frame it leaves behind is the
        # injected torn re-stage, which the commit word must keep out of
        # NVM.
        try:
            yield from victim.glock(locked_gaddr)
            for obj_idx, byte, offset, length in victim_plan:
                gaddr = owned[2][obj_idx % 5]
                length = min(length, size - offset)
                data = bytes([byte]) * length
                yield from victim.gwrite(gaddr, data, offset=offset)
                oracles[2][gaddr][offset : offset + length] = data
                yield from victim.gsync()
        except FatalError:
            assert victim.crashed
        # Park dead (or idle) until well past lease expiry + recovery.
        yield sim.timeout(kill_delay + 4 * _LEASE)

    pool.run(victim_worker(sim),
             *[survivor_worker(i, plan) for i, plan in enumerate(plans)])

    # 1. The dead client's lock is recoverable within one lease interval.
    assert pool.master.lease_expiries.count == 1
    t0 = sim.now

    def contend(sim):
        yield from survivors[0].glock(locked_gaddr)
        yield from survivors[0].gunlock(locked_gaddr)
        return sim.now - t0

    (took,) = pool.run(contend(sim))
    assert took < _LEASE, "survivor waited on a dead client's lock"

    # 2. The victim's proxy ring was retired on every server.
    for server in pool.servers.values():
        assert server.drain.attached(victim.name) is None

    # 3. No torn data: every synced byte matches its oracle.
    from repro.core.addressing import offset_of, server_of

    for oracle in oracles:
        for gaddr, expected in oracle.items():
            server = pool.servers[server_of(gaddr)]
            actual = server.data_device.peek(offset_of(gaddr), size)
            assert actual == bytes(expected), f"object {gaddr:#x} diverged"
    assert pool.master.check_extents() == []


def test_reattach_edge_cases():
    sim, pool = build_pool(num_servers=2, num_clients=1)
    client = pool.clients[0]

    # Unknown server id is a hard error.
    import pytest

    with pytest.raises(KeyError):
        next(client.reattach_server(99))

    # Re-attaching to a live, never-crashed server is rejected server-side
    # (the ring already exists) and surfaces as an RpcError.
    from repro.rdma.rpc import RpcError

    def app(sim):
        try:
            yield from client.reattach_server(0)
        except RpcError as exc:
            return str(exc)

    (msg,) = pool.run(app(sim))
    assert "already attached" in msg
