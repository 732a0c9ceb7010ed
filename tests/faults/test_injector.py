"""FaultInjector: arming declarative plans against a live pool."""

import pytest

from repro.faults import (
    ClientCrash,
    ClientRecover,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    LatencySpike,
    LinkFlap,
    LossyLink,
    MasterCrash,
    MasterRecover,
    ServerCrash,
    ServerRecover,
)

from tests.core.conftest import build_pool, fast_config


def test_rejects_plans_naming_unknown_servers():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    plan = FaultPlan.of(ServerCrash(at_ns=sim.now + 10, server_id=7))
    with pytest.raises(FaultPlanError):
        pool.inject_faults(plan)


def test_rejects_plans_naming_unknown_clients():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    plan = FaultPlan.of(ClientCrash(at_ns=sim.now + 10, client="client9"))
    with pytest.raises(FaultPlanError):
        pool.inject_faults(plan)


def test_rejects_master_faults_without_a_master():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    plan = FaultPlan.of(MasterCrash(at_ns=sim.now + 10))
    with pytest.raises(FaultPlanError):
        FaultInjector(sim, plan, servers=pool.servers).install()


def test_client_crash_recover_plan_executes_on_schedule():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    t0 = sim.now
    pool.inject_faults(FaultPlan.of(
        ClientCrash(at_ns=t0 + 10_000, client="client0"),
        ClientRecover(at_ns=t0 + 30_000, client="client0"),
        MasterCrash(at_ns=t0 + 10_000),
        MasterRecover(at_ns=t0 + 30_000, rebuild=False),
    ))

    def wait(sim):
        yield sim.timeout(20_000)
        mid = (client.crashed, pool.master.node.endpoint.alive)
        yield sim.timeout(20_000)
        return mid, (client.crashed, pool.master.node.endpoint.alive)

    (result,) = pool.run(wait(sim))
    assert result == ((True, False), (False, True))
    m = sim.metrics
    assert m.counter("faults.client_crashes").count == 1
    assert m.counter("faults.client_recoveries").count == 1
    assert m.counter("faults.master_crashes").count == 1
    assert m.counter("faults.master_recoveries").count == 1
    # The server-fault counters asserted by the chaos CI gate stay separate.
    assert m.counter("faults.crashes").count == 0
    assert m.counter("faults.recoveries").count == 0


def test_master_recover_without_rebuild_reopens_for_business():
    """Regression: rebuild=False must still run recovery_process — it is
    the only thing that clears the *recovering* gate.  A master stuck
    recovering forever would hang every client; the documented semantics
    of a no-rebuild recovery are 'forgot everything': serve again with an
    empty directory."""
    sim, pool = build_pool(
        num_servers=1, num_clients=1,
        config=fast_config())
    client = pool.clients[0]
    t0 = sim.now
    pool.inject_faults(FaultPlan.of(
        MasterCrash(at_ns=t0 + 5_000),
        MasterRecover(at_ns=t0 + 20_000, rebuild=False),
    ))

    def alloc_through_outage(sim):
        yield sim.timeout(10_000)  # master is down now
        g = yield from client.gmalloc(64)  # retries until the master serves
        return g

    (g,) = pool.run(alloc_through_outage(sim))
    assert g in pool.master.directory
    assert not pool.master._recovering
    assert pool.master.failovers.count == 1
    assert pool.master.journal_replayed.total == 0  # nothing was replayed


def test_rejects_link_faults_without_a_fabric():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    plan = FaultPlan.of(
        LossyLink(start_ns=sim.now, end_ns=sim.now + 10, drop_prob=0.5))
    with pytest.raises(FaultPlanError):
        FaultInjector(sim, plan, servers=pool.servers, master=pool.master)


def test_rejects_faults_timestamped_in_the_past():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    assert sim.now > 0  # bootstrap consumed virtual time
    with pytest.raises(FaultPlanError, match="shifted"):
        pool.inject_faults(FaultPlan.of(ServerCrash(at_ns=0, server_id=0)))


def test_install_is_single_shot():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    injector = pool.inject_faults(
        FaultPlan.of(ServerCrash(at_ns=sim.now + 10, server_id=0)))
    with pytest.raises(FaultPlanError):
        injector.install()


def test_crash_recover_plan_executes_on_schedule():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    t0 = sim.now
    pool.inject_faults(FaultPlan.of(
        ServerCrash(at_ns=t0 + 50_000, server_id=0),
        ServerRecover(at_ns=t0 + 150_000, server_id=0),
    ))

    def app(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.gwrite(gaddr, b"x" * 64)
        yield from client.gsync()
        yield sim.timeout(60_000)  # now inside the outage
        data = yield from client.gread(gaddr, length=4)  # rides it out
        return sim.now, data

    (result,) = pool.run(app(sim))
    done_at, data = result
    assert data == b"xxxx"
    assert done_at >= t0 + 150_000  # served by the recovered server
    assert sim.metrics.counter("faults.crashes").count == 1
    assert sim.metrics.counter("faults.recoveries").count == 1


def _lossy_run(seed, drop_prob):
    sim, pool = build_pool(seed=seed, num_servers=1, num_clients=1)
    client = pool.clients[0]
    if drop_prob:
        pool.inject_faults(FaultPlan.of(LossyLink(
            start_ns=sim.now, end_ns=sim.now + 50_000_000,
            drop_prob=drop_prob)))

    def app(sim):
        gaddr = yield from client.gmalloc(128)
        for i in range(20):
            yield from client.gwrite(gaddr, bytes([i]) * 128)
            yield from client.gread(gaddr, length=8)
        yield from client.gsync()

    pool.run(app(sim))
    return sim.now, sim.metrics.counter("fabric.dropped").count


def test_lossy_link_drops_deterministically():
    end_a, drops_a = _lossy_run(seed=42, drop_prob=0.3)
    end_b, drops_b = _lossy_run(seed=42, drop_prob=0.3)
    assert drops_a > 0
    assert (end_a, drops_a) == (end_b, drops_b)


def test_lossy_link_costs_retransmission_time():
    end_clean, drops_clean = _lossy_run(seed=42, drop_prob=0.0)
    end_lossy, drops_lossy = _lossy_run(seed=42, drop_prob=0.3)
    assert drops_clean == 0
    assert drops_lossy > 0
    assert end_lossy > end_clean


def _spiked_read_latency(extra_ns):
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def setup(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.gwrite(gaddr, bytes(64))
        yield from client.gsync()
        return gaddr

    (gaddr,) = pool.run(setup(sim))
    if extra_ns:
        pool.inject_faults(FaultPlan.of(LatencySpike(
            start_ns=sim.now, end_ns=sim.now + 50_000_000, extra_ns=extra_ns)))
    t0 = sim.now

    def read(sim):
        yield from client.gread(gaddr, length=64)

    pool.run(read(sim))
    return sim.now - t0


def test_latency_spike_adds_latency_without_drops():
    base = _spiked_read_latency(0)
    spiked = _spiked_read_latency(5_000)
    # Request and response each cross the fabric at least once.
    assert spiked >= base + 2 * 5_000


def test_link_flap_stalls_traffic_until_the_window_ends():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def setup(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.gwrite(gaddr, b"y" * 64)
        yield from client.gsync()
        return gaddr

    (gaddr,) = pool.run(setup(sim))
    flap_end = sim.now + 200_000
    pool.inject_faults(FaultPlan.of(
        LinkFlap(start_ns=sim.now, end_ns=flap_end, node="server0")))

    def read(sim):
        data = yield from client.gread(gaddr, length=4)
        return data

    (data,) = pool.run(read(sim))
    assert data == b"yyyy"
    # The server never crashed, so the verb survived the flap by
    # retransmitting until the window closed.
    assert sim.now >= flap_end
    assert sim.metrics.counter("fabric.dropped").count > 0


def test_uninstall_detaches_the_fabric_hook():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    injector = pool.inject_faults(FaultPlan.of(LossyLink(
        start_ns=sim.now, end_ns=sim.now + 50_000_000, drop_prob=1.0)))
    injector.uninstall()
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.gwrite(gaddr, bytes(64))
        yield from client.gsync()

    pool.run(app(sim))  # completes: the black hole is gone
    assert sim.metrics.counter("fabric.dropped").count == 0
