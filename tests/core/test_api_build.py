"""Tests for GengarPool.build validation and deployment shapes."""

import pytest

from repro.core import GengarPool
from repro.core import server as server_module
from repro.core.server import ServerError
from repro.hardware.specs import TEST_DRAM, TEST_NVM
from repro.sim import Simulator
from repro.sim.units import KIB

from tests.core.conftest import build_pool, fast_config


def test_build_rejects_empty_deployments():
    sim = Simulator()
    with pytest.raises(ValueError):
        GengarPool.build(sim, num_servers=0, num_clients=1,
                         dram=TEST_DRAM, nvm=TEST_NVM)
    with pytest.raises(ValueError):
        GengarPool.build(sim, num_servers=1, num_clients=0,
                         dram=TEST_DRAM, nvm=TEST_NVM)


def test_build_rejects_a_device_smaller_than_its_reserved_spans():
    """An NVM that cannot hold the txn-intent region (and, with the journal
    on, the journal) plus some data fails at the server, naming both."""
    sim = Simulator()
    tiny = TEST_NVM.with_capacity(server_module.intent_span())
    with pytest.raises(ServerError, match="txn intent region"):
        GengarPool.build(sim, num_servers=1, num_clients=1,
                         dram=TEST_DRAM, nvm=tiny)
    small = TEST_NVM.with_capacity(server_module.intent_span() + 64 * KIB)
    with pytest.raises(ServerError, match="intent region .* metadata journal"):
        GengarPool.build(Simulator(), num_servers=1, num_clients=1,
                         config=fast_config(metadata_journal=True),
                         dram=TEST_DRAM, nvm=small)


def test_build_larger_deployment():
    sim, pool = build_pool(num_servers=3, num_clients=4)
    assert len(pool.servers) == 3
    assert len(pool.clients) == 4
    client = pool.clients[3]

    def app(sim):
        addrs = []
        for _ in range(6):
            addrs.append((yield from client.gmalloc(128)))
        return addrs

    (addrs,) = pool.run(app(sim))
    from repro.core import server_of

    assert {server_of(g) for g in addrs} == {0, 1, 2}


def test_run_propagates_first_failure():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def good(sim):
        yield from client.gmalloc(64)

    def bad(sim):
        yield from client.gmalloc(64)
        raise RuntimeError("app bug")

    with pytest.raises(RuntimeError, match="app bug"):
        pool.run(good(sim), bad(sim))


def test_server_for_maps_addresses():
    sim, pool = build_pool(num_servers=2, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        return (yield from client.gmalloc(64))

    (gaddr,) = pool.run(app(sim))
    from repro.core import server_of

    assert pool.server_for(gaddr).server_id == server_of(gaddr)


def test_rack_plan_places_nodes():
    from repro.hardware.specs import LinkSpec, DEFAULT_LINK

    sim = Simulator(seed=4)
    link = LinkSpec(bandwidth=DEFAULT_LINK.bandwidth,
                    propagation_ns=DEFAULT_LINK.propagation_ns,
                    core_bandwidth=DEFAULT_LINK.bandwidth / 4)
    pool = GengarPool.build(
        sim, num_servers=1, num_clients=1, dram=TEST_DRAM, nvm=TEST_NVM,
        config=fast_config(), link=link,
        rack_plan={"server0": "r0", "client0": "r1", "master": "r1"},
    )
    fabric = pool.cluster.fabric
    assert fabric.rack_of("server0") == "r0"
    assert fabric.rack_of("client0") == "r1"
    client = pool.clients[0]

    def app(sim):
        g = yield from client.gmalloc(4096)
        yield from client.gwrite(g, b"x" * 4096)
        yield from client.gsync()
        yield from client.gread(g)

    pool.run(app(sim))
    assert fabric.inter_rack_messages.count > 0
    assert fabric.core_bytes("r1") > 0  # client-side uplink carried requests


def test_flat_build_has_no_rack_state():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    assert pool.cluster.fabric.rack_of("server0") == ""
    assert pool.cluster.fabric.inter_rack_messages.count == 0
