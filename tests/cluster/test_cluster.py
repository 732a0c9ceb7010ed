"""Tests for node/cluster construction."""

import pytest

from repro.cluster import Cluster, ClusterSpec, Node, NodeSpec
from repro.hardware.specs import TEST_DRAM, TEST_NVM
from repro.sim import Simulator


def spec(n_servers=2, n_clients=2):
    nodes = []
    for i in range(n_servers):
        nodes.append(NodeSpec(name=f"server{i}", dram=TEST_DRAM, nvm=TEST_NVM))
    for i in range(n_clients):
        nodes.append(NodeSpec(name=f"client{i}", dram=TEST_DRAM, nvm=None))
    return ClusterSpec(nodes=tuple(nodes))


def test_cluster_builds_all_nodes():
    sim = Simulator()
    cluster = Cluster(sim, spec())
    assert len(cluster) == 4
    assert {n.name for n in cluster} == {"server0", "server1", "client0", "client1"}


def test_server_nodes_have_nvm_clients_do_not():
    sim = Simulator()
    cluster = Cluster(sim, spec())
    assert cluster.node("server0").has_nvm
    assert cluster.node("server0").nvm.is_persistent
    assert not cluster.node("client0").has_nvm


def test_all_nodes_attached_to_fabric():
    sim = Simulator()
    cluster = Cluster(sim, spec())
    for node in cluster:
        assert cluster.fabric.is_attached(node.name)


def test_unknown_node_lookup_raises():
    sim = Simulator()
    cluster = Cluster(sim, spec())
    with pytest.raises(KeyError):
        cluster.node("nope")


def test_duplicate_node_names_rejected():
    with pytest.raises(ValueError):
        ClusterSpec(nodes=(
            NodeSpec(name="x", nvm=None),
            NodeSpec(name="x", nvm=None),
        ))


def test_cpu_work_occupies_cores():
    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(nodes=(NodeSpec(name="n", nvm=None, cores=2),)))
    node = cluster.node("n")
    done = []

    def worker(sim):
        yield from node.cpu_work(100)
        done.append(sim.now)

    for _ in range(4):
        sim.spawn(worker(sim))
    sim.run()
    assert done == [100, 100, 200, 200]  # 2 cores, two waves


def test_cpu_work_default_duration():
    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(nodes=(NodeSpec(name="n", nvm=None, cpu_op_ns=333),)))
    node = cluster.node("n")

    def worker(sim):
        yield from node.cpu_work()
        return sim.now

    p = sim.spawn(worker(sim))
    sim.run()
    assert p.value == 333


def test_cpu_work_of_zero_takes_a_turn_at_a_core_and_queues_no_delay():
    sim = Simulator()
    cluster = Cluster(sim, ClusterSpec(nodes=(NodeSpec(name="n", nvm=None, cores=1),)))
    node = cluster.node("n")

    def worker(sim):
        yield from node.cpu_work(0)
        return sim.now

    p = sim.spawn(worker(sim))
    sim.run()
    assert p.value == 0 and node._cpu.in_use == 0
    assert sim.total_dispatched == 1  # the first step; the core was free


def test_nodes_can_rdma_to_each_other():
    """End-to-end: two cluster nodes move bytes over verbs."""
    from repro.rdma import Opcode, WorkRequest, connect

    sim = Simulator()
    cluster = Cluster(sim, spec(n_servers=1, n_clients=1))
    server, client = cluster.node("server0"), cluster.node("client0")
    qp_c, qp_s = connect(client.endpoint, server.endpoint)
    nvm_mr = server.endpoint.register_mr(server.nvm, base=0, length=4096)
    buf = client.endpoint.register_mr(client.dram, base=0, length=4096)
    server.nvm.poke(0, b"persistent bytes")

    def proc(sim):
        wc = yield qp_c.post_send(WorkRequest(
            opcode=Opcode.RDMA_READ, local_mr=buf, length=16,
            remote_rkey=nvm_mr.rkey, remote_offset=0,
        ))
        return wc

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value.ok
    assert buf.peek(0, 16) == b"persistent bytes"
