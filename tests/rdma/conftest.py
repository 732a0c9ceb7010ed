"""Shared fixtures for RDMA-layer tests: a two-node rig with real devices."""

import pytest

from repro.core.layout import DramCarver
from repro.hardware.memory import MemoryDevice
from repro.hardware.network import Fabric
from repro.hardware.nic import Nic
from repro.hardware.specs import CONNECTX5_NIC, LinkSpec, MemorySpec
from repro.rdma import RdmaEndpoint, RpcServer, connect
from repro.sim import Simulator


def small_dram(name):
    return MemorySpec(
        name=name,
        kind="dram",
        capacity_bytes=1 << 22,  # 4 MiB
        read_latency_ns=80,
        write_latency_ns=80,
        read_bw=16.0,
        write_bw=16.0,
        channels=4,
    )


class Rig:
    """Two connected endpoints with DRAM devices, ready for verbs."""

    def __init__(self, seed=0):
        self.sim = Simulator(seed=seed)
        self.fabric = Fabric(self.sim, LinkSpec(bandwidth=12.5, propagation_ns=500))
        self.mem_a = MemoryDevice(self.sim, small_dram("a.mem"), name="a.mem")
        self.mem_b = MemoryDevice(self.sim, small_dram("b.mem"), name="b.mem")
        self.ep_a = RdmaEndpoint(self.sim, "a", Nic(self.sim, CONNECTX5_NIC, "a.nic"), self.fabric)
        self.ep_b = RdmaEndpoint(self.sim, "b", Nic(self.sim, CONNECTX5_NIC, "b.nic"), self.fabric)
        self.qp_a, self.qp_b = connect(self.ep_a, self.ep_b)

    def rpc_server(self, num_buffers, buffer_size, **kwargs):
        """An RPC server on ``b`` whose rings, and their growth, are carved
        from b's DRAM, as a pool server's are."""
        carver = DramCarver(self.mem_b)
        return RpcServer(self.ep_b, self.mem_b,
                         base=carver.carve(2 * num_buffers * buffer_size),
                         grow_cb=carver.carve, num_buffers=num_buffers,
                         buffer_size=buffer_size, **kwargs)

    def run(self, gen):
        """Spawn a process, run to completion, return its value."""
        proc = self.sim.spawn(gen)
        self.sim.run()
        assert proc.ok, f"process failed: {proc.exception!r}"
        return proc.value


@pytest.fixture
def rig():
    return Rig()
