"""Per-node verbs context and connection management."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.memory import MemoryDevice
    from repro.hardware.network import Fabric
    from repro.hardware.nic import Nic
    from repro.sim.kernel import Simulator

from repro.rdma.cq import CompletionQueue
from repro.rdma.mr import AccessFlags, MemoryRegion
from repro.rdma.qp import QpError, QueuePair


class RdmaEndpoint:
    """One node's RDMA context: its NIC, registered regions, and QPs.

    Mirrors an ibv context + protection domain.  Regions registered here are
    remotely addressable through this endpoint by rkey.
    """

    def __init__(self, sim: "Simulator", name: str, nic: "Nic", fabric: "Fabric"):
        self.sim = sim
        self.name = name
        self.nic = nic
        self.fabric = fabric
        fabric.attach(name)
        self._mrs: Dict[int, MemoryRegion] = {}
        #: Cleared when the node "crashes".  A dead node sends nothing: a WR
        #: that reaches injection from it completes with WR_FLUSH_ERROR
        #: (one already on the wire still lands).  Verbs targeting it
        #: complete with RETRY_EXCEEDED after the timeout the NIC would take.
        self.alive = True
        #: Target-side serialization point for inbound atomics.
        self.atomic_gate = Resource(sim, capacity=1, name=f"{name}.atomics")
        self.qps: list[QueuePair] = []

    # ------------------------------------------------------------------
    def register_mr(
        self,
        device: "MemoryDevice",
        base: int,
        length: int,
        access: AccessFlags = AccessFlags.ALL,
        name: str = "",
    ) -> MemoryRegion:
        """Register ``[base, base+length)`` of ``device`` for RDMA access."""
        mr = MemoryRegion(device, base, length, access=access, name=name)
        self._mrs[mr.rkey] = mr
        return mr

    def deregister_mr(self, mr: MemoryRegion) -> None:
        """Remove a region; subsequent remote access faults."""
        self._mrs.pop(mr.rkey, None)

    def resolve_rkey(self, rkey: Optional[int]) -> Optional[MemoryRegion]:
        """Look up an inbound rkey (None if unknown — a protection fault)."""
        if rkey is None:
            return None
        return self._mrs.get(rkey)

    def create_cq(self, name: str = "") -> CompletionQueue:
        """Create a completion queue on this endpoint."""
        return CompletionQueue(self.sim, name=name or f"{self.name}.cq")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RdmaEndpoint {self.name} mrs={len(self._mrs)} qps={len(self.qps)}>"


def connect(a: RdmaEndpoint, b: RdmaEndpoint) -> Tuple[QueuePair, QueuePair]:
    """Create a reliable connection between two endpoints.

    Returns ``(qp_at_a, qp_at_b)``.  Each QP gets its own recv CQ; a send
    completion goes to the event ``post_send`` returned and nowhere else, so
    consumers of receive completions (RPC loops, proxy doorbells) never see it.
    """
    if a is b:
        raise QpError("cannot connect an endpoint to itself")
    qp_a = QueuePair(
        a,
        recv_cq=a.create_cq(f"{a.name}->{b.name}.rcq"),
        name=f"{a.name}->{b.name}",
    )
    qp_b = QueuePair(
        b,
        recv_cq=b.create_cq(f"{b.name}->{a.name}.rcq"),
        name=f"{b.name}->{a.name}",
    )
    qp_a.remote = qp_b
    qp_b.remote = qp_a
    a.qps.append(qp_a)
    b.qps.append(qp_b)
    return qp_a, qp_b
