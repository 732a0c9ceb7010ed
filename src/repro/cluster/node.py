"""A cluster machine: CPU, DRAM, optional NVM, and an RDMA NIC."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.network import Fabric
    from repro.sim.kernel import Simulator

from repro.hardware.memory import MemoryDevice
from repro.hardware.nic import Nic
from repro.hardware.specs import CONNECTX5_NIC, DDR4_DRAM, MemorySpec, NicSpec, OPTANE_NVM
from repro.rdma.endpoint import RdmaEndpoint


@dataclass(frozen=True)
class NodeSpec:
    """Hardware configuration of one machine.

    ``nvm=None`` builds a compute-only node (a Gengar client); memory servers
    carry both DRAM and NVM, as in the paper's testbed.
    """

    name: str
    dram: MemorySpec = DDR4_DRAM
    nvm: Optional[MemorySpec] = OPTANE_NVM
    nic: NicSpec = CONNECTX5_NIC
    cores: int = 8
    #: Rack placement for two-tier fabrics (None = flat fabric).
    rack: Optional[str] = None
    #: Fixed CPU cost charged per software-handled message (request parsing,
    #: hash lookups); keeps server CPU a finite resource.
    cpu_op_ns: int = 150


class Node:
    """A machine attached to the fabric.

    Exposes its memory devices, its verbs endpoint, and a small CPU model
    (``cores`` workers; software handlers occupy one for their service time).
    """

    def __init__(self, sim: "Simulator", spec: NodeSpec, fabric: "Fabric"):
        self.sim = sim
        self.spec = spec
        self.name = spec.name
        self.dram = MemoryDevice(sim, spec.dram, name=f"{spec.name}.dram")
        self.nvm: Optional[MemoryDevice] = (
            MemoryDevice(sim, spec.nvm, name=f"{spec.name}.nvm") if spec.nvm else None
        )
        self.nic = Nic(sim, spec.nic, name=f"{spec.name}.nic")
        self.endpoint = RdmaEndpoint(sim, spec.name, self.nic, fabric)
        self._cpu = Resource(sim, capacity=spec.cores, name=f"{spec.name}.cpu")

    @property
    def has_nvm(self) -> bool:
        return self.nvm is not None

    def cpu_work(self, duration_ns: Optional[int] = None) -> Generator[Any, Any, None]:
        """Occupy one core for ``duration_ns`` (default: the per-op cost)."""
        if duration_ns is None:
            duration_ns = self.spec.cpu_op_ns
        if duration_ns > 0:
            yield (self._cpu, duration_ns)
        else:
            with (yield self._cpu):
                pass  # a turn at a core, and no delay queued

    def __repr__(self) -> str:  # pragma: no cover
        kind = "hybrid" if self.has_nvm else "compute"
        return f"<Node {self.name} ({kind})>"
