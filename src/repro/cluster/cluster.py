"""Cluster construction: nodes + fabric from a declarative spec."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

from repro.cluster.node import Node, NodeSpec
from repro.hardware.network import Fabric
from repro.hardware.specs import DEFAULT_LINK, LinkSpec


@dataclass(frozen=True)
class ClusterSpec:
    """Topology description: the machines and the link tier."""

    nodes: tuple[NodeSpec, ...]
    link: LinkSpec = DEFAULT_LINK

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names in cluster spec: {names}")


class Cluster:
    """All machines of one deployment plus the shared fabric.

    Construction is cheap; no processes start until a system (Gengar or a
    baseline) boots on top.
    """

    def __init__(self, sim: "Simulator", spec: ClusterSpec):
        self.sim = sim
        self.spec = spec
        self.fabric = Fabric(sim, spec.link)
        if spec.link.core_bandwidth is not None:
            self.fabric.set_core(spec.link.core_bandwidth, spec.link.core_hop_ns)
        self._nodes: Dict[str, Node] = {}
        for node_spec in spec.nodes:
            self._nodes[node_spec.name] = Node(sim, node_spec, self.fabric)
            if node_spec.rack is not None:
                self.fabric.assign_rack(node_spec.name, node_spec.rack)

    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"no node named {name!r}; have {sorted(self._nodes)}") from None

    @property
    def nodes(self) -> List[Node]:
        """All nodes in spec order."""
        return [self._nodes[s.name] for s in self.spec.nodes]

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterable[Node]:
        return iter(self.nodes)
