"""RDMA NIC engine: per-verb pipeline costs and message-rate limiting.

The NIC does not understand verbs — that is :mod:`repro.rdma`'s job.  It
models the two costs an RNIC imposes on every work element:

* a per-WQE pipeline occupancy (doorbell ring, WQE fetch, DMA setup), and
* a sustained message-rate ceiling (token bucket), which is what actually
  limits small-message workloads on real hardware.

Both directions (TX for initiated work, RX for incoming packets) have their
own small pipelines, so a node saturated with inbound traffic still initiates
work, just more slowly — matching real RNIC behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.sim.resources import Resource, TokenBucket

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

from repro.hardware.specs import NicSpec

#: Concurrent WQEs in flight inside one pipeline direction.  A QP's send
#: gate admits one WQE at a time, so an initiator needs this many QPs in
#: flight to fill its TX pipeline (see GengarPool.build's read lanes).
PIPELINE_WIDTH = 4


class Nic:
    """One node's RDMA NIC."""

    def __init__(self, sim: "Simulator", spec: NicSpec, name: str):
        self.sim = sim
        self.spec = spec
        self.name = name
        self._tx = Resource(sim, capacity=PIPELINE_WIDTH, name=f"{name}.tx")
        self._rx = Resource(sim, capacity=PIPELINE_WIDTH, name=f"{name}.rx")
        self._msg_limiter = TokenBucket(
            sim,
            rate_per_ns=spec.message_rate_per_ns,
            burst=spec.message_burst,
            name=f"{name}.msgrate",
        )
        self.tx_messages = sim.metrics.counter(f"{name}.tx_messages")
        self.rx_messages = sim.metrics.counter(f"{name}.rx_messages")

    def is_inline(self, nbytes: int) -> bool:
        """True if a payload rides inside the WQE (no requester-side DMA)."""
        return nbytes <= self.spec.max_inline_bytes

    def tx_process(self) -> Generator[Any, Any, None]:
        """Pay the initiator-side cost of posting one work element."""
        yield from self._msg_limiter.consume(1.0)
        yield (self._tx, self.spec.processing_ns)
        self.tx_messages.count += 1
        self.tx_messages.total += 1

    def rx_process(self) -> Generator[Any, Any, None]:
        """Pay the responder-side cost of handling one inbound packet."""
        yield (self._rx, self.spec.processing_ns)
        self.rx_messages.count += 1
        self.rx_messages.total += 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Nic {self.name} ({self.spec.name})>"
