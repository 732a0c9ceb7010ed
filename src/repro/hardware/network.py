"""Fabric model: an RDMA network, flat or two-tier.

Each attached node owns an egress and an ingress port of ``LinkSpec.bandwidth``.
A unicast reserves the sender's egress and the receiver's ingress for the
message's serialization time (cut-through, so large transfers are not
double-serialized), then pays one propagation delay; :meth:`Fabric.inject`
is the first half alone, for a sender that flies the message outside a
lock it holds while injecting.  Contention therefore
appears exactly where it does physically: many-to-one traffic queues at the
receiver's ingress port (incast), and a single sender cannot exceed its
uplink.

**Two-tier mode.**  Assigning nodes to racks (:meth:`Fabric.assign_rack`)
and configuring the core (:meth:`Fabric.set_core`) turns on rack locality:
intra-rack traffic behaves as before, while inter-rack traffic additionally
serializes through the source rack's core uplink and the destination rack's
core downlink (each of ``core_bandwidth``, i.e. oversubscribed when that is
below the sum of member ports) and pays an extra hop of latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Optional, Tuple

from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

from repro.hardware.specs import LinkSpec


class FabricError(Exception):
    """Raised for unknown ports or invalid transfers."""


class _Port:
    """One direction of a link: a rate-limited FIFO gate.

    ``bandwidth=None`` means "use the fabric's edge link rate"; rack core
    ports carry their own (typically oversubscribed) rate.
    """

    def __init__(self, sim: "Simulator", name: str, bandwidth: Optional[float] = None):
        self.gate = Resource(sim, capacity=1, name=name)
        self.bandwidth = bandwidth
        self.bytes_moved = 0


class Fabric:
    """The cluster interconnect.

    Usage::

        fabric = Fabric(sim, DEFAULT_LINK)
        fabric.attach("node0")
        fabric.attach("node1")
        yield from fabric.unicast("node0", "node1", nbytes=4096)
    """

    def __init__(self, sim: "Simulator", spec: LinkSpec):
        self.sim = sim
        self.spec = spec
        self._egress: Dict[str, _Port] = {}
        self._ingress: Dict[str, _Port] = {}
        self._rack_of: Dict[str, str] = {}
        self._core_up: Dict[str, _Port] = {}
        self._core_down: Dict[str, _Port] = {}
        self._core_bandwidth: float = 0.0
        self._core_hop_ns: int = 0
        self.messages = sim.metrics.counter("fabric.messages")
        self.payload_bytes = sim.metrics.counter("fabric.payload_bytes")
        self.inter_rack_messages = sim.metrics.counter("fabric.inter_rack")
        #: Optional fault hook (see :meth:`set_fault_hook`).
        self._fault_hook: Optional[Callable[[str, str, int], Tuple[bool, int]]] = None
        #: Sender-side loss detection delay before a dropped message is
        #: re-injected (RC retransmission model).
        self.retransmit_ns = max(1_000, 4 * spec.propagation_ns)
        self.dropped_messages = sim.metrics.counter("fabric.dropped")
        # Read on every message, which computes its wire time inline.
        self._header_bytes = spec.header_bytes
        self._bandwidth = spec.bandwidth
        self._propagation_ns = spec.propagation_ns

    def attach(self, node_name: str) -> None:
        """Register a node; idempotent."""
        if node_name not in self._egress:
            self._egress[node_name] = _Port(self.sim, f"fabric.{node_name}.egress")
            self._ingress[node_name] = _Port(self.sim, f"fabric.{node_name}.ingress")

    def is_attached(self, node_name: str) -> bool:
        return node_name in self._egress

    def set_fault_hook(
        self, hook: Optional[Callable[[str, str, int], Tuple[bool, int]]]
    ) -> None:
        """Install (or clear, with ``None``) the fault-injection hook.

        ``hook(src, dst, nbytes) -> (dropped, extra_latency_ns)`` is consulted
        once per transmission attempt.  A drop models the message vanishing in
        flight: :meth:`inject` returns ``None`` after :attr:`retransmit_ns` (loss
        detection) and the sender retransmits (a QP only while its node lives),
        so a partitioned path stalls the verb until the partition heals (callers
        bound this with their own deadlines).  ``extra_latency_ns`` is added to
        the delivery's propagation delay.  With no hook installed the data path
        is byte-for-byte identical to an un-instrumented fabric.
        """
        self._fault_hook = hook

    # ------------------------------------------------------------------
    # Two-tier topology
    # ------------------------------------------------------------------
    def set_core(self, bandwidth: float, hop_ns: int = 200) -> None:
        """Configure the rack-uplink tier (bytes/ns per rack direction)."""
        if bandwidth <= 0:
            raise FabricError("core bandwidth must be positive")
        if hop_ns < 0:
            raise FabricError("core hop latency must be non-negative")
        self._core_bandwidth = bandwidth
        self._core_hop_ns = hop_ns
        for rack in sorted(set(self._rack_of.values())):
            self._ensure_rack_ports(rack)

    def assign_rack(self, node_name: str, rack: str) -> None:
        """Place a node in a rack (call after :meth:`attach`)."""
        if node_name not in self._egress:
            raise FabricError(f"attach {node_name!r} before assigning a rack")
        self._rack_of[node_name] = rack
        if self._core_bandwidth:
            self._ensure_rack_ports(rack)

    def _ensure_rack_ports(self, rack: str) -> None:
        if rack not in self._core_up:
            self._core_up[rack] = _Port(
                self.sim, f"fabric.rack.{rack}.up", self._core_bandwidth)
            self._core_down[rack] = _Port(
                self.sim, f"fabric.rack.{rack}.down", self._core_bandwidth)

    def rack_of(self, node_name: str) -> str:
        """The node's rack ('' when unassigned / flat fabric)."""
        return self._rack_of.get(node_name, "")

    def _crosses_core(self, src: str, dst: str) -> bool:
        """Whether ``src`` and ``dst`` sit in different racks (asked only
        once a core exists)."""
        src_rack = self._rack_of.get(src)
        dst_rack = self._rack_of.get(dst)
        return src_rack is not None and dst_rack is not None and src_rack != dst_rack

    def wire_time(self, nbytes: int) -> int:
        """Serialization time for a payload of ``nbytes`` plus headers (what
        a message holds its ports for, computed inline on the wire path)."""
        return round((nbytes + self._header_bytes) / self._bandwidth) or 1

    def min_latency(self, nbytes: int) -> int:
        """Uncontended one-way latency (for analytical test baselines)."""
        return self.wire_time(nbytes) + self.spec.propagation_ns

    def unicast(self, src: str, dst: str, nbytes: int) -> Generator[Any, Any, None]:
        """Move ``nbytes`` from ``src`` to ``dst``; returns at delivery time:
        :meth:`inject` until it is not dropped, then the flight it returns.

        With no fault hook and no core, inject's flat path runs in this
        frame: the same yields, one generator frame fewer per resume.
        """
        if self._fault_hook is not None or self._core_bandwidth:
            flight_ns = yield from self.inject(src, dst, nbytes)
            while flight_ns is None:
                flight_ns = yield from self.inject(src, dst, nbytes)
            yield flight_ns
            return
        if src == dst:
            raise FabricError(f"loopback unicast on {src!r}; handle locally instead")
        try:
            egress = self._egress[src]
            ingress = self._ingress[dst]
        except KeyError as exc:
            raise FabricError(f"unknown fabric port: {exc}") from None
        if nbytes < 0:
            raise FabricError("negative transfer size")
        wire_bytes = nbytes + self._header_bytes
        gate = egress.gate  # released by hand: no ``__enter__`` call
        yield gate
        try:
            yield (ingress.gate, round(wire_bytes / self._bandwidth) or 1)
        finally:
            gate.release()
        egress.bytes_moved += wire_bytes
        ingress.bytes_moved += wire_bytes
        self.messages.count += 1
        self.messages.total += 1
        self.payload_bytes.count += 1
        self.payload_bytes.total += nbytes
        yield self._propagation_ns

    def inject(self, src: str, dst: str, nbytes: int) -> Generator[Any, Any, Optional[int]]:
        """Put ``nbytes`` on the wire from ``src`` to ``dst``; returns when
        the last byte has left the ports, with the flight still to fly (ns),
        or ``None`` once the sender noticed a drop (see :meth:`set_fault_hook`).

        Reserves both the sender's egress and the receiver's ingress for the
        serialization window; the egress is always acquired first so flows
        cannot deadlock (each flow's first lock is private to its sender).
        The caller pays the returned propagation delay (plus any injected
        latency) itself — a queue pair does so after releasing its send
        gate, so back-to-back WQEs fly concurrently.
        """
        if src == dst:
            raise FabricError(f"loopback unicast on {src!r}; handle locally instead")
        try:
            egress = self._egress[src]
            ingress = self._ingress[dst]
        except KeyError as exc:
            raise FabricError(f"unknown fabric port: {exc}") from None
        if nbytes < 0:
            raise FabricError("negative transfer size")

        extra_ns = 0
        hook = self._fault_hook
        if hook is not None:
            dropped, extra_ns = hook(src, dst, nbytes)
            if dropped:
                # The message died in flight; the sender notices only by
                # timeout.  The ports stay free meanwhile.
                self.dropped_messages.add()
                yield self.retransmit_ns
                return None

        wire_bytes = nbytes + self._header_bytes
        wire_ns = round(wire_bytes / self._bandwidth) or 1  # at least 1 ns
        if self._core_bandwidth and self._crosses_core(src, dst):
            # Inter-rack: edge serialization, then the (possibly slower)
            # shared core path, then an extra hop of latency.
            up = self._core_up[self._rack_of[src]]
            down = self._core_down[self._rack_of[dst]]
            core_time = max(1, round(wire_bytes / self._core_bandwidth))
            yield (egress.gate, wire_ns)
            egress.bytes_moved += wire_bytes
            with (yield up.gate):
                yield (down.gate, core_time)
            up.bytes_moved += wire_bytes
            down.bytes_moved += wire_bytes
            yield (ingress.gate, wire_ns)
            ingress.bytes_moved += wire_bytes
            self.inter_rack_messages.add()
            extra_ns += self._core_hop_ns
        else:
            gate = egress.gate  # released by hand: no ``__enter__`` call
            yield gate
            try:
                yield (ingress.gate, wire_ns)
            finally:
                gate.release()
            egress.bytes_moved += wire_bytes
            ingress.bytes_moved += wire_bytes
        self.messages.count += 1
        self.messages.total += 1
        self.payload_bytes.count += 1
        self.payload_bytes.total += nbytes
        return self._propagation_ns + extra_ns

    def egress_bytes(self, node_name: str) -> int:
        """Wire bytes sent by ``node_name`` so far."""
        return self._egress[node_name].bytes_moved

    def ingress_bytes(self, node_name: str) -> int:
        """Wire bytes received by ``node_name`` so far."""
        return self._ingress[node_name].bytes_moved

    def core_bytes(self, rack: str) -> int:
        """Wire bytes that left ``rack`` through its core uplink."""
        port = self._core_up.get(rack)
        return port.bytes_moved if port else 0
