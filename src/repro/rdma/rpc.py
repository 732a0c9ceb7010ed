"""A small two-sided RPC layer over SEND/RECV.

Gengar keeps its *data plane* one-sided, but the *control plane* (allocation,
metadata lookups, lock service fallbacks, epoch reports) is classic
request/response over SEND/RECV.  This module provides that: a method
registry on the server, request/response framing with pickle, buffer ring
management, and concurrent outstanding calls matched by request id.

Payloads are serialized to real bytes and travel through the verbs layer, so
RPC cost scales with message size exactly as it would on the wire.

Scalability (PROTOCOLS.md §12): the server-side rings are *elastic* — an
SRQ-style shared receive pool.  All client QPs draw their posted receives
from one slot pool that grows in powers of two as peers attach (and under
occupancy pressure on the response side), and shrinks again after idle
epochs.  Credit-based flow control rides the reply envelope's immediate
data: the server piggybacks a receive-credit grant on every response, and
clients block new sends at zero credits instead of silently overrunning the
ring.  A server's owner hands it a ``grow_cb`` that carves further DRAM
(a :class:`~repro.core.layout.DramCarver` in every deployment and rig).
"""

from __future__ import annotations

import itertools
import pickle
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional

from repro.sim.primitives import Event
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.memory import MemoryDevice

from repro.rdma.endpoint import RdmaEndpoint
from repro.rdma.mr import AccessFlags
from repro.rdma.qp import QueuePair
from repro.rdma.wr import Opcode, WorkCompletion, WorkRequest

def _req_ids_for(sim):
    """Per-simulator request-id source; request ids are pickled into every
    frame, so process-global numbering would break same-seed determinism
    across runs in one process (see mr._key_counter_for)."""
    counter = getattr(sim, "_rpc_req_counter", None)
    if counter is None:
        counter = itertools.count(1)
        sim._rpc_req_counter = counter
    return counter

#: Default RPC buffer size: enough for metadata messages, small enough that
#: bulk data clearly does not belong on this path.
DEFAULT_BUFFER_SIZE = 4096

#: Default (and, for an elastic server pool, initial) ring depth — the
#: single source of truth for both sides of every control connection, so
#: the two can never silently disagree.
DEFAULT_RING_SLOTS = 16

#: Hard ceiling on elastic growth: a runaway producer can at most double a
#: ring up to this many slots (4 MiB of 4 KiB buffers).
DEFAULT_MAX_RING_SLOTS = 1024

#: An elastic ring must sit fully idle (no growth pressure, newest chunk
#: entirely free) for this many virtual ns before a chunk is retired.
DEFAULT_SHRINK_IDLE_NS = 1_000_000


class RpcError(Exception):
    """Remote handler failure or local framing problem."""


def _encode(obj: Any, limit: int) -> bytes:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > limit:
        raise RpcError(f"rpc payload of {len(data)} bytes exceeds buffer size {limit}")
    return data


class _BufferRing:
    """An elastic pool of fixed-size slots across one or more registered
    regions (the server side of every control connection).

    Chunk 0 occupies the caller-provided window at ``base``.  Growth carves
    a new power-of-two chunk through ``grow_cb`` and registers it as an
    additional MR; shrink retires the newest chunk once it has sat fully
    idle past the idle epoch, deregistering its MR and parking the span for
    reuse.  ``max_slots`` bounds the growth (``max_slots == slots`` is a
    fixed-depth ring).
    """

    def __init__(self, endpoint: RdmaEndpoint, device: "MemoryDevice", base: int,
                 slots: int, slot_size: int, name: str,
                 grow_cb: Callable[[int], int],
                 max_slots: int = DEFAULT_MAX_RING_SLOTS,
                 shrink_idle_ns: int = DEFAULT_SHRINK_IDLE_NS):
        self.sim = endpoint.sim
        self.endpoint = endpoint
        self.device = device
        self.slot_size = slot_size
        self.name = name
        self.initial_slots = slots
        self.capacity = slots
        self.mr = endpoint.register_mr(
            device, base, slots * slot_size, access=AccessFlags.ALL, name=name
        )
        self.free: Store = Store(endpoint.sim, name=f"{name}.free")
        for i in range(slots):
            self.free.put(i)
        self._grow_cb = grow_cb
        self._max_slots = max(max_slots, slots)
        self._shrink_idle_ns = shrink_idle_ns
        self._chunk_mrs = [self.mr]
        self._chunk_bases = [base]
        self._chunk_slots = [slots]
        self._slot_mr = [self.mr] * slots
        self._slot_off = [i * slot_size for i in range(slots)]
        self._spare_spans: List[tuple] = []  # (base, slots) of retired chunks
        self._shrink_after_ns = 0
        self._floor = slots  # structural floor: high-water of ensure_capacity
        self.grow_count = 0
        self.shrink_count = 0
        #: Optional TimeWeightedStat tracking capacity (set by the owner).
        self.capacity_stat = None

    def offset(self, slot: int) -> int:
        return self._slot_off[slot]

    def mr_of(self, slot: int):
        return self._slot_mr[slot]

    def outstanding(self) -> int:
        """Slots currently acquired (posted or holding an in-flight reply)."""
        return self.capacity - len(self.free._items)

    # -- acquire / release ------------------------------------------------
    def acquire(self) -> Store:
        """The wait for a free slot, to be yielded.

        Under occupancy pressure the ring first doubles its capacity so the
        caller never parks; a ring with free slots (or at ``max_slots``) is
        just its free list.
        """
        if not self.free._items and self.capacity < self._max_slots:
            self._grow()
        return self.free

    def release(self, slot: int) -> None:
        self.free.put(slot)
        if len(self._chunk_mrs) > 1 and self.sim.now >= self._shrink_after_ns:
            self._try_shrink()

    def ensure_capacity(self, needed: int) -> None:
        """Structural growth: keep capacity ahead of the attached-QP count.

        Called at attach time, so sizing is deterministic in the wiring and
        a pool that never sees more peers than its initial depth performs
        zero growth work.
        """
        if needed > self._floor:
            self._floor = needed
        while self.capacity < needed and self.capacity < self._max_slots:
            self._grow()

    # -- internals --------------------------------------------------------
    def _grow(self) -> None:
        add = min(self.capacity, self._max_slots - self.capacity)
        if add <= 0:
            return
        base = None
        for i, (spare_base, spare_slots) in enumerate(self._spare_spans):
            if spare_slots == add:
                base = spare_base
                del self._spare_spans[i]
                break
        if base is None:
            base = self._grow_cb(add * self.slot_size)
        chunk = len(self._chunk_mrs)
        mr = self.endpoint.register_mr(
            self.device, base, add * self.slot_size,
            access=AccessFlags.ALL, name=f"{self.name}.g{chunk}"
        )
        self._chunk_mrs.append(mr)
        self._chunk_bases.append(base)
        self._chunk_slots.append(add)
        first = self.capacity
        self._slot_mr.extend([mr] * add)
        off = self._slot_off
        for i in range(add):
            off.append(i * self.slot_size)
            self.free.put(first + i)
        self.capacity += add
        self.grow_count += 1
        self._shrink_after_ns = self.sim.now + self._shrink_idle_ns
        if self.capacity_stat is not None:
            self.capacity_stat.update(float(self.capacity))

    def _try_shrink(self) -> None:
        """Retire the newest chunk if it sat fully idle for an epoch."""
        self._shrink_after_ns = self.sim.now + self._shrink_idle_ns
        first = self.capacity - self._chunk_slots[-1]
        if first < max(self._floor, self.initial_slots):
            return
        free_items = self.free._items
        idle = [s for s in free_items if s >= first]
        if len(idle) < self._chunk_slots[-1]:
            return  # chunk still has acquired slots; re-check next epoch
        for s in idle:
            free_items.remove(s)
        mr = self._chunk_mrs.pop()
        spare_base = self._chunk_bases.pop()
        n = self._chunk_slots.pop()
        del self._slot_mr[first:]
        del self._slot_off[first:]
        self.capacity = first
        self._spare_spans.append((spare_base, n))
        self.endpoint.deregister_mr(mr)
        self.shrink_count += 1
        if self.capacity_stat is not None:
            self.capacity_stat.update(float(self.capacity))


class _CreditGate:
    """Client half of credit-based flow control.

    Tracks the receive-credit window granted by the server (piggybacked on
    reply immediate data).  ``take`` is pure bookkeeping while credits are
    available — no event is created, keeping the uncontended path's dispatch
    sequence byte-identical — and returns an Event to park on at zero.
    Waiters are woken FIFO as replies return credits.
    """

    __slots__ = ("sim", "window", "available", "stalls", "_waiters", "_name")

    def __init__(self, sim, window: int, name: str):
        self.sim = sim
        self.window = window
        self.available = window
        self.stalls = 0
        self._waiters: deque = deque()
        self._name = name

    def take(self) -> Optional[Event]:
        """Consume one credit; returns None, or an Event to yield when dry."""
        if self.available > 0 and not self._waiters:
            self.available -= 1
            return None
        self.stalls += 1
        ev = Event(self.sim, name=self._name)
        self._waiters.append(ev)
        return ev

    def refund(self) -> None:
        """Return a credit whose send never reached the server."""
        self.available += 1
        if self._waiters:
            self._wake()

    def on_reply(self, grant: int) -> None:
        """Account one completed call; adopt a changed server grant."""
        credit = 1
        if grant != self.window:
            credit += grant - self.window  # window moved; may be negative
            self.window = grant
        self.available += credit
        if self._waiters:
            self._wake()

    def _wake(self) -> None:
        waiters = self._waiters
        while self.available > 0 and waiters:
            ev = waiters.popleft()
            if ev.triggered:
                continue
            self.available -= 1
            ev.succeed(None)


class RpcServer:
    """Serves registered methods to any number of connected clients.

    Handlers are either plain callables ``handler(request) -> response`` or
    generator functions ``handler(request) -> (yield ...)`` when the handler
    itself needs simulated time (e.g. touching a memory device).

    The receive/response rings form an elastic shared pool sized by the
    attached-QP count, growing through ``grow_cb`` (see
    :class:`_BufferRing`), and every reply's immediate data carries a
    receive-credit grant for the calling client.
    """

    def __init__(
        self,
        endpoint: RdmaEndpoint,
        device: "MemoryDevice",
        base: int,
        grow_cb: Callable[[int], int],
        num_buffers: int = DEFAULT_RING_SLOTS,
        buffer_size: int = DEFAULT_BUFFER_SIZE,
        name: str = "",
        max_slots: int = DEFAULT_MAX_RING_SLOTS,
        shrink_idle_ns: int = DEFAULT_SHRINK_IDLE_NS,
    ):
        self.sim = endpoint.sim
        self.endpoint = endpoint
        self.name = name or f"{endpoint.name}.rpc"
        self._handlers: Dict[str, Callable] = {}
        # Receive pool + response staging ring share the device window.
        span = num_buffers * buffer_size
        self._recv_ring = _BufferRing(endpoint, device, base, num_buffers, buffer_size,
                                      f"{self.name}.rx", grow_cb=grow_cb,
                                      max_slots=max_slots, shrink_idle_ns=shrink_idle_ns)
        self._resp_ring = _BufferRing(endpoint, device, base + span, num_buffers, buffer_size,
                                      f"{self.name}.tx", grow_cb=grow_cb,
                                      max_slots=max_slots, shrink_idle_ns=shrink_idle_ns)
        self.buffer_size = buffer_size
        self._qps: List[QueuePair] = []
        self._peer_qps: Dict[str, QueuePair] = {}
        self._qp_state: Dict[QueuePair, str] = {}  # "live" | "parking" | "parked"
        self.requests = self.sim.metrics.counter(f"{self.name}.requests")
        self.reclaims = self.sim.metrics.counter(f"{self.name}.reclaims")
        # Shared-pool gauges: acquired receive slots and total capacity
        # (exported through repro.obs as gengar_*_pool_* with _peak).
        metrics = self.sim.metrics
        self.pool_occupancy = metrics.level(f"{self.name}.pool.occupancy")
        self.pool_capacity = metrics.level(f"{self.name}.pool.capacity",
                                           initial=float(num_buffers))
        self._recv_ring.capacity_stat = self.pool_capacity
        # Precomputed: one handler process is spawned per request.
        self._handler_name = f"{self.name}.handler"

    def register(self, method: str, handler: Callable) -> None:
        """Expose ``handler`` under ``method``."""
        self._handlers[method] = handler

    def serve(self, qp: QueuePair, peer: Optional[str] = None) -> None:
        """Start serving requests arriving on ``qp`` (one loop per client).

        ``peer`` names the remote for later :meth:`reclaim_peer` calls (the
        lease/crash reclamation sweeps key on client names).  Attaching
        keeps capacity ahead of the QP count: each serve loop holds at most
        one posted slot, so ``qps + 1`` slots guarantee the slot-exhaustion
        wedge cannot occur by construction.
        """
        self._qps.append(qp)
        self._qp_state[qp] = "live"
        if peer is not None:
            self._peer_qps[peer] = qp
        needed = len(self._qps) + 1
        self._recv_ring.ensure_capacity(needed)
        self._resp_ring.ensure_capacity(needed)
        self.sim.spawn(self._serve_loop(qp), name=f"{self.name}.loop")

    def reclaim_peer(self, peer: str) -> bool:
        """Return a dead peer's posted receive slot to the shared pool.

        Called from the lease/crash reclamation sweeps: a fenced or crashed
        client can never complete the receive posted on its QP, so the slot
        is withdrawn (QP flush semantics) and the serve loop parks until new
        demand — a re-attach over the same QP — actually arrives.
        """
        qp = self._peer_qps.get(peer)
        if qp is None or self._qp_state.get(qp) != "live":
            return False
        self._qp_state[qp] = "parking"
        qp.recv_cq.push(WorkCompletion(wr_id=-1, opcode=Opcode.RECV,
                                       context={"rpc_park": True}))
        self.reclaims.add()
        return True

    def pool_stats(self) -> dict:
        """Accounting snapshot for audits (chaos no-slot-leak checks)."""
        rx = self._recv_ring
        parked = sum(1 for s in self._qp_state.values() if s != "live")
        return {
            "qps": len(self._qps),
            "parked": parked,
            "capacity": rx.capacity,
            "free": len(rx.free._items),
            "outstanding": rx.outstanding(),
            "grows": rx.grow_count,
            "shrinks": rx.shrink_count,
            "peak_occupancy": self.pool_occupancy.peak,
            "tx_capacity": self._resp_ring.capacity,
            "tx_outstanding": self._resp_ring.outstanding(),
        }

    def _credit_grant(self) -> int:
        """Per-reply receive-credit grant."""
        grant = self._recv_ring.capacity // (len(self._qps) or 1)
        initial = self._recv_ring.initial_slots
        return grant if grant > initial else initial

    # ------------------------------------------------------------------
    def _serve_loop(self, qp: QueuePair) -> Generator[Any, Any, None]:
        ring = self._recv_ring
        occupancy = self.pool_occupancy
        state = self._qp_state
        completions = qp.recv_cq.next_event()
        posted = -1
        while True:
            if posted < 0:
                posted = yield ring.acquire()
                occupancy.adjust(1.0)
                qp.post_recv(ring.mr_of(posted), ring.offset(posted),
                             self.buffer_size, wr_id=posted)
            wc = yield completions
            ctx = wc.context
            if ctx and "rpc_park" in ctx:
                if state.get(qp) == "parking":
                    if qp.cancel_recv(posted, ring.mr_of(posted)):
                        ring.release(posted)
                        occupancy.adjust(-1.0)
                        posted = -1
                        state[qp] = "parked"
                        yield qp.recv_demand()
                    # cancel failing means a real message consumed our
                    # posted slot first; its completion is already queued.
                    state[qp] = "live"
                continue
            raw = wc.recv_mr.peek(wc.recv_offset, wc.byte_len)
            ring.release(wc.wr_id)
            occupancy.adjust(-1.0)
            posted = -1
            # Handle concurrently so a slow handler doesn't block the ring.
            self.sim.spawn(self._handle(qp, raw), name=self._handler_name)

    def _handle(self, qp: QueuePair, raw: bytes) -> Generator[Any, Any, None]:
        req_id, method, request = pickle.loads(raw)
        self.requests.add()
        rec = self.sim.spans
        t0 = self.sim.now if rec is not None else 0
        handler = self._handlers.get(method)
        if handler is None:
            reply = ("err", f"no such method: {method}")
        else:
            try:
                result = handler(request)
                if hasattr(result, "send"):  # generator-style handler
                    result = yield from result
                reply = ("ok", result)
            except Exception as exc:  # noqa: BLE001 - faults travel to caller
                reply = ("err", f"{type(exc).__name__}: {exc}")
        payload = _encode((req_id, reply), self.buffer_size)
        ring = self._resp_ring
        slot = yield ring.acquire()
        offset = ring.offset(slot)
        mr = ring.mr_of(slot)
        mr.poke(offset, payload)
        wr = WorkRequest(
            opcode=Opcode.SEND,
            local_mr=mr,
            local_offset=offset,
            length=len(payload),
            imm_data=self._credit_grant(),
        )
        yield qp.post_send(wr)
        ring.release(slot)
        if rec is not None:
            rec.record(self.name, "rpc." + method, t0, ok=reply[0] == "ok")


class RpcClient:
    """Issues calls to one :class:`RpcServer` over a connected QP.

    Supports multiple outstanding calls; responses are demultiplexed by
    request id so concurrent client processes can share one instance.  A
    call first takes a receive credit (granted back by the server on every
    reply) and parks at zero instead of overrunning the server's pool.  The
    client's own buffers are two fixed windows of ``num_buffers`` slots at
    ``base``: the credit window bounds what it ever has in flight.
    """

    def __init__(
        self,
        endpoint: RdmaEndpoint,
        qp: QueuePair,
        device: "MemoryDevice",
        base: int,
        num_buffers: int = DEFAULT_RING_SLOTS,
        buffer_size: int = DEFAULT_BUFFER_SIZE,
        name: str = "",
    ):
        self.sim = endpoint.sim
        self.endpoint = endpoint
        self.qp = qp
        self.name = name or f"{endpoint.name}.rpcc"
        self.buffer_size = buffer_size
        span = num_buffers * buffer_size
        self._recv_mr, self._recv_free = self._window(
            device, base, num_buffers, f"{self.name}.rx")
        self._send_mr, self._send_free = self._window(
            device, base + span, num_buffers, f"{self.name}.tx")
        self._credits = _CreditGate(self.sim, num_buffers, f"{self.name}.credit")
        self._pending: Dict[int, Event] = {}
        self._demux_running = False
        # Precomputed: every call creates one reply event.
        self._reply_event_name = f"{self.name}.req"

    def _window(self, device: "MemoryDevice", base: int, slots: int,
                name: str) -> tuple:
        """Register ``slots`` buffers at ``base``; (MR, free-slot store)."""
        mr = self.endpoint.register_mr(device, base, slots * self.buffer_size,
                                       access=AccessFlags.ALL, name=name)
        free = Store(self.sim, name=f"{name}.free")
        for i in range(slots):
            free.put(i)
        return mr, free

    def credit_stats(self) -> dict:
        """Flow-control snapshot."""
        gate = self._credits
        return {"window": gate.window, "available": gate.available,
                "stalls": gate.stalls, "waiters": len(gate._waiters)}

    # ------------------------------------------------------------------
    def call(self, method: str, request: Any = None) -> Generator[Any, Any, Any]:
        """Process helper: invoke ``method`` and return its result.

        Raises :class:`RpcError` if the remote handler failed.
        """
        req_id = next(_req_ids_for(self.sim))
        payload = _encode((req_id, method, request), self.buffer_size)

        # Admission: take a receive credit first, parking at zero (pure
        # decrement while credits are available).
        gate = self._credits
        stall = gate.take()
        if stall is not None:
            yield stall

        # Post a reply buffer *before* sending, so the response can never
        # find the receive queue empty.
        recv_slot = yield self._recv_free
        self.qp.post_recv(self._recv_mr, recv_slot * self.buffer_size,
                          self.buffer_size, wr_id=recv_slot)

        reply_event = self.sim.event(name=self._reply_event_name)
        self._pending[req_id] = reply_event
        if not self._demux_running:
            self._demux_running = True
            self.sim.spawn(self._demux_loop(), name=f"{self.name}.demux")

        send_slot = yield self._send_free
        offset = send_slot * self.buffer_size
        self._send_mr.poke(offset, payload)
        wr = WorkRequest(
            opcode=Opcode.SEND,
            local_mr=self._send_mr,
            local_offset=offset,
            length=len(payload),
        )
        send_wc = yield self.qp.post_send(wr)
        self._send_free.put(send_slot)
        if not send_wc.ok:
            self._pending.pop(req_id, None)
            # Flush the reply buffer posted for this call (QP error-state
            # recv flush): the dead peer can never consume it, and leaking
            # one slot per failed call would wedge every later call on
            # this client once the ring runs dry.
            if self.qp.cancel_recv(recv_slot, self._recv_mr):
                self._recv_free.put(recv_slot)
            # Likewise hand the credit back: the server never saw the send,
            # so no reply will ever return it.
            gate.refund()
            raise RpcError(f"rpc transport failed: {send_wc.status.value}")

        status, result = yield reply_event
        if status == "err":
            raise RpcError(result)
        return result

    def _demux_loop(self) -> Generator[Any, Any, None]:
        completions = self.qp.recv_cq.next_event()
        while True:
            wc = yield completions
            raw = self._recv_mr.peek(wc.recv_offset, wc.byte_len)
            self._recv_free.put(wc.wr_id)
            self._credits.on_reply(wc.imm_data)
            req_id, reply = pickle.loads(raw)
            waiter = self._pending.pop(req_id, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(reply)
