"""A small two-sided RPC layer over SEND/RECV.

Gengar keeps its *data plane* one-sided, but the *control plane* (allocation,
metadata lookups, lock service fallbacks, epoch reports) is classic
request/response over SEND/RECV.  This module provides that: a method
registry on the server, request/response framing with pickle, buffer ring
management, and concurrent outstanding calls matched by request id.

Payloads are serialized to real bytes and travel through the verbs layer, so
RPC cost scales with message size exactly as it would on the wire.

Admission (PROTOCOLS.md §12) is the client's receive window and nothing
else.  A call takes one of its ``num_buffers`` reply slots and posts it
before it sends, so a client never has more calls in flight than its window,
and a caller past the window parks on the window's free list.  The server
side is an SRQ-style shared receive pool: every served QP holds exactly one
posted slot, which the completion that consumes it re-posts at once, and the
pool grows in powers of two as QPs attach so that its capacity always
exceeds the QP count.  The response ring grows the same way
under occupancy pressure.  A server's owner hands it a ``grow_cb`` that
carves further DRAM (a :class:`~repro.core.layout.DramCarver` in every
deployment and rig).

A node that dies sends nothing (its WRs flush), so a call can fail in
transport three ways, each an ``rpc transport failed`` error: its request
finds the server dead or the server dies holding it (the caller hears
silence and gives up after its retry budget), or the caller itself died
meanwhile (its send, or its receive of the reply, flushes).
"""

from __future__ import annotations

import itertools
import pickle
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List

from repro.sim.primitives import Event
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.memory import MemoryDevice

from repro.rdma.endpoint import RdmaEndpoint
from repro.rdma.mr import AccessFlags
from repro.rdma.qp import RETRY_TIMEOUT_NS, QueuePair
from repro.rdma.wr import Opcode, WcStatus, WorkCompletion, WorkRequest

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

#: A client's receive window and a server pool's initial depth — the single
#: source of truth for both sides of every control connection, so the two
#: can never silently disagree.
DEFAULT_RING_SLOTS = 16

#: Hard ceiling on a server ring's growth: a runaway producer can at most
#: double a ring up to this many slots (4 MiB of 4 KiB buffers).
DEFAULT_MAX_RING_SLOTS = 1024


class RpcError(Exception):
    """Remote handler failure or local framing problem."""


def _encode(obj: Any, limit: int) -> bytes:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > limit:
        raise RpcError(f"rpc payload of {len(data)} bytes exceeds buffer size {limit}")
    return data


class _BufferRing:
    """A growable pool of fixed-size slots across one or more registered
    regions (the server side of every control connection).

    Chunk 0 occupies the caller-provided window at ``base``.  Growth carves
    a new power-of-two chunk through ``grow_cb`` and registers it as an
    additional MR, up to ``DEFAULT_MAX_RING_SLOTS``.  A ring never shrinks.
    """

    def __init__(self, endpoint: RdmaEndpoint, device: "MemoryDevice", base: int,
                 slots: int, slot_size: int, name: str,
                 grow_cb: Callable[[int], int]):
        self.endpoint = endpoint
        self.device = device
        self.slot_size = slot_size
        self.name = name
        self.capacity = slots
        mr = endpoint.register_mr(
            device, base, slots * slot_size, access=AccessFlags.ALL, name=name
        )
        self.free: Store = Store(endpoint.sim, name=f"{name}.free")
        for i in range(slots):
            self.free.put(i)
        self._grow_cb = grow_cb
        self._slot_mr = [mr] * slots
        self._slot_off = [i * slot_size for i in range(slots)]
        self.grow_count = 0
        #: Optional TimeWeightedStat tracking capacity (set by the owner).
        self.capacity_stat = None

    def outstanding(self) -> int:
        """Slots currently acquired (posted or holding an in-flight reply)."""
        return self.capacity - len(self.free._items)

    # -- acquire / release ------------------------------------------------
    def acquire(self) -> Store:
        """The free list, to take a slot from.

        Under occupancy pressure the ring first doubles its capacity, so a
        slot is at hand unless the ring is at its ceiling with every slot
        out; only then does yielding the list park the caller.
        """
        if not self.free._items and self.capacity < DEFAULT_MAX_RING_SLOTS:
            self._grow()
        return self.free

    def release(self, slot: int) -> None:
        self.free.put(slot)

    def ensure_capacity(self, needed: int) -> None:
        """Structural growth: keep capacity ahead of the attached-QP count.

        Called at attach time, so sizing is deterministic in the wiring and
        a pool that never sees more peers than its initial depth performs
        zero growth work.
        """
        while self.capacity < needed and self.capacity < DEFAULT_MAX_RING_SLOTS:
            self._grow()

    # -- internals --------------------------------------------------------
    def _grow(self) -> None:
        add = min(self.capacity, DEFAULT_MAX_RING_SLOTS - self.capacity)
        base = self._grow_cb(add * self.slot_size)
        mr = self.endpoint.register_mr(
            self.device, base, add * self.slot_size,
            access=AccessFlags.ALL, name=f"{self.name}.g{self.grow_count + 1}"
        )
        first = self.capacity
        self._slot_mr.extend([mr] * add)
        off = self._slot_off
        for i in range(add):
            off.append(i * self.slot_size)
            self.free.put(first + i)
        self.capacity += add
        self.grow_count += 1
        if self.capacity_stat is not None:
            self.capacity_stat.update(float(self.capacity))


class RpcServer:
    """Serves registered methods to any number of connected clients.

    Handlers are either plain callables ``handler(request) -> response`` or
    generator functions ``handler(request) -> (yield ...)`` when the handler
    itself needs simulated time (e.g. touching a memory device).

    The receive/response rings form a shared pool sized by the attached-QP
    count, growing through ``grow_cb`` (see :class:`_BufferRing`).  Each
    served QP holds exactly one posted receive, so at quiescence
    ``outstanding == qps``.  No process waits for requests: the QP's receive
    CQ hands each completion to a consumer that copies the request out,
    re-posts the receive and spawns the handler, all in the step that
    delivered it.
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
    ):
        self.sim = endpoint.sim
        self.endpoint = endpoint
        self.name = name or f"{endpoint.name}.rpc"
        self._handlers: Dict[str, Callable] = {}
        # Receive pool + response staging ring share the device window.
        span = num_buffers * buffer_size
        self._recv_ring = _BufferRing(endpoint, device, base, num_buffers, buffer_size,
                                      f"{self.name}.rx", grow_cb=grow_cb)
        self._resp_ring = _BufferRing(endpoint, device, base + span, num_buffers, buffer_size,
                                      f"{self.name}.tx", grow_cb=grow_cb)
        self.buffer_size = buffer_size
        self._qps: List[QueuePair] = []
        self.requests = self.sim.metrics.counter(f"{self.name}.requests")
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

    def serve(self, qp: QueuePair) -> None:
        """Start serving requests arriving on ``qp``: post its one receive
        and make its receive CQ's consumer the request's way in.

        Attaching keeps capacity ahead of the QP count: each QP holds one
        posted slot, so ``qps + 1`` slots guarantee the slot-exhaustion
        wedge cannot occur by construction.
        """
        self._qps.append(qp)
        needed = len(self._qps) + 1
        ring = self._recv_ring
        ring.ensure_capacity(needed)
        self._resp_ring.ensure_capacity(needed)
        free = ring.free._items  # nothing parks on the receive pool
        size = self.buffer_size

        def consume(wc: WorkCompletion) -> None:
            # The request is copied out, so its slot goes back to the pool's
            # tail and the oldest free slot is posted in its place: one
            # receive out, one in, the occupancy unchanged.
            raw = wc.recv_mr.peek(wc.recv_offset, wc.byte_len)
            free.append(wc.wr_id)
            posted = free.popleft()
            qp.post_recv(ring._slot_mr[posted], ring._slot_off[posted], size,
                         wr_id=posted)
            # Handle concurrently so a slow handler doesn't block the QP.
            self.sim.spawn(self._handle(qp, raw), name=self._handler_name)

        posted = free.popleft()
        self.pool_occupancy.adjust(1.0)
        qp.post_recv(ring._slot_mr[posted], ring._slot_off[posted], size,
                     wr_id=posted)
        qp.recv_cq.consumer = consume

    def pool_stats(self) -> dict:
        """Accounting snapshot for audits (chaos no-slot-leak checks)."""
        rx = self._recv_ring
        return {
            "qps": len(self._qps),
            "capacity": rx.capacity,
            "free": len(rx.free._items),
            "outstanding": rx.outstanding(),
            "grows": rx.grow_count,
            "peak_occupancy": self.pool_occupancy.peak,
            "tx_capacity": self._resp_ring.capacity,
            "tx_outstanding": self._resp_ring.outstanding(),
        }

    # ------------------------------------------------------------------
    def _handle(self, qp: QueuePair, raw: bytes) -> Generator[Any, Any, None]:
        req_id, method, request = pickle.loads(raw)
        self.requests.count += 1
        self.requests.total += 1
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
        try:
            payload = _encode((req_id, reply), self.buffer_size)
        except Exception as exc:  # noqa: BLE001 - nobody joins this process
            # An unsendable reply (too large, unpicklable) would fail this
            # process unseen and leave the caller waiting forever.
            reply = ("err", f"{type(exc).__name__}: {exc}")
            payload = _encode((req_id, reply), self.buffer_size)
        ring = self._resp_ring
        free = ring.acquire()
        if free._items:
            slot = free._items.popleft()
        else:  # the ring is at its ceiling: wait for a reply to go out
            slot = yield free
        offset = ring._slot_off[slot]
        mr = ring._slot_mr[slot]
        mr.poke(offset, payload)
        wr = WorkRequest(
            opcode=Opcode.SEND,
            local_mr=mr,
            local_offset=offset,
            length=len(payload),
        )
        wc = yield qp.post_send(wr)
        ring.release(slot)
        if wc.status is not WcStatus.SUCCESS:
            # The reply never reached the caller, whose receive queue
            # reports the call lost instead.  A dead caller's QP flushes it
            # (its next verb would flush anyway); if this node died holding
            # the call, the caller gives up after its retry budget, as for
            # a request sent into a dead node.
            caller = qp.remote
            if wc.status is WcStatus.WR_FLUSH_ERROR:
                delay, status = RETRY_TIMEOUT_NS, WcStatus.RETRY_EXCEEDED
            else:
                delay, status = 0, WcStatus.WR_FLUSH_ERROR
            self.sim.schedule(delay, caller.recv_cq.push, WorkCompletion(
                wr_id=0, opcode=Opcode.RECV, status=status,
                context={"req_id": req_id}))
        if rec is not None:
            rec.record(self.name, "rpc." + method, t0, ok=reply[0] == "ok")


class RpcClient:
    """Issues calls to one :class:`RpcServer` over a connected QP.

    Supports multiple outstanding calls; responses are demultiplexed by
    request id so concurrent client processes can share one instance.  The
    client's own buffers are two fixed windows of ``num_buffers`` slots at
    ``base``.  A call takes a reply slot from the receive window before it
    sends and parks while the window is empty, so the window alone bounds
    what the client ever has in flight.
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
        self._window_slots = num_buffers
        self._stalls = 0
        self._pending: Dict[int, Event] = {}
        self._demux_running = False
        # Precomputed: every call creates one reply event and takes one id.
        self._reply_event_name = f"{self.name}.req"
        self._req_ids = _req_ids_for(self.sim)

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
        """Admission snapshot of the receive window: its size, its free
        slots, the calls that ever parked on it and those parked now."""
        free = self._recv_free
        return {"window": self._window_slots, "available": len(free),
                "stalls": self._stalls, "waiters": len(free._queue)}

    # ------------------------------------------------------------------
    def call(self, method: str, request: Any = None) -> Generator[Any, Any, Any]:
        """Process helper: invoke ``method`` and return its result.

        Raises :class:`RpcError` if the remote handler failed.
        """
        req_id = next(self._req_ids)
        payload = _encode((req_id, method, request), self.buffer_size)

        # Admission: post a reply buffer from the receive window *before*
        # sending, so the response can never find the receive queue empty;
        # at a full window, park for a slot.
        recv_free = self._recv_free
        if not recv_free._items:
            self._stalls += 1
        recv_slot = yield recv_free
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
        if send_wc.status is WcStatus.SUCCESS:
            status, result = yield reply_event
        else:
            self._pending.pop(req_id, None)
            status, result = "lost", send_wc.status.value
        if status == "lost":
            # Flush the reply buffer posted for this call (QP error-state
            # recv flush): no reply will ever consume it, and leaking one
            # slot per failed call would wedge every later call on this
            # client once the ring runs dry.
            if self.qp.cancel_recv(recv_slot, self._recv_mr):
                recv_free.put(recv_slot)
            raise RpcError(f"rpc transport failed: {result}")
        if status == "err":
            raise RpcError(result)
        return result

    def _demux_loop(self) -> Generator[Any, Any, None]:
        completions = self.qp.recv_cq.next_event()
        while True:
            wc = yield completions
            if wc.status is WcStatus.SUCCESS:
                raw = self._recv_mr.peek(wc.recv_offset, wc.byte_len)
                self._recv_free.put(wc.wr_id)
                req_id, reply = pickle.loads(raw)
            else:  # the call's reply was lost (see RpcServer._handle)
                req_id, reply = wc.context["req_id"], ("lost", wc.status.value)
            waiter = self._pending.pop(req_id, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(reply)
