"""Reliable-connected queue pairs: the verb state machines.

Each verb is executed as a simulation process that walks the same phases the
real protocol does — initiator NIC, fabric, target NIC, target memory,
response — copying real bytes at the placement step.  One-sided verbs touch
only the target's NIC and memory device; no target-side process is scheduled,
preserving the CPU-bypass property Gengar builds on.

Ordering: a per-QP send gate serializes WQEs through NIC processing, payload
gather and wire serialization — the injection order — and nothing else: the
500 ns flight is paid after the gate is released, so back-to-back WQEs on one
QP fly concurrently, ~256 ns apart, the way an RC send queue pipelines.  RC
order at the responder is then carried by sequence number: every non-READ
WQE (SEND, WRITE, WRITE_IMM, atomics) takes the QP's next one inside the
gate, and the responder applies it only after every earlier one of that QP
has been applied — a WQE that arrives out of turn (a fault-hook latency
spike on its predecessor) waits for its turn; one that is next in line waits
for nothing.  Every way out — applied, remote fault, dead peer, a step that
raises — advances the responder's cursor.  READs take no number and stay
unordered, so reads still pipeline.

A dead node sends nothing: a WQE that reaches injection after its own
endpoint died flushes (``WR_FLUSH_ERROR``) without touching the wire or
taking a number, so the responder never waits for it; one already on the
wire still lands.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.primitives import Event
from repro.sim.resources import Resource, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.rdma.endpoint import RdmaEndpoint

from repro.rdma.mr import AccessFlags, MemoryRegion, MrError
from repro.rdma.wr import (
    ATOMIC_OPERAND_BYTES,
    ATOMIC_REQUEST_BYTES,
    ATOMIC_RESPONSE_BYTES,
    Opcode,
    WcStatus,
    WorkCompletion,
    WorkRequest,
)

#: Wire payload of a READ request (remote address + length + rkey).
READ_REQUEST_BYTES = 16
#: Modelled RC retransmission timeout before a dead peer surfaces as
#: RETRY_EXCEEDED (real defaults are much larger; this keeps tests fast).
RETRY_TIMEOUT_NS = 20_000

def _qp_ids_for(sim):
    """Per-simulator QP numbering (see mr._key_counter_for for why)."""
    counter = getattr(sim, "_qp_id_counter", None)
    if counter is None:
        counter = itertools.count(1)
        sim._qp_id_counter = counter
    return counter


class QpError(Exception):
    """Invalid queue-pair usage (posting errors, unconnected QP)."""


class _RecvDescriptor:
    """One posted receive buffer."""

    __slots__ = ("wr_id", "mr", "offset", "length")

    def __init__(self, wr_id: int, mr: MemoryRegion, offset: int, length: int):
        self.wr_id = wr_id
        self.mr = mr
        self.offset = offset
        self.length = length


class QueuePair:
    """One end of a reliable connection.

    Created via :func:`repro.rdma.endpoint.connect`; not directly.
    """

    def __init__(self, endpoint: "RdmaEndpoint", recv_cq, name: str = ""):
        self.endpoint = endpoint
        self.sim = endpoint.sim
        self.qp_num = next(_qp_ids_for(self.sim))
        self.name = name or f"qp{self.qp_num}"
        self.recv_cq = recv_cq
        self.remote: Optional["QueuePair"] = None
        self._recv_queue: Store = Store(self.sim, name=f"{self.name}.rq")
        self._send_gate = Resource(self.sim, capacity=1, name=f"{self.name}.sq")
        #: Initiator: the sequence number the next ordered WQE posted here takes.
        self._next_seq = 0
        #: Responder, for the peer's ordered WQEs: whose turn it is to be
        #: applied, and those past it that are done already (``None``) or
        #: waiting for their turn (the event that wakes them).
        self._apply_seq = 0
        self._turns: dict[int, Optional[Event]] = {}
        # Precomputed once: posting is on the hot path of every verb, so
        # avoid a per-WR f-string for the verb process's name.
        self._exec_name = f"{self.name}.exec"

    # ------------------------------------------------------------------
    @property
    def is_connected(self) -> bool:
        return self.remote is not None

    def post_recv(self, mr: MemoryRegion, offset: int = 0, length: Optional[int] = None, wr_id: int = 0) -> None:
        """Post a receive buffer for an incoming SEND (or WRITE_IMM notice)."""
        if length is None:
            length = mr.length - offset
        mr.check(offset, length, AccessFlags.LOCAL)
        self._recv_queue.put(_RecvDescriptor(wr_id, mr, offset, length))

    def cancel_recv(self, wr_id: int, mr: MemoryRegion) -> bool:
        """Withdraw a posted receive buffer that can no longer be consumed.

        Models the recv-flush a real QP performs on entering the error
        state (``WR_FLUSH_ERR``): after a send fails with RETRY_EXCEEDED
        the peer is gone, so a reply buffer posted for its response would
        otherwise sit in the receive queue forever.  Returns False if the
        buffer was already consumed by an earlier incoming message.
        """
        for desc in self._recv_queue._items:
            if desc.wr_id == wr_id and desc.mr is mr:
                return self._recv_queue.remove(desc)
        return False

    def _validate_send(self, wr: WorkRequest) -> None:
        if wr.opcode is Opcode.RECV:
            raise QpError("post RECV via post_recv()")
        if wr.inline_data is not None and not self.endpoint.nic.is_inline(len(wr.inline_data)):
            raise QpError(
                f"inline payload of {len(wr.inline_data)} bytes exceeds the "
                f"NIC inline limit {self.endpoint.nic.spec.max_inline_bytes}"
            )
        if wr.is_atomic and wr.length not in (0, ATOMIC_OPERAND_BYTES):
            raise QpError("atomics operate on exactly 8 bytes")

    def post_send(self, wr: WorkRequest) -> Event:
        """Post a send-queue work request.

        Returns an event that fires with the :class:`WorkCompletion` when the
        verb finishes — the verb's own process, and the only place a send
        completion is delivered.  Protocol-level failures surface as
        completions with a non-success status (like real verbs), while local
        usage errors raise :class:`QpError` immediately.
        """
        if not self.is_connected:
            raise QpError(f"{self.name} is not connected")
        self._validate_send(wr)
        return self.sim.spawn(self._execute(wr), name=self._exec_name)

    def post_send_many(self, wrs) -> list[Event]:
        """Doorbell batching: post a list of WRs with one call.

        Virtual-time semantics are *identical* to calling :meth:`post_send`
        per WR in order — each WR is still one WQE walking the full verb
        state machine, serialized through the send gate in posting order
        with flights and response phases overlapping (RC pipelining).  What
        batching buys is host-side (wall-clock) cost: validation,
        connectivity checks, and the doorbell are paid once for the list.  The whole
        list is validated before any WR is posted, so a usage error leaves
        the send queue untouched.
        """
        if not self.is_connected:
            raise QpError(f"{self.name} is not connected")
        wrs = list(wrs)
        for wr in wrs:
            self._validate_send(wr)
        # One kernel call arms every WR's verb process (batched doorbell);
        # bootstrap order — and thus virtual-time behaviour — is identical
        # to spawning one at a time.
        return self.sim.spawn_many([self._execute(wr) for wr in wrs],
                                   name=self._exec_name)

    # ------------------------------------------------------------------
    # Verb execution
    # ------------------------------------------------------------------
    def _completion(self, wr: WorkRequest, status: WcStatus, **fields: Any) -> WorkCompletion:
        return WorkCompletion(wr_id=wr.wr_id, opcode=wr.opcode, status=status,
                              timestamp=self.sim.now, **fields)

    def _retire(self, seq: int) -> None:
        """Responder: the peer's ordered WQE ``seq`` is done with — applied,
        faulted, failed or lost to a dead peer — so the turn passes on,
        over any later ones already done, to the first one waiting."""
        turns = self._turns
        if seq != self._apply_seq:
            turns[seq] = None  # done before its turn: skipped when it comes
            return
        seq += 1
        while seq in turns:
            turn = turns.pop(seq)
            if turn is not None:
                turn.succeed()
                break
            seq += 1
        self._apply_seq = seq

    def _execute(self, wr: WorkRequest) -> Generator[Any, Any, WorkCompletion]:
        """One verb, start to finish: its process fires with what it returns."""
        local = self.endpoint
        peer: QueuePair = self.remote  # type: ignore[assignment]
        remote_ep = peer.endpoint
        ordered = wr.opcode is not Opcode.RDMA_READ

        # ---- Initiator phase: NIC processing, payload gather, injection --
        with (yield self._send_gate):
            yield from local.nic.tx_process()
            try:
                payload = yield from self._gather_payload(wr)
            except MrError:
                return self._completion(wr, WcStatus.LOCAL_PROTECTION_ERROR)
            while True:
                if not local.alive:
                    # The sender died while this WR was posted, queued or
                    # retransmitting: its QP is in error, so it flushes unsent.
                    return self._completion(wr, WcStatus.WR_FLUSH_ERROR)
                flight_ns = yield from local.fabric.inject(
                    local.name, remote_ep.name, self._request_wire_bytes(wr, payload))
                if flight_ns is not None:
                    break
            if ordered:
                seq = self._next_seq
                self._next_seq = seq + 1

        # ---- Flight and target phase: outside the gate -------------------
        try:
            yield flight_ns
            delivered = remote_ep.alive
            if delivered:
                yield from remote_ep.nic.rx_process()
                if ordered and peer._apply_seq != seq:
                    # An earlier ordered WQE of this QP is not applied yet.
                    peer._turns[seq] = turn = Event(self.sim)
                    yield turn
                response_bytes = yield from self._apply_at_target(wr, payload, remote_ep)
        except _RemoteFault as fault:
            if ordered:
                peer._retire(seq)
            return self._completion(wr, fault.status)
        except Exception:  # a step raised: it will never be applied
            if ordered:
                peer._retire(seq)
            raise
        if ordered:
            if delivered and not peer._turns:
                peer._apply_seq = seq + 1  # the common case: nobody waits
            else:
                peer._retire(seq)
        if not delivered:
            # The request is retransmitted into silence until the QP's
            # retry budget expires.
            yield RETRY_TIMEOUT_NS
            return self._completion(wr, WcStatus.RETRY_EXCEEDED)

        # ---- Response / ack phase ----------------------------------------
        yield from local.fabric.unicast(remote_ep.name, local.name, response_bytes[0])
        yield from local.nic.rx_process()

        if wr.opcode is Opcode.RDMA_READ:
            try:
                wr.local_mr.check(wr.local_offset, wr.length, AccessFlags.LOCAL)  # type: ignore[union-attr]
            except (MrError, AttributeError):
                return self._completion(wr, WcStatus.LOCAL_PROTECTION_ERROR)
            # Place the fetched bytes into local registered memory (DMA).
            yield from wr.local_mr.write(wr.local_offset, response_bytes[1])  # type: ignore[union-attr]
            return self._completion(wr, WcStatus.SUCCESS, byte_len=wr.length)
        if wr.is_atomic:
            return self._completion(
                wr, WcStatus.SUCCESS,
                byte_len=ATOMIC_OPERAND_BYTES,
                atomic_value=int.from_bytes(response_bytes[1], "little"),
            )
        return self._completion(wr, WcStatus.SUCCESS, byte_len=len(payload))

    def _gather_payload(self, wr: WorkRequest) -> Generator[Any, Any, bytes]:
        """Collect the outbound payload (inline or local DMA read)."""
        if wr.opcode in (Opcode.RDMA_READ, Opcode.ATOMIC_CAS, Opcode.ATOMIC_FAA):
            return b""
        if wr.inline_data is not None:
            return wr.inline_data
        if wr.local_mr is None:
            return b""
        if self.endpoint.nic.is_inline(wr.length):
            # Small payloads are copied into the WQE by the CPU; no DMA read.
            return wr.local_mr.peek(wr.local_offset, wr.length)
        data = yield from wr.local_mr.read(wr.local_offset, wr.length)
        return data

    @staticmethod
    def _request_wire_bytes(wr: WorkRequest, payload: bytes) -> int:
        if wr.opcode is Opcode.RDMA_READ:
            return READ_REQUEST_BYTES
        if wr.is_atomic:
            return ATOMIC_REQUEST_BYTES
        return len(payload)

    def _apply_at_target(
        self, wr: WorkRequest, payload: bytes, remote_ep: "RdmaEndpoint"
    ) -> Generator[Any, Any, tuple[int, bytes]]:
        """Execute the target-side effect; returns (response_wire_bytes, data)."""
        if wr.opcode is Opcode.SEND:
            desc: _RecvDescriptor = yield self.remote._recv_queue  # type: ignore[union-attr]
            if len(payload) > desc.length:
                # Buffer too small: receiver sees a local error, sender a
                # remote-invalid-request; keep it simple and fail the sender.
                raise _RemoteFault(WcStatus.REMOTE_INVALID_REQUEST)
            yield from desc.mr.write(desc.offset, payload)
            self.remote.recv_cq.push(  # type: ignore[union-attr]
                WorkCompletion(
                    wr_id=desc.wr_id,
                    opcode=Opcode.RECV,
                    byte_len=len(payload),
                    imm_data=wr.imm_data,
                    recv_mr=desc.mr,
                    recv_offset=desc.offset,
                    context={"src_qp": self.qp_num},
                )
            )
            return (0, b"")

        # One-sided verbs: resolve the remote region through the target MPT.
        mr = remote_ep.resolve_rkey(wr.remote_rkey)
        if mr is None:
            raise _RemoteFault(WcStatus.REMOTE_ACCESS_ERROR)

        if wr.opcode is Opcode.RDMA_READ:
            try:
                mr.check(wr.remote_offset, wr.length, AccessFlags.REMOTE_READ)
            except MrError:
                raise _RemoteFault(WcStatus.REMOTE_ACCESS_ERROR) from None
            combiner = (getattr(remote_ep, "read_combiner", None)
                        if wr.combine is not None else None)
            if combiner is not None:
                # Adjacent reads rung with one doorbell: the target services
                # the whole group as a single device transfer and each WR
                # slices its range from it.  Wire cost is unchanged — every
                # member still returns its own response bytes.
                data = yield from combiner.fetch(mr, wr)
            else:
                data = yield from mr.read(wr.remote_offset, wr.length, need=AccessFlags.REMOTE_READ)
            return (wr.length, data)

        if wr.opcode in (Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_IMM):
            try:
                mr.check(wr.remote_offset, len(payload), AccessFlags.REMOTE_WRITE)
            except MrError:
                raise _RemoteFault(WcStatus.REMOTE_ACCESS_ERROR) from None
            yield from mr.write(wr.remote_offset, payload, need=AccessFlags.REMOTE_WRITE)
            if wr.opcode is Opcode.RDMA_WRITE_IMM:
                # Consumes a posted RECV at the target and raises a completion
                # there — after the data is globally visible (RC ordering).
                desc = yield self.remote._recv_queue  # type: ignore[union-attr]
                self.remote.recv_cq.push(  # type: ignore[union-attr]
                    WorkCompletion(
                        wr_id=desc.wr_id,
                        opcode=Opcode.RECV,
                        byte_len=len(payload),
                        imm_data=wr.imm_data,
                        context={"src_qp": self.qp_num, "write_imm": True},
                    )
                )
            return (0, b"")

        if wr.is_atomic:
            try:
                mr.check(wr.remote_offset, ATOMIC_OPERAND_BYTES, AccessFlags.REMOTE_ATOMIC)
            except MrError:
                raise _RemoteFault(WcStatus.REMOTE_ACCESS_ERROR) from None
            # The target NIC serializes atomics; model with a per-endpoint gate.
            with (yield remote_ep.atomic_gate):
                old_bytes = yield from mr.read(
                    wr.remote_offset, ATOMIC_OPERAND_BYTES, need=AccessFlags.REMOTE_ATOMIC
                )
                old = int.from_bytes(old_bytes, "little")
                if wr.opcode is Opcode.ATOMIC_CAS:
                    new = wr.swap if old == wr.compare else old
                else:  # ATOMIC_FAA
                    new = (old + wr.add) % (1 << 64)
                if new != old:
                    yield from mr.write(
                        wr.remote_offset,
                        new.to_bytes(8, "little"),
                        need=AccessFlags.REMOTE_ATOMIC,
                    )
            return (ATOMIC_RESPONSE_BYTES, old_bytes)

        raise QpError(f"unsupported opcode {wr.opcode}")  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover
        peer = self.remote.name if self.remote else "∅"
        return f"<QP {self.name} ({self.endpoint.name} ↔ {peer})>"


class _RemoteFault(Exception):
    """Internal: target-side protection fault, surfaced as a completion."""

    def __init__(self, status: WcStatus):
        super().__init__(status)
        self.status = status
