"""The writer's side of a client's proxy ring on one server (PROTOCOLS §3.2):
the seq cursor, what the client knows of the drained counter, and the
read-your-writes overlay.  The drain side is ``server.ProxyDrain``."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, Optional

from repro.core.driver import wc_error
from repro.core.errors import RetryableError, StaleRingError
from repro.core.protocol import (
    MAX_TRANSFER, RingDescriptor, pack_commit_word, pack_proxy_slot, proxy_payload_capacity)
from repro.rdma.wr import Opcode, WorkRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import GengarClient, _ServerConn


class ClientRing:
    """One client's proxy ring on one server; the only code that moves its
    cursor or its knowledge of the drained counter."""

    def __init__(self, client: "GengarClient", conn: "_ServerConn"):
        self.client = client
        self.conn = conn
        self.server_id = conn.desc.server_id
        #: None before attach, with the proxy off and while a re-attach
        #: handshake is in flight: a write then fails with StaleRingError.
        self.desc: Optional[RingDescriptor] = None
        self.capacity = 0  # payload bytes per frame
        self.group_bytes = 0  # payload bytes per frame group
        self.written = 0  # seqs reserved
        self.drained_known = 0  # largest drained-counter value read
        self.pruned = 0  # drained_known at the overlay's last prune
        #: The last counter READ found frames staged before it undrained.
        self.lagging = False
        self.refreshing = False  # a background counter READ is out
        self.refreshed_at = 0  # written when the last one was posted
        #: gaddr -> ``(offset, data, seq)`` of its last write staged here;
        #: ``seq`` is one past its last frame's, the counter value that
        #: drains it.
        self.overlay: Dict[int, tuple] = {}

    def install(self, desc: Optional[RingDescriptor]) -> list:
        """Adopt a fresh ring (or none): the cursor and the counter
        knowledge start over and the overlay is dropped.  Returns the
        writes lost with the old ring (:meth:`undrained`)."""
        lost = self.undrained()
        self.overlay.clear()
        self.written = self.drained_known = self.pruned = self.refreshed_at = 0
        self.lagging = False
        self.desc = desc
        if desc is not None:
            self.capacity = proxy_payload_capacity(desc.slot_size)
            self.group_bytes = self.capacity * max(
                1, min(desc.slots, MAX_TRANSFER // desc.slot_size))
        return lost

    def stage(self, gaddr: int, offset: int, data: bytes,
              span_op: int = 0) -> Generator[Any, Any, None]:
        """Stage one write as frame groups, in order (a write that fits one
        frame is a group of one, inline when the NIC allows).  A group waits
        for its slots, then its scratch (and for slots again if they went
        meanwhile), and only then reserves its seqs, on the ring the write
        began with.  Reserve to post is yield-free, so doorbells reach the
        server in seq order (the drain would skip a frame overtaken by a
        later seq as torn).  Once staged, the write may post a background
        counter refresh, which it does not wait for."""
        client = self.client
        rec = client.sim.spans
        t0 = client.sim.now if rec is not None else 0
        desc = self.desc
        if desc is None:
            raise StaleRingError(f"ring to server {self.server_id} is being "
                                 "re-attached", server_id=self.server_id)
        slots, slot_size, capacity = desc.slots, desc.slot_size, self.capacity
        scratch, mr, qp = client._reads.scratch, client._reads.mr, self.conn.lanes[0]
        size, pos = len(data), 0
        while pos < size:  # one group per pass
            end = pos + self.group_bytes
            if end > size:
                end = size
            k = (end - pos - 1) // capacity + 1
            if self.written - self.pruned + k > slots:
                # The writes staged since the last prune fill the ring.
                if self.written - self.drained_known + k > slots:
                    client.m_ring_waits.add()
                yield from self.await_drained(slots - k)
            # Every frame but the last fills its slot.
            total = end - pos + k * (slot_size - capacity)
            base = None
            if k > 1 or not client.node.nic.is_inline(total):
                base = scratch.try_alloc(total)
                if base is None:
                    base = yield scratch.wait(total)
                    if self.written - self.drained_known + k > slots:
                        scratch.free(base, total)  # another writer took the room
                        continue
            try:
                seq = self.reserve(desc, k)
                wrs, at = [], base
                while pos < end:
                    cut = pos + capacity
                    # Trailing commit word: the drain checks seq ^ crc32
                    # first, so a frame torn mid-flight is skipped, never
                    # applied as garbage.
                    frame = pack_proxy_slot(gaddr, offset + pos, data[pos:cut],
                                            more=cut < end)
                    frame += pack_commit_word(seq, frame)
                    slot = seq % slots
                    wr = WorkRequest(
                        opcode=Opcode.RDMA_WRITE_IMM, remote_rkey=desc.ring_rkey,
                        remote_offset=slot * slot_size, imm_data=slot,
                        length=len(frame))
                    if base is None:
                        wr.inline_data = frame
                    else:
                        mr.poke(at, frame)
                        wr.local_mr, wr.local_offset = mr, at
                        at += slot_size
                    wrs.append(wr)
                    pos, seq = cut, seq + 1
                procs = qp.post_send_many(wrs) if k > 1 else (qp.post_send(wr),)
                failed = None
                for proc in procs:
                    wc = yield proc
                    if failed is None and not wc.ok:
                        failed = wc
            finally:
                if base is not None:
                    scratch.free(base, total)
            if failed is not None:
                raise wc_error(failed, "proxy write", self.conn, ring=True)
        if rec is not None:
            rec.record(client.name, "phase.proxy_stage", t0, op=span_op,
                       server=self.server_id, bytes=size)
        self.overlay[gaddr] = (offset, data, seq)
        client._last_staged = (self.server_id, gaddr, offset, data)
        if (self.lagging and not self.refreshing and self.desc is desc
                and self.written - max(self.drained_known, self.refreshed_at)
                >= slots // 2):
            self.refreshing, self.refreshed_at = True, self.written
            client.m_ring_refreshes.add()
            client.sim.spawn(self._refresh_drained())

    def reserve(self, desc: RingDescriptor, k: int) -> int:
        """Take ``k`` consecutive seqs and return the first, unless the ring
        is no longer ``desc``: the one place the cursor moves."""
        if self.desc is not desc:
            raise StaleRingError(f"ring to server {self.server_id} "
                                 "re-attached mid-write",
                                 server_id=self.server_id)
        seq = self.written
        self.written = seq + k
        return seq

    def covered(self, gaddr: int, offset: int, length: int) -> Optional[bytes]:
        """``length`` bytes at ``offset`` of ``gaddr``, from its overlay
        entry; None when the entry covers only part of the range."""
        start, data, _ = self.overlay[gaddr]
        lo = offset - start
        if lo < 0 or lo + length > len(data):
            return None
        return data[lo:lo + length]

    def undrained(self) -> list:
        """The objects, sorted, whose overlay entries are not known
        drained."""
        known = self.drained_known
        return sorted(g for g, (_, _, seq) in self.overlay.items()
                      if seq > known)

    def prune(self) -> None:
        """Drop the overlay entries known drained, and remember how far
        that knowledge went."""
        known = self.pruned = self.drained_known
        self.overlay = {g: e for g, e in self.overlay.items() if e[2] > known}

    def await_drained(self, slack: int) -> Generator[Any, Any, None]:
        """Wait until at most ``slack`` staged frames are undrained (``slots
        - k`` for a group of k, 0 for gsync), polling the counter with capped
        backoff (1, 2, 4, 8, then 16 µs) and pruning the overlay as it learns.
        A ring found down fails the wait with StaleRingError."""
        backoff = 0
        while True:
            if self.pruned < self.drained_known:
                self.prune()
            if self.written - self.drained_known <= slack:
                return
            if self.desc is None:
                raise StaleRingError(
                    f"ring to server {self.server_id} is down with writes "
                    "still staged", server_id=self.server_id)
            yield from self.poll()
            if self.written - self.drained_known > slack:
                backoff = min(backoff + 1, 5)
                yield 500 * (1 << backoff)

    def poll(self) -> Generator[Any, Any, None]:
        """Fetch the drained counter with one 8-byte READ.  A value that
        returns after its ring was replaced counts the old ring's frames,
        so it is dropped.  It never prunes the overlay."""
        desc, written = self.desc, self.written
        raw = yield from self.client._reads.read(
            self.conn, desc.ring_rkey, desc.counter_offset, 8, ring=True)
        if self.desc is not desc:
            return
        value = int.from_bytes(raw, "little")
        self.lagging = value < written
        if value > self.drained_known:
            self.drained_known = value

    def _refresh_drained(self) -> Generator[Any, Any, None]:
        """A background counter READ.  A failed one is dropped: the next
        poll or gsync surfaces the failure (a FatalError, this client's own
        death, fails the process instead)."""
        try:
            if self.desc is not None:  # a re-attach began before it ran
                yield from self.poll()
        except RetryableError:
            pass
        finally:
            self.refreshing = False
