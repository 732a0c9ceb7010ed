"""A client's reads: the bounce region every transfer borrows, the deal of
RDMA READs over a server's read lanes, and the one read rule serial
``gread`` and batched ``gread_many`` share — one cache-or-home choice, one
verdict on the bytes a READ returns, and one metadata miss, whose READ of
the home flies beside its lookup.  A stale cache tag is such a miss, of the
size its stale metadata gives."""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Deque, Dict, Generator, Optional, Tuple

from repro.core.addressing import OFFSET_BITS, offset_of
from repro.core.driver import wc_error
from repro.core.errors import ClientError, RetryableError
from repro.core.metacache import check_bounds
from repro.core.protocol import CACHE_TAG_BYTES, MAX_TRANSFER, ObjectMeta, tag_matches
from repro.core.server import ReadCombineGroup
from repro.rdma.cq import CompletionMux
from repro.rdma.wr import Opcode, WorkRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import GengarClient, _ServerConn

#: The registered bounce region for RDMA payloads; no transfer through it
#: is larger than ``MAX_TRANSFER`` (bigger reads and writes are chunked).
SCRATCH_BYTES = 4 * 1024 * 1024
#: Scratch is lent in whole lines.
SCRATCH_LINE = 64


class Scratch:
    """The client's bounce region, lent by the byte.

    A transfer holds only its own span, rounded up to a whole line (at
    least one, so an empty transfer still owns its offset): first fit over
    the free runs in offset order, given back with :meth:`free`, which
    coalesces it with its free neighbours.  A taker that does not fit waits
    on :meth:`wait`'s event; waiters are served strictly in arrival order,
    so :meth:`try_alloc` fails while anyone waits and a large transfer is
    never starved by a stream of small ones.
    """

    __slots__ = ("sim", "size", "_runs", "_waiters")

    def __init__(self, sim, size: int):
        self.sim = sim
        self.size = size
        #: Free ``[lo, hi)`` runs, in offset order, never adjacent.
        self._runs: list = [[0, size]]
        #: ``(nbytes, event)`` of each waiting taker, oldest first.
        self._waiters: Deque[tuple] = deque()

    def _fit(self, nbytes: int) -> Optional[int]:
        need = (nbytes + SCRATCH_LINE - 1) & -SCRATCH_LINE or SCRATCH_LINE
        runs = self._runs
        for i, run in enumerate(runs):
            lo = run[0]
            left = run[1] - lo - need
            if left >= 0:
                if left:
                    run[0] = lo + need
                else:
                    del runs[i]
                return lo
        return None

    def try_alloc(self, nbytes: int) -> Optional[int]:
        """Lend ``nbytes`` now: the offset, or None when no free run fits
        or an earlier taker is waiting."""
        return None if self._waiters else self._fit(nbytes)

    def wait(self, nbytes: int):
        """The event, to be yielded, that fires with the offset of
        ``nbytes`` once every earlier waiter is served and they fit."""
        event = self.sim.event()
        self._waiters.append((nbytes, event))
        return event

    def free(self, offset: int, nbytes: int) -> None:
        """Take back the ``nbytes`` lent at ``offset``, then serve waiters
        in order while the oldest fits."""
        hi = offset + ((nbytes + SCRATCH_LINE - 1) & -SCRATCH_LINE
                       or SCRATCH_LINE)
        runs = self._runs
        i = bisect_left(runs, [offset])
        after = runs[i] if i < len(runs) and runs[i][0] == hi else None
        if i and runs[i - 1][1] == offset:
            before = runs[i - 1]
            if after is None:
                before[1] = hi
            else:
                before[1] = after[1]
                del runs[i]
        elif after is not None:
            after[0] = offset
        else:
            runs.insert(i, [offset, hi])
        waiters = self._waiters
        while waiters:
            got = self._fit(waiters[0][0])
            if got is None:
                return
            waiters.popleft()[1].succeed(got)

    @property
    def idle(self) -> bool:
        """True when the whole region is free and nobody waits."""
        return self._runs == [[0, self.size]] and not self._waiters


class ClientReads:
    """One client's reads; the only code that builds an RDMA READ or moves
    a lane's READ cursor."""

    __slots__ = ("client", "sim", "cache", "mr", "scratch")

    def __init__(self, client: "GengarClient"):
        self.client = client
        self.sim = client.sim
        self.cache = client.config.enable_cache
        #: The bounce region's MR, registered at the first attach.
        self.mr = None
        #: Who holds which bytes of the region (a kill forgets).
        self.scratch: Optional[Scratch] = None

    @staticmethod
    def deal(conn: "_ServerConn", count: int) -> int:
        """Deal ``count`` READs round-robin over ``conn``'s read lanes: the
        one place the cursor moves.  Returns where it stood; the k-th READ
        goes out on ``conn.lanes[(first + k) % len(conn.lanes)]``."""
        first = conn.reads_posted
        conn.reads_posted = first + count
        return first

    def post_read(self, conn: "_ServerConn", rkey: int, remote_offset: int,
                  scratch_off: int, nbytes: int):
        """Post one READ of ``nbytes`` at ``remote_offset`` of ``rkey`` into
        scratch at ``scratch_off``, on the server's next read lane; its
        completion event."""
        lanes = conn.lanes
        return lanes[self.deal(conn, 1) % len(lanes)].post_send(
            WorkRequest(opcode=Opcode.RDMA_READ, local_mr=self.mr,
                        local_offset=scratch_off, length=nbytes,
                        remote_rkey=rkey, remote_offset=remote_offset))

    def source(self, conn: "_ServerConn", meta: ObjectMeta, offset: int,
               length: int) -> Tuple[int, int, int]:
        """The cache-or-home choice for ``length`` bytes at ``offset`` of
        ``meta``'s object: ``(rkey, remote offset, span)``.  A cached object
        is read from its DRAM slot, tag first (``span`` covers the tag and
        the prefix too), any other from its NVM home (``span == length``)."""
        if self.cache and meta.cached:
            return (conn.desc.cache_rkey, meta.cache_offset,
                    CACHE_TAG_BYTES + offset + length)
        return conn.desc.data_rkey, meta.nvm_offset + offset, length

    def verdict(self, raw: bytes, gaddr: int, span: int, offset: int,
                length: int, t0: int, span_op: int) -> Optional[bytes]:
        """The one verdict on the bytes a READ of :meth:`source` returned.
        A cache slot (``span != length``) holding ``gaddr``'s tag is a hit.
        Another object's tag (``gaddr`` was demoted or its slot reused) is
        a miss: it is counted, the cached location dropped, and None
        returned; the caller plans the home READ sized by the stale
        metadata (:meth:`plan_ahead`'s ``size``) and resolves it as any
        miss.  Home bytes are an NVM read."""
        client = self.client
        rec = self.sim.spans
        if span != length:
            hit = tag_matches(raw, gaddr)
            if rec is not None:
                rec.record(client.name, "phase.cache_read", t0,
                           op=span_op, hit=hit, bytes=length)
            if not hit:
                client.m_tag_misses.add()
                client._metas.drop(gaddr)
                return None
            client.m_cache_hits.add()
            lo = CACHE_TAG_BYTES + offset
            return raw[lo:lo + length]
        client.m_nvm_reads.add()
        if rec is not None:
            rec.record(client.name, "phase.nvm_read", t0, op=span_op,
                       bytes=length)
        return raw

    def plan_ahead(self, gaddr: int, offset: int, length: Optional[int],
                   size: Optional[int] = None) -> Optional[tuple]:
        """The READ of a metadata miss's NVM home, planned: ``(conn, remote
        offset, scratch offset, span, size)`` for ``span`` bytes from
        ``offset`` of the home ``gaddr`` names, with its scratch lent; post
        it with :meth:`post_ahead`.  The span is the caller's ``length``,
        else the size the client's last two lookups agreed on, less
        ``offset``.  A stale cache tag plans with ``size``, the object size
        its stale metadata gives, and the bytes stand only if the lookup
        returns that size (:meth:`landed`).  None — the miss waits for its
        lookup — with the metadata cache off (but for a stale tag), with
        no span, a span over ``MAX_TRANSFER``, an address no server owns,
        scratch taken, or a write of the object staged in the ring
        overlay: a ``gsync`` of another process may prune that entry
        during the flight, once the drain has applied the write to NVM but
        perhaps after this READ read the bytes it replaced."""
        metas = self.client._metas
        if offset < 0 or size is None and not metas.enabled:
            return None
        if length is None:
            agreed = metas.agreed_size
            if agreed is None:
                return None
            length = agreed - offset
        if not 0 < length <= MAX_TRANSFER:
            return None
        # The home server, decoded without raising: a negative address or
        # one past 64 bits names no server the client is wired to.
        conn = self.client._conns.get(gaddr >> OFFSET_BITS)
        if conn is None or gaddr in conn.ring.overlay:
            return None
        scratch_off = self.scratch.try_alloc(length)
        if scratch_off is None:
            return None
        return conn, offset_of(gaddr) + offset, scratch_off, length, size

    def post_ahead(self, plan: tuple):
        """Post :meth:`plan_ahead`'s READ; its completion event."""
        conn, remote_offset, scratch_off, span, _ = plan
        self.client.m_read_aheads.add()
        return self.post_read(conn, conn.desc.data_rkey, remote_offset,
                              scratch_off, span)

    def landed(self, plan: tuple, wc, meta: Optional[ObjectMeta], gaddr: int,
               offset: int, length: Optional[int], t0: int,
               span_op: int) -> Optional[bytes]:
        """The verdict on a READ-ahead once its lookup is back (``meta``,
        None if it failed): its scratch goes back, and its bytes stand, as
        an NVM read, when ``meta`` is of the size a stale tag's plan was
        sized by, they cover the range asked of ``meta`` and the ring
        overlay holds nothing of the object (a write staged during the
        flight may not have reached NVM).  That holds for a DRAM-cached
        object too: NVM is never staler than the cache, because the drain,
        promotes and direct writes all write NVM first or only.  Otherwise
        they are dropped: None."""
        conn, _, scratch_off, span, sized = plan
        raw = self.mr.peek(scratch_off, span) if meta is not None and wc.ok else None
        self.scratch.free(scratch_off, span)
        if raw is not None and (sized is None or sized == meta.size):
            size = meta.size - offset if length is None else length
            if (0 <= size <= span and offset + size <= meta.size
                    and gaddr not in conn.ring.overlay):
                return self.verdict(raw[:size], gaddr, size, 0, size, t0,
                                    span_op)
        self.client.m_read_ahead_drops.add()
        return None

    def resolve(self, span_op: int, gaddr: int, offset: int,
                length: Optional[int], plan: Optional[tuple], done,
                t0: int) -> Generator[Any, Any, tuple]:
        """A metadata miss's lookup, then the verdict on its READ-ahead
        (``plan``, posted as ``done`` at ``t0``; None if there is none):
        ``(meta, data)``, where ``data`` is the READ-ahead's bytes if they
        stand (:meth:`landed`), else None and the read runs on ``meta`` as
        a hit would.  A failed lookup fails this too, once the READ-ahead
        has landed and its scratch is back."""
        metas = self.client._metas
        if plan is None:
            return (yield from metas.lookup(gaddr, span_op=span_op)), None
        try:
            meta = yield from metas.lookup(gaddr, span_op=span_op)
        except Exception:
            self.landed(plan, (yield done), None, gaddr, offset, length, t0,
                        span_op)
            raise
        return meta, self.landed(plan, (yield done), meta, gaddr, offset,
                                 length, t0, span_op)

    def read(self, conn: "_ServerConn", rkey: int, remote_offset: int,
             nbytes: int, ring: bool = False) -> Generator[Any, Any, bytes]:
        """READ ``nbytes`` at ``remote_offset`` of ``rkey`` through scratch,
        on the server's next read lane."""
        if nbytes > MAX_TRANSFER:
            # Transparent chunking: huge reads issue sequential transfer-sized
            # verbs (one WQE each), like a real library's segmented SGE path.
            parts: list[bytes] = []
            pos = 0
            while pos < nbytes:
                chunk = min(MAX_TRANSFER, nbytes - pos)
                part = yield from self.read(conn, rkey, remote_offset + pos,
                                            chunk, ring=ring)
                parts.append(part)
                pos += chunk
            return b"".join(parts)
        scratch = self.scratch
        scratch_off = scratch.try_alloc(nbytes)
        if scratch_off is None:
            scratch_off = yield scratch.wait(nbytes)
        try:
            wc = yield self.post_read(conn, rkey, remote_offset, scratch_off,
                                      nbytes)
            if not wc.ok:
                raise wc_error(wc, "RDMA read", conn, ring=ring)
            return self.mr.peek(scratch_off, nbytes)
        finally:
            scratch.free(scratch_off, nbytes)

    # ------------------------------------------------------------------
    # The read verbs' attempts
    # ------------------------------------------------------------------
    def gread(self, span_op: int, gaddr: int, offset: int,
              length: Optional[int]) -> Generator[Any, Any, bytes]:
        """One attempt of :meth:`~repro.core.client.GengarClient.gread`."""
        client, sim = self.client, self.sim
        meta = client._metas.get(gaddr)
        plan = None
        if meta is None:
            # The READ-ahead goes out after the CPU pass that builds its WQE
            # and before the lookup: the miss costs the longer of the two.
            plan = self.plan_ahead(gaddr, offset, length)
            if plan is not None:
                yield from client.node.cpu_work()
        while True:
            if meta is None:
                meta, data = yield from self.resolve(
                    span_op, gaddr, offset, length, plan,
                    plan and self.post_ahead(plan), sim.now)
                if data is not None:
                    break
            size = meta.size - offset if length is None else length
            check_bounds(meta, offset, size)
            yield from client.node.cpu_work()

            # Read-your-writes: serve from the overlay when it covers the
            # range.
            conn = client._conns[meta.server_id]
            ring = conn.ring
            if gaddr in ring.overlay:
                data = ring.covered(gaddr, offset, size)
                if data is not None:
                    client.m_overlay_hits.add()
                    break
                # Partial overlap: force the write down before reading
                # remotely.
                yield from client._driver.op("gsync", meta.server_id,
                                             history=False)

            t0 = sim.now if sim.spans is not None else 0
            rkey, roff, span = self.source(conn, meta, offset, size)
            raw = yield from self.read(conn, rkey, roff, span)
            data = self.verdict(raw, gaddr, span, offset, size, t0, span_op)
            if data is not None:
                break
            # A stale tag is a miss whose size the stale metadata gives: its
            # home READ goes out beside the lookup, with no CPU pass.
            plan = self.plan_ahead(gaddr, offset, size, meta.size)
            meta = None
        client._note_access(gaddr, read=True)
        return data

    def gread_many(self, span_op: int,
                   gaddrs: list) -> Generator[Any, Any, list]:
        """The one attempt of
        :meth:`~repro.core.client.GengarClient.gread_many`."""
        client, sim = self.client, self.sim
        start = sim.now
        rec = sim.spans
        scratch, mr, metas = self.scratch, self.mr, client._metas
        results: list = [None] * len(gaddrs)
        fallback: list = []  # indices routed through serial gread
        failures: list = []  # (idx, the ClientError that ends it)
        groups: Dict[int, list] = {}  # server_id -> [(idx, gaddr, meta)]

        def stand(idx, gaddr, data):
            """Item ``idx``'s bytes stand: the per-item read tally."""
            results[idx] = data
            client.m_reads.add()
            client._note_access(gaddr, read=True)
            client.h_read.record(sim.now - start)

        def route(idx, gaddr, meta):
            """Item ``idx``'s metadata is known: serve it from the overlay,
            route it serial, or return True — it needs a READ."""
            ring = client._conns[meta.server_id].ring
            if gaddr in ring.overlay:
                data = ring.covered(gaddr, 0, meta.size)
                if data is None:
                    fallback.append(idx)  # partial overlap: gread syncs first
                else:
                    client.m_overlay_hits.add()
                    stand(idx, gaddr, data)
                return False
            if meta.size > MAX_TRANSFER - CACHE_TAG_BYTES:
                fallback.append(idx)  # chunked path stays serial
                return False
            return True

        # gaddr -> (its indices, READ-ahead plan or None): one lookup each
        missed: Dict[int, tuple] = {}
        for idx, gaddr in enumerate(gaddrs):
            meta = metas.get(gaddr)
            if meta is None:
                if gaddr in missed:
                    missed[gaddr][0].append(idx)
                else:
                    missed[gaddr] = ([idx], self.plan_ahead(gaddr, 0, None))
            elif route(idx, gaddr, meta):
                groups.setdefault(meta.server_id, []).append((idx, gaddr,
                                                              meta))

        charged = bool(groups) or any(plan is not None
                                      for _, plan in missed.values())
        if charged:
            # One CPU pass covers building every WQE in the batch.
            yield from client.node.cpu_work()
        mux = CompletionMux(sim)
        resolving = 0

        def miss(gaddr, indices, plan):
            """gread's miss, in a process of its own: its READ-ahead (if
            ``plan``) beside its lookup.  It serves ``indices``."""
            nonlocal resolving
            resolving += 1
            done = plan and self.post_ahead(plan)
            mux.add(sim.spawn(self.resolve(span_op, gaddr, 0, None, plan,
                                           done, sim.now)),
                    (indices, gaddr, None))

        for gaddr in missed:
            miss(gaddr, *missed[gaddr])
        later: Dict[int, list] = {}  # groups of resolved misses left to READ
        joining: Dict[int, list] = {}  # gaddr -> its stale tag miss's indices
        returned: Dict[int, ObjectMeta] = {}  # gaddr -> what that miss found

        def consume(tag, ev):
            """Process a posted READ or a resolved miss that completed.  A
            READ's tag is ``(idx, gaddr, meta, span, scratch_off,
            t_post)``; a miss's is ``(indices, gaddr, None)``."""
            nonlocal resolving
            if tag[2] is None:
                indices, gaddr, _ = tag
                resolving -= 1
                exc = ev.exception
                if exc is None:
                    meta, data = ev.value
                if gaddr in joining and joining[gaddr] is indices:
                    del joining[gaddr]
                    if exc is None:
                        returned[gaddr] = meta
                for idx in indices:
                    if exc is None:
                        if data is not None:
                            stand(idx, gaddr, data)
                        elif route(idx, gaddr, meta):
                            later.setdefault(meta.server_id, []).append(
                                (idx, gaddr, meta))
                    elif isinstance(exc, ClientError) and not isinstance(
                            exc, RetryableError):
                        failures.append((idx, exc))  # serial gread ends so
                    else:
                        fallback.append(idx)  # serial gread retries it
                return
            idx, gaddr, meta, span, scratch_off, t_post = tag
            if not ev.value.ok:
                scratch.free(scratch_off, span)
                fallback.append(idx)  # serial gread applies the RetryPolicy
                return
            data = self.verdict(mr.peek(scratch_off, span), gaddr, span, 0,
                                meta.size, t_post, span_op)
            scratch.free(scratch_off, span)
            # A stale tag: one miss per address, sized by the stale metadata;
            # a later index joins it, or routes on the metadata it returned
            # if that index's READ went out on older metadata.
            if data is not None:
                stand(idx, gaddr, data)
            elif gaddr in joining:
                joining[gaddr].append(idx)
            elif gaddr in returned and returned[gaddr] is not meta:
                fresh = returned[gaddr]
                if route(idx, gaddr, fresh):
                    later.setdefault(fresh.server_id, []).append(
                        (idx, gaddr, fresh))
            else:
                joining[gaddr] = [idx]
                miss(gaddr, joining[gaddr],
                     self.plan_ahead(gaddr, 0, meta.size, meta.size))

        def post(conn, wrs, tags):
            """Deal a server's accumulated READs round-robin across its read
            lanes and ring one doorbell per lane used."""
            _attach_combine_groups(wrs)
            client.h_read_batch.record(len(wrs))
            lanes, n = conn.lanes, len(conn.lanes)
            first = self.deal(conn, len(wrs))
            for k in range(min(n, len(wrs))):
                qp = lanes[(first + k) % n]
                for ev, tag in zip(qp.post_send_many(wrs[k::n]), tags[k::n]):
                    mux.add(ev, tag)

        def post_groups(groups):
            """READ each server's group of items, a doorbell per lane."""
            for sid in sorted(groups):
                conn = client._conns[sid]
                wrs: list = []
                tags: list = []
                for idx, gaddr, meta in groups[sid]:
                    rkey, roff, span = self.source(conn, meta, 0, meta.size)
                    # Scratch acquisition can never deadlock on our own
                    # batch: recycle completed reads first, and if none are
                    # in flight while WRs are pending here, ring the doorbell
                    # early (a batch larger than the scratch region degrades
                    # to several doorbells instead of wedging).
                    while True:
                        scratch_off = scratch.try_alloc(span)
                        if scratch_off is not None:
                            break
                        if len(mux):
                            consume(*(yield mux.next_event()))
                        elif wrs:
                            post(conn, wrs, tags)
                            wrs, tags = [], []
                        else:
                            scratch_off = yield scratch.wait(span)
                            break
                    wrs.append(WorkRequest(
                        opcode=Opcode.RDMA_READ,
                        local_mr=mr, local_offset=scratch_off,
                        length=span, remote_rkey=rkey, remote_offset=roff,
                    ))
                    tags.append((idx, gaddr, meta, span, scratch_off,
                                 sim.now))
                if wrs:
                    post(conn, wrs, tags)

        yield from post_groups(groups)
        inflight = len(mux)
        t_wait = sim.now
        while True:
            if later and not resolving:
                # Every miss is back: READ those whose bytes did not stand
                # as the hits were, under the batch's one CPU pass.
                if not charged:
                    charged = True
                    yield from client.node.cpu_work()
                resolved = dict(later)
                later.clear()
                yield from post_groups(resolved)
            if not len(mux):
                break
            consume(*(yield mux.next_event()))
        if rec is not None and inflight:
            rec.record(client.name, "phase.pipeline_wait", t_wait, op=span_op,
                       inflight=inflight)

        for idx in sorted(fallback):
            try:
                results[idx] = yield from client._driver.op(
                    "gread", gaddrs[idx], 0, None, history=False)
            except ClientError as exc:
                failures.append((idx, exc))
        if failures:
            raise min(failures, key=itemgetter(0))[1]
        return results


def _attach_combine_groups(wrs) -> None:
    """Tag contiguous READs in one doorbell for server-side combining.

    Runs of RDMA_READ WRs whose remote ranges are adjacent within the
    same remote region share a
    :class:`~repro.core.server.ReadCombineGroup`; the target services
    the whole run as a single device transfer (one per-transfer setup
    charge — the Optane win) and slices each member's bytes out of it.
    """
    by_rkey: Dict[int, list] = {}
    for wr in wrs:
        if wr.opcode is Opcode.RDMA_READ:
            by_rkey.setdefault(wr.remote_rkey, []).append(wr)
    for rkey, group in by_rkey.items():
        group.sort(key=lambda w: w.remote_offset)
        run = [group[0]]
        for wr in group[1:]:
            prev = run[-1]
            if wr.remote_offset == prev.remote_offset + prev.length:
                run.append(wr)
            else:
                _seal_combine_run(rkey, run)
                run = [wr]
        _seal_combine_run(rkey, run)


def _seal_combine_run(rkey: int, run: list) -> None:
    if len(run) < 2:
        return
    base = run[0].remote_offset
    total = run[-1].remote_offset + run[-1].length - base
    grp = ReadCombineGroup(rkey=rkey, base_offset=base,
                           total_length=total, members=len(run))
    for wr in run:
        wr.combine = grp
