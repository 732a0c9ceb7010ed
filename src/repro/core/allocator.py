"""Extent allocators for NVM data regions and DRAM cache buffers.

A first-fit free-list allocator with coalescing on free.  It is used in two
places: the master's per-server view of NVM (backing ``gmalloc``), and each
server's DRAM cache buffer (backing promotions).  Allocations are aligned so
device accesses stay naturally aligned.  A master's :class:`ServerHandle`
holds one server's.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Dict, Generator, Iterable, List,
                    Optional, Tuple)

from repro.core.errors import MasterError
from repro.rdma.rpc import DEFAULT_BUFFER_SIZE, RpcError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.directory import ObjectRecord
    from repro.core.master import Master
    from repro.core.protocol import ServerDescriptor
    from repro.rdma.rpc import RpcClient
    from repro.sim import Process

#: Most extents one ``scrub`` carries: an ``(offset, size)`` pair pickles to
#: at most 24 bytes, so a full batch fits the RPC buffer with room to spare.
_SCRUB_MAX_EXTENTS = DEFAULT_BUFFER_SIZE // 32


class OutOfMemory(Exception):
    """No extent large enough for the request."""


class AllocatorError(Exception):
    """Invalid free / double free / corruption."""


class ExtentAllocator:
    """First-fit allocator over ``[0, capacity)`` with coalescing free."""

    def __init__(self, capacity: int, alignment: int = 64):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if alignment < 1 or (alignment & (alignment - 1)):
            raise ValueError("alignment must be a positive power of two")
        self.capacity = capacity
        self.alignment = alignment
        # Sorted list of (offset, length) free extents.
        self._free: List[Tuple[int, int]] = [(0, capacity)]
        # offset -> allocated length, for validation and usage accounting.
        self._allocated: Dict[int, int] = {}
        self.allocated_bytes = 0

    # ------------------------------------------------------------------
    def _round_up(self, size: int) -> int:
        a = self.alignment
        return (size + a - 1) & ~(a - 1)

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the offset.

        Raises :class:`OutOfMemory` when no extent fits (the caller decides
        whether to evict, spill to another server, or fail).
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        need = self._round_up(size)
        for i, (off, length) in enumerate(self._free):
            if length >= need:
                if length == need:
                    del self._free[i]
                else:
                    self._free[i] = (off + need, length - need)
                self._allocated[off] = need
                self.allocated_bytes += need
                return off
        raise OutOfMemory(f"no extent of {need} bytes (free: {self.free_bytes})")

    def alloc_at(self, offset: int, size: int) -> None:
        """Claim a specific extent (journal replay during recovery).

        The range must lie entirely inside one free extent; raises
        :class:`AllocatorError` otherwise (a corrupt or duplicated journal).
        """
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if offset % self.alignment:
            raise AllocatorError(f"replayed offset {offset:#x} is misaligned")
        need = self._round_up(size)
        for i, (free_off, free_len) in enumerate(self._free):
            if free_off <= offset and offset + need <= free_off + free_len:
                del self._free[i]
                if free_off < offset:
                    self._free.insert(i, (free_off, offset - free_off))
                    i += 1
                tail = (free_off + free_len) - (offset + need)
                if tail:
                    self._free.insert(i, (offset + need, tail))
                self._allocated[offset] = need
                self.allocated_bytes += need
                return
        raise AllocatorError(
            f"cannot replay allocation [{offset:#x}, {offset + need:#x}): "
            "range is not free"
        )

    def free(self, offset: int) -> None:
        """Return an allocation, coalescing with neighbouring free extents."""
        length = self._allocated.pop(offset, None)
        if length is None:
            raise AllocatorError(f"free of unallocated offset {offset:#x}")
        self.allocated_bytes -= length
        # Insert in sorted position, then merge with neighbours.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < offset:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (offset, length))
        self._coalesce_around(lo)

    def _coalesce_around(self, idx: int) -> None:
        # Merge with the next extent.
        if idx + 1 < len(self._free):
            off, length = self._free[idx]
            noff, nlen = self._free[idx + 1]
            if off + length == noff:
                self._free[idx] = (off, length + nlen)
                del self._free[idx + 1]
        # Merge with the previous extent.
        if idx > 0:
            poff, plen = self._free[idx - 1]
            off, length = self._free[idx]
            if poff + plen == off:
                self._free[idx - 1] = (poff, plen + length)
                del self._free[idx]

    # ------------------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return sum(length for _, length in self._free)

    @property
    def largest_free_extent(self) -> int:
        return max((length for _, length in self._free), default=0)

    def size_of(self, offset: int) -> Optional[int]:
        """Rounded size of the allocation at ``offset`` (None if not live)."""
        return self._allocated.get(offset)

    def check_invariants(self) -> None:
        """Structural self-check, used by property tests."""
        total_free = 0
        prev_end = -1
        for off, length in self._free:
            assert length > 0, "empty free extent"
            assert off > prev_end, "free list unsorted or overlapping"
            prev_end = off + length - 1
            total_free += length
        assert total_free + self.allocated_bytes == self.capacity, (
            f"leak: free {total_free} + allocated {self.allocated_bytes} "
            f"!= capacity {self.capacity}"
        )
        # Adjacent free extents must have been coalesced.
        for (off_a, len_a), (off_b, _len_b) in zip(self._free, self._free[1:]):
            assert off_a + len_a < off_b, "uncoalesced adjacent free extents"


class PoolAllocationPolicy:
    """Chooses a home server for each new object.

    Capacity-aware round robin: rotate across servers but skip those that
    cannot fit the request, so a nearly-full server stops receiving objects
    before it overflows.
    """

    def __init__(self, allocators: Dict[int, ExtentAllocator]):
        if not allocators:
            raise ValueError("need at least one server allocator")
        self.allocators = allocators
        self._order = sorted(allocators)
        self._next = 0

    def choose(self, size: int, preferred=None) -> int:
        """Pick a server id for a ``size``-byte object.

        ``preferred`` (an iterable of server ids) is tried first — used by
        rack-local placement — before falling back to the global rotation.
        Raises :class:`OutOfMemory` when no server can fit it.
        """
        if preferred:
            wanted = [sid for sid in self._order if sid in set(preferred)]
            n = len(wanted)
            for step in range(n):
                server_id = wanted[(self._next + step) % n]
                if self.allocators[server_id].largest_free_extent >= size:
                    self._next = (self._next + step + 1) % len(self._order)
                    return server_id
        n = len(self._order)
        for step in range(n):
            server_id = self._order[(self._next + step) % n]
            if self.allocators[server_id].largest_free_extent >= size:
                self._next = (self._next + step + 1) % n
                return server_id
        raise OutOfMemory(f"no server has {size} contiguous free bytes")


class ServerHandle:
    """A master's record of one memory server: its connection and, while
    owned, its allocator, lock indices, policy, cache budget (None: the
    nominal) and quarantine.  Only it writes the lock indices and the
    quarantine.

    The extent invariant: *an extent is allocated (a directory record names
    it), quarantined, or free (the allocator may hand it out) — never two,
    never none*; an object's lock index travels with its extent.  ``gfree``
    moves both from the directory to :attr:`quarantine`; only the scrubber,
    after the server confirmed the zeroing, moves them on to the allocator
    and the lock free list.  :meth:`check` audits it.
    """

    __slots__ = ("master", "descriptor", "rpc", "allocator", "policy",
                 "budget", "_lock_free", "_lock_next", "quarantine",
                 "scrubber", "rescrub")

    def __init__(self, master: "Master", descriptor: "ServerDescriptor",
                 rpc: "RpcClient", data_capacity: int, policy: Any):
        self.master = master
        self.descriptor = descriptor
        self.rpc = rpc
        self.allocator = ExtentAllocator(data_capacity)
        #: Someone asked for a scrub while one was in flight.
        self.rescrub = False
        self.reset(policy)

    def reset(self, policy: Any) -> None:
        """Forget all the master knew of the server.  Freed, not yet
        scrubbed, oldest first, :attr:`quarantine` holds ``(nvm_offset,
        size, lock_idx)``; ``lock_idx`` is None where a journal replay
        already accounted the index (:meth:`restore`).  The scrubber sends a
        prefix and deletes it once the server replied.  Whoever takes the
        extents over (reset, reshard) installs a *new* list, which is how a
        scrub that straddles the hand-over knows not to settle them a
        second time."""
        self.allocator = ExtentAllocator(self.allocator.capacity)
        self.policy = policy
        self.budget: Optional[int] = None
        self._lock_free: List[int] = []
        self._lock_next = 0
        self.quarantine: List[Tuple[int, int, Optional[int]]] = []
        #: The process draining :attr:`quarantine`; None while it is empty.
        self.scrubber: Optional["Process"] = None

    def alloc(self, size: int) -> Tuple[int, int]:
        """An extent and its lock index, or :class:`OutOfMemory` and
        neither."""
        offset = self.allocator.alloc(size)
        if self._lock_free:
            return offset, self._lock_free.pop()
        if self._lock_next >= self.master.config.lock_table_entries:
            self.allocator.free(offset)
            raise OutOfMemory("lock table exhausted")
        self._lock_next += 1
        return offset, self._lock_next - 1

    def free(self, offset: int, lock_idx: int) -> None:
        self.allocator.free(offset)
        self._lock_free.append(lock_idx)

    def restore(self, used: List[int], live: set,
                freed: List[Tuple[int, int]]) -> None:
        """A journal replay's lock bookkeeping and quarantine: every index
        below the high-water mark of ``used`` that is not ``live`` goes back
        on the free list.  The journal says which extents were ``freed``,
        not which of them the old master got round to scrubbing: every one
        that nothing reuses goes back into quarantine (a scrub is
        idempotent), newest first, so that a free the old master never
        scrubbed is not shadowed by an older, narrower one of the same
        range."""
        high = max(used, default=-1) + 1
        self._lock_next = high
        self._lock_free = [i for i in range(high) if i not in live]
        for offset, size in reversed(freed):
            try:
                self.allocator.alloc_at(offset, size)
            except AllocatorError:
                continue  # reused since, so it was scrubbed before that
            self.quarantine.append((offset, size, None))

    def export(self) -> dict:
        """Hand the server over (reshard) and keep only the connection.
        The quarantine leaves with the allocator it is owed to, the batch a
        scrub is carrying right now included: that scrub finds the list
        replaced and settles nothing, the adopter scrubs the lot again
        (idempotent) once it has returned."""
        state = {"allocator": self.allocator, "policy": self.policy,
                 "lock_free": list(self._lock_free),
                 "lock_next": self._lock_next, "quarantine": self.quarantine,
                 "scrubber": self.scrubber}
        self.policy = self.budget = self.scrubber = None
        self.quarantine = []
        return state

    def adopt(self, state: dict) -> None:
        """Take over a server another shard exported (:meth:`export`)."""
        self.allocator = state["allocator"]
        self.policy = state["policy"]
        self._lock_free = list(state["lock_free"])
        self._lock_next = state["lock_next"]
        self.quarantine = list(state["quarantine"])
        self.kick(after=state["scrubber"])

    # ------------------------------------------------------------------
    # The free path's second half: quarantine -> scrub -> allocator
    # ------------------------------------------------------------------
    def hold(self, offset: int, size: int, lock_idx: int) -> int:
        """Quarantine a freed extent and its lock index and make sure a
        scrub is under way; returns the quarantine's depth."""
        self.quarantine.append((offset, size, lock_idx))
        self.kick()
        return len(self.quarantine)

    def kick(self, after: Optional["Process"] = None) -> Optional["Process"]:
        """Make sure the quarantine is being drained; returns the scrubber
        (None when there is nothing to drain)."""
        if self.scrubber is not None:
            # Remembered, so that a scrub sent to a server that has come
            # back meanwhile does not fail unnoticed.
            self.rescrub = True
        elif self.quarantine:
            self.scrubber = self.master.sim.spawn(
                self._scrub_loop(self.quarantine, after),
                name=f"{self.master.node.name}.scrub.{self.descriptor.server_id}")
        return self.scrubber

    def _scrub_loop(self, pending: list,
                    after: Optional["Process"]) -> Generator[Any, Any, None]:
        """Drain the quarantine, one ``scrub`` in flight at a time.

        Group commit: each message carries whatever accumulated while the
        previous one was in flight.  An extent (with its lock index) becomes
        allocatable only after the server confirmed zeroing it and killing
        its cache slot — calloc semantics.  A failed scrub leaves its batch
        quarantined and, unless someone asked again meanwhile, ends the
        process; the next free, a starved ``gmalloc`` or
        :meth:`Master.on_server_recovered` starts another.
        """
        master = self.master
        try:
            if after is not None and after.is_alive:
                # Reshard adoption: the exporter's last scrub may still be
                # in flight.  Ours must not overtake it, or the late one
                # could zero an extent we have handed out again by then.
                yield after
            while (pending and self.quarantine is pending
                   and not master.journal.deposed):
                batch = pending[:_SCRUB_MAX_EXTENTS]
                rec = master.sim.spans
                t0 = master.sim.now if rec is not None else 0
                self.rescrub = False
                try:
                    yield from master.journal.call(
                        self, "scrub",
                        {"extents": [(off, size) for off, size, _ in batch]})
                except MasterError:
                    break  # deposed: the batch waits for a successor
                except RpcError:
                    if self.rescrub:
                        continue  # kicked while in flight: worth another try
                    break  # server down: the batch waits for its restart
                if self.quarantine is not pending:
                    # A reset or reshard took the quarantine over while the
                    # scrub was in flight; its new holder settles these
                    # extents.
                    break
                del pending[:len(batch)]
                for offset, _size, lock_idx in batch:
                    self.allocator.free(offset)
                    if lock_idx is not None:
                        self._lock_free.append(lock_idx)
                if rec is not None:
                    rec.record(master.node.name, "master.scrub", t0,
                               server=self.descriptor.server_id,
                               extents=len(batch),
                               bytes=sum(size for _, size, _ in batch))
                    master._note_quarantine()
        finally:
            if self.quarantine is pending:
                self.scrubber = None

    def check(self, records: Iterable["ObjectRecord"]) -> List[str]:
        """This server's slice of :meth:`Master.check_extents`: each of its
        directory ``records`` and each quarantined entry holds exactly its
        own allocation, nothing else is allocated, and every lock index
        handed out is live, quarantined or on the free list — once."""
        where = f"server {self.descriptor.server_id}"
        alloc = self.allocator
        found: List[str] = []
        held = [(off, size, lock, "quarantined")
                for off, size, lock in self.quarantine]
        held += [(r.nvm_offset, r.size, r.lock_idx, "allocated")
                 for r in records]
        seen: Dict[int, str] = {}
        locks = list(self._lock_free)
        total = 0
        for offset, size, lock, state in held:
            need = alloc._round_up(size)
            total += need
            holds = alloc.size_of(offset)
            if offset in seen:
                found.append(f"{where}: extent: {offset:#x} is {seen[offset]} "
                             f"and {state}")
            elif holds != need:
                found.append(f"{where}: extent: {offset:#x} is {state} "
                             f"({need} B) but the allocator holds {holds}")
            seen[offset] = state
            if lock is not None:
                locks.append(lock)
        if total != alloc.allocated_bytes:
            found.append(f"{where}: bytes: allocator holds "
                         f"{alloc.allocated_bytes} B, directory + quarantine "
                         f"account for {total} B")
        if sorted(locks) != list(range(self._lock_next)):
            dup = sorted({i for i in locks if locks.count(i) > 1})
            lost = sorted(set(range(self._lock_next)) - set(locks))
            found.append(f"{where}: lock: of {self._lock_next} lock indices "
                         f"handed out, {lost} are nowhere and {dup} are held "
                         "twice")
        try:
            alloc.check_invariants()
        except AssertionError as exc:
            found.append(f"{where}: allocator: {exc}")
        return found
