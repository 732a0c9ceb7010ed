"""Contention primitives: resources, stores, and token buckets.

These model the queuing behaviour that makes the hardware models realistic:
memory channels serve one request at a time, NIC pipelines admit a bounded
number of in-flight work elements, and a NIC sustains a finite message rate.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Any, Deque, Generator

from repro.sim.primitives import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Resource:
    """A FIFO resource with ``capacity`` identical slots.

    A process waits for a slot by yielding the resource itself; the kernel
    sends the resource back once a slot is the process's, and the resource
    is its own context manager, so the slot is given back even if the body
    raises::

        with (yield resource):
            ...critical section...

    Taking a slot, keeping it ``ns`` virtual nanoseconds and giving it back
    is one yield, ``yield (resource, ns)``: the generator sleeps through the
    hold and the kernel releases the slot before resuming it.

    Waiters are granted strictly in arrival order, which both matches the
    hardware being modelled (memory channel queues, NIC SQ processing) and
    keeps runs deterministic.

    Invariant: ``in_use`` counts exactly the slots owned by a live process:
    one inside a timed hold, or one whose grant entry is queued.  A slot
    already delivered by a bare ``yield resource`` belongs to the process's
    own ``with``.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: Parked processes, oldest first (``repro.sim.kernel`` appends).
        self._queue: Deque[Any] = deque()

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Processes waiting for a slot."""
        return len(self._queue)

    def release(self, *_exc_info: Any) -> None:
        """Give one slot back: straight to the oldest parked process, or to
        the pool.  A parked bare wait's grant entry joins the running
        instant's FIFO; a parked timed hold starts now, and its end is
        queued: on the FIFO too for a zero-length hold, else on the heap."""
        queue = self._queue
        if queue:
            proc = queue.popleft()
            wait = proc._slot
            if wait.__class__ is tuple:
                proc._slot = self
                proc._holding = True
                ns = wait[1]
                if ns:
                    sim = self.sim
                    sim._seq = seq = sim._seq + 1
                    heappush(sim._heap, (sim.now + ns, seq, proc._wake, (0,)))
                    return
            self.sim._fifo.append(proc._entry)
            return
        if self._in_use < 1:
            raise RuntimeError(f"resource {self.name!r} over-released")
        self._in_use -= 1

    def __enter__(self) -> "Resource":
        return self

    __exit__ = release


class Store:
    """An unbounded FIFO queue of items between processes.

    ``put`` never waits and returns nothing.  A process takes the oldest
    item by yielding the store itself (``item = yield store``; ``get()`` is
    the spelled-out name of the same yieldable) and waits while it is empty,
    FIFO on both sides.  No event is involved: the kernel queues the taking
    process's own entry, or parks the process here until a ``put`` does.

    Invariant: a parked getter is a live process, and an item is owned by
    the store or by exactly one queued entry.
    """

    def __init__(self, sim: "Simulator", name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        #: Parked processes, oldest first (``repro.sim.kernel`` appends).
        self._queue: Deque[Any] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add ``item``: straight to the oldest parked process, whose entry
        joins the current instant carrying it, or to the queue."""
        queue = self._queue
        if not queue:
            self._items.append(item)
            return
        proc = queue.popleft()
        proc._item = item
        self.sim._fifo.append(proc._entry)

    def get(self) -> "Store":
        """The wait for the oldest item, to be yielded: the store itself."""
        return self

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking take: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def remove(self, item: Any) -> bool:
        """Withdraw a specific queued ``item`` (identity match) out of
        FIFO order.  Returns False if it is not queued — e.g. a getter
        already consumed it."""
        try:
            self._items.remove(item)
        except ValueError:
            return False
        return True


class TokenBucket:
    """Rate limiter with burst capacity, for message-rate caps.

    Tokens accrue at ``rate_per_ns`` up to ``burst``; :meth:`consume` yields
    until the requested tokens are available.  Used to model a NIC's finite
    message rate independent of its bandwidth.
    """

    def __init__(self, sim: "Simulator", rate_per_ns: float, burst: float, name: str = "bucket"):
        if rate_per_ns <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.sim = sim
        self.rate = rate_per_ns
        self.burst = burst
        self.name = name
        self._tokens = burst
        self._last_refill = sim.now
        self._gate = Resource(sim, capacity=1, name=f"{name}.gate")

    def consume(self, tokens: float = 1.0) -> Generator[Event, Any, None]:
        """Process helper: wait until ``tokens`` are available, then take them."""
        if tokens > self.burst:
            raise ValueError(f"cannot consume {tokens} > burst {self.burst}")
        # Serialize consumers so arrival order is honoured.
        gate = self._gate  # released by hand: no ``__enter__`` call
        yield gate
        try:
            # The refill, inline: a pass makes no call.
            now = self.sim.now
            have = self._tokens + (now - self._last_refill) * self.rate
            if have >= self.burst:
                have = self.burst
            self._last_refill = now
            if have < tokens:
                self._tokens = have
                yield max(1, round((tokens - have) / self.rate))
                now = self.sim.now
                have = min(self.burst, have + (now - self._last_refill) * self.rate)
                self._last_refill = now
            self._tokens = have - tokens
        finally:
            gate.release()
