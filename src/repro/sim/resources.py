"""Contention primitives: resources, stores, and token buckets.

These model the queuing behaviour that makes the hardware models realistic:
memory channels serve one request at a time, NIC pipelines admit a bounded
number of in-flight work elements, and a NIC sustains a finite message rate.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Any, Deque, Generator, Optional

from repro.sim.primitives import _PENDING, Event

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

    Invariant: ``in_use`` counts exactly the slots owned by a live process
    or by a queued grant entry.  A process interrupted while parked leaves
    the queue and never frees or consumes a slot; interrupted after the grant
    but before its entry ran, or inside a timed hold, it gives the slot back
    before the interrupt is raised in it.  A slot already delivered by a bare
    ``yield resource`` belongs to the process's own ``with``.
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
        """Give one slot back: straight to the oldest parked process, whose
        grant entry joins the current instant, or to the pool."""
        queue = self._queue
        if queue:
            sim = self.sim
            buckets = sim._buckets
            t = sim.now
            b = buckets.get(t)
            if b is None:
                buckets[t] = [queue.popleft()._entry]
                heappush(sim._instants, t)
            else:
                b.append(queue.popleft()._entry)
            return
        if self._in_use < 1:
            raise RuntimeError(f"resource {self.name!r} over-released")
        self._in_use -= 1

    def __enter__(self) -> "Resource":
        return self

    __exit__ = release


class _Parked(Event):
    """A ``Store.get`` or ``put`` that has to wait, in the store's queue."""

    __slots__ = ("_queue", "item")

    def __init__(self, sim: "Simulator", name: str, queue: Deque["_Parked"],
                 item: Any = None):
        Event.__init__(self, sim, name)
        self._queue = queue
        self.item = item
        queue.append(self)

    def _abandon(self) -> None:
        # The waiting process was interrupted: nobody is left to take the
        # item (get) or to learn that it was accepted (put).
        if self._value is _PENDING and self in self._queue:
            self._queue.remove(self)


class Store:
    """An unbounded-or-bounded FIFO queue of items between processes.

    ``put`` blocks only when a ``capacity`` is set and reached; ``get`` blocks
    while the store is empty.  Delivery order is FIFO on both sides.

    Every queued getter and putter has a live process behind it: interrupting
    a process parked on ``yield store.get()`` or on a blocked
    ``yield store.put(x)`` withdraws the request — no later item is handed to
    the dead getter, and ``x`` is never inserted.  (As with
    :class:`Resource`, an interrupt cancels the request: ask again rather
    than re-yielding it.)
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None, name: str = "store"):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._put_name = f"put({name})"
        self._get_name = f"get({name})"
        self._items: Deque[Any] = deque()
        self._getters: Deque[_Parked] = deque()
        self._putters: Deque[_Parked] = deque()
        # Demand watchers (see :meth:`demand`); None until first used so the
        # hot get() path pays a single falsy check.
        self._demand_waiters: Optional[list] = None

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Offer ``item``; the returned event fires once it is accepted."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            return _Parked(self.sim, self._put_name, self._putters, item)
        ev = Event(self.sim, name=self._put_name)
        self._accept(item)
        ev._value = None  # born fired
        return ev

    def get(self) -> Event:
        """Take the oldest item; the returned event fires with the item."""
        if self._items:
            ev = Event(self.sim, name=self._get_name)
            ev._value = self._items.popleft()  # born fired
            if self._putters:
                # The getter's wake-up goes ahead of the putter's it unblocks.
                ev._scheduled = True
                self.sim.schedule(0, ev._dispatch)
                self._admit_blocked_putter()
        else:
            ev = _Parked(self.sim, self._get_name, self._getters)
            if self._demand_waiters:
                waiters, self._demand_waiters = self._demand_waiters, None
                for w in waiters:
                    if not w.triggered:
                        w.succeed(None)
        return ev

    def demand(self) -> Event:
        """Event firing when a getter parks on the empty store — i.e. the
        moment someone is actually *waiting* for an item (immediately, if
        one already is).  Lets a producer that deliberately idles (e.g. a
        parked RPC serve loop whose peer crashed) wake only on real demand
        instead of polling or holding resources."""
        ev = Event(self.sim, name=f"demand({self.name})")
        if self._getters:
            ev.succeed(None)
        else:
            if self._demand_waiters is None:
                self._demand_waiters = []
            self._demand_waiters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking take: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_blocked_putter()
            return True, item
        return False, None

    def remove(self, item: Any) -> bool:
        """Withdraw a specific queued ``item`` (identity match) out of
        FIFO order.  Returns False if it is not queued — e.g. a getter
        already consumed it."""
        try:
            self._items.remove(item)
        except ValueError:
            return False
        self._admit_blocked_putter()
        return True

    def _accept(self, item: Any) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(item)
            return
        self._items.append(item)

    def _admit_blocked_putter(self) -> None:
        if self._putters and (self.capacity is None or len(self._items) < self.capacity):
            ev = self._putters.popleft()
            self._accept(ev.item)
            if not ev.triggered:
                ev.succeed(None)


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

    def _refill(self) -> None:
        now = self.sim.now
        self._tokens = min(self.burst, self._tokens + (now - self._last_refill) * self.rate)
        self._last_refill = now

    def consume(self, tokens: float = 1.0) -> Generator[Event, Any, None]:
        """Process helper: wait until ``tokens`` are available, then take them."""
        if tokens > self.burst:
            raise ValueError(f"cannot consume {tokens} > burst {self.burst}")
        # Serialize consumers so arrival order is honoured.
        with (yield self._gate):
            self._refill()
            if self._tokens < tokens:
                deficit = tokens - self._tokens
                yield max(1, round(deficit / self.rate))
                self._refill()
            self._tokens -= tokens
