"""Contention primitives: resources, stores, and bandwidth channels.

These model the queuing behaviour that makes the hardware models realistic:
memory channels serve one request at a time, NIC pipelines admit a bounded
number of in-flight work elements, and links serialize bytes at a fixed rate.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Generator, Optional

from repro.sim.primitives import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Request(Event):
    """The event returned by :meth:`Resource.request`.

    Usable as a context manager inside a process so the slot is released even
    if the process body raises::

        with resource.request() as req:
            yield req
            ...critical section...
    """

    __slots__ = ("resource", "_released")

    def __init__(self, sim: "Simulator", resource: "Resource"):
        # Event.__init__ inlined: every memory/NIC/channel acquire builds one.
        self.sim = sim
        self.name = resource._request_name
        self._value = _PENDING
        self._exception = None
        self._cb1 = None
        self._more = None
        self._processed = False
        self._scheduled = False
        self.resource = resource
        self._released = False

    def release(self, *_exc_info: Any) -> None:
        """Give the slot back (idempotent).  A request that was never
        granted leaves the queue instead: it has no slot to give."""
        if self._released:
            return
        self._released = True
        res = self.resource
        queue = res._queue
        if self._value is _PENDING:
            if self in queue:
                queue.remove(self)
            return
        # Hand the slot directly to the next waiter, if any.
        while queue:
            nxt = queue.popleft()
            if nxt._exception is None:  # else failed while queued; skip it
                nxt.succeed(nxt)
                return
        res._in_use -= 1
        if res._in_use < 0:
            raise RuntimeError(f"resource {res.name!r} over-released")

    def __enter__(self) -> "Request":
        return self

    __exit__ = release
    # The waiting process was interrupted: it will never enter the ``with``.
    _abandon = release


class Resource:
    """A FIFO resource with ``capacity`` identical slots.

    Waiters are granted strictly in request order, which both matches the
    hardware being modelled (memory channel queues, NIC SQ processing) and
    keeps runs deterministic.

    Invariant: ``in_use + free == capacity`` where ``in_use`` counts exactly
    the granted, unreleased requests, and every one of those has a live
    owner.  A request that is released — or whose waiting process is
    interrupted — before it was granted is dequeued; it never frees or
    consumes a slot.  (An interrupt thus cancels the request: request again
    rather than re-yielding it.)
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        # Precomputed once: Request construction is on the hot path of every
        # memory/NIC/channel acquire, so avoid a per-request f-string.
        self._request_name = f"request({name})"
        self._in_use = 0
        self._queue: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when granted (it is
        born fired when a slot is free)."""
        req = Request(self.sim, self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req._value = req
        else:
            self._queue.append(req)
        return req

    def acquire(self) -> Generator[Event, Any, Request]:
        """Process-style helper: ``req = yield from resource.acquire()``.

        Hot paths should prefer the frame-free equivalent
        ``with (yield resource.request()):`` — the request event succeeds
        with itself, so yielding it directly delivers the same
        :class:`Request` without this extra generator.
        """
        req = self.request()
        yield req
        return req


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


class FifoChannel:
    """A byte pipe with finite rate: transfers serialize FIFO.

    Models a link or bus where a transfer of ``n`` bytes occupies the channel
    for ``n / rate`` ns.  Concurrent transfers queue behind each other, which
    is exactly the head-of-line behaviour of a physical serial link.
    """

    def __init__(self, sim: "Simulator", bytes_per_ns: float, name: str = "channel"):
        if bytes_per_ns <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.bytes_per_ns = bytes_per_ns
        self.name = name
        self._gate = Resource(sim, capacity=1, name=f"{name}.gate")
        self.bytes_moved = 0

    def busy_time(self, nbytes: int) -> int:
        """Serialization time for ``nbytes``, at least 1 ns for any payload."""
        if nbytes <= 0:
            return 0
        return max(1, round(nbytes / self.bytes_per_ns))

    def transfer(self, nbytes: int) -> Generator[Event, Any, None]:
        """Process helper: occupy the channel for the payload's wire time."""
        with (yield self._gate.request()):
            if nbytes > 0:
                yield self.busy_time(nbytes)
                self.bytes_moved += nbytes

    @property
    def queued(self) -> int:
        """Transfers waiting behind the current one."""
        return self._gate.queued


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
        with (yield self._gate.request()):
            self._refill()
            if self._tokens < tokens:
                deficit = tokens - self._tokens
                yield max(1, round(deficit / self.rate))
                self._refill()
            self._tokens -= tokens
