"""Completion queues."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Generator, List, Optional

from repro.sim.primitives import Event
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

from repro.rdma.wr import WorkCompletion


class CompletionQueue:
    """Delivery channel for work completions.

    Supports both polling (``poll``) and process-blocking consumption
    (``yield from cq.wait()``), mirroring busy-poll vs event-mode usage of a
    real CQ.
    """

    def __init__(self, sim: "Simulator", name: str = "cq"):
        self.sim = sim
        self.name = name
        self._store = Store(sim, name=name)
        self.completions = sim.metrics.counter(f"{name}.completions")

    def push(self, wc: WorkCompletion) -> None:
        """Deliver a completion (called by the QP machinery)."""
        wc.timestamp = self.sim.now
        self.completions.add()
        self._store.put(wc)

    def poll(self, max_entries: int = 16) -> List[WorkCompletion]:
        """Drain up to ``max_entries`` completions without blocking."""
        out: List[WorkCompletion] = []
        while len(out) < max_entries:
            ok, wc = self._store.try_get()
            if not ok:
                break
            out.append(wc)
        return out

    def wait(self) -> Generator[Any, Any, WorkCompletion]:
        """Process helper: block until the next completion arrives."""
        wc = yield self._store
        return wc

    def next_event(self) -> Store:
        """Direct completion path: the wait for the next WC, to be yielded.

        ``wc = yield cq.next_event()`` is equivalent to
        ``wc = yield from cq.wait()`` without the intermediate generator
        frame.  It is the same object every time, so a dispatch loop (RPC
        serve/demux) asks once and yields it per completion.
        """
        return self._store

    def __len__(self) -> int:
        return len(self._store)


class CompletionMux:
    """Out-of-order consumption of a set of completion events.

    ``post_send``/``post_send_many`` return one event per WR, but a caller
    that waits on them in posting order serializes on the *slowest prefix* —
    a completed read parked behind an uncompleted one cannot release its
    scratch buffer or be processed.  The mux funnels completions into a
    FIFO in *completion* order instead: :meth:`add` registers an event with
    an opaque tag, :meth:`next_event` is the wait for whichever registered
    event fires first, ``(tag, event)``.  One process consumes at a time.

    Completion order is deterministic (it is the simulator's event order),
    so two identically seeded runs consume in the same sequence.
    """

    __slots__ = ("_sim", "_ready", "_claim", "_outstanding", "_consumed_cb")

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self._ready: Deque[tuple] = deque()
        # The consumer's pending next_event(), if it is waiting for one.
        self._claim: Optional[Event] = None
        self._outstanding = 0
        # Bound once; registered on every next_event() result.
        self._consumed_cb = self._consumed

    def add(self, event, tag: Any = None) -> None:
        """Register an event; its (tag, event) pair is delivered via
        :meth:`next_event` once it triggers (immediately if it already has)."""
        self._outstanding += 1
        event.add_callback(lambda ev, _tag=tag: self._fired((_tag, ev)))

    def _fired(self, pair: tuple) -> None:
        claim = self._claim
        if claim is None:
            self._ready.append(pair)
        else:
            self._claim = None
            claim.succeed(pair)

    def next_event(self) -> Event:
        """Direct completion path: the event firing with the next
        ``(tag, event)`` pair, for ``tag, ev = yield mux.next_event()`` —
        no intermediate generator frame per consumed completion.  Asking
        again drops a claim that was never delivered."""
        ev = Event(self._sim, "mux.next")
        ev.add_callback(self._consumed_cb)
        if self._ready:
            ev.succeed(self._ready.popleft())
        else:
            self._claim = ev
        return ev

    def _consumed(self, _ev) -> None:
        self._outstanding -= 1

    def __len__(self) -> int:
        """Registered events not yet consumed through :meth:`next_event`."""
        return self._outstanding
