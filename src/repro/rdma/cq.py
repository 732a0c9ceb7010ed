"""Completion queues."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

from repro.rdma.wr import WorkCompletion


class CompletionQueue:
    """Delivery channel for work completions.

    Supports both polling (``poll``) and process-blocking consumption
    (``yield from cq.wait()``), mirroring busy-poll vs event-mode usage of a
    real CQ.  A CQ with a :attr:`consumer` queues nothing: each completion
    is handed to it in the step that delivers it, the way a completion
    channel's handler runs where the interrupt lands.
    """

    def __init__(self, sim: "Simulator", name: str = "cq"):
        self.sim = sim
        self.name = name
        self._store = Store(sim, name=name)
        self.completions = sim.metrics.counter(f"{name}.completions")
        #: ``consumer(wc)``, called with every completion instead of queuing
        #: it (an RPC server's receive CQ), or None.
        self.consumer: Optional[Callable[[WorkCompletion], None]] = None

    def push(self, wc: WorkCompletion) -> None:
        """Deliver a completion (called by the QP machinery)."""
        wc.timestamp = self.sim.now
        self.completions.count += 1
        self.completions.total += 1
        consumer = self.consumer
        if consumer is None:
            self._store.put(wc)
        else:
            consumer(wc)

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
        frame.  It is the same object every time, so a dispatch loop (the
        RPC client's demux) asks once and yields it per completion.
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
    :class:`Store` in *completion* order instead: :meth:`add` registers an
    event with an opaque tag, whose firing puts ``(tag, event)`` into the
    store, and :meth:`next_event` is the store, to be yielded.  One process
    consumes at a time.

    Completion order is deterministic (it is the simulator's event order),
    so two identically seeded runs consume in the same sequence.
    """

    __slots__ = ("_completed", "_outstanding")

    def __init__(self, sim: "Simulator"):
        self._completed = Store(sim, name="mux")
        self._outstanding = 0

    def add(self, event, tag: Any = None) -> None:
        """Register an event; its (tag, event) pair is delivered via
        :meth:`next_event` once it triggers (immediately if it already has)."""
        self._outstanding += 1
        put = self._completed.put
        event.add_callback(lambda ev, _tag=tag: put((_tag, ev)))

    def next_event(self) -> Store:
        """The wait for the next ``(tag, event)`` pair, for
        ``tag, ev = yield mux.next_event()``; asking takes the pair off the
        outstanding count."""
        self._outstanding -= 1
        return self._completed

    def __len__(self) -> int:
        """Registered events not yet asked for through :meth:`next_event`."""
        return self._outstanding
