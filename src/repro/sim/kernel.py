"""The discrete-event loop and process scheduler.

:class:`Simulator` keeps two queues: a FIFO (``deque``) of the ``(fn, args)``
entries for the running instant, and a min-heap of ``(time, seq, fn, args)``
entries for later instants, ``seq`` counting heap entries only.  Every
scheduling site sends an entry due at ``now`` to the FIFO and anything later
to the heap.  Instants are rarely shared (1.3–1.9 entries each on the ledger
workloads), so a per-instant structure buys nothing; a zero-delay entry —
the bulk of all traffic — is one append and one ``popleft``.

Ordering contract (pinned by ``tests/sim/test_dispatch_trace.py``): queued
entries run in ``(time, seq)`` order where ``seq`` is the global scheduling
order.  Heap entries due at ``now`` were scheduled before the instant began,
so the loop runs them before the FIFO, and the FIFO holds the rest of the
instant in scheduling order.  What the contract pins
is the order in which *processes resume*; a dispatch that would only pass a
finished wait through is not part of it.  A process whose next wait is
already over (fired, no other waiter, no dispatch queued) continues inline
when the running dispatch is the last entry of the instant — the position a
freshly queued wake-up would take — and is woken through the queue
otherwise; a process that finishes there with one waiter wakes it in place
by the same rule.  A timed hold's end is queued when its slot is taken.
Every run with the same seed is bit-for-bit reproducible.

:class:`Process` adapts a Python generator into the event system.  A
process may yield five things: an :class:`~repro.sim.primitives.Event` (or a
``Process``, which is itself an event that fires when the generator
returns); a non-negative ``int`` — a wait of that many virtual nanoseconds;
a :class:`~repro.sim.resources.Resource` — a wait for one of its slots; a
``(resource, ns)`` pair — a slot taken, kept ``ns`` nanoseconds and given
back; or a :class:`~repro.sim.resources.Store` — a wait for its oldest item.
For the last four the kernel queues the process's own wake-up and creates no
event at all.  ``sim.timeout(n)`` is the timer *event*, for waits that are
stored, composed into ``all_of``/``any_of`` or carry a value.

Fast-path notes: the ``run`` loop binds both queues to locals and writes the
clock and tests ``until`` once per *instant*; the scheduling sites in
:mod:`repro.sim.primitives` and :mod:`repro.sim.resources` append to the
queues inline, and "is the running dispatch the last entry of its instant"
is ``not fifo and (not heap or heap[0][0] != now)``, with no call.  All of
this is wall-clock only — virtual-time results are bit-for-bit identical to
the straightforward loop.

Profiling/debug: assign ``sim.dispatch_hook = lambda when, fn: ...`` to
observe every dispatch; the hot loops are swapped for an instrumented
variant while it is set, so the disabled path stays branch-free.
See ``docs/KERNEL.md`` for the design rationale.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional, Sequence, Union

from repro.sim.primitives import _PENDING, Event, Timeout
from repro.sim.resources import Resource, Store


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


#: Consecutive inline continuations one dispatch may run before the next
#: already-over wait is scheduled instead (the same order at the tail), so
#: ``max_events`` still sees a process spinning on waits that are always over.
#: It also bounds how deep finished processes may wake their waiters in place.
_INLINE_RUN_MAX = 64

#: The generator type a process function must return.
ProcessGenerator = Generator[Union[Event, int, Resource, tuple, Store], Any, Any]


class Process(Event):
    """A running simulation process.

    A ``Process`` is also an :class:`Event`: it succeeds with the generator's
    return value when the generator finishes, and fails with the exception if
    the generator raises.  This lets processes wait on each other by yielding
    a process object ("join").

    The generator may yield an :class:`Event`, or a non-negative ``int``: a
    wait of that many virtual nanoseconds.  A bare delay creates nothing —
    the kernel queues this process's wake-up entry at ``now + n`` — so it
    can be neither stored nor composed nor given a value;
    ``sim.timeout(n)`` is the event for that.

    It may also yield a :class:`Resource` — the resource is sent back once a
    slot is this process's, to be released by ``with``; this process's own
    entry is queued exactly where a request event would have queued its
    dispatch — or a ``(resource, ns)`` pair, for which the kernel takes the
    slot, keeps it ``ns`` nanoseconds and releases it before the generator
    resumes; the entry that ends the hold is queued when the slot is taken
    (``docs/KERNEL.md``, "What a process may yield").
    A yielded :class:`Store` sends its oldest item back the same way: at
    once, by this process's own entry, or when a ``put`` appends that entry.
    """

    __slots__ = ("_generator", "_send", "_wake", "_entry", "_slot", "_holding",
                 "_item")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        try:
            # Bound once: resuming the generator is the hottest call in the
            # simulator, so skip the attribute lookup on every wake-up.
            self._send = generator.send
        except AttributeError:
            raise TypeError(
                f"spawn() needs a generator, got {type(generator).__name__}; "
                "did you call a plain function instead of a generator function?"
            ) from None
        # Event's fields, set here: spawn is hot.
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._value = _PENDING
        self._exception = None
        self._cb1 = None
        self._more = None
        self._processed = False
        self._scheduled = False
        self._generator = generator
        # Bound once: every wake-up, by event or by timer, is this callable.
        self._wake = wake = self._resume
        # The FIFO entry of every wait the kernel ends at ``now``: the first
        # step, a zero delay, a granted slot, an item handed over.  Its
        # token, 0, tells it apart from an event's wake-up.
        self._entry = entry = (wake, (0,))
        # A wait that the kernel owns: the yielded ``Resource`` or ``Store``
        # while this process is parked in its queue or the entry that ends
        # the wait is queued; the yielded ``(resource, ns)`` pair while
        # parked; the resource alone, with ``_holding`` set, once the hold
        # has started.  ``_item`` is what a store's queued entry delivers.
        self._slot: Any = None
        self._holding = False
        self._item: Any = None
        # Kick off the first step from the loop, not inline.
        sim._fifo.append(entry)

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def _bad_yield(self, problem: str) -> None:
        self._generator.close()
        self.fail(SimulationError(problem))

    # ------------------------------------------------------------------
    def _resume(self, token: Any) -> None:
        """The one way a process runs: first step, timer, slot, item, event.

        ``token`` says which wait is over: ``0``, this process's own queued
        entry (a delay, a granted slot, the end of a timed hold, an item
        handed over), or the event this was registered on.  A process waits
        on one thing at a time and nothing else ends the wait, so every
        wake-up is the one it waits for.
        """
        sim = self.sim
        if token.__class__ is int:
            exc = None
            inline = _INLINE_RUN_MAX
            value = self._slot  # None: a plain delay is over
            if value is not None:
                self._slot = None
                if self._holding:
                    # The end of a timed hold.  The slot goes back before the
                    # generator runs: to the next parked process or to the pool.
                    self._holding = False
                    if value._queue:
                        value.release()
                    else:
                        value._in_use -= 1
                    value = None
                elif value.__class__ is Store:  # a hand-off: the item
                    value, self._item = self._item, None
                # else a bare grant: the resource is sent
        else:
            exc = token._exception
            value = token._value
            # Inline continuations left.  None while ``token`` has callbacks
            # after this one: they must run before our next step.
            inline = _INLINE_RUN_MAX if token._more is None else 0
        if self._value is not _PENDING or self._exception is not None:
            return  # process already finished (completed from outside)
        sim.active = self
        send = self._send
        if exc is not None:
            # A throw never continues inline: it registers, as it always did.
            send, value, inline = self._generator.throw, exc, 0
        while True:
            try:
                target = send(value)
            except StopIteration as stop:
                cb = self._cb1
                depth = sim._join_depth
                if (cb is not None and self._more is None and inline
                        and depth < _INLINE_RUN_MAX and self is not sim._awaited
                        and not sim._fifo
                        and (not sim._heap or sim._heap[0][0] != sim.now)):
                    # Finished at the tail with one waiter: the dispatch
                    # ``succeed`` would queue is the next entry to run and
                    # does nothing but call it, so call it here.
                    self._value = stop.value
                    self._cb1 = None
                    self._processed = True
                    sim._join_depth = depth + 1
                    try:
                        cb(self)
                    finally:
                        sim._join_depth = depth
                    return
                self.succeed(stop.value)
                return
            except BaseException as step_exc:  # noqa: BLE001 - propagate to joiners
                if isinstance(step_exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self.fail(step_exc)
                return
            cls = target.__class__
            if cls is int:
                if target < 0:
                    send, value, inline = self._generator.throw, ValueError(
                        f"cannot wait a negative delay ({target})"), 0
                    continue
                t = sim.now + target
            elif cls is Resource:
                if target.sim is not sim:
                    return self._bad_yield("yielded resource belongs to another simulator")
                if target._in_use >= target.capacity:
                    target._queue.append(self)
                    self._slot = target
                    return
                target._in_use += 1
                if inline and not sim._fifo and (
                        not sim._heap or sim._heap[0][0] != sim.now):
                    # A free slot at the tail of the instant: keep going.
                    inline -= 1
                    value = target
                    continue
                # A free slot elsewhere: the grant entry is this process's
                # place in line behind what the instant already holds.
                self._slot = target
                sim._fifo.append(self._entry)
                return
            elif cls is Store:
                if target.sim is not sim:
                    return self._bad_yield("yielded store belongs to another simulator")
                if not target._items:
                    target._queue.append(self)
                    self._slot = target
                    return
                value = target._items.popleft()
                if inline and not sim._fifo and (
                        not sim._heap or sim._heap[0][0] != sim.now):
                    # The oldest item at the tail of the instant: keep going.
                    inline -= 1
                    continue
                # An item elsewhere: it rides this process's entry, its place in line.
                self._slot = target
                self._item = value
                sim._fifo.append(self._entry)
                return
            elif cls is tuple:
                try:
                    res, ns = target
                except ValueError:
                    res = ns = None
                if res.__class__ is not Resource or ns.__class__ is not int:
                    return self._bad_yield(
                        f"process {self.name!r} yielded {target!r}; a timed hold "
                        "is a (Resource, int) pair")
                if res.sim is not sim:
                    return self._bad_yield("yielded resource belongs to another simulator")
                if ns < 0:
                    send, value, inline = self._generator.throw, ValueError(
                        f"cannot hold a slot for a negative time ({ns})"), 0
                    continue
                if res._in_use >= res.capacity:
                    res._queue.append(self)
                    self._slot = target
                    return
                # A free slot, at the tail of the instant or not: the hold
                # starts now, and the next entry is its end.
                res._in_use += 1
                self._slot = res
                self._holding = True
                t = sim.now + ns
            else:
                try:
                    foreign = target.sim is not sim
                    cb1 = target._cb1
                except AttributeError:
                    return self._bad_yield(
                        f"process {self.name!r} yielded {target!r}; processes may "
                        "only yield an Event, a non-negative int delay, a Resource, "
                        "a (Resource, int) timed hold or a Store")
                if foreign:
                    return self._bad_yield("yielded event belongs to another simulator")
                if cb1 is None:
                    if target._value is _PENDING:
                        if target._exception is None:
                            # The common case: sole waiter on a pending event.
                            target._cb1 = self._wake
                            return
                    elif (inline and not target._scheduled and not sim._fifo
                            and (not sim._heap or sim._heap[0][0] != sim.now)):
                        # The wait is already over, nobody else waits on it and
                        # the running dispatch is the last entry of this instant:
                        # "append a zero-delay dispatch and return to the loop"
                        # and "keep going" are the same schedule.  Keep going.
                        inline -= 1
                        target._processed = True
                        value = target._value
                        continue
                target.add_callback(self._wake)
                return
            # Queue this process's own entry at ``t``: the end of a delay or
            # of a hold that has started.
            if t == sim.now:
                sim._fifo.append(self._entry)
            else:
                sim._seq = seq = sim._seq + 1
                heappush(sim._heap, (t, seq, self._wake, (0,)))
            return


class Simulator:
    """The event loop: a virtual clock plus two queues of callbacks.

    Typical usage::

        sim = Simulator(seed=7)

        def worker(sim):
            yield sim.timeout(100)
            return "done"

        proc = sim.spawn(worker(sim))
        sim.run()
        assert proc.value == "done"
    """

    def __init__(self, seed: int = 0):
        #: Current virtual time in nanoseconds.  A plain attribute because it
        #: is read on every hot path; only the run loops write it.
        self.now = 0
        #: The ``(fn, args)`` entries due at ``now``, in scheduling order.
        self._fifo: deque = deque()
        #: Min-heap of ``(time, seq, fn, args)`` entries due after the
        #: instant that scheduled them; ``seq`` (the count of heap entries so
        #: far) keeps one instant's entries in scheduling order.  Those due
        #: at ``now`` were all scheduled before the FIFO's, so they run
        #: first.  The running dispatch is the last entry of its instant
        #: exactly when ``not _fifo and (not _heap or _heap[0][0] != now)``
        #: — the test a process applies before continuing inline past a
        #: wait that is already over.
        self._heap: list = []
        self._seq = 0
        self.seed = seed
        #: Total events dispatched over this simulator's lifetime (the
        #: denominator of the perf harness's events/sec figure).
        self.total_dispatched = 0
        #: Optional per-dispatch observer ``hook(when, fn)`` for profiling
        #: and the dispatch-order pin test.  While set, the run loops switch
        #: to an instrumented variant; when None the hot loops are untouched.
        self.dispatch_hook: Optional[Callable[[int, Callable], None]] = None
        # Imported lazily to avoid a cycle at module import time.
        from repro.sim.rng import RngRegistry
        from repro.sim.stats import MetricRegistry

        self.rng = RngRegistry(seed)
        self.metrics = MetricRegistry(self)
        #: Optional span and event recorder (see repro.obs.spans).  None keeps
        #: every instrumented hot path on its allocation-free disabled branch.
        self.spans = None
        #: Optional operation-history recorder (see repro.check.history):
        #: Jepsen-style invoke/ok/fail/info events for the linearizability
        #: checker.  Same contract as ``spans``: None costs nothing.
        self.history = None
        #: The process whose step is running.  A step starts inside another
        #: process's resume only once that process's generator has finished,
        #: so no step ever runs inside another step.
        self.active: Optional[Process] = None
        #: How many finished processes are waking their waiters in place,
        #: one inside the other (bounded by ``_INLINE_RUN_MAX``).
        self._join_depth = 0
        #: The event ``run_until_complete`` waits for: a process that is
        #: awaited never wakes its waiter in place, so the loop stops first.
        self._awaited: Optional[Event] = None

    # ------------------------------------------------------------------
    def schedule(self, delay: int, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` ns of virtual time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        t = self.now + int(delay)
        if t == self.now:
            self._fifo.append((fn, args))
        else:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (t, seq, fn, args))

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, int(delay), value)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from a generator; returns the joinable handle."""
        return Process(self, generator, name=name)

    def spawn_many(self, generators: Sequence[ProcessGenerator],
                   name: str = "") -> list:
        """Start N processes, as :meth:`spawn` per generator in order: each
        process's first step joins the running instant in list order.
        ``post_send_many`` arms one process per WR through here.
        """
        return [Process(self, g, name=name) for g in generators]

    def all_of(self, events) -> Event:
        """Event that fires when every event in ``events`` has succeeded."""
        from repro.sim.primitives import AllOf

        return AllOf(self, events)

    def any_of(self, events) -> Event:
        """Event that fires when the first event in ``events`` succeeds."""
        from repro.sim.primitives import AnyOf

        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Args:
            until: stop once virtual time would exceed this instant (the clock
                is left at ``until``).  ``None`` runs until the queue empties.
            max_events: safety valve for tests; raises
                :class:`SimulationError` on the first dispatch *beyond* the
                limit (exactly ``max_events`` dispatches are allowed).

        Returns:
            The virtual time at which execution stopped.
        """
        if max_events is not None or self.dispatch_hook is not None:
            return self._run_instrumented(until, max_events)
        fifo = self._fifo
        popleft = fifo.popleft
        heap = self._heap
        pop = heappop
        now = self.now
        dispatched = 0
        try:
            if until is None or now <= until:
                while True:
                    # An entry that raises is dropped, not counted; the rest
                    # stay queued.
                    while heap and heap[0][0] == now:
                        _, _, fn, args = pop(heap)
                        fn(*args)
                        dispatched += 1
                    while fifo:
                        fn, args = popleft()
                        fn(*args)
                        dispatched += 1
                    if not heap:
                        break
                    now = heap[0][0]
                    if until is not None and now > until:
                        break
                    self.now = now
            if until is not None and until > self.now:
                self.now = until
            return self.now
        finally:
            self.total_dispatched += dispatched

    def _run_instrumented(self, until: Optional[int], max_events: Optional[int],
                          process: Optional[Event] = None) -> int:
        """The slow path of ``run`` and ``run_until_complete`` (until
        ``process`` triggers): max_events accounting and/or dispatch_hook.

        Kept separate so the unobserved hot loops stay branch-free; the
        semantics (dispatch order, exact max_events behaviour, ``until``
        clock handling) are identical.
        """
        hook = self.dispatch_hook
        fifo = self._fifo
        heap = self._heap
        now = self.now
        dispatched = 0
        try:
            if until is None or now <= until:
                while process is None or not process.triggered:
                    if heap and heap[0][0] == now:
                        due = heap
                    elif fifo:
                        due = fifo
                    elif heap:
                        now = heap[0][0]
                        if until is not None and now > until:
                            break
                        self.now = now
                        continue
                    elif process is not None:
                        raise SimulationError(
                            f"deadlock: process {process.name!r} is waiting but "
                            "the event queue is empty")
                    else:
                        break
                    if max_events is not None and dispatched >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; likely a livelock")
                    fn, args = heappop(heap)[2:] if due is heap else fifo.popleft()
                    if hook is not None:
                        hook(now, fn)
                    fn(*args)
                    dispatched += 1
            if until is not None and until > self.now:
                self.now = until
            return self.now
        finally:
            self.total_dispatched += dispatched

    def run_until_complete(self, process: Event, max_events: Optional[int] = None) -> Any:
        """Run until ``process`` (any event, e.g. a Process or an AllOf)
        triggers; return its value (or raise its failure).

        Like :meth:`run`, ``max_events`` allows exactly that many dispatches
        and raises on the first dispatch beyond the limit.  Stopping
        mid-instant leaves the rest of the instant queued where it was.
        """
        awaited, self._awaited = self._awaited, process
        if max_events is not None or self.dispatch_hook is not None:
            try:
                self._run_instrumented(None, max_events, process)
            finally:
                self._awaited = awaited
            return process.value
        fifo = self._fifo
        popleft = fifo.popleft
        heap = self._heap
        pop = heappop
        now = self.now
        dispatched = 0
        try:
            while process._value is _PENDING and process._exception is None:
                if heap and heap[0][0] == now:
                    _, _, fn, args = pop(heap)
                elif fifo:
                    fn, args = popleft()
                elif heap:
                    self.now = now = heap[0][0]
                    continue
                else:
                    raise SimulationError(
                        f"deadlock: process {process.name!r} is waiting but the "
                        "event queue is empty"
                    )
                fn(*args)
                dispatched += 1
        finally:
            self.total_dispatched += dispatched
            self._awaited = awaited
        return process.value

    def peek(self) -> Optional[int]:
        """Time of the next scheduled entry, or None if the queue is empty."""
        if self._fifo:
            return self.now
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        queued = len(self._fifo) + len(self._heap)
        return f"<Simulator t={self.now}ns queued={queued}>"
