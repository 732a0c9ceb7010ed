"""The discrete-event loop and process scheduler.

:class:`Simulator` owns a *calendar queue*: a dict of per-instant buckets
(``{time: [(fn, args), ...]}``) plus a small min-heap of the occupied
instants.  Scheduling appends to the target instant's bucket; the heap is
touched only when an instant becomes occupied, so the per-event cost is a
dict probe and a list append instead of an O(log n) heap push.  Dispatch
drains one bucket at a time in append order.

Ordering contract (pinned by ``tests/sim/test_dispatch_trace.py``): queued
entries run in ``(time, seq)`` order where ``seq`` is the global scheduling
order — entries for one instant are appended strictly in the order they were
scheduled, and instants are consumed in time order.  What the contract pins
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

Fast-path notes: the ``run`` loops bind the bucket machinery to locals and
dispatch a whole instant per outer iteration (one clock write and one
``until`` comparison per *instant*); completion fast paths in
:mod:`repro.sim.primitives` append to the calendar inline, and
:meth:`Simulator.schedule_many` / :meth:`Simulator.spawn_many` arm N
timers or processes with one kernel call.  All of this is wall-clock only —
virtual-time results are bit-for-bit identical to the straightforward loop.

Profiling/debug: assign ``sim.dispatch_hook = lambda when, fn: ...`` to
observe every dispatch; the hot loops are swapped for an instrumented
variant while it is set, so the disabled path stays branch-free.
See ``docs/KERNEL.md`` for the design rationale.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional, Sequence, Union

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
    the kernel appends this process's wake-up entry to the bucket at
    ``now + n`` — so it can be neither stored nor composed nor given a
    value; ``sim.timeout(n)`` is the event for that.

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

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = "",
                 _defer: bool = False):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        if not hasattr(generator, "send"):
            raise TypeError(
                f"spawn() needs a generator, got {type(generator).__name__}; "
                "did you call a plain function instead of a generator function?"
            )
        self._generator = generator
        # Bound once: resuming the generator is the hottest call in the
        # simulator, so skip the attribute lookup on every wake-up.
        self._send = generator.send
        # Bound once: every wake-up, by event or by timer, is this callable.
        self._wake = self._resume
        # The calendar entry of every wait the kernel ends: the first step, a
        # delay, a granted slot, the end of a timed hold, an item handed over.
        # Its token, 0, tells it apart from an event's wake-up.
        self._entry = (self._wake, (0,))
        # A wait that the kernel owns: the yielded ``Resource`` or ``Store``
        # while this process is parked in its queue or the entry that ends
        # the wait is queued; the yielded ``(resource, ns)`` pair while
        # parked; the resource alone, with ``_holding`` set, once the hold
        # has started.  ``_item`` is what a store's queued entry delivers.
        self._slot: Any = None
        self._holding = False
        self._item: Any = None
        if not _defer:
            # Kick off the first step from the loop, not inline.  Inlined
            # sim.schedule(0, ...) — spawn is hot.
            buckets = sim._buckets
            t = sim.now
            b = buckets.get(t)
            if b is None:
                buckets[t] = [self._entry]
                heappush(sim._instants, t)
            else:
                b.append(self._entry)

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
                        and not sim._entries.__length_hint__()):
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
                if inline and not sim._entries.__length_hint__():
                    # A free slot at the tail of the instant: keep going.
                    inline -= 1
                    value = target
                    continue
                # A free slot elsewhere: the grant entry is this process's
                # place in line behind what the instant already holds.
                self._slot = target
                t = sim.now
            elif cls is Store:
                if target.sim is not sim:
                    return self._bad_yield("yielded store belongs to another simulator")
                if not target._items:
                    target._queue.append(self)
                    self._slot = target
                    return
                value = target._items.popleft()
                if inline and not sim._entries.__length_hint__():
                    # The oldest item at the tail of the instant: keep going.
                    inline -= 1
                    continue
                # An item elsewhere: it rides this process's entry, its place in line.
                self._slot = target
                self._item = value
                t = sim.now
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
                    elif (inline and not target._scheduled
                            and not sim._entries.__length_hint__()):
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
            # of a hold that has started, or the delivery of a slot or an item
            # taken above.
            buckets = sim._buckets
            b = buckets.get(t)
            if b is None:
                buckets[t] = [self._entry]
                heappush(sim._instants, t)
            else:
                b.append(self._entry)
            return


class Simulator:
    """The event loop: a virtual clock plus a calendar queue of callbacks.

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
        #: Calendar queue: per-instant buckets of ``(fn, args)`` entries in
        #: scheduling order.  A bucket exists exactly while its instant has
        #: pending entries (it stays in the dict during its own dispatch so
        #: zero-delay scheduling lands in the live batch).
        self._buckets: dict[int, list] = {}
        #: Min-heap of occupied instants (each pushed once, when its bucket
        #: is created).  The heap sees one entry per *instant*, not per
        #: event — that amortization is the core of the calendar design.
        self._instants: list[int] = []
        #: Iterator over the bucket being dispatched.  A list iterator's
        #: ``__length_hint__()`` is exactly the number of entries not yet
        #: started, appends included, so 0 means "the running dispatch is
        #: the last entry of this instant" — the test a process applies
        #: before continuing inline past a wait that is already over.
        self._entries = iter(())
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
        b = self._buckets.get(t)
        if b is None:
            self._buckets[t] = [(fn, args)]
            heappush(self._instants, t)
        else:
            b.append((fn, args))

    def schedule_many(self, items: Iterable[tuple]) -> None:
        """Batched arming: schedule ``(delay, fn, args)`` entries in order.

        Virtual-time semantics are identical to calling :meth:`schedule`
        once per item in list order; the batch exists so callers arming many
        callbacks at once (fault plans, doorbell batches) pay the kernel
        entry and local binding once.
        """
        buckets = self._buckets
        instants = self._instants
        now = self.now
        for delay, fn, args in items:
            if delay < 0:
                raise ValueError(f"cannot schedule into the past (delay={delay})")
            t = now + int(delay)
            b = buckets.get(t)
            if b is None:
                buckets[t] = [(fn, args)]
                heappush(instants, t)
            else:
                b.append((fn, args))

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
        """Start N processes with one kernel call (batched first-step arming).

        Identical to calling :meth:`spawn` per generator in order — each
        process's first step is appended to the current instant in list
        order — but the calendar bindings are paid once.  This is the
        doorbell-batch fast path: ``post_send_many`` arms one process per WR
        through here.
        """
        procs = [Process(self, g, name=name, _defer=True) for g in generators]
        buckets = self._buckets
        t = self.now
        b = buckets.get(t)
        if b is None:
            b = buckets[t] = []
            heappush(self._instants, t)
        for p in procs:
            b.append(p._entry)
        return procs

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
        buckets = self._buckets
        instants = self._instants
        pop = heappop
        dispatched = 0
        try:
            while instants:
                when = instants[0]
                if until is not None and when > until:
                    break
                pop(instants)
                self.now = when
                bucket = buckets[when]
                entries = self._entries = iter(bucket)
                try:
                    # The list iterator sees entries appended mid-batch, so
                    # zero-delay scheduling lands in this same instant.
                    for fn, args in entries:
                        fn(*args)
                except BaseException:
                    # The entry that raised is dropped, not counted.
                    dispatched += self._requeue_rest(when, bucket, entries) - 1
                    raise
                dispatched += len(bucket)
                del buckets[when]
            if until is not None and until > self.now:
                self.now = until
            return self.now
        finally:
            self.total_dispatched += dispatched

    def _run_instrumented(self, until: Optional[int],
                          max_events: Optional[int]) -> int:
        """The ``run`` slow path: max_events accounting and/or dispatch_hook.

        Kept separate so the unobserved hot loop stays branch-free; the
        semantics (dispatch order, exact max_events behaviour, ``until``
        clock handling) are identical.
        """
        buckets = self._buckets
        instants = self._instants
        pop = heappop
        hook = self.dispatch_hook
        dispatched = 0
        try:
            while instants:
                when = instants[0]
                if until is not None and when > until:
                    break
                pop(instants)
                self.now = when
                bucket = buckets[when]
                entries = self._entries = iter(bucket)
                try:
                    while entries.__length_hint__():
                        if max_events is not None and dispatched >= max_events:
                            raise SimulationError(
                                f"exceeded max_events={max_events}; likely a livelock"
                            )
                        fn, args = next(entries)
                        if hook is not None:
                            hook(when, fn)
                        fn(*args)
                        dispatched += 1
                finally:
                    self._requeue_rest(when, bucket, entries)
            if until is not None and until > self.now:
                self.now = until
            return self.now
        finally:
            self.total_dispatched += dispatched

    def run_until_complete(self, process: Event, max_events: Optional[int] = None) -> Any:
        """Run until ``process`` (any event, e.g. a Process or an AllOf)
        triggers; return its value (or raise its failure).

        Like :meth:`run`, ``max_events`` allows exactly that many dispatches
        and raises on the first dispatch beyond the limit.
        """
        if max_events is not None or self.dispatch_hook is not None:
            return self._ruc_instrumented(process, max_events)
        buckets = self._buckets
        instants = self._instants
        pop = heappop
        dispatched = 0
        awaited, self._awaited = self._awaited, process
        try:
            while process._value is _PENDING and process._exception is None:
                if not instants:
                    raise SimulationError(
                        f"deadlock: process {process.name!r} is waiting but the "
                        "event queue is empty"
                    )
                when = pop(instants)
                self.now = when
                bucket = buckets[when]
                entries = self._entries = iter(bucket)
                try:
                    for fn, args in entries:
                        fn(*args)
                        if (process._value is not _PENDING
                                or process._exception is not None):
                            break
                    else:
                        dispatched += len(bucket)
                        del buckets[when]
                        continue
                except BaseException:
                    dispatched += self._requeue_rest(when, bucket, entries) - 1
                    raise
                # Completion mid-instant.
                dispatched += self._requeue_rest(when, bucket, entries)
        finally:
            self.total_dispatched += dispatched
            self._awaited = awaited
        return process.value

    def _ruc_instrumented(self, process: Event,
                          max_events: Optional[int]) -> Any:
        """``run_until_complete`` slow path (max_events and/or hook)."""
        buckets = self._buckets
        instants = self._instants
        pop = heappop
        hook = self.dispatch_hook
        dispatched = 0
        awaited, self._awaited = self._awaited, process
        try:
            while not process.triggered:
                if not instants:
                    raise SimulationError(
                        f"deadlock: process {process.name!r} is waiting but the "
                        "event queue is empty"
                    )
                when = pop(instants)
                self.now = when
                bucket = buckets[when]
                entries = self._entries = iter(bucket)
                try:
                    while entries.__length_hint__() and not process.triggered:
                        if max_events is not None and dispatched >= max_events:
                            raise SimulationError(f"exceeded max_events={max_events}")
                        fn, args = next(entries)
                        if hook is not None:
                            hook(when, fn)
                        fn(*args)
                        dispatched += 1
                finally:
                    self._requeue_rest(when, bucket, entries)
        finally:
            self.total_dispatched += dispatched
            self._awaited = awaited
        return process.value

    def _requeue_rest(self, when: int, bucket: list, entries) -> int:
        """Leave the entries of ``bucket`` that were not started queued for a
        resumed run (an exception, completion mid-instant, ``max_events``);
        returns how many were started."""
        started = len(bucket) - entries.__length_hint__()
        del bucket[:started]
        if bucket:
            heappush(self._instants, when)
        else:
            del self._buckets[when]
        return started

    def peek(self) -> Optional[int]:
        """Time of the next scheduled entry, or None if the queue is empty."""
        return self._instants[0] if self._instants else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        queued = sum(len(b) for b in self._buckets.values())
        return f"<Simulator t={self.now}ns queued={queued}>"
