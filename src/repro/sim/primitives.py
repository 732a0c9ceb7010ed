"""Waitable primitives for simulation processes.

A *process* is a Python generator that yields waitables (or a bare ``int``
delay, a ``Resource``, a ``(resource, ns)`` hold or a ``Store``, which are
the kernel's business and involve nothing from this file).
The kernel (:mod:`repro.sim.kernel`) resumes the generator when the yielded
waitable *triggers*.  The primitives here mirror SimPy's core vocabulary:

* :class:`Event` — a one-shot signal that can succeed with a value or fail
  with an exception.
* :class:`Timeout` — an event that triggers after a fixed delay: the timer
  to store, compose into a condition or give a value.
* :class:`AllOf` / :class:`AnyOf` — composite conditions.

Fast-path notes: events are the single hottest allocation in the simulator
(every verb phase, memory access, and RPC creates several), so the class is
tuned for the common case — *one* waiting process per event.  The first
callback lives in a dedicated slot (``_cb1``); a list (``_more``) is only
allocated for the rare multi-waiter event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.kernel import Simulator

# Sentinel distinguishing "not yet triggered" from a legitimate None value.
_PENDING = object()


class Event:
    """A one-shot waitable signal.

    Processes wait on an event by yielding it.  Any party may complete it
    exactly once, either with :meth:`succeed` (delivering ``value`` to all
    waiters) or :meth:`fail` (raising the exception inside all waiters).

    Callbacks never run re-entrantly inside ``succeed``/``fail``: a
    completion with a callback registered queues one dispatch in the current
    instant.  With none registered it queues nothing — the event is simply
    *fired*, and the first waiter to arrive schedules the dispatch (or, for a
    process at the tail of the instant, continues inline; see
    ``Process._resume``).
    """

    __slots__ = ("sim", "_value", "_exception", "_cb1", "_more",
                 "_processed", "_scheduled", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        # Single-callback fast slot (the common case: one waiting Process);
        # extra callbacks spill into a lazily allocated list.
        self._cb1: Optional[Callable[["Event"], None]] = None
        self._more: Optional[list] = None
        self._processed = False
        self._scheduled = False

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been completed (succeed or fail)."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once all callbacks have been dispatched."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value.  Raises if the event is pending or failed."""
        if not self.triggered:
            raise RuntimeError(f"event {self.name!r} has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None."""
        return self._exception

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Complete the event successfully, delivering ``value`` to waiters."""
        if self._value is not _PENDING or self._exception is not None:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self._value = value
        if self._cb1 is not None and not self._scheduled:
            self._scheduled = True
            # Inlined sim.schedule(0, self._dispatch) — completion is hot.
            self.sim._fifo.append((self._dispatch, ()))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Complete the event with an exception, raised inside each waiter."""
        if self._value is not _PENDING or self._exception is not None:
            raise RuntimeError(f"event {self.name!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        if self._cb1 is not None and not self._scheduled:
            self._scheduled = True
            self.sim._fifo.append((self._dispatch, ()))
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event is processed.

        If the event already fired *and* its callbacks have been dispatched,
        ``fn`` runs at the current instant via the scheduler (never inline),
        preserving the invariant that continuations execute from the loop.
        """
        if self._processed:
            self.sim.schedule(0, fn, self)
            return
        if self._cb1 is None:
            self._cb1 = fn
        elif self._more is None:
            self._more = [fn]
        else:
            self._more.append(fn)
        if (not self._scheduled
                and (self._value is not _PENDING or self._exception is not None)):
            self._scheduled = True
            self.sim.schedule(0, self._dispatch)

    def _dispatch(self) -> None:
        # Mark processed *before* invoking callbacks so late registrations
        # (from inside a callback) go through the scheduler.  ``_more`` stays
        # set until the last callback returns: a woken process reads it to
        # learn that this dispatch still has work after it.
        self._processed = True
        self._scheduled = False
        cb1 = self._cb1
        if cb1 is not None:
            self._cb1 = None
            cb1(self)
        more = self._more
        if more is not None:
            for fn in more:
                fn(self)
            self._more = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self.triggered:
            state = "ok" if self.ok else f"failed({self._exception!r})"
        return f"<Event {self.name!r} {state}>"


class Timeout(Event):
    """An event that succeeds after ``delay`` nanoseconds of virtual time."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        Event.__init__(self, sim)
        self.delay = delay
        self._scheduled = True
        sim.schedule(delay, self._fire, value)  # rejects a negative delay

    def _fire(self, value: Any) -> None:
        # The event only becomes `triggered` at its due time, so conditions
        # and state inspection see a pending event until then.
        self._value = value
        self._dispatch()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self.triggered:
            state = "ok" if self.ok else f"failed({self._exception!r})"
        return f"<Timeout {self.delay}ns {state}>"


class _Condition(Event):
    """Base for AllOf/AnyOf — waits on a set of child events."""

    __slots__ = ("_events", "_pending_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event], name: str):
        super().__init__(sim, name=name)
        self._events = list(events)
        for ev in self._events:
            if ev.sim is not sim:
                raise ValueError("all events in a condition must share a simulator")
        self._pending_count = len(self._events)
        if not self._events:
            self.succeed({})
        else:
            for ev in self._events:
                ev.add_callback(self._child_fired)

    def _child_fired(self, ev: Event) -> None:
        raise NotImplementedError

    def _results(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self._events if ev.triggered and ev.ok}


class AllOf(_Condition):
    """Succeeds when *every* child event has succeeded.

    The value is a dict mapping each child event to its value.  Fails as soon
    as any child fails.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, name="all_of")

    def _child_fired(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev._exception)  # type: ignore[arg-type]
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self.succeed(self._results())


class AnyOf(_Condition):
    """Succeeds when the *first* child event succeeds.

    The value is a dict of the children that had succeeded by that instant.
    Fails only if a child fails before any succeeds.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, name="any_of")

    def _child_fired(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev._exception)  # type: ignore[arg-type]
            return
        self.succeed(self._results())
