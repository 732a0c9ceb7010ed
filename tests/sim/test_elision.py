"""Zero-delay event elision: waits that are already over.

The kernel rule under test (``docs/KERNEL.md``, "The ordering contract"): a
process that yields an event which has already fired, has no other waiter
and has no dispatch queued — or a ``Resource`` with a free slot, or a
``Store`` with an item — continues inline when, and only when, the running
dispatch is the last entry of the current instant's bucket.  Otherwise it
registers (or queues its own entry) and is woken through the queue.  Either
way the order in which processes resume is the same; only pass-through
dispatches disappear.  The same rule lets a process that finishes at the
tail with one waiter wake it in place.  A timed hold, ``yield (res, ns)``,
queues its end when its slot is taken and no grant entry at all.
"""

from math import ceil

import pytest

from repro.sim import Resource, SimulationError, Simulator, Store
from repro.sim import kernel


# ---------------------------------------------------------------------------
# Waits that are over before they start, and lazy completion
# ---------------------------------------------------------------------------
def _fired(sim):
    """An event completed with nobody waiting: fired, nothing queued."""
    ev = sim.event()
    ev.succeed("x")
    return ev


def _item_present(sim):
    store = Store(sim)
    store.put("item")
    return store.get(), "item"


def _event_fired(sim):
    ev = _fired(sim)
    assert ev.triggered and not ev.processed
    return ev, "x"


@pytest.mark.parametrize("source", [_item_present, _event_fired])
def test_born_fired_sources_schedule_nothing(source):
    sim = Simulator()
    wait, expect = source(sim)
    assert sim.peek() is None  # over already, and nothing queued to say so

    got = []

    def waiter(sim):
        got.append((yield wait))

    sim.spawn(waiter(sim))
    sim.run()
    assert got == [expect]
    # The first step is the only entry of its instant, so it obeys the tail
    # rule like any other resume: the finished wait costs no second dispatch.
    assert sim.total_dispatched == 1


def test_succeed_with_no_waiter_queues_no_dispatch():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(7)
    assert ev.triggered and sim.peek() is None
    sim.run()
    assert sim.total_dispatched == 0 and not ev.processed


def test_unjoined_process_completion_is_not_dispatched():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(5)

    sim.spawn(body(sim))
    sim.run()
    assert sim.total_dispatched == 2  # first step + the timeout, no completion


# ---------------------------------------------------------------------------
# The tail rule
# ---------------------------------------------------------------------------
def test_sole_waiter_at_the_tail_continues_inline():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    store = Store(sim)
    got = []

    def body(sim):
        yield sim.timeout(1)
        with (yield res) as slot:
            got.append(slot)
            got.append(store.put("x"))
            got.append((yield store))
            got.append((yield _fired(sim)))

    sim.spawn(body(sim))
    sim.run()
    assert got == [res, None, "x", "x"]
    assert sim.total_dispatched == 2  # first step + the timeout
    assert res.in_use == 0


def test_a_timed_hold_of_a_free_slot_at_the_tail_queues_only_its_end():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def body(sim):
        yield sim.timeout(1)
        yield (res, 5)

    sim.spawn(body(sim))
    sim.run()
    assert sim.now == 6 and res.in_use == 0
    assert sim.total_dispatched == 3  # first step, the timeout, end of hold


def test_a_wait_that_is_over_is_scheduled_when_not_at_the_tail():
    """B's bootstrap is queued behind A's, so A's free slot is not at the
    tail: A must let B start first, as it always did.  The grant entry A
    queues is its place in line."""
    sim = Simulator()
    res = Resource(sim, capacity=2)
    order = []

    def body(sim, tag):
        order.append((tag, "start"))
        with (yield res):
            order.append((tag, "granted"))

    sim.spawn(body(sim, "A"))
    sim.spawn(body(sim, "B"))
    sim.run()
    assert order == [("A", "start"), ("B", "start"),
                     ("A", "granted"), ("B", "granted")]
    # Two first steps and two grant entries: behind A's, B is not last either.
    assert sim.total_dispatched == 4


def test_a_timed_hold_away_from_the_tail_queues_only_its_end():
    """Same instant, pair form: B's first step is queued behind A's, so A's
    free slot is not at the tail.  The hold starts at the ``yield`` all the
    same and only its end is queued: the order is the one a grant entry
    gave, at 4 dispatches instead of 6."""
    sim = Simulator()
    res = Resource(sim, capacity=2)
    order = []

    def body(sim, tag):
        order.append((tag, "start"))
        yield (res, 5)
        order.append((tag, sim.now))

    sim.spawn(body(sim, "A"))
    sim.spawn(body(sim, "B"))
    sim.run()
    assert order == [("A", "start"), ("B", "start"), ("A", 5), ("B", 5)]
    assert sim.total_dispatched == 4  # per process: first step, end of hold
    assert res.in_use == 0


def _with_holder(sim, res):
    with (yield res):
        yield 3


def _pair_holder(sim, res):
    yield (res, 3)


@pytest.mark.parametrize("holder, names", [
    # The bare holder's slot is free but not at the tail: one grant entry.
    (_with_holder, [(0, "_with_holder"), (0, "waiter"), (0, "_with_holder"),
                    (3, "_with_holder"), (8, "waiter")]),
    (_pair_holder, [(0, "_pair_holder"), (0, "waiter"), (3, "_pair_holder"),
                    (8, "waiter")]),
])
def test_a_released_slot_starts_a_parked_timed_hold_with_no_grant_entry(holder, names):
    """A holder gives its slot back at 3, by ``with`` or at the end of its own
    hold, to a timed hold parked behind it: that hold starts at 3 and ends
    at 3 + 5, and nothing of the waiter's runs at 3."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    seen, ends = [], []
    sim.dispatch_hook = lambda when, fn: seen.append((when, fn.__self__.name))

    def waiter(sim):
        yield (res, 5)
        ends.append(sim.now)

    sim.spawn(holder(sim, res))
    sim.spawn(waiter(sim))
    sim.run()
    assert ends == [8] and seen == names
    assert res.in_use == 0 and res.queued == 0


def test_an_item_away_from_the_tail_rides_the_takers_own_entry():
    """The store analogue: B's bootstrap is queued behind A's, so neither
    take is at the tail.  Each item is popped at the ``yield`` — it is the
    taker's from then on — and delivered by the taker's own entry."""
    sim = Simulator()
    store = Store(sim)
    store.put("a")
    store.put("b")
    order = []

    def body(sim, tag):
        order.append((tag, "start", len(store)))
        order.append((tag, (yield store)))

    sim.spawn(body(sim, "A"))
    sim.spawn(body(sim, "B"))
    sim.run()
    assert order == [("A", "start", 2), ("B", "start", 1), ("A", "a"), ("B", "b")]
    assert sim.total_dispatched == 4  # two first steps, two deliveries


def test_a_hand_off_to_a_parked_process_is_its_own_entry_and_nothing_else():
    """``put`` on a store with a parked process appends that process's entry
    to the current instant: one dispatch, a ``Process._resume``, no event."""
    sim = Simulator()
    store = Store(sim)
    names, got = [], []
    sim.dispatch_hook = lambda when, fn: names.append((when, fn.__qualname__))

    def getter(sim):
        got.append(((yield store), sim.now))

    def producer(sim):
        yield 5
        store.put("x")
        store.put("y")  # nobody parked any more: it stays

    sim.spawn(getter(sim))
    sim.spawn(producer(sim))
    sim.run()
    assert got == [("x", 5)] and list(store._items) == ["y"]
    assert names == [(0, "Process._resume"), (0, "Process._resume"),
                     (5, "Process._resume"), (5, "Process._resume")]


def test_a_process_that_finishes_at_the_tail_wakes_its_sole_waiter_in_place():
    """The child's last step is the last entry of its instant, and the parent
    is its only waiter: the ``Event._dispatch`` that ``succeed`` would queue
    would run next and only resume the parent, so the child resumes it."""
    sim = Simulator()
    names, got = [], []
    sim.dispatch_hook = lambda when, fn: names.append((when, fn.__qualname__))

    def child(sim):
        yield 5
        return "x"

    def parent(sim):
        got.append(((yield sim.spawn(child(sim))), sim.now))

    sim.spawn(parent(sim))
    sim.run()
    assert got == [("x", 5)]
    assert names == [(0, "Process._resume"), (0, "Process._resume"),
                     (5, "Process._resume")]


def test_a_process_that_finishes_off_the_tail_queues_its_waiters_dispatch():
    """The child's last step queues another process's first step, so the
    child is no longer at the tail: the parent is woken through the queue,
    behind that first step."""
    sim = Simulator()
    names, order = [], []
    sim.dispatch_hook = lambda when, fn: names.append((when, fn.__qualname__))

    def other(sim):
        order.append("other")
        yield 0

    def child(sim):
        yield 5
        sim.spawn(other(sim))

    def parent(sim):
        yield sim.spawn(child(sim))
        order.append("parent")

    sim.spawn(parent(sim))
    sim.run()
    assert order == ["other", "parent"]
    assert names[2:5] == [(5, "Process._resume"), (5, "Process._resume"),
                          (5, "Event._dispatch")]


def _link(sim, depth):
    """One process of a chain: it joins the next one, and the last sleeps."""
    if depth:
        return (yield sim.spawn(_link(sim, depth - 1))) + 1
    yield 1
    return 0


@pytest.mark.parametrize("instrumented", [False, True])
def test_a_long_chain_of_joined_processes_wakes_within_the_depth_bound(instrumented):
    """10,000 processes, each joining the next: when the last one wakes, every
    one finishes at the tail with one waiter.  They wake each other in place
    at most ``_INLINE_RUN_MAX`` deep, then one ``Event._dispatch`` starts the
    next run of them, so the chain never nests past the bound."""
    sim = Simulator()
    n = 10_000
    root = sim.spawn(_link(sim, n - 1))
    sim.run(max_events=10**6 if instrumented else None)
    assert root.value == n - 1 and sim.now == 1
    # n first steps, then one dispatch per ``_INLINE_RUN_MAX + 1`` finishes.
    assert sim.total_dispatched == n + ceil(n / (kernel._INLINE_RUN_MAX + 1))


@pytest.mark.parametrize("max_events", [None, 10**6])
def test_run_until_complete_stops_before_the_awaited_process_wakes_its_waiter(max_events):
    """The child finishes at the tail with one waiter, but it is the process
    ``run_until_complete`` awaits: the run stops with the parent not yet
    woken, and the parent's wake-up is still queued."""
    sim = Simulator()
    order = []

    def child(sim):
        yield 5
        order.append("child")

    def parent(sim, proc):
        yield proc
        order.append("parent")

    proc = sim.spawn(child(sim))
    sim.spawn(parent(sim, proc))
    sim.run_until_complete(proc, max_events=max_events)
    assert order == ["child"] and sim.now == 5 and sim.peek() == 5
    sim.run()
    assert order == ["child", "parent"]


def test_second_waiter_on_a_born_fired_event_goes_through_the_scheduler():
    sim = Simulator()
    req = _fired(sim)
    order = []

    def body(sim, tag):
        yield req
        order.append(tag)

    sim.spawn(body(sim, "first"))
    sim.spawn(body(sim, "second"))
    sim.run_until_complete(sim.timeout(0))  # both have yielded, none woken
    assert order == []
    sim.run()
    assert order == ["first", "second"] and req.processed


def test_add_callback_on_a_born_fired_event_never_runs_inline():
    sim = Simulator()
    ev = _fired(sim)
    seen = []
    ev.add_callback(seen.append)
    assert seen == []
    sim.run()
    assert seen == [ev] and sim.total_dispatched == 1


def test_other_waiters_of_the_waking_event_run_before_an_inline_continuation():
    """P1 and P2 wait on one event.  When it fires, P1's next wait is
    already over and the bucket is empty behind the dispatch — but P2's
    wake-up is still owed by that same dispatch, so P1 may not run on."""
    sim = Simulator()
    gate = sim.event()
    res = Resource(sim, capacity=1)
    order = []

    def p1(sim):
        yield gate
        order.append("p1 woken")
        with (yield res):
            order.append("p1 granted")

    def p2(sim):
        yield gate
        order.append("p2 woken")

    sim.spawn(p1(sim))
    sim.spawn(p2(sim))
    sim.schedule(5, gate.succeed)
    sim.run()
    assert order == ["p1 woken", "p2 woken", "p1 granted"]


# ---------------------------------------------------------------------------
# Late waiters on a lazily-dispatched event
# ---------------------------------------------------------------------------
def test_late_waiter_in_a_later_instant():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    got = []

    def late(sim):
        yield sim.timeout(5)
        got.append((sim.now, (yield ev)))

    sim.spawn(late(sim))
    sim.run()
    assert got == [(5, "early")]


def test_late_waiter_in_the_same_instant_keeps_its_turn():
    """The waiter of an event that fired earlier in this instant resumes
    after everything already queued in the instant, never ahead of it."""
    sim = Simulator()
    ev = sim.event()
    nudge = sim.event()
    order = []

    def sleeper(sim):
        yield nudge
        order.append("sleeper")

    def late(sim):
        yield sim.timeout(1)
        ev.succeed("fired")
        nudge.succeed()          # queues the sleeper's wake-up ...
        order.append((yield ev))  # ... which runs before this wait returns

    sim.spawn(sleeper(sim))
    sim.spawn(late(sim))
    sim.run()
    assert order == ["sleeper", "fired"]


# ---------------------------------------------------------------------------
# The inline-run bound
# ---------------------------------------------------------------------------
def _spinner(store, n=None):
    i = 0
    while n is None or i < n:
        store.put(i)
        yield store.get()
        i += 1


def _slot_spinner(res, n=None):
    i = 0
    while n is None or i < n:
        with (yield res):
            pass
        i += 1


def test_spinner_over_an_always_full_store_still_trips_max_events():
    sim = Simulator()
    sim.spawn(_spinner(Store(sim)))
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=500)


def test_spinner_over_an_always_free_resource_still_trips_max_events():
    sim = Simulator()
    sim.spawn(_slot_spinner(Resource(sim, capacity=1)))
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=500)


def test_spinner_over_children_that_finish_at_once_still_trips_max_events():
    """Each child wakes the spinner in place, but its first step is a
    dispatch: every round still costs one."""

    def done(sim):
        return
        yield

    def spinner(sim):
        while True:
            yield sim.spawn(done(sim))

    sim = Simulator()
    sim.spawn(spinner(sim))
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=500)


@pytest.mark.parametrize("spinner", [
    lambda sim, n: _spinner(Store(sim), n),
    lambda sim, n: _slot_spinner(Resource(sim, capacity=1), n),
])
@pytest.mark.parametrize("instrumented", [False, True])
def test_inline_runs_are_bounded_and_counted_alike_by_both_loops(instrumented, spinner):
    sim = Simulator()
    n = 200
    proc = sim.spawn(spinner(sim, n))
    sim.run(max_events=10**6 if instrumented else None)
    assert proc.ok
    # n + 1 sends (the last one ends the generator); every dispatch, the
    # first step included, makes one and at most ``bound`` more inline.
    assert sim.total_dispatched == ceil((n + 1) / (kernel._INLINE_RUN_MAX + 1))
