"""Tests for the discrete-event kernel: clock, scheduling, processes."""

import pytest

from repro.sim import Resource, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_schedule_runs_callbacks_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, fired.append, "c")
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_equal_time_callbacks_run_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in "abcde":
        sim.schedule(5, fired.append, tag)
    sim.run()
    assert fired == list("abcde")


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_run_until_stops_clock_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.schedule(100, fired.append, "late")
    sim.run(until=50)
    assert fired == ["early"]
    assert sim.now == 50
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=1234)
    assert sim.now == 1234


def test_process_timeout_advances_time():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(42)
        return sim.now

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == 42


def test_process_return_value_delivered_to_joiner():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(5)
        return "payload"

    def parent(sim):
        value = yield sim.spawn(child(sim))
        return value + "!"

    p = sim.spawn(parent(sim))
    sim.run()
    assert p.value == "payload!"


def test_process_exception_propagates_to_joiner():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent(sim):
        try:
            yield sim.spawn(child(sim))
        except ValueError as exc:
            return f"caught {exc}"

    p = sim.spawn(parent(sim))
    sim.run()
    assert p.value == "caught boom"


def test_unhandled_process_exception_marks_process_failed():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    p = sim.spawn(child(sim))
    sim.run()
    assert p.triggered and not p.ok
    with pytest.raises(RuntimeError, match="unhandled"):
        _ = p.value


def test_spawning_non_generator_raises():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


@pytest.mark.parametrize("junk", [True, 1.5, "x", None])
def test_yielding_non_event_fails_process(junk):
    """Only an Event or a plain non-negative int is a wait; a bool or a
    float is not quietly taken for a delay."""
    sim = Simulator()

    def bad(sim):
        yield junk

    p = sim.spawn(bad(sim))
    sim.run()
    assert not p.ok
    assert isinstance(p.exception, SimulationError)


def test_yielding_event_of_other_simulator_fails_process():
    sim_a = Simulator()
    sim_b = Simulator()

    def bad(sim):
        yield sim_b.timeout(1)

    p = sim_a.spawn(bad(sim_a))
    sim_a.run()
    assert not p.ok
    assert isinstance(p.exception, SimulationError)


def test_run_until_complete_returns_process_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(7)
        return 99

    p = sim.spawn(proc(sim))
    assert sim.run_until_complete(p) == 99


def test_run_until_complete_detects_deadlock():
    sim = Simulator()

    def stuck(sim):
        yield sim.event()  # never triggered by anyone

    p = sim.spawn(stuck(sim))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(p)


def test_max_events_guard_trips_on_livelock():
    sim = Simulator()

    def spinner(sim):
        while True:
            yield sim.timeout(0)

    sim.spawn(spinner(sim))
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=1000)


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.schedule(17, lambda: None)
    assert sim.peek() == 17


def test_determinism_same_seed_same_trace():
    def build_and_run(seed):
        sim = Simulator(seed=seed)
        trace = []

        def jittery(sim, name):
            rng = sim.rng.stream(name)
            for _ in range(20):
                yield sim.timeout(rng.randrange(1, 100))
                trace.append((sim.now, name))

        for name in ("a", "b", "c"):
            sim.spawn(jittery(sim, name))
        sim.run()
        return trace

    assert build_and_run(42) == build_and_run(42)
    assert build_and_run(42) != build_and_run(43)


# ----------------------------------------------------------------------
# Two queues, one (time, seq) order: heap entries due now run before the
# running instant's FIFO
# ----------------------------------------------------------------------
def test_entries_due_earlier_run_before_a_zero_delay_entry_the_first_queues():
    sim = Simulator()
    order = []

    def first():
        order.append("a")
        sim.schedule(0, order.append, "zero")

    sim.schedule(5, first)
    sim.schedule(5, order.append, "b")
    sim.schedule(5, order.append, "c")
    sim.schedule(6, order.append, "later")
    sim.run()
    assert order == ["a", "b", "c", "zero", "later"]


@pytest.mark.parametrize("max_events", [None, 100], ids=["fast", "instrumented"])
def test_run_until_complete_stopping_mid_instant_keeps_time_seq_order(max_events):
    sim = Simulator()
    order = []
    done = sim.event()

    def first():
        order.append("a")
        sim.schedule(0, order.append, "zero")
        done.succeed()

    sim.schedule(5, first)
    sim.schedule(5, order.append, "b")
    sim.schedule(6, order.append, "later")
    sim.run_until_complete(done, max_events=max_events)
    assert order == ["a"] and sim.now == 5
    sim.schedule(0, order.append, "outside")
    sim.run(max_events=max_events)
    assert order == ["a", "b", "zero", "outside", "later"]
    assert sim.total_dispatched == 5


def test_a_handed_over_zero_hold_and_a_zero_delay_join_the_running_instant():
    sim = Simulator()
    r = Resource(sim, capacity=1)
    order = []

    def holder():
        with (yield r):
            yield 5
        # The release handed the slot to the parked (r, 0) hold.
        order.append(("released", sim.now, len(sim._fifo),
                      [t for t, *_ in sim._heap]))
        yield 0
        order.append(("holder resumed", sim.now))

    def waiter():
        yield 1
        yield (r, 0)
        order.append(("hold over", sim.now))

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.schedule(5, order.append, ("due at 5", 5))
    sim.run()
    assert order == [("due at 5", 5), ("released", 5, 1, []),
                     ("hold over", 5), ("holder resumed", 5)]


def test_peek_is_now_while_only_the_fifo_holds_entries():
    sim = Simulator()
    sim.run(until=40)
    sim.schedule(0, lambda: None)
    assert sim.peek() == 40
    sim.schedule(7, lambda: None)
    assert sim.peek() == 40
    sim.run()
    assert sim.peek() is None and sim.now == 47
