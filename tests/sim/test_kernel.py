"""Tests for the discrete-event kernel: clock, scheduling, processes."""

import pytest

from repro.sim import SimulationError, Simulator


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
