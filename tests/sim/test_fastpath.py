"""Regression tests for the kernel fast path: exact max_events semantics,
the dispatch counter and the batched arming calls."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


# ----------------------------------------------------------------------
# max_events: raise exactly at the limit, not one past it
# ----------------------------------------------------------------------
def test_run_allows_exactly_max_events_dispatches():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(i, fired.append, i)
    sim.run(max_events=5)
    assert fired == [0, 1, 2, 3, 4]


def test_run_raises_on_first_dispatch_beyond_limit():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(i, fired.append, i)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=4)
    # Exactly 4 ran; the 5th dispatch is the one that raised.
    assert fired == [0, 1, 2, 3]


def test_run_until_complete_allows_exactly_max_events():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1)
        return "done"

    # worker completes in 2 dispatches: bootstrap step, then the timeout
    # firing (whose callback runs the generator to completion).
    p = sim.spawn(worker(sim))
    assert sim.run_until_complete(p, max_events=2) == "done"

    sim2 = Simulator()
    p2 = sim2.spawn(worker(sim2))
    with pytest.raises(SimulationError, match="max_events"):
        sim2.run_until_complete(p2, max_events=1)


def test_max_events_counts_same_timestamp_batch():
    """The guard must fire inside a same-instant dispatch batch too."""
    sim = Simulator()
    for _ in range(10):
        sim.schedule(5, lambda: None)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=7)


# ----------------------------------------------------------------------
# total_dispatched
# ----------------------------------------------------------------------
def test_total_dispatched_accumulates_across_runs():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    sim.run()
    assert sim.total_dispatched == 2
    sim.schedule(1, lambda: None)
    sim.run()
    assert sim.total_dispatched == 3


def test_total_dispatched_counts_run_until_complete():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1)

    p = sim.spawn(worker(sim))
    sim.run_until_complete(p)
    assert sim.total_dispatched > 0


# ----------------------------------------------------------------------
# Arming many entries: (time, seq) order, the batch call as one-at-a-time
# ----------------------------------------------------------------------
def test_schedule_runs_a_mixed_batch_in_time_then_scheduling_order():
    sim = Simulator()
    fired = []
    for delay, tag in ((5, "a"), (3, "b"), (5, "c"), (0, "d")):
        sim.schedule(delay, fired.append, tag)
    sim.run()
    assert (fired, sim.now) == (["d", "b", "a", "c"], 5)


def test_schedule_rejects_negative_delay_after_earlier_entries():
    sim = Simulator()
    fired = []
    sim.schedule(1, fired.append, "a")
    with pytest.raises(ValueError):
        sim.schedule(-2, fired.append, "b")
    sim.run()
    assert fired == ["a"]


def test_spawn_many_matches_sequential_spawns():
    def drive(batched):
        sim = Simulator()
        trace = []

        def worker(sim, tag):
            trace.append(("start", tag, sim.now))
            yield sim.timeout(tag + 1)
            trace.append(("end", tag, sim.now))
            return tag

        gens = [worker(sim, i) for i in range(4)]
        procs = sim.spawn_many(gens) if batched else [sim.spawn(g) for g in gens]
        sim.run()
        return trace, [p.value for p in procs]

    assert drive(True) == drive(False)


def test_spawn_many_rejects_non_generators():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn_many([lambda: None])  # type: ignore[list-item]


# ----------------------------------------------------------------------
# Same-timestamp batching must not disturb the `until` contract
# ----------------------------------------------------------------------
def test_run_until_stops_before_later_instant():
    sim = Simulator()
    fired = []
    sim.schedule(5, fired.append, "early")
    sim.schedule(5, fired.append, "early2")
    sim.schedule(10, fired.append, "late")
    assert sim.run(until=7) == 7
    assert fired == ["early", "early2"]
    assert sim.now == 7
    sim.run()
    assert fired == ["early", "early2", "late"]
