"""What a process may yield besides an Event: a bare delay.

``yield n`` with a non-negative ``int`` waits ``n`` virtual nanoseconds.  The
kernel queues the process's own wake-up at ``now + n`` — the entry a
``Timeout`` would have queued, at the same position of the same bucket — and
creates no event (``docs/KERNEL.md``, "What a process may yield").
"""

import pytest

from repro.sim import Simulator


def test_bare_delay_behaves_like_timeout():
    def drive(bare):
        sim = Simulator(seed=3)
        trace = []

        def worker(sim, tag, delay):
            for _ in range(4):
                got = yield (delay if bare else sim.timeout(delay))
                trace.append((tag, sim.now, got))

        sim.spawn(worker(sim, "a", 10))
        sim.spawn(worker(sim, "b", 7))
        sim.run()
        return trace, sim.now, sim.total_dispatched

    assert drive(True) == drive(False)
    assert drive(True)[0][:3] == [("b", 7, None), ("a", 10, None), ("b", 14, None)]


def test_zero_delay_takes_the_slot_a_zero_timeout_would():
    """``yield 0`` is a turn, not a no-op: the wake-up goes to the end of the
    current instant's bucket, behind whatever is queued there already."""
    def drive(zero):
        sim = Simulator()
        order = []

        def worker(sim, tag, wait):
            order.append((tag, "start"))
            yield wait(sim)
            order.append((tag, "after"))

        sim.spawn(worker(sim, "a", lambda sim: sim.timeout(0)))
        sim.spawn(worker(sim, "b", zero))
        sim.spawn(worker(sim, "c", lambda sim: sim.timeout(0)))
        sim.run()
        assert sim.now == 0
        return order, sim.total_dispatched

    bare = drive(lambda sim: 0)
    assert bare == drive(lambda sim: sim.timeout(0))
    assert bare == ([("a", "start"), ("b", "start"), ("c", "start"),
                     ("a", "after"), ("b", "after"), ("c", "after")], 6)


def test_negative_delay_raises_inside_the_process():
    sim = Simulator()

    def careful(sim):
        try:
            yield -1
        except ValueError:
            yield 5  # the process is alive and can go on waiting
            return sim.now

    def careless(sim):
        yield 3
        yield -7

    p = sim.spawn(careful(sim))
    q = sim.spawn(careless(sim))
    sim.run()
    assert p.value == 5
    assert isinstance(q.exception, ValueError) and "-7" in str(q.exception)


@pytest.mark.parametrize("instrumented", [False, True])
def test_a_run_of_delays_costs_one_dispatch_each(instrumented):
    sim = Simulator()

    def worker(sim):
        for _ in range(50):
            yield 1

    sim.spawn(worker(sim))
    sim.run(max_events=10**6 if instrumented else None)
    assert sim.now == 50 and sim.total_dispatched == 51
