"""Tests for Resource, Store, TokenBucket."""

import pytest

from repro.sim import Resource, SimulationError, Simulator, Store, TokenBucket


# ---------------------------------------------------------------------------
# Resource: ``with (yield res):`` and ``yield (res, ns)``
# ---------------------------------------------------------------------------
def _bare(res, hold):
    """Take a slot, keep it ``hold`` ns, give it back: the two-yield form."""
    with (yield res):
        yield hold


def _pair(res, hold):
    """The same in one yield: the kernel holds and releases the slot."""
    yield (res, hold)


FORMS = [_bare, _pair]


def test_resource_capacity_validated():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


@pytest.mark.parametrize("form", FORMS)
def test_resource_grants_up_to_capacity_immediately(form):
    sim = Simulator()
    res = Resource(sim, capacity=2)
    for _ in range(3):
        sim.spawn(form(res, 10))
    sim.run(until=5)
    assert res.in_use == 2 and res.queued == 1
    sim.run()
    assert sim.now == 20 and res.in_use == 0 and res.queued == 0


def test_a_bare_yield_sends_the_resource_back():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def body(sim):
        with (yield res) as got:
            return got

    assert sim.run_until_complete(sim.spawn(body(sim))) is res


@pytest.mark.parametrize("form", FORMS)
def test_resource_fifo_handoff_on_release(form):
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, i):
        yield from form(res, 10)
        order.append((sim.now, i))

    for i in range(4):
        sim.spawn(worker(sim, i))
    sim.run()
    assert order == [(10, 0), (20, 1), (30, 2), (40, 3)]


def test_over_release_raises_before_it_corrupts_in_use():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError, match="over-released"):
        res.release()
    assert res.in_use == 0
    p = sim.spawn(_bare(res, 1))
    sim.run()
    assert p.ok and res.in_use == 0


def test_resource_context_manager_releases_on_exception():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def failing(sim):
        with (yield res):
            yield 1
            raise RuntimeError("inside critical section")

    def follower(sim):
        with (yield res):
            return sim.now

    sim.spawn(failing(sim))
    p = sim.spawn(follower(sim))
    sim.run()
    assert p.ok and p.value == 1  # slot was freed despite the exception
    assert res.in_use == 0


@pytest.mark.parametrize("form", FORMS)
def test_resource_parallelism_matches_capacity(form):
    sim = Simulator()
    res = Resource(sim, capacity=3)
    done = []

    def worker(sim, i):
        yield from form(res, 10)
        done.append((sim.now, i))

    for i in range(6):
        sim.spawn(worker(sim, i))
    sim.run()
    # Two waves of three.
    assert [t for t, _ in done] == [10, 10, 10, 20, 20, 20]


def test_a_timed_hold_resumes_its_generator_once():
    """The pair form queues the entries of acquire-then-delay — here the
    first step and the end of the hold — and resumes the generator only for
    the second."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    resumed = []

    def body(sim):
        resumed.append(sim.now)
        got = yield (res, 7)
        resumed.append((sim.now, got, res.in_use))

    sim.spawn(body(sim))
    sim.run()
    assert resumed == [0, (7, None, 0)]  # released before the resume
    assert sim.total_dispatched == 2


def test_a_zero_hold_is_one_dispatch_like_a_zero_delay():
    def hold(sim, res):
        yield (res, 0)

    def delay(sim, res):
        yield 0

    counts = []
    for body in (hold, delay):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        sim.spawn(body(sim, res))
        sim.run()
        counts.append(sim.total_dispatched)
        assert res.in_use == 0
    assert counts == [2, 2]  # the first step, and the turn


def test_a_negative_hold_fails_at_the_yield_and_takes_no_slot():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def body(sim):
        try:
            yield (res, -1)
        except ValueError:
            return res.in_use

    assert sim.run_until_complete(sim.spawn(body(sim))) == 0


@pytest.mark.parametrize("bad", [1.5, True, None, "7"])
def test_a_hold_that_is_not_an_int_fails_the_process(bad):
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def body(sim):
        yield (res, bad)

    p = sim.spawn(body(sim))
    sim.run()
    assert isinstance(p.exception, SimulationError)
    assert res.in_use == 0


@pytest.mark.parametrize("bad", [(), (1, 2), ("r", 3), (None, 1, 2)])
def test_a_tuple_that_is_not_a_hold_fails_the_process(bad):
    sim = Simulator()

    def body(sim):
        yield bad

    p = sim.spawn(body(sim))
    sim.run()
    assert isinstance(p.exception, SimulationError)


@pytest.mark.parametrize("form", FORMS)
def test_a_resource_of_another_simulator_fails_the_process(form):
    sim = Simulator()
    foreign = Resource(Simulator(), capacity=1)
    p = sim.spawn(form(foreign, 5))
    sim.run()
    assert isinstance(p.exception, SimulationError)
    assert foreign.in_use == 0 and foreign.queued == 0


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------
def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    got = []

    def consumer(sim):
        got.append((yield store.get()))

    sim.spawn(consumer(sim))
    sim.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        got.append(((yield store.get()), sim.now))

    sim.spawn(consumer(sim))

    def producer(sim):
        yield sim.timeout(25)
        store.put("late")

    sim.spawn(producer(sim))
    sim.run()
    assert got == [("late", 25)]


def test_store_fifo_across_consumers():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, i):
        item = yield store.get()
        got.append((i, item))

    for i in range(3):
        sim.spawn(consumer(sim, i))

    def producer(sim):
        for item in "abc":
            yield sim.timeout(1)
            store.put(item)

    sim.spawn(producer(sim))
    sim.run()
    assert got == [(0, "a"), (1, "b"), (2, "c")]


def test_put_returns_nothing_and_get_is_the_store():
    """There is no put-accepted event and no get event: ``put`` never waits,
    and ``get()`` only names what a process yields."""
    sim = Simulator()
    store = Store(sim)
    assert store.put("x") is None
    assert store.get() is store
    assert sim.peek() is None  # nothing queued to say so


def test_a_store_of_another_simulator_fails_the_process():
    sim = Simulator()
    foreign = Store(Simulator())
    foreign.put("x")

    def body(sim):
        yield foreign

    p = sim.spawn(body(sim))
    sim.run()
    assert isinstance(p.exception, SimulationError)
    assert len(foreign) == 1 and not foreign._queue


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() == (False, None)
    store.put(7)
    sim.run()
    assert store.try_get() == (True, 7)


def test_store_len_tracks_items():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert len(store) == 2


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------
def test_token_bucket_burst_then_throttle():
    sim = Simulator()
    bucket = TokenBucket(sim, rate_per_ns=0.01, burst=2.0)  # 1 token / 100 ns
    times = []

    def client(sim):
        for _ in range(4):
            yield from bucket.consume(1.0)
            times.append(sim.now)

    sim.spawn(client(sim))
    sim.run()
    # First two ride the burst; the rest pace at 100 ns per token.
    assert times[0] == 0 and times[1] == 0
    assert times[2] == pytest.approx(100, abs=2)
    assert times[3] == pytest.approx(200, abs=3)


def test_token_bucket_consume_above_burst_rejected():
    sim = Simulator()
    bucket = TokenBucket(sim, rate_per_ns=1.0, burst=1.0)

    def client(sim):
        yield from bucket.consume(5.0)

    p = sim.spawn(client(sim))
    sim.run()
    assert not p.ok
    assert isinstance(p.exception, ValueError)


def test_token_bucket_refills_while_idle():
    sim = Simulator()
    bucket = TokenBucket(sim, rate_per_ns=0.01, burst=3.0)

    def client(sim):
        yield from bucket.consume(3.0)  # drain the burst
        yield sim.timeout(1000)  # long idle: fully refills (capped at burst)
        start = sim.now
        yield from bucket.consume(3.0)
        return sim.now - start

    p = sim.spawn(client(sim))
    sim.run()
    assert p.value == 0  # no extra wait after refill
