"""Tests for Resource, Store, FifoChannel, TokenBucket."""

import pytest

from repro.sim import FifoChannel, Interrupt, Resource, Simulator, Store, TokenBucket


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------
def test_resource_capacity_validated():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered and not r3.triggered
    assert res.in_use == 2 and res.queued == 1


def test_resource_fifo_handoff_on_release():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, i):
        with (yield from res.acquire()):
            order.append((sim.now, i))
            yield sim.timeout(10)

    for i in range(4):
        sim.spawn(worker(sim, i))
    sim.run()
    assert order == [(0, 0), (10, 1), (20, 2), (30, 3)]


def test_resource_release_idempotent():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    req = res.request()
    req.release()
    req.release()  # second call must be a no-op
    assert res.in_use == 0


def test_resource_context_manager_releases_on_exception():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def failing(sim):
        with (yield from res.acquire()):
            yield sim.timeout(1)
            raise RuntimeError("inside critical section")

    def follower(sim):
        with (yield from res.acquire()):
            return sim.now

    sim.spawn(failing(sim))
    p = sim.spawn(follower(sim))
    sim.run()
    assert p.ok and p.value == 1  # slot was freed despite the exception
    assert res.in_use == 0


def test_resource_parallelism_matches_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=3)
    done = []

    def worker(sim, i):
        with (yield from res.acquire()):
            yield sim.timeout(10)
            done.append((sim.now, i))

    for i in range(6):
        sim.spawn(worker(sim, i))
    sim.run()
    # Two waves of three.
    assert [t for t, _ in done] == [10, 10, 10, 20, 20, 20]


def test_release_of_an_ungranted_request_frees_no_slot():
    """``with r.request() as req: yield req`` interrupted while queued behind
    another waiter used to release() a slot it never held: the waiter ahead
    was granted while the real holder still held (two holders, capacity 1)."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    holding = []
    peak = [0]

    def worker(sim, tag, hold):
        with res.request() as req:
            yield req
            holding.append(tag)
            peak[0] = max(peak[0], len(holding))
            yield sim.timeout(hold)
            holding.remove(tag)

    sim.spawn(worker(sim, "holder", 100))
    sim.spawn(worker(sim, "ahead", 10))
    victim = sim.spawn(worker(sim, "victim", 10))
    sim.schedule(10, victim.interrupt)
    sim.run(until=15)
    assert holding == ["holder"]  # not also "ahead"
    assert res.in_use == 1 and res.queued == 1
    sim.run()
    assert peak[0] == 1
    assert isinstance(victim.exception, Interrupt)
    assert res.in_use == 0 and res.queued == 0


def test_interrupted_waiter_abandons_its_queued_request():
    """The hot-path idiom ``with (yield r.request()):`` interrupted while
    queued used to leave the request in the deque; it was later granted to
    the dead process and never released, starving every later requester."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    served = []

    def worker(sim, tag):
        with (yield res.request()):
            yield sim.timeout(10)
            served.append((sim.now, tag))

    sim.spawn(worker(sim, "holder"))
    victim = sim.spawn(worker(sim, "victim"))
    sim.spawn(worker(sim, "later"))
    sim.schedule(5, victim.interrupt)
    sim.run(until=6)
    assert res.in_use == 1 and res.queued == 1  # holder, later
    sim.run()
    assert served == [(10, "holder"), (20, "later")]
    assert res.in_use == 0 and res.queued == 0


def test_interrupt_between_grant_and_delivery_returns_the_slot():
    """A request granted in the same instant its waiter is interrupted must
    not stay held by a process that will never enter the ``with``."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.request()

    def worker(sim):
        with (yield res.request()):
            yield sim.timeout(10)

    victim = sim.spawn(worker(sim))
    sim.run()

    def interrupt_then_grant():
        victim.interrupt()  # delivered first ...
        first.release()     # ... so this grant's wake-up finds nobody

    sim.schedule(1, interrupt_then_grant)
    sim.run()
    assert isinstance(victim.exception, Interrupt)
    assert res.in_use == 0 and res.queued == 0


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


def test_store_capacity_backpressure():
    sim = Simulator()
    store = Store(sim, capacity=1)
    timeline = []

    def producer(sim):
        for i in range(3):
            yield store.put(i)
            timeline.append(("put", i, sim.now))

    def consumer(sim):
        for _ in range(3):
            yield sim.timeout(10)
            item = yield store.get()
            timeline.append(("got", item, sim.now))

    sim.spawn(producer(sim))
    sim.spawn(consumer(sim))
    sim.run()
    puts = [t for op, _, t in timeline if op == "put"]
    assert puts == [0, 10, 20]  # second/third puts wait for drains


def test_interrupted_getter_leaves_the_store_queue():
    """A process interrupted while parked on ``yield store.get()`` used to
    leave its getter queued: the next put handed the item to the dead getter,
    the item was lost and a later ``get()`` starved forever."""
    sim = Simulator()
    store = Store(sim)
    got = []

    def victim(sim):
        yield store.get()
        got.append("victim")

    def consumer(sim):
        yield sim.timeout(30)
        got.append((sim.now, (yield store.get())))

    v = sim.spawn(victim(sim))
    sim.spawn(consumer(sim))
    sim.schedule(10, v.interrupt)
    sim.schedule(20, store.put, "A")
    sim.run(until=25)
    assert len(store) == 1  # "A" waits for a live getter
    sim.run()
    assert isinstance(v.exception, Interrupt)
    assert got == [(30, "A")] and len(store) == 0


def test_interrupted_blocked_putter_never_inserts_its_item():
    """The mirror case on a bounded store: an interrupted blocked
    ``put("ghost")`` used to be inserted once space freed."""
    sim = Simulator()
    store = Store(sim, capacity=1)
    store.put("first")

    def victim(sim):
        yield store.put("ghost")

    v = sim.spawn(victim(sim))
    sim.schedule(10, v.interrupt)
    sim.run()
    assert isinstance(v.exception, Interrupt)
    assert store.try_get() == (True, "first")
    assert store.try_get() == (False, None) and len(store) == 0
    # The store still works for whoever comes next.
    store.put("second")
    assert store.try_get() == (True, "second")


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
# FifoChannel
# ---------------------------------------------------------------------------
def test_channel_serialization_time():
    sim = Simulator()
    chan = FifoChannel(sim, bytes_per_ns=2.0)  # 2 B/ns
    assert chan.busy_time(100) == 50
    assert chan.busy_time(0) == 0
    assert chan.busy_time(1) == 1  # rounds up to at least 1 ns


def test_channel_transfers_queue_fifo():
    sim = Simulator()
    chan = FifoChannel(sim, bytes_per_ns=1.0)
    finished = []

    def sender(sim, i, size):
        yield from chan.transfer(size)
        finished.append((sim.now, i))

    sim.spawn(sender(sim, 0, 100))
    sim.spawn(sender(sim, 1, 50))
    sim.run()
    assert finished == [(100, 0), (150, 1)]
    assert chan.bytes_moved == 150


def test_channel_rejects_nonpositive_rate():
    sim = Simulator()
    with pytest.raises(ValueError):
        FifoChannel(sim, bytes_per_ns=0)


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
