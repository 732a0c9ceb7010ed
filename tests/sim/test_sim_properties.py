"""Property-based tests (hypothesis) for the simulation kernel invariants."""

from collections import deque
from heapq import heappop, heappush
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Event, Histogram, Resource, Simulator, Store


@given(delays=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_callbacks_fire_in_nondecreasing_time_order(delays):
    """Whatever the scheduling order, dispatch times never go backwards."""
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(delays=st.lists(st.integers(min_value=0, max_value=1_000), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_process_completion_time_is_sum_of_timeouts(delays):
    sim = Simulator()

    def proc(sim):
        for d in delays:
            yield sim.timeout(d)
        return sim.now

    p = sim.spawn(proc(sim))
    sim.run()
    assert p.value == sum(delays)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    hold=st.integers(min_value=1, max_value=50),
    n=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_resource_never_exceeds_capacity(capacity, hold, n):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    active = [0]
    peak = [0]

    def worker(sim):
        with (yield res):
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            yield sim.timeout(hold)
            active[0] -= 1

    for _ in range(n):
        sim.spawn(worker(sim))
    sim.run()
    assert peak[0] <= capacity
    assert active[0] == 0
    # Makespan of n jobs of length `hold` on `capacity` servers.
    expected_end = ((n + capacity - 1) // capacity) * hold
    assert sim.now == expected_end


@given(items=st.lists(st.integers(), min_size=0, max_size=50))
@settings(max_examples=60, deadline=None)
def test_store_preserves_fifo_order(items):
    sim = Simulator()
    store = Store(sim)
    received = []

    def producer(sim):
        for item in items:
            store.put(item)
            yield item % 3  # 0 is a turn: the consumer may run in between

    def consumer(sim):
        for _ in items:
            received.append((yield store))

    sim.spawn(producer(sim))
    sim.spawn(consumer(sim))
    sim.run()
    assert received == items


@given(values=st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), min_size=1, max_size=500))
@settings(max_examples=60, deadline=None)
def test_histogram_percentiles_bracketed_by_min_max(values):
    h = Histogram("x")
    for v in values:
        h.record(v)
    for p in (0, 25, 50, 75, 90, 99, 100):
        q = h.percentile(p)
        assert h.min <= q <= h.max
    assert h.percentile(100) == max(values)
    assert h.count == len(values)


@given(values=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_histogram_median_matches_sorted_definition(values):
    h = Histogram("x")
    for v in values:
        h.record(v)
    ordered = sorted(values)
    import math

    rank = max(0, min(len(ordered) - 1, math.ceil(0.5 * len(ordered)) - 1))
    assert h.p50 == ordered[rank]


# ---------------------------------------------------------------------------
# Zero-delay event elision and bare delays are order-exact: a differential test
# ---------------------------------------------------------------------------
# A random program is a list of processes, each a list of steps over shared
# Resources, Stores, a TokenBucket, bare delays, timer events, all_of and two
# broadcast gates (one event, many waiting processes).  Every
# step draws a jitter from ONE shared RNG stream and records into shared
# metrics, so any change in the order processes resume in shows up as a
# different draw, a different virtual time and a different metric snapshot.
_delay = st.integers(min_value=0, max_value=3)
_which = st.integers(min_value=0, max_value=1)
_step = st.one_of(
    st.tuples(st.just("delay"), _delay),
    st.tuples(st.just("timeout"), _delay),
    st.tuples(st.just("hold"), _which, _delay),
    st.tuples(st.just("put"), _which),
    st.tuples(st.just("put_and_turn"), _which),
    st.tuples(st.just("get"), _which),
    st.tuples(st.just("tokens"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("all_of"), _which, st.lists(_delay, max_size=3)),
    st.tuples(st.just("join"), _delay),
    st.tuples(st.just("fire_then_wait"),),
    st.tuples(st.just("jitter"),),
    # Listed more than once on purpose: a second waiter of one event is the
    # case the tail rule has to refuse, and the rarest to arise by chance.
    st.tuples(st.just("wait_gate"), _which),
    st.tuples(st.just("wait_gate"), _which),
    st.tuples(st.sampled_from(["wait_gate", "open_gate"]), _which),
    st.tuples(st.just("open_gate"), _which),
)
_programs = st.lists(st.lists(_step, min_size=1, max_size=8), min_size=1, max_size=6)


def _delays_as_timeouts(sim, generator):
    """Run ``generator`` resume for resume, but hand the kernel a
    ``sim.timeout(n)`` for every bare delay ``n`` it yields — its own and
    those of the helpers it delegates to (``TokenBucket.consume``)."""
    resume, arg = generator.send, None
    while True:
        try:
            target = resume(arg)
        except StopIteration as stop:
            return stop.value
        if type(target) is int:
            target = sim.timeout(target)
        try:
            resume, arg = generator.send, (yield target)
        except BaseException as exc:  # noqa: BLE001 - forwarded, not handled
            resume, arg = generator.throw, exc


def _run_program(program, timer_events=False):
    from repro.obs import registry_snapshot
    from repro.sim import TokenBucket
    from tests.sim.dispatch_scenario import logged_resumptions

    sim = Simulator(seed=7)
    resources = [Resource(sim, capacity=1, name="r0"), Resource(sim, capacity=2, name="r1")]
    stores = [Store(sim, name="s0"), Store(sim, name="s1")]
    bucket = TokenBucket(sim, rate_per_ns=0.5, burst=3)
    gates = [sim.event("g0"), sim.event("g1")]
    rng = sim.rng.stream("program")
    steps = sim.metrics.counter("steps")
    latency = sim.metrics.histogram("step_latency")
    running = sim.metrics.level("running")

    def spawn(generator, name):
        if timer_events:
            generator = _delays_as_timeouts(sim, generator)
        return sim.spawn(generator, name=name)

    def child(sim, delay):
        if delay:
            yield delay
        return rng.randrange(100)

    def worker(sim, ops):
        running.adjust(+1)
        for op in ops:
            start = sim.now
            kind = op[0]
            if kind == "delay":
                yield op[1]
            elif kind == "timeout":
                yield sim.timeout(op[1], value=kind)
            elif kind == "hold":
                with (yield resources[op[1]]):
                    if op[2]:
                        yield op[2]
            elif kind == "put":
                stores[op[1]].put(rng.randrange(100))
            elif kind == "put_and_turn":
                stores[op[1]].put(rng.randrange(100))
                yield 0
            elif kind == "get":
                # Park on an empty store only half the time: a parked getter
                # with no putter left ends its process's part in the run.
                if len(stores[op[1]]) or rng.random() < 0.5:
                    steps.add((yield stores[op[1]]))
            elif kind == "tokens":
                yield from bucket.consume(op[1])
            elif kind == "all_of":
                parts = [sim.timeout(d) for d in op[2]]
                stores[op[1]].put(len(parts))
                yield sim.all_of(parts)
                with (yield resources[op[1]]):
                    pass
            elif kind == "join":
                steps.add((yield spawn(child(sim, op[1]), "child")))
            elif kind == "fire_then_wait":
                ev = sim.event()
                ev.succeed(rng.randrange(100))
                steps.add((yield ev))
            elif kind == "wait_gate":
                yield gates[op[1]]
            elif kind == "open_gate":
                if not gates[op[1]].triggered:
                    gates[op[1]].succeed(rng.randrange(100))
            elif kind == "jitter":
                yield rng.randrange(3)
            steps.add(1)
            latency.record(sim.now - start)
        running.adjust(-1)

    log = []
    with logged_resumptions(log):
        procs = [spawn(worker(sim, ops), f"w{i}") for i, ops in enumerate(program)]
        sim.run(max_events=100_000)
    outcomes = [(p.triggered, p.ok) for p in procs]
    return log, sim.now, registry_snapshot(sim.metrics), outcomes, sim.total_dispatched


@given(program=_programs)
@settings(max_examples=300, deadline=None)
def test_elision_never_changes_what_a_program_does(program):
    """Run a random program three times: as shipped; with inline
    continuation switched off, so every wait that is already over takes the
    scheduled path (a bound of zero makes the tail rule's predicate false
    everywhere — the always-dispatch behaviour); and with every bare delay
    replaced by ``yield sim.timeout(n)``.  Resumption logs, final times,
    metric snapshots and process outcomes must be identical.  Elision may
    only lower the dispatch count; a timer event costs the dispatch its
    bare delay did."""
    from repro.sim import kernel

    shipped = _run_program(program)
    bound = kernel._INLINE_RUN_MAX
    kernel._INLINE_RUN_MAX = 0
    try:
        scheduled = _run_program(program)
    finally:
        kernel._INLINE_RUN_MAX = bound
    assert shipped[:4] == scheduled[:4]
    assert shipped[4] <= scheduled[4]
    assert shipped == _run_program(program, timer_events=True)


# ---------------------------------------------------------------------------
# A timed hold is acquire, delay, release: a differential test
# ---------------------------------------------------------------------------
# Random programs over 1-3 resources of capacity 1-4 run on the kernel and on
# ``_HeapScheduler`` below: one ``(time, seq)`` heap that every wake-up goes
# through (no tail rule, no elision), FIFO parking, and a timed hold's end
# pushed when its slot is taken.  Steps mix pair holds (``yield (res, ns)``),
# two-yield holds (``with (yield res): yield ns``), a pair nested in a
# ``with`` (two resources at once; lock-order deadlocks are part of the test
# and must freeze both runs alike) and bare delays.
_ns = st.integers(min_value=0, max_value=4)
_res = st.integers(min_value=0, max_value=2)
_hold_step = st.one_of(
    st.tuples(st.just("pair"), _res, _ns),
    st.tuples(st.just("pair"), _res, _ns),
    st.tuples(st.just("bare"), _res, _ns),
    st.tuples(st.just("nested"), _res, _res, _ns),
    st.tuples(st.just("delay"), _ns),
)
_hold_programs = st.tuples(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    st.lists(st.lists(_hold_step, min_size=1, max_size=6), min_size=1, max_size=6),
)


class _HeapResource:
    def __init__(self, sched, capacity):
        self.sched = sched
        self.capacity = capacity
        self.in_use = 0
        self.parked = deque()  # (generator, hold ns or None), oldest first

    @property
    def queued(self):
        return len(self.parked)

    def __enter__(self):
        return self

    def __exit__(self, *_exc_info):
        self.sched.release(self)


class _HeapScheduler:
    """The reference: every wake-up is pushed on one ``(time, seq)`` heap and
    popped in that order.  A slot is taken at the ``yield`` if one is free,
    else the process parks until a release hands it over; a bare wait is
    then woken at that instant with the resource, and a timed hold's end is
    pushed at that instant plus its ``ns`` and gives the slot back before
    the generator resumes."""

    def __init__(self):
        self.now = 0
        self.finished = set()
        self._heap = []
        self._seq = count()

    def _push(self, t, gen, value=None, ends=None):
        heappush(self._heap, (t, next(self._seq), gen, value, ends))

    def spawn(self, gen):
        self._push(self.now, gen)
        return gen

    def _grant(self, res, gen, ns):
        if ns is None:
            self._push(self.now, gen, value=res)
        else:
            self._push(self.now + ns, gen, ends=res)

    def release(self, res):
        if res.parked:
            self._grant(res, *res.parked.popleft())
        else:
            res.in_use -= 1

    def _wait(self, gen, target):
        if type(target) is int:
            self._push(self.now + target, gen)
            return
        res, ns = target if type(target) is tuple else (target, None)
        if res.in_use == res.capacity:
            res.parked.append((gen, ns))
        else:
            res.in_use += 1
            self._grant(res, gen, ns)

    def run(self):
        while self._heap:
            self.now, _seq, gen, value, ends = heappop(self._heap)
            if ends is not None:
                self.release(ends)
            try:
                self._wait(gen, gen.send(value))
            except StopIteration:
                self.finished.add(gen)


def _run_holds(capacities, program, reference=False):
    if reference:
        sim = _HeapScheduler()
        resources = [_HeapResource(sim, c) for c in capacities]
    else:
        sim = Simulator(seed=3)
        resources = [Resource(sim, capacity=c, name=f"r{i}")
                     for i, c in enumerate(capacities)]

    def pick(i):
        return resources[i % len(resources)]

    log = []

    def worker(sim, name, ops):
        for i, op in enumerate(ops):
            if op[0] == "pair":
                yield (pick(op[1]), op[2])
            elif op[0] == "bare":
                with (yield pick(op[1])):
                    yield op[2]
            elif op[0] == "nested":
                with (yield pick(op[1])):
                    yield (pick(op[2] + 1), op[3])
            else:
                yield op[1]
            log.append((sim.now, name, i, [r.in_use for r in resources],
                        [r.queued for r in resources]))

    if reference:
        procs = [sim.spawn(worker(sim, f"w{i}", ops)) for i, ops in enumerate(program)]
        sim.run()
        finished = [p in sim.finished for p in procs]
    else:
        procs = [sim.spawn(worker(sim, f"w{i}", ops), name=f"w{i}")
                 for i, ops in enumerate(program)]
        sim.run(max_events=100_000)
        finished = [p.triggered for p in procs]
    return log, sim.now, finished, [(r.in_use, r.queued) for r in resources]


@given(case=_hold_programs)
@settings(max_examples=300, deadline=None)
def test_a_timed_hold_is_acquire_delay_release(case):
    """The kernel, the kernel with inline continuation switched off (every
    bare grant through the queue), and the heap reference: identical step
    logs (time, process, slots in use and processes parked at every step
    end), final clocks, outcomes and end states, and no slot owned once
    every process has finished."""
    from repro.sim import kernel

    shipped = _run_holds(*case)
    assert shipped == _run_holds(*case, reference=True)
    if all(shipped[2]):  # nobody left parked: every slot has come back
        assert all(state == (0, 0) for state in shipped[3])
    bound = kernel._INLINE_RUN_MAX
    kernel._INLINE_RUN_MAX = 0
    try:
        assert shipped == _run_holds(*case)
    finally:
        kernel._INLINE_RUN_MAX = bound


# ---------------------------------------------------------------------------
# A store hand-off is the get event's dispatch without the event: a
# differential test
# ---------------------------------------------------------------------------
# Random programs over two stores and a resource run on the kernel-native
# ``Store`` and on ``_EventStore`` below — the ``Store`` this repo had while
# a ``get`` was an event (``put`` handing an item to a parked get event, a get
# on a non-empty store born fired), unbounded.  It queues the
# get event's ``Event._dispatch`` wherever the native store queues the taking
# process's own entry, so the two runs must agree on everything, dispatch
# counts included.
class _EventStore:
    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self._items = deque()
        self._queue = deque()  # pending get events, oldest first

    def __len__(self):
        return len(self._items)

    def put(self, item):
        if self._queue:
            self._queue.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self):
        ev = Event(self.sim, name=f"get({self.name})")
        if self._items:
            ev.succeed(self._items.popleft())  # no waiter yet: queues nothing
        else:
            self._queue.append(ev)
        return ev

    try_get = Store.try_get
    remove = Store.remove


_store_step = st.one_of(
    st.tuples(st.just("get"), _which),
    st.tuples(st.just("get"), _which),
    st.tuples(st.just("put"), _which, st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("put"), _which, st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("try_get"), _which),
    st.tuples(st.just("remove"), _which, st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("delay"), _ns),
    st.tuples(st.just("hold"), _ns),
)
_store_programs = st.lists(
    st.lists(_store_step, min_size=1, max_size=7), min_size=1, max_size=6)


def _run_stores(program, reference=False):
    sim = Simulator(seed=5)
    make = _EventStore if reference else Store
    stores = [make(sim, name="s0"), make(sim, name="s1")]
    res = Resource(sim, capacity=1, name="r")
    log = []
    put = taken = 0

    def worker(sim, name, ops):
        nonlocal put, taken
        for i, op in enumerate(ops):
            kind = op[0]
            outcome = None
            if kind == "get":
                outcome = yield stores[op[1]].get()
                taken += 1
            elif kind == "put":
                stores[op[1]].put(op[2])
                put += 1
            elif kind == "try_get":
                outcome = stores[op[1]].try_get()
                taken += outcome[0]
            elif kind == "remove":
                outcome = stores[op[1]].remove(op[2])
                taken += outcome
            elif kind == "delay":
                yield op[1]
            else:
                yield (res, op[1])
            log.append((sim.now, name, i, outcome, [list(s._items) for s in stores],
                        [len(s._queue) for s in stores]))

    procs = [sim.spawn(worker(sim, f"w{i}", ops), name=f"w{i}")
             for i, ops in enumerate(program)]
    sim.run(max_events=100_000)
    return (log, sim.now, [p.triggered for p in procs],
            [(list(s._items), len(s._queue)) for s in stores],
            (put, taken), sim.total_dispatched)


@given(case=_store_programs)
@settings(max_examples=300, deadline=None)
def test_a_store_hand_off_is_the_get_events_dispatch_without_the_event(case):
    """Native, native with inline continuation switched off (every item
    through the queue), and the event-based reference: identical step logs
    (time, process, outcome, every store's items and parked count at every
    step end), final clocks, outcomes and end states.  Native and reference
    queue the same entries, so their dispatch counts are equal too; switching
    inline continuation off may only add pass-through deliveries.  Once every
    process has finished nobody is parked in a store, and every item put has
    been taken or is still there: none was lost, none delivered twice."""
    from repro.sim import kernel

    native = _run_stores(case)
    assert native == _run_stores(case, reference=True)
    if all(native[2]):
        assert all(parked == 0 for _items, parked in native[3])
        put, taken = native[4]
        assert put == taken + sum(len(items) for items, _parked in native[3])
    bound = kernel._INLINE_RUN_MAX
    kernel._INLINE_RUN_MAX = 0
    try:
        queued = _run_stores(case)
    finally:
        kernel._INLINE_RUN_MAX = bound
    assert native[:5] == queued[:5]
    assert native[5] <= queued[5]
