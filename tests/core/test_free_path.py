"""The one-round-trip free path: ack at unreachability, quarantine, scrub.

``gfree`` removes the directory record, quarantines the extent with its lock
index and replies; a scrubber per home server sends one coalesced ``scrub``
at a time and only its reply makes the extents allocatable again.  The
invariant every test here ends on (``Master.check_extents``): *an extent is
allocated, quarantined, or free — never two, never none*.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import ClientError, RetryableError
from repro.core import server as server_module
from repro.core.addressing import offset_of
from repro.core.protocol import CACHE_TAG_BYTES, pack_cache_tag
from repro.hardware.specs import TEST_NVM
from repro.rdma.rpc import RpcError
from repro.sim.units import KIB

from tests.core.conftest import FUZZ_MAX_EVENTS, build_pool, fast_config, journal_entries

FF = b"\xff"
small_journal = journal_entries(64)


def spy(server, method=None, delay_ns=0, times=None):
    """Record the requests ``server`` handles (``method`` only, or every
    method as ``(name, request)``; arrival times into ``times``), optionally
    holding each for a while."""
    calls = []

    def wrap(name, real):
        def wrapped(request):
            calls.append(request if method else (name, request))
            if times is not None:
                times.append(server.sim.now)
            if delay_ns:
                yield delay_ns
            return (yield from real(request))
        return wrapped

    handlers = server.rpc._handlers
    for name in ([method] if method else list(handlers)):
        handlers[name] = wrap(name, handlers[name])
    return calls


def settle(pool):
    """Run until every quarantine has drained."""
    for master in pool.masters:
        while master.quarantined:
            (drained,) = pool.run(master.settle_frees())
            assert drained, "a quarantine cannot drain: server unreachable"


def assert_clean(pool):
    for master in pool.masters:
        assert [str(v) for v in master.check_extents()] == []


def assert_all_free(pool):
    settle(pool)
    assert_clean(pool)
    for master in pool.masters:
        assert len(master.directory) == 0
        for handle in master._servers.values():
            assert handle.allocator.allocated_bytes == 0
            assert sorted(handle._lock_free) == list(range(handle._lock_next))


def nvm_bytes(pool, gaddr, size):
    server = pool.server_for(gaddr)
    return bytes(server.data_device.peek(offset_of(gaddr), size))


def alloc_dirty(client, size):
    gaddr = yield from client.gmalloc(size)
    yield from client.gwrite(gaddr, FF * size)
    yield from client.gsync()
    return gaddr


# ---------------------------------------------------------------------------
# The protocol itself
# ---------------------------------------------------------------------------
def test_gfree_is_one_round_trip_and_the_scrub_runs_behind_it():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client, master = pool.clients[0], pool.master
    handle = master._servers[0]
    scrubs = spy(pool.servers[0], "scrub")

    def app(sim):
        gaddr = yield from alloc_dirty(client, 1024)
        yield from client.gfree(gaddr)
        # Acked: gone from the directory, not yet allocatable.
        assert gaddr not in master.directory
        assert handle.quarantine == [(offset_of(gaddr), 1024, 0)]
        assert handle.allocator.allocated_bytes == 1024
        assert master.check_extents() == []
        return gaddr

    (gaddr,) = pool.run(app(sim))
    settle(pool)
    assert scrubs == [{"extents": [(offset_of(gaddr), 1024)]}]
    assert nvm_bytes(pool, gaddr, 1024) == bytes(1024)
    assert handle.scrubber is None  # gone once the quarantine drained
    assert pool.describe()["master"]["quarantine_peak"] == 1
    assert_all_free(pool)


def test_idle_master_sends_one_scrub_per_free():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    scrubs = spy(pool.servers[0], "scrub")

    def one(sim):
        gaddr = yield from alloc_dirty(client, 256)
        yield from client.gfree(gaddr)

    for _ in range(4):
        pool.run(one(sim))
        settle(pool)
    assert [len(s["extents"]) for s in scrubs] == [1, 1, 1, 1]
    assert_all_free(pool)


def test_frees_during_a_scrub_coalesce_into_one_follow_up():
    """Group commit: whatever accumulated while the previous scrub was in
    flight rides the next one — no timer, no threshold."""
    n = 4
    sim, pool = build_pool(num_servers=1, num_clients=n + 1)
    scrubs = spy(pool.servers[0], "scrub", delay_ns=100_000)
    addrs = pool.run(*(alloc_dirty(c, 512) for c in pool.clients))

    def free_at(client, gaddr, at_ns):
        yield at_ns
        yield from client.gfree(gaddr)

    pool.run(*(free_at(c, g, 0 if i == 0 else 20_000)
               for i, (c, g) in enumerate(zip(pool.clients, addrs))))
    assert len(scrubs) == 1 and len(pool.master._servers[0].quarantine) == n + 1
    settle(pool)
    assert [len(s["extents"]) for s in scrubs] == [1, n]
    assert sorted(scrubs[1]["extents"]) == sorted(
        (offset_of(g), 512) for g in addrs[1:])
    assert pool.describe()["master"]["quarantine_peak"] == n + 1
    assert_all_free(pool)


def test_full_pool_freed_and_reallocated_back_to_back():
    """The wait-for-scrubber rule: freed space still in quarantine is not
    OutOfMemory, for extents and for the lock table alike."""
    size = 4 * KIB
    for nvm, locks in ((TEST_NVM.with_capacity(64 * KIB), 1024),
                       (TEST_NVM, 16)):
        sim, pool = build_pool(num_servers=2, num_clients=1, nvm=nvm,
                               config=fast_config(lock_table_entries=locks))
        client = pool.clients[0]

        def fill(sim):
            addrs = []
            while True:
                try:
                    gaddr = yield from client.gmalloc(size)
                except RpcError as exc:
                    assert "OutOfMemory" in str(exc)
                    return addrs
                data = yield from client.gread(gaddr)
                assert data == bytes(size)
                yield from client.gwrite(gaddr, FF * size)
                addrs.append(gaddr)

        def free_all(sim, addrs):
            yield from client.gsync()
            for gaddr in addrs:
                yield from client.gfree(gaddr)

        (first,) = pool.run(fill(sim))
        assert len(first) == 32
        pool.run(free_all(sim, first))
        (second,) = pool.run(fill(sim))  # no settle in between
        assert sorted(second) == sorted(first)
        assert_clean(pool)
        pool.run(free_all(sim, second))
        assert_all_free(pool)


def test_freeing_a_cached_object_costs_the_same_single_message():
    """No ``demote`` on the free path: the scrub is where a dead object's
    cache slot goes."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client, master, server = pool.clients[0], pool.master, pool.servers[0]
    handle = master._servers[0]
    cached_before = master.directory.cached_bytes(0)

    def before(sim):
        gaddr = yield from alloc_dirty(client, 1024)
        yield from master.pin(gaddr)
        return gaddr

    (gaddr,) = pool.run(before(sim))
    entry = server.cached[gaddr]
    assert master.directory.cached_bytes(0) == cached_before + 1024
    live_tag = bytes(server.cache_mr.peek(entry.cache_offset, CACHE_TAG_BYTES))
    assert live_tag == pack_cache_tag(gaddr)

    calls = spy(server)
    real_free = handle.allocator.free

    def free_checked(offset):
        # Slot and tag are gone before the extent is allocatable.
        assert gaddr not in server.cached
        assert server.cache_alloc.allocated_bytes == 0
        real_free(offset)

    handle.allocator.free = free_checked
    pool.run(client.gfree(gaddr))
    settle(pool)
    assert [name for name, _ in calls] == ["scrub"]
    assert bytes(server.cache_mr.peek(entry.cache_offset, CACHE_TAG_BYTES)) \
        == pack_cache_tag(0, flags=0)
    assert master.directory.cached_bytes(0) == cached_before
    assert server.demotions.count == 1
    del handle.allocator.free
    assert_all_free(pool)


# ---------------------------------------------------------------------------
# Failure rules
# ---------------------------------------------------------------------------
def test_gfree_while_home_server_is_down_journal_off():
    """The free is acked and the extent waits in quarantine; the restart
    hook restarts the scrubber.  (On the parent the free failed retryable,
    the retry hit ``unknown object`` and the extent leaked.)"""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client, master = pool.clients[0], pool.master
    handle = master._servers[0]
    (gaddr,) = pool.run(alloc_dirty(client, 1024))
    pool.servers[0].crash()
    pool.run(client.gfree(gaddr))
    sim.run(until=sim.now + 1_000_000)  # the scrub fails; the batch stays
    assert handle.quarantine == [(offset_of(gaddr), 1024, 0)]
    assert handle.scrubber is None
    assert len(master.directory) == 0
    assert_clean(pool)
    pool.servers[0].recover()
    master.on_server_recovered(0)
    assert handle.scrubber is not None
    settle(pool)
    assert nvm_bytes(pool, gaddr, 1024) == bytes(1024)
    assert_all_free(pool)


def test_gfree_while_home_server_is_down_journal_on():
    """A failed FREE append leaves the object fully live; the retry after
    recovery succeeds."""
    cfg = fast_config(metadata_journal=True)
    sim, pool = build_pool(num_servers=1, num_clients=1, config=cfg)
    client, master = pool.clients[0], pool.master
    (gaddr,) = pool.run(alloc_dirty(client, 1024))
    pool.servers[0].crash()
    with pytest.raises(RetryableError):
        pool.run(client.gfree(gaddr))
    assert gaddr in master.directory and master.quarantined == 0
    assert_clean(pool)
    pool.servers[0].recover()
    master.on_server_recovered(0)
    pool.run(client.gfree(gaddr))
    assert_all_free(pool)
    assert nvm_bytes(pool, gaddr, 1024) == bytes(1024)


def test_scrub_straddling_a_reset_frees_nothing_into_the_new_allocator():
    cfg = fast_config(metadata_journal=True)
    sim, pool = build_pool(num_servers=1, num_clients=1, config=cfg)
    client, master = pool.clients[0], pool.master
    handle = master._servers[0]
    scrubs = spy(pool.servers[0], "scrub", delay_ns=50_000)

    def before(sim):
        dead = yield from alloc_dirty(client, 1024)
        kept = yield from alloc_dirty(client, 1024)
        yield from client.gfree(dead)
        return dead, kept

    ((dead, kept),) = pool.run(before(sim))
    straddler = handle.scrubber
    assert straddler is not None and straddler.is_alive
    master.reset_volatile_state()
    assert handle.quarantine == [] and handle.scrubber is None
    pool.run(master.rebuild())
    # Replay re-derived the quarantine; its scrubber is a new process.
    assert handle.quarantine == [(offset_of(dead), 1024, None)]
    assert handle.scrubber is not straddler
    settle(pool)
    assert not straddler.is_alive and len(scrubs) == 2
    assert_clean(pool)
    assert handle.allocator.allocated_bytes == 1024
    assert nvm_bytes(pool, kept, 1024) == FF * 1024
    pool.run(client.gfree(kept))
    assert_all_free(pool)


def test_rebuild_requarantines_journaled_frees_the_old_master_never_scrubbed():
    """A master that died between the FREE append and the scrub used to
    leave a dirty extent allocatable; replay now sends one coalesced scrub
    per server."""
    cfg = fast_config(metadata_journal=True)
    sim, pool = build_pool(num_servers=2, num_clients=1, config=cfg)
    client, master = pool.clients[0], pool.master
    scrubs = {sid: spy(s, "scrub") for sid, s in pool.servers.items()}
    master._kick_scrubber = lambda *a, **kw: None  # dies before any scrub

    def before(sim):
        addrs = []
        for _ in range(6):
            addrs.append((yield from alloc_dirty(client, 512)))
        for gaddr in addrs[:4]:
            yield from client.gfree(gaddr)
        return addrs

    (addrs,) = pool.run(before(sim))
    del master._kick_scrubber
    assert all(nvm_bytes(pool, g, 512) == FF * 512 for g in addrs)
    master.reset_volatile_state()
    (live,) = pool.run(master.rebuild())
    assert live == 2 and master.quarantined == 4
    assert_clean(pool)
    settle(pool)
    assert [len(calls) for calls in scrubs.values()] == [1, 1]
    assert all(nvm_bytes(pool, g, 512) == bytes(512) for g in addrs[:4])
    assert all(nvm_bytes(pool, g, 512) == FF * 512 for g in addrs[4:])

    def after(sim):
        for _ in range(4):  # the freed addresses come back, as zeros
            gaddr = yield from client.gmalloc(512)
            assert gaddr in addrs[:4]
            assert (yield from client.gread(gaddr)) == bytes(512)
            addrs.append(gaddr)
        for gaddr in addrs[4:]:
            yield from client.gfree(gaddr)

    pool.run(after(sim))
    assert_all_free(pool)


def test_reshard_carries_the_quarantine_in_flight_batch_included():
    cfg = fast_config(num_master_shards=2)
    sim, pool = build_pool(num_servers=2, num_clients=1, config=cfg)
    client = pool.clients[0]
    exporter, adopter = pool.masters[1], pool.masters[0]
    arrived = []
    scrubs = spy(pool.servers[1], "scrub", delay_ns=50_000, times=arrived)

    def before(sim):
        addrs, others = [], []
        while len(addrs) < 3:
            gaddr = yield from alloc_dirty(client, 256)
            home = pool.server_for(gaddr)
            (addrs if home is pool.servers[1] else others).append(gaddr)
        for i, gaddr in enumerate(addrs):
            yield from client.gfree(gaddr)
            if i == 0:
                yield 10_000  # the first scrub is in flight, alone
        return addrs, others

    ((addrs, others),) = pool.run(before(sim))
    old = exporter._servers[1]
    straddler = old.scrubber
    assert len(scrubs) == 1 and len(old.quarantine) == 3
    pool.reshard(1, 0)
    new = adopter._servers[1]
    assert old.quarantine == [] and old.scrubber is None
    assert len(new.quarantine) == 3 and new.scrubber is not None
    assert_clean(pool)
    settle(pool)
    # The adopter's scrub waited for the exporter's and redid its batch.
    assert not straddler.is_alive
    assert [len(s["extents"]) for s in scrubs] == [1, 3]
    assert arrived[1] > arrived[0] + 50_000
    assert all(nvm_bytes(pool, g, 256) == bytes(256) for g in addrs)
    assert new.allocator.allocated_bytes == 0
    pool.run(*(client.gfree(g) for g in others))
    assert_all_free(pool)


def test_stale_term_scrub_is_rejected_like_a_stale_journal_append():
    """A deposed master's late scrub can never zero an extent its successor
    re-allocated: the scrub carries the term."""
    cfg = fast_config(metadata_journal=True, master_terms=True)
    sim, pool = build_pool(num_servers=1, num_clients=1, config=cfg)
    client, master, server = pool.clients[0], pool.master, pool.servers[0]
    scrubs = spy(server, "scrub")
    (gaddr,) = pool.run(alloc_dirty(client, 512))
    master._kick_scrubber = lambda *a, **kw: None
    pool.run(client.gfree(gaddr))
    del master._kick_scrubber
    server._term_max = master.term + 1  # a successor claimed meanwhile
    scrubber = master._kick_scrubber(master._servers[0])
    sim.run_until_complete(scrubber)
    assert scrubs == [{"extents": [(offset_of(gaddr), 512)],
                       "term": master.term}]
    assert master._deposed and master.depositions.count == 1
    assert nvm_bytes(pool, gaddr, 512) == FF * 512  # nothing was zeroed
    assert master.quarantined == 1 and master._servers[0].scrubber is None
    assert_clean(pool)
    # Same check, same message as the journal path.
    errors = []
    for what in (server._handle_scrub, server._handle_journal_append):
        with pytest.raises(Exception) as info:
            next(what({"term": master.term, "extents": []}))
        errors.append(str(info.value))
    assert errors[0] == errors[1] and "stale master term" in errors[0]


def test_scrub_span_and_quarantine_level_exist_only_when_instrumented(
        monkeypatch):
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def boom(*args, **kwargs):
        raise AssertionError("instrumentation touched on the disabled path")

    def one(sim):
        gaddr = yield from alloc_dirty(client, 640)
        yield from client.gfree(gaddr)

    with monkeypatch.context() as off:
        off.setattr("repro.obs.spans.SpanRecorder.record", boom)
        off.setattr("repro.obs.spans.SpanRecorder.event", boom)
        pool.run(one(sim))
        settle(pool)
    assert "master.quarantine" not in set(sim.metrics.names())
    rec = obs.install(sim)
    pool.run(one(sim))
    settle(pool)
    spans = [s for s in rec.spans if s.name == "master.scrub"]
    assert [(s.fields["extents"], s.fields["bytes"]) for s in spans] \
        == [(1, 640)]
    level = sim.metrics.level("master.quarantine")
    assert level.peak == 1 and level.level == 0
    assert_all_free(pool)


# ---------------------------------------------------------------------------
# Everything at once
# ---------------------------------------------------------------------------
_STEP = st.one_of(
    st.tuples(st.just("ops"),
              st.lists(st.sampled_from(["alloc", "alloc", "free", "idle"]),
                       min_size=4, max_size=4)),
    st.tuples(st.sampled_from(["crash", "recover", "restart", "reshard"]),
              st.integers(0, 1)),
)


@given(steps=st.lists(_STEP, min_size=4, max_size=18),
       num_clients=st.integers(1, 4), num_servers=st.integers(1, 2),
       seed=st.integers(0, 20), journal=st.booleans())
@settings(max_examples=60, deadline=None)
def test_fuzz_every_fresh_allocation_reads_zeros_and_no_extent_is_lost(
        steps, num_clients, num_servers, seed, journal):
    """Interleaved gmalloc / gwrite 0xFF / gfree from 1-4 clients over 1-2
    servers with server crash/recover, master reset+rebuild (journal on) and
    reshards mid-stream: every fresh allocation reads zeros, the extent
    invariant holds after every step, and at the end every extent is
    allocatable."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(server_module, "JOURNAL_ENTRIES", 1024)
        churn(steps, num_clients, num_servers, seed, journal)


def churn(steps, num_clients, num_servers, seed, journal):
    size = 192
    cfg = fast_config(metadata_journal=journal,
                      num_master_shards=num_servers)
    sim, pool = build_pool(seed=seed, num_servers=num_servers,
                           num_clients=num_clients, config=cfg,
                           max_events=FUZZ_MAX_EVENTS)
    live = {c.name: [] for c in pool.clients}
    down = set()

    def op(client, kind):
        mine = live[client.name]
        try:
            if kind == "alloc":
                gaddr = yield from client.gmalloc(size)
                mine.append(gaddr)
                data = yield from client.gread(gaddr)
                assert data == bytes(size), f"{gaddr:#x} is not fresh"
                yield from client.gwrite(gaddr, FF * size)
                yield from client.gsync()
            elif kind == "free" and mine:
                gaddr = mine[0]
                yield from client.gfree(gaddr)
                mine.remove(gaddr)
        except (RetryableError, ClientError):
            assert down, "an op failed with every server up"

    def owner_of(sid):
        return next(m for m in pool.masters if sid in m._servers)

    def recover(sid):
        pool.servers[sid].recover()
        owner_of(sid).on_server_recovered(sid)
        pool.run(*(c.reattach_server(sid) for c in pool.clients))
        down.discard(sid)

    for kind, arg in steps:
        sid = arg % num_servers if kind != "ops" else None
        if kind == "ops":
            pool.run(*(op(c, k) for c, k in zip(pool.clients, arg)))
        elif kind == "crash" and sid not in down:
            pool.servers[sid].crash()
            down.add(sid)
        elif kind == "recover" and sid in down:
            recover(sid)
        elif kind == "restart" and journal and not down:
            master = pool.masters[arg % num_servers]
            master.reset_volatile_state()
            pool.run(master.rebuild())
        elif kind == "reshard" and num_servers == 2:
            pool.reshard(sid, 1 - owner_of(sid).shard_id)
        assert_clean(pool)

    for sid in sorted(down):
        recover(sid)
    settle(pool)
    assert_clean(pool)
    held = sum(len(v) for v in live.values())
    assert sum(len(m.directory) for m in pool.masters) == held

    def free_mine(client):
        while live[client.name]:
            yield from op(client, "free")

    pool.run(*(free_mine(c) for c in pool.clients))
    assert_all_free(pool)
    # ...and allocatable: the space is really back.
    (gaddr,) = pool.run(pool.clients[0].gmalloc(size))
    assert nvm_bytes(pool, gaddr, size) == bytes(size)
