"""Serial ``gread`` and batched ``gread_many`` share one read rule.

Each case below builds a pool state twice, identically seeded, and reads
one object in it: once through ``gread``, once through ``gread_many``.  The
two must return the same bytes (or fail with the same error type) and move
the read counters by the same amounts.  A cache slot found holding another
object's tag is a metadata miss whose size the stale metadata gives: the NVM
home is READ beside the lookup (a READ-ahead, with the metadata cache on or
off), and those bytes stand only when the lookup returns that size,
otherwise the read runs again on the fresh metadata (the recycled case).

The ``miss_*`` cases read an object whose metadata the reader does not hold
but whose size its last two lookups agreed on: its NVM home is READ beside
the lookup, unless the overlay holds a write of it, and those bytes stand
unless they fall short of the object, a write of it is staged during the
flight or the lookup fails.
"""

import pytest

from repro.core.errors import ClientError, FatalError
from repro.core.metacache import MetaCache
from repro.core.protocol import MAX_TRANSFER
from repro.rdma.rpc import RpcError

from tests.core.conftest import build_pool, fast_config

COUNTERS = ("cache_hits", "nvm_reads", "tag_misses", "overlay_hits",
            "read_aheads", "read_ahead_drops")


def _write(client, gaddr, data, sync=True):
    yield from client.gwrite(gaddr, data)
    if sync:
        yield from client.gsync()


def _object(pool, client, size, sync=True):
    """Allocate and fill one object; returns its address."""
    def make(sim):
        gaddr = yield from client.gmalloc(size)
        yield from _write(client, gaddr, bytes(i % 251 for i in range(size)),
                          sync)
        return gaddr

    (gaddr,) = pool.run(make(pool.sim))
    return gaddr


def _cached(pool, client, gaddr):
    """Pin ``gaddr`` into DRAM and let ``client`` learn it from a report."""
    pool.run(pool.master.pin(gaddr))
    pool.run(client._send_report())
    assert client._metas.get(gaddr).cached


def cache_hit(pool, a, b, c):
    gaddr = _object(pool, a, 128)
    _cached(pool, a, gaddr)
    return gaddr


def uncached(pool, a, b, c):
    return _object(pool, a, 128)


def demoted(pool, a, b, c):
    gaddr = cache_hit(pool, a, b, c)
    master = pool.master
    pool.run(master.planner.demote(gaddr))
    return gaddr


def freed(pool, a, b, c):
    gaddr = cache_hit(pool, a, b, c)
    pool.run(b.gfree(gaddr))
    return gaddr


def recycled(pool, a, b, c):
    """a learns 0x0 (128 B) cached; b frees it, and c allocates 256 B over
    the scrubbed extent and writes all of it."""
    gaddr = cache_hit(pool, a, b, c)
    pool.run(b.gfree(gaddr))
    while pool.master.quarantined:
        pool.run(pool.master.settle_frees())
    assert _object(pool, c, 256) == gaddr == 0x0
    return gaddr


def overlay_cover(pool, a, b, c):
    return _object(pool, a, 128, sync=False)


def overlay_partial(pool, a, b, c):
    gaddr = _object(pool, a, 128)
    pool.run(a.gwrite(gaddr, b"p" * 32, offset=16))
    return gaddr


def larger_than_a_transfer(pool, a, b, c):
    return _object(pool, a, MAX_TRANSFER + 1)


def _forget(pool, client, gaddr, learn=()):
    """``client`` looks up each of ``learn`` twice (its last two lookups
    agree on their size), then forgets ``gaddr``'s metadata."""
    for other in learn:
        for _ in range(2):
            client._metas.drop(other)
            pool.run(client._metas.lookup(other))
    client._metas.drop(gaddr)


def miss_uncached(pool, a, b, c):
    gaddr = uncached(pool, a, b, c)
    _forget(pool, a, gaddr, learn=[gaddr])
    return gaddr


def miss_cached(pool, a, b, c):
    """A DRAM-cached object's first touch reads its NVM home."""
    gaddr = cache_hit(pool, a, b, c)
    _forget(pool, a, gaddr, learn=[gaddr])
    return gaddr


def miss_larger_than_the_span(pool, a, b, c):
    small = uncached(pool, a, b, c)
    gaddr = _object(pool, a, 256)
    _forget(pool, a, gaddr, learn=[small])
    return gaddr


def miss_freed(pool, a, b, c):
    gaddr = cache_hit(pool, a, b, c)
    _forget(pool, a, gaddr, learn=[gaddr])
    pool.run(b.gfree(gaddr))
    return gaddr


def miss_overlay(pool, a, b, c):
    gaddr = overlay_cover(pool, a, b, c)
    _forget(pool, a, gaddr, learn=[gaddr])
    return gaddr


def miss_without_a_span(pool, a, b, c):
    gaddr = uncached(pool, a, b, c)
    a._metas.drop(gaddr)
    return gaddr


CASES = [cache_hit, uncached, demoted, freed, recycled, overlay_cover,
         overlay_partial, larger_than_a_transfer, miss_uncached, miss_cached,
         miss_larger_than_the_span, miss_freed, miss_overlay,
         miss_without_a_span]


def _read(case, batched, **config):
    """Build ``case``'s state on a fresh pool and read its object once;
    returns the outcome and the reader's counter deltas."""
    sim, pool = build_pool(num_servers=1, num_clients=3,
                           config=fast_config(**config))
    a, b, c = pool.clients
    gaddr = case(pool, a, b, c)
    before = [getattr(a, "m_" + name).count for name in COUNTERS]

    def read(sim):
        try:
            if batched:
                return (yield from a.gread_many([gaddr]))[0]
            return (yield from a.gread(gaddr))
        except (ClientError, RpcError) as exc:
            return type(exc)

    (outcome,) = pool.run(read(sim))
    assert a._reads.scratch.idle
    return outcome, [getattr(a, "m_" + name).count - was
                     for name, was in zip(COUNTERS, before)]


@pytest.mark.parametrize("case", CASES, ids=[case.__name__ for case in CASES])
def test_gread_and_gread_many_read_alike(case):
    serial, serial_moved = _read(case, batched=False)
    batch, batch_moved = _read(case, batched=True)
    assert serial == batch
    assert dict(zip(COUNTERS, serial_moved)) == dict(zip(COUNTERS, batch_moved))


def test_a_recycled_cached_address_reads_at_its_new_size():
    """The cached path of ROADMAP item 11: the stale tag's home READ is a
    READ-ahead sized 128 B by the stale metadata; its lookup names a 256 B
    object, so those bytes are dropped and the read runs again."""
    got, moved = _read(recycled, batched=False)
    assert got == bytes(i % 251 for i in range(256))
    assert dict(zip(COUNTERS, moved)) == {
        "cache_hits": 0, "nvm_reads": 1, "tag_misses": 1, "overlay_hits": 0,
        "read_aheads": 1, "read_ahead_drops": 1}


@pytest.mark.parametrize("batched", [False, True], ids=["gread", "gread_many"])
def test_a_freed_object_fails_typed(batched):
    """The master's "unknown object" reply reaches the caller as a
    :class:`ClientError`, as every verb failure does."""
    outcome, _ = _read(freed, batched)
    assert isinstance(outcome, type) and issubclass(outcome, ClientError)


#: What each miss case's read moves: the READ-ahead's bytes stand (one NVM
#: read, a DRAM-cached object's too), or are dropped and the read runs as
#: on a hit.
MISS_MOVES = {
    miss_uncached: {"nvm_reads": 1, "read_aheads": 1},
    miss_cached: {"nvm_reads": 1, "read_aheads": 1},
    miss_larger_than_the_span: {"nvm_reads": 1, "read_aheads": 1,
                                "read_ahead_drops": 1},
    miss_freed: {"read_aheads": 1, "read_ahead_drops": 1},
    miss_overlay: {"overlay_hits": 1},
    miss_without_a_span: {"nvm_reads": 1},
}


@pytest.mark.parametrize("case", list(MISS_MOVES),
                         ids=[case.__name__ for case in MISS_MOVES])
def test_a_miss_reads_ahead_and_keeps_what_covers_the_object(case):
    got, moved = _read(case, batched=False)
    want = dict.fromkeys(COUNTERS, 0)
    want.update(MISS_MOVES[case])
    assert dict(zip(COUNTERS, moved)) == want
    if case is miss_freed:
        assert isinstance(got, type) and issubclass(got, FatalError)
    else:
        size = 256 if case is miss_larger_than_the_span else 128
        assert got == bytes(i % 251 for i in range(size))


@pytest.mark.parametrize("case", [miss_cached, miss_overlay],
                         ids=["cached", "overlay"])
def test_a_miss_returns_what_a_read_after_the_lookup_returns(case):
    """The cached object's NVM home and the overlay's staged bytes are what
    the read returns with no READ-ahead (a reader with no agreed size)."""
    def without_span(pool, a, b, c):
        gaddr = case(pool, a, b, c)
        a._metas._sizes = (None, None)
        return gaddr

    ahead, _ = _read(case, batched=False)
    plain, moved = _read(without_span, batched=False)
    assert moved[COUNTERS.index("read_aheads")] == 0
    assert ahead == plain


@pytest.mark.parametrize("batched", [False, True], ids=["gread", "gread_many"])
@pytest.mark.parametrize("case", [miss_uncached, miss_larger_than_the_span],
                         ids=["uncached", "larger"])
def test_no_read_ahead_without_the_metadata_cache(case, batched):
    """With ``metadata_cache`` off every read looks up first, as before."""
    _, moved = _read(case, batched, metadata_cache=False)
    moved = dict(zip(COUNTERS, moved))
    assert moved["read_aheads"] == moved["read_ahead_drops"] == 0


def _race(monkeypatch, batched, during):
    """A 128 B object ``a`` wrote and forgot, with the server's drain
    stalled for 20 µs: ``a`` reads it, its lookup taking 100 µs (a loaded
    master), while the process ``during(pool, a, gaddr)`` returns runs.
    Returns the bytes read and ``a``'s READ-ahead counters."""
    sim, pool = build_pool(num_servers=1, num_clients=3)
    a, b, c = pool.clients
    gaddr = miss_uncached(pool, a, b, c)
    pool.servers[0].drain.stall(20_000)
    during = during(pool, a, gaddr)
    lookup, slowed = MetaCache.lookup, []

    def slow(self, gaddr, span_op=0):
        if not slowed:  # the read's lookup, the first from here on
            slowed.append(gaddr)
            yield 100_000
        return (yield from lookup(self, gaddr, span_op=span_op))

    monkeypatch.setattr(MetaCache, "lookup", slow)

    def read(sim):
        if batched:
            return (yield from a.gread_many([gaddr]))[0]
        return (yield from a.gread(gaddr))

    got, _ = pool.run(read(sim), during)
    assert a._reads.scratch.idle
    return got, a.m_read_aheads.count, a.m_read_ahead_drops.count


@pytest.mark.parametrize("batched", [False, True], ids=["gread", "gread_many"])
def test_a_write_pruned_during_the_lookup_is_read(monkeypatch, batched):
    """Read-your-writes across a miss: a write staged before the read began
    is in the overlay, so no READ-ahead goes out; a gsync of another process
    prunes the entry once the drain has applied it, while the lookup is
    still out, and the read after the lookup finds the write in NVM.  A
    READ-ahead would have read NVM before the drain, and no overlay entry
    would have stopped its bytes at landing."""
    new = b"w" * 128

    def staged_then_synced(pool, a, gaddr):
        pool.run(_write(a, gaddr, new, sync=False))
        a._metas.drop(gaddr)
        return a.gsync()

    assert _race(monkeypatch, batched, staged_then_synced) == (new, 0, 0)


@pytest.mark.parametrize("batched", [False, True], ids=["gread", "gread_many"])
def test_a_write_staged_during_the_flight_drops_the_read_ahead(monkeypatch,
                                                              batched):
    """A write ``a`` stages while its READ-ahead is out may not be in NVM
    yet: the bytes are dropped at landing and the overlay serves the read."""
    new = b"w" * 128

    def write_later(pool, a, gaddr):
        yield 5_000
        yield from _write(a, gaddr, new, sync=False)

    assert _race(monkeypatch, batched, write_later) == (new, 1, 1)


def _bounded(offset, length):
    """Read ``length`` bytes at ``offset`` of a 128 B object on a miss with
    no agreed size: the caller's length is the span."""
    sim, pool = build_pool(num_servers=1, num_clients=3)
    a, b, c = pool.clients
    gaddr = miss_without_a_span(pool, a, b, c)

    def read(sim):
        try:
            return (yield from a.gread(gaddr, offset, length))
        except ClientError as exc:
            return type(exc)

    (got,) = pool.run(read(sim))
    assert a._reads.scratch.idle
    return got, a.m_read_aheads.count, a.m_read_ahead_drops.count


def test_a_length_bounded_miss_reads_ahead_its_range():
    assert _bounded(16, 32) == (bytes(i % 251 for i in range(16, 48)), 1, 0)
    assert _bounded(120, 16) == (FatalError, 1, 1)


def test_a_first_touch_costs_the_longer_of_its_lookup_and_its_read():
    """A miss READs the home beside the lookup: one CPU pass, then the
    longer of the two, where a lookup used to come before the READ."""
    sim, pool = build_pool(num_servers=1, num_clients=3)
    a, b, c = pool.clients
    gaddr = miss_uncached(pool, a, b, c)

    def timed(step):
        def run(sim):
            t0 = sim.now
            yield from step()
            return sim.now - t0
        (took,) = pool.run(run(sim))
        return took

    first_touch = timed(lambda: a.gread(gaddr))
    a._metas.drop(gaddr)
    lookup = timed(lambda: a._metas.lookup(gaddr))
    hit = timed(lambda: a.gread(gaddr))  # one CPU pass and the NVM READ
    assert a.m_read_aheads.count == 1 and a.m_read_ahead_drops.count == 0
    assert max(lookup, hit) <= first_touch < lookup + hit
    # The CPU pass (in ``hit``) comes first and the two flights share a NIC.
    assert first_touch - max(lookup, hit) < a.node.spec.cpu_op_ns


@pytest.mark.parametrize("case", [miss_uncached, miss_without_a_span,
                                  miss_freed],
                         ids=["ahead", "no_span", "freed"])
def test_a_batch_looks_a_missed_address_up_once(case):
    """An address at two places of one batch is one miss: one lookup (and
    READ-ahead) serves both, as the second used to hit the first's."""
    sim, pool = build_pool(num_servers=1, num_clients=3)
    a, b, c = pool.clients
    gaddr = case(pool, a, b, c)
    lookups, aheads = a.m_lookups.count, a.m_read_aheads.count

    def read(sim):
        try:
            return (yield from a.gread_many([gaddr, gaddr]))
        except ClientError as exc:
            return type(exc)

    (got,) = pool.run(read(sim))
    assert a._reads.scratch.idle
    assert a.m_lookups.count - lookups == (case is not miss_freed)
    assert a.m_read_aheads.count - aheads == (case is not miss_without_a_span)
    if case is miss_freed:
        assert got is FatalError
    else:
        assert got == [bytes(i % 251 for i in range(128))] * 2


def _stale_without_the_metadata_cache(monkeypatch, turn, batched):
    """With ``metadata_cache`` off, ``a`` reads a 128 B object pinned into
    DRAM, and ``turn(pool, gaddr, b, c)`` makes its slot stale as ``a``'s
    first lookup returns, before the cache READ: the ``demoted`` and
    ``recycled`` cases as a reader that keeps no metadata meets them.
    Returns the outcome, ``a``'s counter deltas and the lookups it sent."""
    sim, pool = build_pool(num_servers=1, num_clients=3,
                           config=fast_config(metadata_cache=False))
    a, b, c = pool.clients
    gaddr = _object(pool, a, 128)
    pool.run(pool.master.pin(gaddr))
    lookup, sent = MetaCache.lookup, []

    def then_stale(self, looked_up, span_op=0):
        meta = yield from lookup(self, looked_up, span_op=span_op)
        if self is a._metas:
            sent.append(looked_up)
            if len(sent) == 1:
                assert meta.cached
                yield from turn(pool, gaddr, b, c)
        return meta

    monkeypatch.setattr(MetaCache, "lookup", then_stale)
    before = [getattr(a, "m_" + name).count for name in COUNTERS]

    def read(sim):
        if batched:
            return (yield from a.gread_many([gaddr]))[0]
        return (yield from a.gread(gaddr))

    (got,) = pool.run(read(sim))
    assert a._reads.scratch.idle
    moved = {name: getattr(a, "m_" + name).count - was
             for name, was in zip(COUNTERS, before)}
    return got, moved, len(sent)


def _demote(pool, gaddr, b, c):
    yield from pool.master.planner.demote(gaddr)


def _recycle(pool, gaddr, b, c):
    yield from b.gfree(gaddr)
    while pool.master.quarantined:
        yield from pool.master.settle_frees()
    assert (yield from c.gmalloc(256)) == gaddr
    yield from _write(c, gaddr, bytes(i % 251 for i in range(256)))


@pytest.mark.parametrize("batched", [False, True], ids=["gread", "gread_many"])
@pytest.mark.parametrize("turn", [_demote, _recycle],
                         ids=["demoted", "recycled"])
def test_a_stale_tag_reads_ahead_without_the_metadata_cache(monkeypatch, turn,
                                                            batched):
    """A stale tag's home READ is a READ-ahead even with ``metadata_cache``
    off, where a plain miss posts none: it flies beside the second lookup,
    and stands unless that lookup names another size."""
    got, moved, lookups = _stale_without_the_metadata_cache(
        monkeypatch, turn, batched)
    recycled = turn is _recycle
    assert got == bytes(i % 251 for i in range(256 if recycled else 128))
    assert lookups == 2
    assert moved == {"cache_hits": 0, "nvm_reads": 1, "tag_misses": 1,
                     "overlay_hits": 0, "read_aheads": 1,
                     "read_ahead_drops": int(recycled)}


def test_a_malformed_address_in_a_batch_leaves_no_scratch_lent():
    """A batch's miss lends its READ-ahead scratch before a malformed
    address later in the batch is decoded: that address gets no READ-ahead,
    its lookup fails in its miss's process, and the batch raises the
    :class:`FatalError` once the READ-ahead has landed."""
    sim, pool = build_pool(num_servers=1, num_clients=3)
    a, b, c = pool.clients
    gaddr = miss_uncached(pool, a, b, c)
    aheads = a.m_read_aheads.count

    def read(sim):
        try:
            yield from a.gread_many([gaddr, -1])
        except ClientError as exc:
            return exc

    (exc,) = pool.run(read(sim))
    assert isinstance(exc, FatalError)
    assert a.m_read_aheads.count - aheads == 1
    assert a._reads.scratch.idle


def test_a_batch_without_the_metadata_cache_resolves_its_misses_at_once():
    """With ``metadata_cache`` off every address of a batch is a miss, and
    the misses are looked up together, each in a process of its own, not
    one after another: eight cost under two lookups plus one READ."""
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(metadata_cache=False))
    (a,) = pool.clients
    gaddrs = [_object(pool, a, 128) for _ in range(8)]
    conn = a._conns[0]

    def timed(step):
        def run(sim):
            t0 = sim.now
            value = yield from step()
            return sim.now - t0, value
        (took,) = pool.run(run(sim))
        return took

    lookups = a.m_lookups.count
    t_batch, got = timed(lambda: a.gread_many(gaddrs))
    assert got == [bytes(i % 251 for i in range(128))] * 8
    assert a.m_lookups.count - lookups == 8
    t_lookup, _ = timed(lambda: a._metas.lookup(gaddrs[0]))
    t_read, _ = timed(lambda: a._reads.read(conn, conn.desc.data_rkey,
                                            gaddrs[0], 128))
    assert t_batch < 2 * t_lookup + t_read
    assert a._reads.scratch.idle
