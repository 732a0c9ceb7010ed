"""Serial ``gread`` and batched ``gread_many`` share one read rule.

Each case below builds a pool state twice, identically seeded, and reads
one object in it: once through ``gread``, once through ``gread_many``.  The
two must return the same bytes (or fail with the same error type) and move
the read counters by the same amounts.  A cache slot found holding another
object's tag is repaired from the NVM home; the repair stands only when the
lookup returns the size the READ was sized by, otherwise the read runs again
on the fresh metadata (the recycled case).
"""

import pytest

from repro.core.errors import ClientError
from repro.core.protocol import MAX_TRANSFER
from repro.rdma.rpc import RpcError

from tests.core.conftest import build_pool

COUNTERS = ("cache_hits", "nvm_reads", "tag_misses", "overlay_hits")


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


CASES = [cache_hit, uncached, demoted, freed, recycled, overlay_cover,
         overlay_partial, larger_than_a_transfer]


def _read(case, batched):
    """Build ``case``'s state on a fresh pool and read its object once;
    returns the outcome and the reader's counter deltas."""
    sim, pool = build_pool(num_servers=1, num_clients=3)
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
    """The cached path of ROADMAP item 11: the repair's lookup names a
    256 B object, so the 128 bytes read from the home do not stand."""
    got, moved = _read(recycled, batched=False)
    assert got == bytes(i % 251 for i in range(256))
    assert dict(zip(COUNTERS, moved)) == {
        "cache_hits": 0, "nvm_reads": 1, "tag_misses": 1, "overlay_hits": 0}


@pytest.mark.parametrize("batched", [False, True], ids=["gread", "gread_many"])
def test_a_freed_object_fails_typed(batched):
    """The master's "unknown object" reply reaches the caller as a
    :class:`ClientError`, as every verb failure does."""
    outcome, _ = _read(freed, batched)
    assert isinstance(outcome, type) and issubclass(outcome, ClientError)
