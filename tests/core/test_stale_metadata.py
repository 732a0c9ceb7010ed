"""A client's cached metadata outlives the object it describes.

``gmalloc`` stores the new object's metadata (size, lock index) in the
allocating client's cache, and only that client's own ``gfree`` drops it.
When another client frees the object, the extent is scrubbed and handed out
again, and the first client still reads and locks the recycled address with
the old size and the old lock index.  Both tests are strict xfails until a
fix lands (ROADMAP item 11).
"""

import pytest

from tests.core.conftest import build_pool

STALE = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 11: a client reads and locks a recycled address with the "
    "metadata it cached for the freed object"))


def recycled():
    """One server, clients a, b, c: a allocates three 128 B objects, b frees
    them, the frees settle, and c allocates 256, 128 and 128 B over the
    recycled extents."""
    sim, pool = build_pool(num_servers=1, num_clients=3)
    a, b, c = pool.clients

    def alloc(client, sizes):
        gaddrs = []
        for size in sizes:
            gaddrs.append((yield from client.gmalloc(size)))
        return gaddrs

    def free(client, gaddrs):
        for gaddr in gaddrs:
            yield from client.gfree(gaddr)

    (old,) = pool.run(alloc(a, (128, 128, 128)))
    pool.run(free(b, old))
    while pool.master.quarantined:
        pool.run(pool.master.settle_frees())
    (new,) = pool.run(alloc(c, (256, 128, 128)))
    assert old == [0x0, 0x80, 0x100] and new == [0x0, 0x100, 0x180]
    return sim, pool, (a, b, c)


@STALE
def test_a_recycled_address_reads_at_its_new_size():
    sim, pool, (a, _b, c) = recycled()
    data = bytes(range(256))

    def write(sim):
        yield from c.gwrite(0x0, data)
        yield from c.gsync()

    pool.run(write(sim))
    (got,) = pool.run(a.gread(0x0))
    assert got == data


@STALE
def test_a_recycled_address_has_one_lock_holder():
    sim, pool, (a, _b, c) = recycled()
    pool.run(c.glock(0x100))
    contender = sim.spawn(a.glock(0x100))

    def wait(sim):
        yield 200_000

    pool.run(wait(sim))
    assert not contender.triggered, "a took the lock c holds"
