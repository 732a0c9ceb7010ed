"""What a pool holds in host memory: a footprint budget in tier-1.

Every client carves a proxy ring in each server's DRAM and an RPC buffer
window per connection, so what a pool *carves* grows with clients x servers
x slots.  What it should *hold* grows only with the bytes a run writes: a
simulated page is a ``bytearray`` as long as the furthest byte written into
it (``SparseBuffer``), so a 150-byte frame in a 4 KiB slot costs about 150
host bytes.  This pins the sum of ``resident_bytes`` over every device of a
16-client x 4-server x 2-shard pool after a fixed loop of object lifecycles
(alloc, write, sync, read, free), at the count measured on the code as it
stands plus 3 %.

``BUDGET`` is that count: 143,571 bytes (4,165,632, 1,017 pages, while
every touched page held a full 4 KiB).  A change that makes the simulator
hold bytes no run wrote fails here; re-measure and lower it when a change
lowers it.
"""

from repro.core import GengarConfig, GengarPool
from repro.sim import Simulator

BUDGET = 143_571
ROUNDS = 4
SIZE = 128


def _footprint():
    """Build the pool, run ``ROUNDS`` lifecycles per client, and return the
    host bytes held by every simulated device."""
    sim = Simulator(seed=7)
    pool = GengarPool.build(sim, num_servers=4, num_clients=16,
                            config=GengarConfig(num_master_shards=2))

    def lifecycles(sim, client, k):
        for i in range(ROUNDS):
            payload = bytes([(k + i) % 251]) * SIZE
            gaddr = yield from client.gmalloc(SIZE)
            yield from client.gwrite(gaddr, payload)
            yield from client.gsync()
            assert (yield from client.gread(gaddr)) == payload
            yield from client.gfree(gaddr)

    pool.run(*(lifecycles(sim, c, k) for k, c in enumerate(pool.clients)))
    return pool, sum(dev.resident_bytes for node in pool.cluster.nodes
                     for dev in (node.dram, node.nvm) if dev is not None)


def test_pool_holds_only_what_it_writes():
    pool, held = _footprint()
    snap = pool.describe()
    described = (snap["host_bytes"]["clients"] + snap["host_bytes"]["masters"]
                 + sum(s["host_bytes"]["dram"] + s["host_bytes"]["nvm"]
                       for s in snap["servers"].values()))
    assert described == held
    assert held <= BUDGET * 1.03, f"{held} host bytes, budget {BUDGET} + 3 %"
