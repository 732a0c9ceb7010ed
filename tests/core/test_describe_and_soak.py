"""Tests for the operator snapshot plus a mixed-workload soak run."""

from repro.core.addressing import server_of

from tests.core.conftest import build_pool, fast_config


def test_describe_reflects_activity():
    sim, pool = build_pool(num_servers=2, num_clients=2)
    a, b = pool.clients

    def app(sim):
        g = yield from a.gmalloc(512)
        yield from a.gwrite(g, b"d" * 512)
        yield from a.gsync()
        yield from b.glock(g, write=True)
        yield from b.gunlock(g, write=True)
        return g

    pool.run(app(sim))
    snap = pool.describe()
    assert snap["objects"] == 1
    assert snap["master"]["allocations"] == 1
    assert snap["virtual_time_ns"] == sim.now
    assert set(snap["servers"]) == {"server0", "server1"}
    drained = sum(s["drained_writes"] for s in snap["servers"].values())
    assert drained == 1
    assert all(s["alive"] for s in snap["servers"].values())
    assert snap["clients"]["client0"]["uid"] != snap["clients"]["client1"]["uid"]
    assert snap["locks"]["acquires"] == 1
    # No journal configured: the field reports None.
    assert all(s["journal_records"] is None for s in snap["servers"].values())


def test_describe_reports_host_bytes_per_node():
    """Each server's DRAM and NVM, and the clients' and masters' totals: the
    host bytes the simulated memory holds, growing with what a run writes."""
    sim, pool = build_pool(num_servers=2, num_clients=2)
    client = pool.clients[0]
    before = pool.describe()

    def app(sim):
        g = yield from client.gmalloc(4096)
        yield from client.gwrite(g, b"d" * 4096)
        yield from client.gsync()
        return g

    (g,) = pool.run(app(sim))
    snap = pool.describe()
    home = f"server{server_of(g)}"
    grown = (snap["servers"][home]["host_bytes"]["nvm"]
             - before["servers"][home]["host_bytes"]["nvm"])
    assert grown >= 4096
    for name, server in pool.servers.items():
        assert snap["servers"][f"server{name}"]["host_bytes"] == {
            "dram": server.node.dram.resident_bytes,
            "nvm": server.node.nvm.resident_bytes}
    assert snap["host_bytes"]["clients"] == sum(
        c.node.dram.resident_bytes for c in pool.clients) > 0
    assert snap["host_bytes"]["masters"] == pool.master.node.dram.resident_bytes > 0


def test_describe_counts_journal_when_enabled():
    sim, pool = build_pool(num_servers=1, num_clients=1,
                           config=fast_config(metadata_journal=True))
    client = pool.clients[0]

    def app(sim):
        yield from client.gmalloc(64)
        yield from client.gmalloc(64)

    pool.run(app(sim))
    snap = pool.describe()
    assert snap["servers"]["server0"]["journal_records"] == 2


def test_soak_mixed_workload_stays_consistent():
    """A longer mixed run: locks, proxy writes, frees, promotions, batch
    ops, and syncs interleaved across three clients.  The final state must
    be exactly what a serial oracle of the locked counters predicts, and
    all internal accounting must balance."""
    sim, pool = build_pool(
        seed=2024, num_servers=2, num_clients=3,
        config=fast_config(cache_capacity=128 * 1024, epoch_ns=40_000,
                           report_every_ops=8, promote_threshold=1.0),
    )
    clients = pool.clients
    rounds = 12

    def setup(sim):
        counter = yield from clients[0].gmalloc(64)
        yield from clients[0].gwrite(counter, bytes(64))
        hot = yield from clients[0].gmalloc(2048)
        yield from clients[0].gwrite(hot, b"H" * 2048)
        yield from clients[0].gsync()
        return counter, hot

    ((counter, hot),) = pool.run(setup(sim))

    def worker(idx):
        client = clients[idx]
        rng = sim.rng.stream(f"soak.{idx}")
        scratch = []
        for r in range(rounds):
            # Locked increment (the oracle-checked part).
            yield from client.glock(counter, write=True)
            raw = yield from client.gread(counter, length=8)
            value = int.from_bytes(raw, "little")
            yield from client.gwrite(counter, (value + 1).to_bytes(8, "little"))
            yield from client.gunlock(counter, write=True)
            # Hot-object reads (drive promotion).
            for _ in range(4):
                data = yield from client.gread(hot, length=16)
                assert data == b"H" * 16
            # Private object churn.
            g = yield from client.gmalloc(256)
            scratch.append(g)
            yield from client.gwrite(g, bytes([idx + 1]) * 256)
            if rng.random() < 0.4 and len(scratch) > 1:
                victim = scratch.pop(0)
                yield from client.gfree(victim)
            if rng.random() < 0.3:
                yield from client.gsync()
        # Batch check of the survivors.
        values = yield from client.gread_many(scratch)
        assert all(v == bytes([idx + 1]) * 256 for v in values)

    pool.run(*[worker(i) for i in range(3)])

    def final(sim):
        yield from clients[0].gsync()
        raw = yield from clients[0].gread(counter, length=8)
        return int.from_bytes(raw, "little")

    (total,) = pool.run(final(sim))
    assert total == 3 * rounds

    snap = pool.describe()
    # Every client's session is clean after its syncs...
    for server in pool.servers.values():
        # ...and server cache accounting balances directory accounting.
        assert len(server.cached) == sum(
            1 for rec in pool.master.directory.objects()
            if rec.cached and rec.server_id == server.server_id
        )
    assert snap["locks"]["acquires"] == 3 * rounds
    # The hot object was promoted at some point during the run.
    assert pool.master.promote_ops.count >= 1
