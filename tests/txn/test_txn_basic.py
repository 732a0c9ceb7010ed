"""Transaction fundamentals: commit, abort, buffering, wait-die.

The contract under test: ``client.txn`` runs multi-object transactions
over the existing lock/write/sync primitives — locks acquired in global
address order, writes buffered until a single durable intent append marks
the commit point, per-server applies after it, everything released (and
the intent cleared) on the way out.  Abort before the commit point is a
pure no-op.
"""

import pytest

from repro.core import server as server_module
from repro.core.errors import TxnAbortedError, TxnError, TxnWaitDieError
from tests.core.conftest import build_pool, fast_config


def _alloc(pool, client, n, size=256):
    def setup(sim):
        gaddrs = []
        for _ in range(n):
            gaddrs.append((yield from client.gmalloc(size)))
            yield from client.gwrite(gaddrs[-1], b"\x00" * size)
        yield from client.gsync()
        return gaddrs

    (gaddrs,) = pool.run(setup(pool.sim))
    return gaddrs


def test_commit_applies_all_writes_atomically():
    sim, pool = build_pool(seed=1, num_servers=2, num_clients=2,
                           config=fast_config())
    c0, c1 = pool.clients
    g = _alloc(pool, c0, 2)

    def writer(sim):
        def body(txn):
            txn.write(g[0], b"a" * 256)
            txn.write(g[1], b"b" * 256)
            return txn.id
            yield  # pragma: no cover

        return (yield from c0.txn.run(g, body))

    def reader(sim):
        d0 = yield from c1.gread(g[0], length=256)
        d1 = yield from c1.gread(g[1], length=256)
        return bytes(d0), bytes(d1)

    pool.run(writer(sim))
    ((d0, d1),) = pool.run(reader(sim))
    assert d0 == b"a" * 256 and d1 == b"b" * 256
    assert sim.metrics.counter("pool.txn_commits").count == 1
    # The intent slot was cleared after the applies: no leftover records.
    assert pool.describe()["txn"]["intents_journaled"] == 1


def test_read_your_buffered_writes_and_abort_rolls_back():
    sim, pool = build_pool(seed=2, num_servers=2, num_clients=1,
                           config=fast_config())
    client = pool.clients[0]
    g = _alloc(pool, client, 2)

    def app(sim):
        txn = yield from client.txn.begin(g)
        txn.write(g[0], b"x" * 256)
        mine = yield from txn.read(g[0])
        other = yield from txn.read(g[1], length=4)
        yield from txn.abort()
        after = yield from client.gread(g[0], length=4)
        return bytes(mine), bytes(other), bytes(after)

    ((mine, other, after),) = pool.run(app(sim))
    assert mine == b"x" * 256          # buffered write served locally
    assert other == b"\x00" * 4        # untouched object reads through
    assert after == b"\x00" * 4        # abort left no trace
    assert sim.metrics.counter("pool.txn_aborts").count == 1
    assert sim.metrics.counter("pool.txn_commits").count == 0


def test_undeclared_object_is_rejected():
    sim, pool = build_pool(seed=3, num_servers=2, num_clients=1,
                           config=fast_config())
    client = pool.clients[0]
    g = _alloc(pool, client, 2)

    def app(sim):
        txn = yield from client.txn.begin([g[0]])
        with pytest.raises(TxnError, match="static 2PL"):
            txn.write(g[1], b"z")
        yield from txn.abort()

    pool.run(app(sim))


def test_wait_die_younger_contender_dies():
    sim, pool = build_pool(seed=4, num_servers=2, num_clients=2,
                           config=fast_config())
    c0, c1 = pool.clients
    g = _alloc(pool, c0, 1)
    outcome = {}

    def elder(sim):
        txn = yield from c0.txn.begin(g)
        yield sim.timeout(600_000)  # hold the lock well past the timeout
        txn.write(g[0], b"e" * 256)
        yield from txn.commit()

    def younger(sim):
        yield sim.timeout(10_000)  # strictly later begin => larger stamp
        try:
            yield from c1.txn.begin(g)
        except TxnWaitDieError as exc:
            outcome["died"] = True
            outcome["reason"] = exc.reason

    pool.run(elder(sim), younger(sim))
    assert outcome == {"died": True, "reason": "wait-die"}
    assert sim.metrics.counter("pool.txn_wait_die").count == 1
    assert sim.metrics.counter("pool.txn_commits").count == 1


def test_run_retries_wait_die_until_commit():
    sim, pool = build_pool(seed=5, num_servers=2, num_clients=2,
                           config=fast_config())
    c0, c1 = pool.clients
    g = _alloc(pool, c0, 1)

    def elder(sim):
        txn = yield from c0.txn.begin(g)
        yield sim.timeout(400_000)
        txn.write(g[0], b"1" * 256)
        yield from txn.commit()

    def younger(sim):
        yield sim.timeout(10_000)

        def body(txn):
            txn.write(g[0], b"2" * 256)
            return True
            yield  # pragma: no cover

        return (yield from c1.txn.run(g, body))

    _, committed = pool.run(elder(sim), younger(sim))
    assert committed is True
    assert sim.metrics.counter("pool.txn_commits").count == 2

    def reader(sim):
        data = yield from c0.gread(g[0], length=4)
        return bytes(data)

    (data,) = pool.run(reader(sim))
    assert data == b"2222"  # the retried younger txn applied last


def test_read_only_txn_commits_without_intent():
    sim, pool = build_pool(seed=7, num_servers=2, num_clients=1,
                           config=fast_config())
    client = pool.clients[0]
    g = _alloc(pool, client, 2)

    def app(sim):
        def body(txn):
            a = yield from txn.read(g[0], length=4)
            b = yield from txn.read(g[1], length=4)
            return bytes(a), bytes(b)

        return (yield from client.txn.run(g, body))

    ((a, b),) = pool.run(app(sim))
    assert a == b == b"\x00" * 4
    assert sim.metrics.counter("pool.txn_commits").count == 1
    assert pool.describe()["txn"]["intents_journaled"] == 0


def test_oversized_write_set_aborts_cleanly(monkeypatch):
    monkeypatch.setattr(server_module, "TXN_INTENT_SLOT_BYTES", 512)
    sim, pool = build_pool(
        seed=8, num_servers=2, num_clients=1, config=fast_config())
    client = pool.clients[0]
    g = _alloc(pool, client, 2, size=1024)

    def app(sim):
        def body(txn):
            txn.write(g[0], b"a" * 1024)
            txn.write(g[1], b"b" * 1024)
            return True
            yield  # pragma: no cover

        try:
            yield from client.txn.run(g, body)
        except TxnAbortedError as exc:
            return exc.reason
        return None

    (reason,) = pool.run(app(sim))
    assert reason == "intent"
    # The abort released everything: a fresh txn on the same set commits.
    def retry(sim):
        def body(txn):
            txn.write(g[0], b"c" * 64)
            return True
            yield  # pragma: no cover

        return (yield from client.txn.run(g, body))

    (ok,) = pool.run(retry(sim))
    assert ok is True
