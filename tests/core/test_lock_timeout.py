"""Bounded lock acquisition (``acquire_write(timeout_ns=...)``).

The contract: a plain ``glock`` spins until the holder lets go; an acquire
given a timeout raises a *typed* :class:`LockTimeoutError` once the word
has stayed held that long — a clean verdict (no lock state changed) that
the txn layer turns into policy by consulting wait-die stamps.  A word the
acquiring client already holds is refused at once with :class:`LockError`.
"""

import pytest

from repro.core import LockError
from repro.core.errors import LockTimeoutError
from tests.core.conftest import build_pool, fast_config

HOLD_NS = 500_000


def _alloc(pool, client):
    def setup(sim):
        return (yield from client.gmalloc(128))

    (gaddr,) = pool.run(setup(pool.sim))
    return gaddr


def _hold(client, gaddr, hold_ns=HOLD_NS):
    def holder(sim):
        yield from client.glock(gaddr)
        yield sim.timeout(hold_ns)
        yield from client.gunlock(gaddr)

    return holder


def test_acquire_timeout_raises_typed_error():
    sim, pool = build_pool(seed=1, num_servers=1, num_clients=2,
                           config=fast_config())
    c0, c1 = pool.clients
    g = _alloc(pool, c0)

    def contender(sim):
        yield sim.timeout(20_000)
        t0 = sim.now
        try:
            yield from c1.locks.acquire_write(g, timeout_ns=80_000)
        except LockTimeoutError as exc:
            return sim.now - t0, str(exc)
        return None

    _, outcome = pool.run(_hold(c0, g)(sim), contender(sim))
    assert outcome is not None
    waited, message = outcome
    assert waited >= 80_000
    assert "acquire timeout 80000 ns" in message
    assert sim.metrics.counter("pool.lock_timeouts").count == 1
    # The verdict was clean: once the holder released, the word is free.
    def after(sim):
        yield from c1.glock(g)
        yield from c1.gunlock(g)
        return True

    (ok,) = pool.run(after(sim))
    assert ok


def test_default_spins_legacy_style():
    sim, pool = build_pool(seed=2, num_servers=1, num_clients=2,
                           config=fast_config())
    c0, c1 = pool.clients
    g = _alloc(pool, c0)

    def contender(sim):
        yield sim.timeout(20_000)
        yield from c1.glock(g)
        acquired_at = sim.now
        yield from c1.gunlock(g)
        return acquired_at

    _, acquired_at = pool.run(_hold(c0, g)(sim), contender(sim))
    # No typed failure, no timeout counter — it just waited the holder out.
    assert acquired_at >= HOLD_NS
    assert sim.metrics.counter("pool.lock_timeouts").count == 0


def test_backoff_schedule_is_deterministic_per_seed():
    def run_once():
        sim, pool = build_pool(seed=7, num_servers=1, num_clients=2,
                               config=fast_config())
        c0, c1 = pool.clients
        g = _alloc(pool, c0)

        def contender(sim):
            yield sim.timeout(20_000)
            try:
                yield from c1.locks.acquire_write(g, timeout_ns=90_000)
            except LockTimeoutError:
                pass
            return sim.now

        _, t = pool.run(_hold(c0, g)(sim), contender(sim))
        return t, sim.metrics.counter("pool.lock_retries").count

    assert run_once() == run_once()  # seeded jitter, not wall-clock noise


@pytest.mark.parametrize("write", [True, False])
def test_a_holder_relocking_its_own_word_fails_instead_of_spinning(write):
    """Waiting for a word this client holds would never end: the acquire
    raises at once.  Capped, so a spinning acquire fails the test."""
    sim, pool = build_pool(seed=4, num_servers=1, num_clients=1,
                           config=fast_config())
    (client,) = pool.clients
    g = _alloc(pool, client)

    def relock(sim):
        yield from client.glock(g)
        with pytest.raises(LockError, match="already held by this client"):
            yield from client.glock(g, write=write)
        yield from client.gunlock(g)  # still held, and only once
        yield from client.glock(g)
        yield from client.gunlock(g)

    pool.run(relock(sim), max_events=20_000)
    assert sim.metrics.counter("pool.lock_retries").count == 0


def test_another_process_of_the_holding_client_waits_its_turn():
    """The word names the client, not the process: a second process of the
    holding client waits for the first to unlock, as any contender does."""
    sim, pool = build_pool(seed=5, num_servers=1, num_clients=1,
                           config=fast_config())
    (client,) = pool.clients
    g = _alloc(pool, client)

    def sibling(sim):
        yield sim.timeout(20_000)
        yield from client.glock(g)
        acquired_at = sim.now
        yield from client.gunlock(g)
        return acquired_at

    _, acquired_at = pool.run(_hold(client, g)(sim), sibling(sim))
    assert acquired_at >= HOLD_NS
    assert sim.metrics.counter("pool.lock_retries").count > 0
