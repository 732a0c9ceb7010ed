"""Fencing-epoch monotonicity across failover × force-unlock interleavings.

The fencing protocol's load-bearing invariant is that epochs only move
forward: a client fenced by the lease sweep re-attaches STRICTLY above its
retired epoch, and a master restart (which loses the epoch map) must not
hand anyone an older epoch back — ``attach`` takes the max of both views,
so the client's own copy carries the high-water mark through the outage.

These tests generate random interleavings of: a victim dying while holding
a contended lock, the lease sweep force-unlocking it, survivors hammering
the same lock throughout, and (sometimes) the master crashing and
journal-rebuilding in the middle of all that.  Whatever the weave, no
observed epoch sequence may ever regress, the restarted victim must come
back above its old epoch, and the recorded lock history must pass the
checker's epoch audit.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check import check_history
from repro.check.history import HistoryRecorder
from repro.core.errors import ClientError
from tests.core.conftest import FUZZ_MAX_EVENTS, build_pool, fast_config

_LEASE = 100_000


@given(
    seed=st.integers(0, 50),
    kill_delay=st.integers(5_000, 60_000),
    master_down=st.integers(0, 2),  # 0 = master stays up; else crash offset
    contenders=st.integers(1, 2),
)
@example(seed=7, kill_delay=12_000, master_down=1, contenders=2)
@example(seed=23, kill_delay=48_000, master_down=0, contenders=1)
@example(seed=31, kill_delay=30_000, master_down=2, contenders=2)
@settings(max_examples=12, deadline=None)
def test_fence_epochs_never_regress(seed, kill_delay, master_down,
                                    contenders):
    sim, pool = build_pool(
        seed=seed, num_servers=2, num_clients=3,
        config=fast_config(client_lease_ns=_LEASE, metadata_journal=True),
        max_events=FUZZ_MAX_EVENTS)
    recorder = HistoryRecorder(sim)
    recorder.install()
    c0, c1, victim = pool.clients
    survivors = [c0, c1][:contenders]

    def setup(sim):
        return (yield from victim.gmalloc(256))

    (g,) = pool.run(setup(sim))

    observed = {c.name: [c.fence_epoch] for c in pool.clients}

    def note(client):
        observed[client.name].append(client.fence_epoch)

    def victim_proc(sim):
        yield from victim.glock(g)
        note(victim)
        yield sim.timeout(kill_delay)
        victim.crash()
        yield sim.timeout(8 * _LEASE)  # park dead through sweep + failover

    def survivor_proc(client, lag):
        def proc(sim):
            yield sim.timeout(lag)
            acquired = 0
            while acquired < 3:
                try:
                    yield from client.glock(g)
                except ClientError:
                    yield sim.timeout(_LEASE // 2)
                    continue
                note(client)
                acquired += 1
                yield sim.timeout(2_500)
                try:
                    yield from client.gunlock(g)
                except ClientError:
                    yield sim.timeout(_LEASE // 2)
            return acquired

        return proc

    def master_chaos(sim):
        if not master_down:
            return
        # master_down=1 crashes the master BEFORE the victim's lease can
        # expire (no fence ever happens; the orphan sweep recovers the
        # lock by uid); master_down=2 crashes it AFTER the sweep fenced
        # the victim (the journaled retirement must survive the rebuild).
        yield sim.timeout(kill_delay + master_down * 70_000)
        pool.master.crash()
        yield sim.timeout(2 * _LEASE)
        pool.master.recover()
        yield from pool.master.recovery_process()

    results = pool.run(
        victim_proc(sim), master_chaos(sim),
        *(survivor_proc(c, 5_000 + 10_000 * i)(sim)
          for i, c in enumerate(survivors)))
    assert all(count == 3 for count in results[2:])

    old_epoch = max(observed[victim.name])

    def rejoin(sim):
        yield from victim.restart()
        yield from victim.glock(g)
        note(victim)
        yield from victim.gunlock(g)

    pool.run(rejoin(sim))

    # 1. The restart retires the old incarnation's epoch, so the victim
    #    comes back STRICTLY above it — also when the master crashed and
    #    lost its epoch map: the victim presents its old epoch, and the
    #    journaled retirement floor carries any fence across the rebuild.
    assert victim.fence_epoch > old_epoch
    # 2. Nobody's observed epoch sequence ever regressed.
    for name, seq in observed.items():
        assert seq == sorted(seq), f"{name} epoch regressed: {seq}"
    # 3. The recorded lock history passes the checker's epoch audit: no
    #    lock was ever acquired under an epoch below one a later holder
    #    already presented on the same word.
    recorder.uninstall()
    res = check_history(recorder.ops)
    assert res.ok, res.violations
