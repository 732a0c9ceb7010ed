"""Sharded control plane: ownership partitioning, redirects, per-shard
failover, cross-shard lease recovery, and resharding.

The contract under test: with ``num_master_shards=N`` every home server is
owned by exactly one master shard; object ops land only at the owning
shard (a misrouted op gets a typed ``NotMyShard`` redirect carrying the
owner and map epoch, never a silent wrong-shard apply); idempotency dedup
is keyed by (client uid, req_id) *inside* the owning shard and travels
with a reshard; terms, leases, and failover are per shard — one shard's
failover must not stale another shard's replies or strand a dead client's
locks on it.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NotMyShard, RetryableError, server_of
from repro.faults import ClientCrash, FaultPlan, MasterCrash, MasterRecover

from tests.core.conftest import FUZZ_MAX_EVENTS, build_pool, fast_config, journal_entries

LEASE = 100_000
small_journal = journal_entries(64)


def shard_config(**overrides):
    defaults = dict(num_master_shards=2, metadata_journal=True)
    defaults.update(overrides)
    return fast_config(**defaults)


# ----------------------------------------------------------------------
# Ownership partitioning + routing
# ----------------------------------------------------------------------
def test_sharded_build_partitions_server_ownership():
    sim, pool = build_pool(num_servers=4, num_clients=1,
                           config=shard_config())
    owners = pool.describe()["shards"]["owners"]
    assert owners == {"master": [0, 2], "master_s1": [1, 3]}
    owned_sets = [set(m._servers) for m in pool.masters]
    assert owned_sets[0] & owned_sets[1] == set()
    assert owned_sets[0] | owned_sets[1] == set(pool.servers)


def test_allocations_spread_across_all_shards_servers():
    sim, pool = build_pool(num_servers=4, num_clients=1,
                           config=shard_config())
    client = pool.clients[0]

    def alloc(sim):
        addrs = []
        for _ in range(16):
            addrs.append((yield from client.gmalloc(64)))
        return addrs

    (addrs,) = pool.run(alloc(sim))
    assert {server_of(g) for g in addrs} == {0, 1, 2, 3}
    # Each object's metadata lives in exactly one shard's directory — the
    # one owning its home server.
    for g in addrs:
        holders = [m for m in pool.masters if g in m.directory]
        assert len(holders) == 1
        assert server_of(g) in holders[0]._servers


def test_cross_shard_free_and_lookup_route_to_the_owner():
    sim, pool = build_pool(num_servers=4, num_clients=1,
                           config=shard_config())
    client = pool.clients[0]

    def scenario(sim):
        addrs = []
        for _ in range(8):
            addrs.append((yield from client.gmalloc(128)))
        for g in addrs:
            yield from client.gwrite(g, b"S" * 128)
        client._meta_cache.clear()
        client._meta_epoch.clear()
        reads = []
        for g in addrs:  # forces a lookup at the owning shard
            reads.append((yield from client.gread(g)))
        for g in addrs:
            yield from client.gfree(g)
        return reads

    (reads,) = pool.run(scenario(sim))
    assert all(r == b"S" * 128 for r in reads)
    assert sum(len(m.directory) for m in pool.masters) == 0
    assert client.m_shard_redirects.count == 0  # map was accurate throughout


def test_misrouted_op_gets_typed_redirect_and_heals_the_map():
    sim, pool = build_pool(num_servers=4, num_clients=1,
                           config=shard_config())
    client = pool.clients[0]

    def alloc(sim):
        while True:
            g = yield from client.gmalloc(64)
            if server_of(g) == 1:
                return g

    (target,) = pool.run(alloc(sim))
    pool.reshard(1, 0)  # server 1 moves shard1 -> shard0 behind the client
    client._meta_cache.clear()
    client._meta_epoch.clear()

    def use(sim):
        data = yield from client.gread(target)  # lookup redirects + retries
        yield from client.gfree(target)
        return data

    pool.run(use(sim))
    assert client.m_shard_redirects.count >= 1
    assert client._shard_map[1] == 0
    assert client._shard_map_epoch == 1


def test_misrouted_op_without_retry_budget_raises_not_my_shard():
    sim, pool = build_pool(num_servers=2, num_clients=1,
                           config=shard_config())
    client = pool.clients[0]
    client.retry_policy = replace(client.retry_policy, max_attempts=1)

    def alloc(sim):
        while True:
            g = yield from client.gmalloc(64)
            if server_of(g) == 1:
                return g

    (target,) = pool.run(alloc(sim))
    pool.reshard(1, 0)
    client._meta_cache.clear()
    client._meta_epoch.clear()

    def use(sim):
        try:
            yield from client.gread(target)
        except NotMyShard as exc:
            return exc

    (exc,) = pool.run(use(sim))
    assert isinstance(exc, NotMyShard)
    assert isinstance(exc, RetryableError)
    assert exc.owner_shard == 0
    assert exc.map_epoch == 1


# ----------------------------------------------------------------------
# Satellite 1: alloc retry deduped across a shard failover
# ----------------------------------------------------------------------
def test_alloc_retry_is_deduped_across_a_shard_failover():
    """The lost-reply replay of a gmalloc must return the ORIGINAL
    allocation even when the owning shard crashed and rebuilt in between:
    the dedup key is (client uid, req_id) inside that shard, and it rides
    the shard's journal records through the rebuild."""
    sim, pool = build_pool(num_servers=2, num_clients=1,
                           config=shard_config())
    client = pool.clients[0]

    def before(sim):
        req_id = client._next_req_id()
        client._req_shards[req_id] = 1  # what gmalloc's round-robin pins
        meta = yield from client._gmalloc_once(64, req_id)
        return req_id, meta.gaddr

    (result,) = pool.run(before(sim))
    req_id, gaddr = result
    assert server_of(gaddr) == 1  # shard 1 allocated on its own server
    shard1 = pool.masters[1]
    shard1.crash()
    shard1.recover()

    def after(sim):
        yield from shard1.recovery_process(rebuild=True)
        replay = yield from client._gmalloc_once(64, req_id)
        return replay.gaddr

    (replayed,) = pool.run(after(sim))
    assert replayed == gaddr
    assert shard1.dup_rpcs.count == 1
    assert len(shard1.directory) == 1  # no second object leaked
    assert len(pool.masters[0].directory) == 0  # shard 0 never involved


# ----------------------------------------------------------------------
# Satellite 2: per-shard terms — one failover must not stale the rest
# ----------------------------------------------------------------------
def test_shard_failover_does_not_stale_the_other_shards_replies():
    """Shard 1 fails over and claims a higher term.  With one scalar
    client-side term floor that bump would make every shard-0 reply look
    like a deposed master's echo — a StaleTermError rotation storm.  The
    floor is per shard: zero stale-term rejections, shard 0's term
    untouched."""
    cfg = shard_config(master_terms=True, client_lease_ns=LEASE)
    sim, pool = build_pool(num_servers=2, num_clients=1, config=cfg)
    client = pool.clients[0]
    term0_before = client._master_terms[0]
    term1_before = client._master_terms[1]
    t0 = sim.now
    pool.inject_faults(FaultPlan.of(
        MasterCrash(at_ns=t0 + 5_000, shard=1),
        MasterRecover(at_ns=t0 + 45_000, rebuild=True, shard=1),
    ))

    def work(sim):
        addrs = []
        for _ in range(12):
            # Round-robin allocation hits both shards; the shard-1 ones
            # ride the retry/auto-reattach machinery through the outage.
            g = yield from client.gmalloc(64)
            addrs.append(g)
            yield sim.timeout(15_000)
        return addrs

    (addrs,) = pool.run(work(sim))
    assert {server_of(g) for g in addrs} == {0, 1}
    assert client.m_stale_terms.count == 0
    assert client._master_terms[0] == term0_before
    assert client._master_terms[1] > term1_before  # new term was claimed
    assert not client.fenced


# ----------------------------------------------------------------------
# Satellite 3: dead client's locks reclaimed across shards, one of them
# mid-failover
# ----------------------------------------------------------------------
def test_dead_clients_locks_reclaimed_on_both_shards_despite_failover():
    """client0 dies holding one write lock on each shard's server while
    shard 1 is ALSO failing over.  The live shard's lease sweep reclaims
    its lock; the restarted shard's post-failover orphan sweep reclaims
    the other.  A survivor must be able to take both locks without ever
    waiting on the corpse."""
    cfg = shard_config(client_lease_ns=LEASE)
    sim, pool = build_pool(num_servers=2, num_clients=2, config=cfg)
    c0, c1 = pool.clients

    def setup(sim):
        g0 = g1 = None
        while g0 is None or g1 is None:
            g = yield from c0.gmalloc(128)
            if server_of(g) == 0 and g0 is None:
                g0 = g
            elif server_of(g) == 1 and g1 is None:
                g1 = g
        yield from c0.glock(g0)
        yield from c0.glock(g1)
        return g0, g1

    (locked,) = pool.run(setup(sim))
    g0, g1 = locked
    t0 = sim.now
    pool.inject_faults(FaultPlan.of(
        ClientCrash(at_ns=t0 + 1_000, client="client0"),
        MasterCrash(at_ns=t0 + 2_000, shard=1),
        MasterRecover(at_ns=t0 + 40_000, rebuild=True, shard=1),
    ))

    def contender(sim):
        # Outlive the outage plus the lease + orphan grace periods.
        yield sim.timeout(40_000 + 3 * LEASE)
        t_acq = sim.now
        yield from c1.glock(g0)
        yield from c1.gunlock(g0)
        yield from c1.glock(g1)
        yield from c1.gunlock(g1)
        return sim.now - t_acq

    (took,) = pool.run(contender(sim))
    assert took < LEASE  # never parked on the dead holder's locks
    assert pool.master.lock_recoveries.total >= 2
    # client1 still holds a lease on both shards; client0's lease is gone
    # everywhere (uids stay behind — they anchor the fencing epochs).
    for m in pool.masters:
        assert "client1" in m._leases
        assert "client0" not in m._leases


# ----------------------------------------------------------------------
# Cross-shard txn fencing: the fencing shard rolls forward intents that
# live on ANOTHER shard's coordinator server before force-unlocking
# ----------------------------------------------------------------------
def test_fencing_shard_rolls_forward_intent_held_by_another_shard():
    """client0 dies right after its commit point.  The durable intent sits
    on the coordinator server (shard 1's), but client0 also holds a lock on
    shard 0's server.  When shard 0 fences first it must find that foreign
    intent and roll it forward BEFORE clearing its lock — a per-shard-only
    scan would free the lock with the committed bytes still unapplied,
    letting a new writer in under a pending roll-forward."""
    cfg = shard_config(enable_txn=True, client_lease_ns=LEASE)
    sim, pool = build_pool(num_servers=2, num_clients=2, config=cfg)
    c0, c1 = pool.clients

    def setup(sim):
        g0 = g1 = None
        while g0 is None or g1 is None:
            g = yield from c0.gmalloc(64)
            if server_of(g) == 0 and g0 is None:
                g0 = g
            elif server_of(g) == 1 and g1 is None:
                g1 = g
        yield from c0.gwrite(g0, b"o" * 64)
        yield from c0.gwrite(g1, b"o" * 64)
        yield from c0.gsync()
        return g0, g1

    (addrs,) = pool.run(setup(sim))
    g0, g1 = addrs

    def hook(point, txn):
        if point == "post-intent":
            raise RuntimeError("client died right after the commit point")

    def doomed_commit(sim):
        # Lock both objects; write only the shard-1 one, making server 1
        # (shard 1's) the coordinator that stores the intent.
        txn = yield from c0.txn.begin([g0, g1])
        txn.write(g1, b"C" * 64)
        c0.txn.commit_hook = hook
        try:
            yield from txn.commit()
        except RuntimeError:
            pass  # the "death": locks held, intent durable, nothing applied
        c0.txn.commit_hook = None

    pool.run(doomed_commit(sim))
    rolled_before = pool.master.txn_rolled_forward.count

    def fence_shard0(sim):
        # Shard 0 fences the dead client FIRST — it does not own the
        # coordinator, so only a cross-shard intent scan can see the record.
        yield from pool.masters[0]._fence_and_recover("client0")
        return (yield from c1.gread(g1))

    (data,) = pool.run(fence_shard0(sim))
    # Shard 0 alone found the foreign intent and applied it before it
    # force-unlocked anything — the committed bytes are already visible.
    assert pool.master.txn_rolled_forward.count == rolled_before + 1
    assert data == b"C" * 64

    def fence_shard1(sim):
        yield from pool.masters[1]._fence_and_recover("client0")
        # Both locks must be reclaimable immediately (no dead holder left).
        yield from c1.glock(g0)
        yield from c1.gunlock(g0)
        yield from c1.glock(g1)
        yield from c1.gunlock(g1)

    pool.run(fence_shard1(sim))
    # The intent was cleared by shard 0's roll-forward: shard 1 found
    # nothing left to roll forward — exactly-once visibility.
    assert pool.master.txn_rolled_forward.count == rolled_before + 1
    assert c0.txn.m_cross_shard.count == 0  # single-shard write-set


# ----------------------------------------------------------------------
# Resharding moves dedup state with ownership
# ----------------------------------------------------------------------
def test_reshard_moves_dedup_entries_so_replays_stay_deduped():
    sim, pool = build_pool(num_servers=2, num_clients=1,
                           config=shard_config())
    client = pool.clients[0]

    def before(sim):
        req_id = client._next_req_id()
        client._req_shards[req_id] = 1
        meta = yield from client._gmalloc_once(64, req_id)
        return req_id, meta.gaddr

    (result,) = pool.run(before(sim))
    req_id, gaddr = result
    assert server_of(gaddr) == 1
    pool.reshard(1, 0)  # the dedup entry must travel to shard 0

    def after(sim):
        # The replay first hits shard 1 (the memo), gets redirected, and
        # must then be served from shard 0's adopted dedup table.
        try:
            meta = yield from client._gmalloc_once(64, req_id)
        except NotMyShard:
            meta = yield from client._gmalloc_once(64, req_id)
        return meta.gaddr

    (replayed,) = pool.run(after(sim))
    assert replayed == gaddr
    assert client._req_shards.get(req_id) == 0  # memo chased the redirect
    assert pool.master.dup_rpcs.count == 1
    assert sum(len(m.directory) for m in pool.masters) == 1


def test_reshard_refuses_while_a_participant_is_down():
    sim, pool = build_pool(num_servers=2, num_clients=1,
                           config=shard_config())
    pool.masters[1].crash()
    try:
        pool.reshard(1, 0)
        raised = False
    except Exception as exc:  # MasterError
        raised = "serving" in str(exc)
    assert raised


def test_reshard_across_diverged_terms_does_not_depose_the_adopter():
    """Shard 1 fails over twice, pushing its term past shard 0's; its
    server's journal then rejects any append below that term.  Reshard
    server 1 onto shard 0: if the handover dropped the exporter's term,
    shard 0's first journal append to the adopted server would bounce as
    'stale master term' and shard 0 would depose itself off its own
    reshard.  The export carries the term; the adopter rises to it."""
    cfg = shard_config(master_terms=True, client_lease_ns=LEASE)
    sim, pool = build_pool(num_servers=2, num_clients=1, config=cfg)
    client = pool.clients[0]
    shard0, shard1 = pool.masters

    def diverge(sim):
        for _ in range(2):
            shard1.crash()
            shard1.recover()
            yield from shard1.recovery_process(rebuild=True)

    pool.run(diverge(sim))
    assert shard1.term > shard0.term
    assert pool.servers[1]._term_max == shard1.term

    pool.reshard(1, 0)
    assert shard0.term >= shard1.term  # the term travelled with the export

    def work(sim):
        addrs = []
        for _ in range(8):
            addrs.append((yield from client.gmalloc(64)))
        return addrs

    (addrs,) = pool.run(work(sim))
    # Allocations on the adopted server journal at shard 0's term and are
    # accepted — no self-deposition, no stale-term rejection.
    assert 1 in {server_of(g) for g in addrs}
    assert not shard0._deposed
    assert client.m_stale_terms.count == 0


# ----------------------------------------------------------------------
# Satellite 4: fuzz — reshard/failover interleaved with client ops; no
# op may ever be applied by a non-owning shard
# ----------------------------------------------------------------------
_OPS = st.sampled_from(
    ["alloc", "write", "free", "reshard", "failover", "recover"])


def _assert_ownership_invariant(pool):
    owned = [set(m._servers) for m in pool.masters]
    union = set()
    for s in owned:
        assert not (union & s), "a server is owned by two shards"
        union |= s
    assert union == set(pool.servers)
    for m in pool.masters:
        for record in m.directory.objects():
            assert record.server_id in m._servers, (
                "object metadata held by a non-owning shard")
        assert m.check_extents() == []


@given(ops=st.lists(_OPS, min_size=4, max_size=24),
       seed=st.integers(0, 20))
@settings(max_examples=20, deadline=None)
def test_fuzz_reshard_failover_ownership(ops, seed):
    cfg = shard_config()
    sim, pool = build_pool(seed=seed, num_servers=2, num_clients=1,
                           config=cfg, max_events=FUZZ_MAX_EVENTS)
    client = pool.clients[0]
    live = []
    state = {"crashed": False, "flip": 0}

    def run_op(op):
        def proc(sim):
            try:
                if op == "alloc":
                    live.append((yield from client.gmalloc(64)))
                elif op == "write" and live:
                    yield from client.gwrite(live[0], b"F" * 64)
                    yield from client.gsync()
                elif op == "free" and live:
                    yield from client.gfree(live.pop())
            except RetryableError:
                pass  # a shard was down past the budget; invariant still holds
        pool.run(proc(sim))

    for op in ops:
        if op == "reshard":
            if not state["crashed"]:
                sid = state["flip"] % 2
                state["flip"] += 1
                pool.reshard(sid, (pool.master.shard_map[sid] + 1) % 2)
        elif op == "failover":
            if not state["crashed"]:
                pool.masters[1].crash()
                state["crashed"] = True
        elif op == "recover":
            if state["crashed"]:
                pool.masters[1].recover()
                pool.run(pool.masters[1].recovery_process(rebuild=True))
                state["crashed"] = False
        else:
            run_op(op)
        if not state["crashed"]:
            _assert_ownership_invariant(pool)

    if state["crashed"]:
        pool.masters[1].recover()
        pool.run(pool.masters[1].recovery_process(rebuild=True))
    _assert_ownership_invariant(pool)
    # Every surviving object is findable at exactly one shard.
    for g in live:
        holders = [m for m in pool.masters if g in m.directory]
        assert len(holders) == 1
