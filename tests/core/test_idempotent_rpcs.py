"""Idempotent gmalloc/gfree retries.

The contract under test: `_resilient` may replay a control RPC whose
original execution succeeded but whose reply was lost (the master crashed
after executing, before replying).  The client mints one req_id per
*logical* op and repeats it verbatim across retries; the master
deduplicates, so a gmalloc replay returns the original allocation instead
of leaking a second object, and a gfree replay reports success instead of
surfacing an unknown-gaddr error to the application.  The dedup tables
ride in the journal records, so they survive a master rebuild too.
"""

from tests.core.conftest import build_pool, fast_config, journal_entries

small_journal = journal_entries(64)


def idem_pool():
    cfg = fast_config(metadata_journal=True)
    return build_pool(num_servers=1, num_clients=1, config=cfg)


def test_gmalloc_retry_with_same_req_id_returns_the_original_allocation():
    sim, pool = idem_pool()
    client = pool.clients[0]

    def scenario(sim):
        req_id = client._next_req_id()
        first = yield from client._gmalloc_once(64, req_id)
        replay = yield from client._gmalloc_once(64, req_id)  # lost-reply retry
        return first.gaddr, replay.gaddr

    (result,) = pool.run(scenario(sim))
    first, replay = result
    assert first == replay
    assert pool.master.dup_rpcs.count == 1
    assert len(pool.master.directory) == 1  # no second object leaked


def test_distinct_req_ids_still_allocate_distinct_objects():
    sim, pool = idem_pool()
    client = pool.clients[0]

    def scenario(sim):
        a = yield from client.gmalloc(64)
        b = yield from client.gmalloc(64)
        return a, b

    (result,) = pool.run(scenario(sim))
    a, b = result
    assert a != b
    assert pool.master.dup_rpcs.count == 0
    assert len(pool.master.directory) == 2


def test_gfree_retry_with_same_req_id_is_idempotent():
    sim, pool = idem_pool()
    client = pool.clients[0]

    def scenario(sim):
        gaddr = yield from client.gmalloc(64)
        req_id = client._next_req_id()
        shard = client._shards[0]
        yield from shard.call("gfree", {"gaddr": gaddr, "req_id": req_id})
        # The replay must NOT raise unknown-gaddr: the free already executed.
        ok = yield from shard.call(
            "gfree", {"gaddr": gaddr, "req_id": req_id})
        return ok

    (ok,) = pool.run(scenario(sim))
    assert ok is True
    assert pool.master.dup_rpcs.count == 1
    assert len(pool.master.directory) == 0


def test_dedup_tables_survive_a_master_rebuild():
    """req_id rides in the journal record: a retry that lands on the
    *restarted* master (the execute-then-crash case this exists for) is
    still deduplicated after the journal replay."""
    sim, pool = idem_pool()
    client = pool.clients[0]

    def before(sim):
        req_id = client._next_req_id()
        meta = yield from client._gmalloc_once(64, req_id)
        return req_id, meta.gaddr

    (result,) = pool.run(before(sim))
    req_id, gaddr = result
    pool.master.reset_volatile_state()

    def after(sim):
        yield from pool.master.rebuild()
        replay = yield from client._gmalloc_once(64, req_id)
        return replay.gaddr

    (replayed,) = pool.run(after(sim))
    assert replayed == gaddr
    assert pool.master.dup_rpcs.count == 1
    assert len(pool.master.directory) == 1
