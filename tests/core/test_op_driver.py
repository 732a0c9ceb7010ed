"""The client's op driver: one history → span → retry → precheck ladder.

Every data and lock verb of :class:`~repro.core.client.GengarClient` reaches
the pool through one private driver.  Three contracts are pinned here:

* **Recorded observables** (``tests/data/op_observables_golden.json``): one
  scripted session touching every verb and every routing branch, with a
  history recorder and a span recorder installed.  The golden was captured
  on PR 13's commit, when each verb still hand-rolled its own ladder, and
  the driver has to reproduce it: the same history events (kind, outcome,
  fields) and the same spans (name, track, fields, which op span each phase
  belongs to).  Raw op ids are deliberately not pinned — the driver mints
  them at op start, the old lock verbs minted them at op end.  The golden
  moves only through ``PYTHONPATH=src python -m tests.core.test_op_driver
  --recapture "REASON"``, which records why in its ``recaptured`` list.
* **The no-history entry** (``history=False``) used by txn reads, the bank
  audit and the library's own nested ops: spans and retries as usual, no
  history event.
* **Logical-op accounting**: one ``pool.reads`` / ``pool.writes`` count and
  one latency sample per op, however many attempts it took.
"""

import argparse
import json
from pathlib import Path

import pytest

from repro import obs
from repro.check.history import HistoryRecorder
from repro.core import ClientError, server_of
from repro.faults import FaultPlan, ServerCrash, ServerRecover

from tests.core.conftest import build_pool

GOLDEN_PATH = (Path(__file__).resolve().parents[1] / "data"
               / "op_observables_golden.json")


def _record(sim):
    return HistoryRecorder(sim).install(), obs.install(sim)


def _swallow(gen):
    try:
        yield from gen
    except ClientError:
        pass


def _default_policy_session():
    """Every verb and routing branch under the default policy (retries,
    no deadline); returns ``(history_recorder, span_recorder)``."""
    sim, pool = build_pool(seed=7, num_servers=2, num_clients=2)
    client, other = pool.clients
    recorders = _record(sim)

    def app(sim):
        small = []
        for _ in range(4):  # round-robin homes: servers 0, 1, 0, 1
            small.append((yield from client.gmalloc(256)))
        big = yield from client.gmalloc(8192)  # larger than a proxy slot
        hot, victim = small[0], small[2]
        assert server_of(hot) == server_of(victim) != server_of(small[1])

        # Proxy write, overlay read, sync, NVM read.
        yield from client.gwrite(hot, b"a" * 256)
        yield from client.gread(hot)
        yield from client.gsync()
        yield from client.gread(hot, offset=16, length=32)
        # A frame group (larger than one slot, still through the ring).
        yield from client.gwrite(big, b"b" * 8192)
        # A client that did not allocate the object looks its metadata up.
        yield from other.gread(hot)
        yield from other.gwrite(small[3], b"k" * 256)

        # Promote `hot`, then read it from the DRAM cache.
        for _ in range(6):
            for _ in range(8):
                yield from client.gread(hot)
            yield sim.timeout(20_000)

        # Batched reads: one fully staged overlay item, one partial overlap
        # (serial fallback, which syncs first), one NVM read, one cache hit.
        yield from client.gwrite(small[1], b"c" * 256)
        yield from client.gwrite(victim, b"d" * 64, offset=64)
        yield from client.gread_many([small[1], victim, small[3], hot])
        # Three proxy writes, the last a frame group.
        for gaddr, data in ((small[1], b"e" * 64), (small[3], b"f" * 64),
                            (big, b"g" * 8192)):
            yield from client.gwrite(gaddr, data)
        yield from client.gsync(server_id=server_of(small[1]))

        yield from client.glock(hot)
        yield from client.gwrite(hot, b"h" * 256)
        yield from client.gunlock(hot)  # a write unlock syncs first
        yield from client.glock(small[1], write=False)
        yield from client.gunlock(small[1], write=False)

        # A dead home server: every verb fails typed once its retries,
        # each after a failed re-attach, are spent.
        pool.servers[server_of(victim)].crash()
        yield from _swallow(client.gread(victim))
        yield from _swallow(client.gwrite(victim, b"i" * 256))
        yield from _swallow(client.gsync())
        yield from _swallow(client.gread_many([small[1], victim]))
        yield from _swallow(client.gwrite(victim, b"j" * 64))
        yield from _swallow(client.glock(victim))
        yield from _swallow(client.gunlock(victim, write=False))

    pool.run(app(sim))
    return recorders


def _retrying_session():
    """A write and a read that each ride out a server outage, and a read
    that exhausts its attempts."""
    sim, pool = build_pool(seed=7, num_servers=1, num_clients=1)
    client = pool.clients[0]
    recorders = _record(sim)

    def app(sim):
        gaddr = yield from client.gmalloc(256)
        yield from client.gwrite(gaddr, b"a" * 256)
        yield from client.gsync()
        t0 = sim.now
        pool.inject_faults(FaultPlan.of(
            ServerCrash(at_ns=t0 + 5_000, server_id=0),
            ServerRecover(at_ns=t0 + 120_000, server_id=0),
            ServerCrash(at_ns=t0 + 400_000, server_id=0),
            ServerRecover(at_ns=t0 + 520_000, server_id=0),
            ServerCrash(at_ns=t0 + 800_000, server_id=0),
        ))
        yield sim.timeout(10_000)  # land inside the first outage
        yield from client.gwrite(gaddr, b"b" * 256)
        yield from client.gsync()
        yield sim.timeout(t0 + 410_000 - sim.now)  # the second outage
        yield from client.gread(gaddr)
        yield sim.timeout(t0 + 810_000 - sim.now)  # down for good
        yield from _swallow(client.gread(gaddr))

    pool.run(app(sim))
    return recorders


def _observables(hist, spans):
    events = []
    for op in hist.ops:
        fields = {k: v for k, v in op.items()
                  if k not in ("id", "client", "op", "status", "t0", "t1")}
        events.append({"client": op["client"], "kind": op["op"],
                       "outcome": op["status"], "fields": fields})
    # Op spans close after their phases, so resolve linkage over the whole
    # log: a phase names the position (among op spans) of the op it carries.
    op_spans = [s for s in spans.spans if s.name.startswith("op.")]
    position = {s.op: i for i, s in enumerate(op_spans)}
    assert len(position) == len(op_spans), "op ids must be unique"
    rows = []
    for s in spans.spans:
        if not s.track.startswith("client"):
            continue  # server / master spans are not the driver's
        row = {"name": s.name, "track": s.track, "fields": s.fields or {}}
        if s.name.startswith("op."):
            row["op_index"] = position[s.op]
        else:
            row["parent_op_index"] = position.get(s.op)
        rows.append(row)
    return {"history": events, "spans": rows}


SESSIONS = {"default_policy": _default_policy_session,
            "retrying": _retrying_session}


@pytest.mark.parametrize("session", sorted(SESSIONS))
def test_recorded_observables_match_the_per_verb_ladders(session):
    golden = json.loads(GOLDEN_PATH.read_text())[session]
    got = _observables(*SESSIONS[session]())
    got = json.loads(json.dumps(got))  # tuples -> lists, as stored
    assert got["history"] == golden["history"]
    assert got["spans"] == golden["spans"]


# ----------------------------------------------------------------------
# The no-history entry
# ----------------------------------------------------------------------
def test_no_history_entry_emits_the_span_and_no_history_event():
    from repro.workloads.bank import bank_read_balances, encode_balance

    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    hist, spans = _record(sim)

    def app(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.gwrite(gaddr, encode_balance(7).ljust(64, b"\0"))
        before = len(hist.ops), len(spans.by_name("op.gread"))
        balances = yield from bank_read_balances(client, [gaddr])
        raw = yield from client._op("gread", gaddr, 0, 8, history=False)
        return gaddr, before, balances, raw

    ((gaddr, before, balances, raw),) = pool.run(app(sim))
    assert balances == {gaddr: 7} and raw == encode_balance(7)
    assert len(hist.ops) == before[0]  # the write, and nothing since
    assert len(spans.by_name("op.gread")) == before[1] + 2
    assert client.m_reads.count == 2  # accounted like any other read


def test_lock_verb_phases_carry_the_lock_ops_id():
    """Op ids are minted at op start, so a lock verb's phases correlate."""
    sim, pool = build_pool(num_servers=1, num_clients=2)
    owner, other = pool.clients
    spans = obs.install(sim)

    def app(sim):
        gaddr = yield from owner.gmalloc(64)
        yield from other.glock(gaddr)  # `other` has to look the object up
        yield from other.gunlock(gaddr)

    pool.run(app(sim))
    (lock,) = spans.by_name("op.glock")
    (lookup,) = [s for s in spans.by_name("phase.meta_lookup")
                 if s.track == other.name]
    assert lookup.op == lock.op != 0
    assert lock.start_ns <= lookup.start_ns and lookup.end_ns <= lock.end_ns


# ----------------------------------------------------------------------
# Logical-op accounting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("verb", ["gread", "gwrite"])
def test_a_retried_op_is_one_count_and_one_sample(verb):
    """On PR 13's commit one gread that rode out this outage added 4 to
    ``pool.reads`` and sampled only its last attempt (2,405 ns)."""
    outage_ns = 150_000
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]
    counter, latency = {"gread": (client.m_reads, client.h_read),
                        "gwrite": (client.m_writes, client.h_write)}[verb]

    def app(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.gwrite(gaddr, b"x" * 64)
        yield from client.gsync()
        pool.servers[0].crash()
        pool.inject_faults(FaultPlan.of(
            ServerRecover(at_ns=sim.now + outage_ns, server_id=0)))
        before = counter.count, latency.count, client.m_retries.count
        t0 = sim.now
        if verb == "gread":
            yield from client.gread(gaddr)
        else:
            yield from client.gwrite(gaddr, b"y" * 64)
        return before, sim.now - t0

    ((before, took),) = pool.run(app(sim))
    assert client.m_retries.count > before[2]  # it did retry
    assert counter.count == before[0] + 1
    assert latency.count == before[1] + 1
    assert took >= outage_ns and latency.max == took


def test_a_failed_op_is_not_counted_as_served():
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(64)
        yield from client.gwrite(gaddr, b"x" * 64)
        yield from client.gsync()
        pool.servers[0].crash()
        yield from _swallow(client.gread(gaddr))
        yield from _swallow(client.gwrite(gaddr, b"y" * 64))

    pool.run(app(sim))
    assert client.m_reads.count == client.h_read.count == 0
    assert client.m_writes.count == client.h_write.count == 1


def recapture(reason: str) -> None:
    """Rewrite the golden from this tree.  A move appends the reason and
    each session's old and new span-row counts to its ``recaptured`` list."""
    golden = json.loads(GOLDEN_PATH.read_text())
    new = {name: json.loads(json.dumps(_observables(*SESSIONS[name]())))
           for name in sorted(SESSIONS)}
    if all(golden[name] == new[name] for name in new):
        print(f"{GOLDEN_PATH.name}: unchanged")
        return
    history = golden.get("recaptured", []) + [{
        "reason": reason,
        "span_rows_before": {n: len(golden[n]["spans"]) for n in new},
        "span_rows_after": {n: len(new[n]["spans"]) for n in new},
    }]

    def _rows(rows):
        return "[\n" + ",\n".join("   " + json.dumps(r) for r in rows) + "\n  ]"

    GOLDEN_PATH.write_text("{\n" + ",\n".join(
        [f' "{name}": {{\n  "history": {_rows(doc["history"])},\n'
         f'  "spans": {_rows(doc["spans"])}\n }}' for name, doc in new.items()]
        + [f' "recaptured": {_rows(history)}']) + "\n}\n")
    for name in new:
        print(f"{GOLDEN_PATH.name}: {name} span rows "
              f"{len(golden[name]['spans'])} -> {len(new[name]['spans'])}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Re-capture the op-observables golden")
    parser.add_argument("--recapture", metavar="REASON", required=True,
                        help="why the recorded observables moved, kept in "
                             "the golden")
    recapture(parser.parse_args().recapture)
