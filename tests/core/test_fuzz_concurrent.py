"""Concurrency fuzzing: multiple clients under locks vs a serial oracle.

Each shared object holds a 64-bit sequence-stamped record.  Clients run a
random mix of locked read-modify-writes and shared-lock reads.  Invariants:

* every locked RMW's effect survives (no lost updates),
* every shared-lock read observes a *prefix-consistent* value (a counter
  value some writer actually produced, never a torn or stale-beyond-lock
  value),
* the final counter equals the exact number of RMWs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.core.conftest import FUZZ_MAX_EVENTS, build_pool


def _run_concurrent(seed, schedules, num_objects=3):
    """schedules: per-client list of (op, obj) with op in {rmw, read}."""
    sim, pool = build_pool(seed=seed, num_servers=1,
                           num_clients=max(2, len(schedules)),
                           max_events=FUZZ_MAX_EVENTS)
    clients = pool.clients
    rmw_counts = {i: 0 for i in range(num_objects)}
    for schedule in schedules:
        for op, obj in schedule:
            if op == "rmw":
                rmw_counts[obj % num_objects] += 1

    def setup(sim):
        addrs = []
        for _ in range(num_objects):
            g = yield from clients[0].gmalloc(64)
            yield from clients[0].gwrite(g, bytes(64))
            addrs.append(g)
        yield from clients[0].gsync()
        return addrs

    (addrs,) = pool.run(setup(sim))
    observed = []

    def worker(idx, schedule):
        client = clients[idx % len(clients)]
        for op, obj in schedule:
            gaddr = addrs[obj % num_objects]
            if op == "rmw":
                yield from client.glock(gaddr, write=True)
                raw = yield from client.gread(gaddr, length=8)
                value = int.from_bytes(raw, "little")
                yield from client.gwrite(gaddr, (value + 1).to_bytes(8, "little"))
                yield from client.gunlock(gaddr, write=True)
            else:
                yield from client.glock(gaddr, write=False)
                raw = yield from client.gread(gaddr, length=8)
                yield from client.gunlock(gaddr, write=False)
                observed.append((obj % num_objects,
                                 int.from_bytes(raw, "little")))

    pool.run(*[worker(i, s) for i, s in enumerate(schedules)])

    def final(sim):
        values = []
        for gaddr in addrs:
            raw = yield from clients[0].gread(gaddr, length=8)
            values.append(int.from_bytes(raw, "little"))
        return values

    (finals,) = pool.run(final(sim))
    assert pool.master.check_extents() == []
    return rmw_counts, observed, finals


_op = st.tuples(st.sampled_from(["rmw", "read"]), st.integers(0, 2))


@given(
    schedules=st.lists(st.lists(_op, min_size=1, max_size=8),
                       min_size=2, max_size=4),
    seed=st.integers(0, 30),
)
@settings(max_examples=12, deadline=None)
def test_locked_counters_never_lose_updates(schedules, seed):
    rmw_counts, observed, finals = _run_concurrent(seed, schedules)
    for obj, final in enumerate(finals):
        assert final == rmw_counts[obj], (
            f"object {obj}: {final} != {rmw_counts[obj]} RMWs"
        )
    # Reads under the shared lock observe only values a writer produced.
    for obj, value in observed:
        assert 0 <= value <= rmw_counts[obj]


def test_heavy_contention_single_object():
    """Worst case: everyone hammers one object."""
    schedules = [[("rmw", 0)] * 10 for _ in range(4)]
    rmw_counts, _observed, finals = _run_concurrent(3, schedules, num_objects=1)
    assert finals[0] == 40


def test_fresh_allocations_read_as_zeros_even_after_reuse():
    """Explicit calloc-semantics check (found originally by the fuzzer).

    A freed extent is quarantined until its background scrub returns, so the
    address does not come back on the very next allocation: keep allocating
    until it does."""
    sim, pool = build_pool(num_servers=1, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        first = yield from client.gmalloc(1024)
        yield from client.gwrite(first, b"\xff" * 1024)
        yield from client.gsync()
        yield from client.gfree(first)
        for _ in range(16):
            again = yield from client.gmalloc(1024)
            if again == first:
                break
            yield from client.gwrite(again, b"\xff" * 1024)
            yield from client.gfree(again)
        data = yield from client.gread(again)
        return first, again, data

    (result,) = pool.run(app(sim))
    first, again, data = result
    assert first == again  # the extent was actually reused
    assert data == bytes(1024)  # ...and reads as fresh zeros
    assert pool.master.check_extents() == []
