#!/usr/bin/env python3
"""Multi-user sharing with consistency: a locked counter.

Run with::

    python examples/shared_counter.py

Four clients hammer one counter object under Gengar's one-sided
reader/writer locks, and every increment survives.  This demonstrates the
abstract's claim that Gengar "supports memory sharing among multiple users
with data consistency guarantee".
"""

from repro.bench.experiments import boot
from repro.sim.units import ns_to_us


def main() -> None:
    system = boot("gengar", seed=99, num_servers=1, num_clients=4)
    sim = system.sim
    clients = system.clients
    increments_each = 12

    def setup(sim):
        counter = yield from clients[0].gmalloc(64)
        yield from clients[0].gwrite(counter, bytes(64))
        yield from clients[0].gsync()
        return counter

    (counter,) = system.run(setup(sim))

    def incrementer(sim, idx):
        client = clients[idx]
        for _ in range(increments_each):
            yield from client.glock(counter, write=True)
            raw = yield from client.gread(counter, length=8)
            value = int.from_bytes(raw, "little")
            yield from client.gwrite(counter, (value + 1).to_bytes(8, "little"))
            yield from client.gunlock(counter, write=True)

    t0 = sim.now
    system.run(*[incrementer(sim, i) for i in range(len(clients))])
    elapsed = sim.now - t0

    def check(sim):
        raw = yield from clients[0].gread(counter, length=8)
        return int.from_bytes(raw, "little")

    (total,) = system.run(check(sim))
    expected = len(clients) * increments_each
    print(f"{len(clients)} clients x {increments_each} locked increments "
          f"in {ns_to_us(elapsed):.1f} us (virtual)")
    print(f"final counter value: {total} (expected {expected}) "
          f"{'OK' if total == expected else 'LOST UPDATES!'}")
    retries = sim.metrics.counter("pool.lock_retries").count
    acquires = sim.metrics.counter("pool.lock_acquires").count
    print(f"lock acquires: {acquires}, contended retries: {retries}")
    assert total == expected


if __name__ == "__main__":
    main()
