#!/usr/bin/env python3
"""Open-loop trace replay: find the write path's queueing knee.

Run with::

    python examples/trace_replay.py

Generates a bursty, write-heavy operation trace, saves/loads it through the
text format, and replays it open-loop (ops issued at their timestamps, not
waiting for completions) against Gengar and the NVM-direct baseline.
Closed-loop benchmarks cannot expose queueing collapse; this can.
"""

import random

from repro.apps.kvstore import KvStore
from repro.bench.experiments import bench_config, boot
from repro.workloads.traces import TraceReplayer, dump_trace, generate_trace, load_trace


def replay_on(system_name: str, ops, value_size=1024):
    system = boot(system_name, seed=31, num_servers=1, num_clients=2,
                  config_overrides=bench_config(proxy_ring_slots=128))
    sim = system.sim
    store = KvStore(value_size)

    def loader(sim):
        yield from store.load(system.clients[0], range(100),
                              lambda k: bytes([k % 256]) * value_size)

    system.run(loader(sim))
    replayer = TraceReplayer(system.clients, store, value_size=value_size)
    holder = {}

    def run(sim):
        holder["result"] = yield from replayer.replay(ops)

    system.run(run(sim))
    return holder["result"]


def main() -> None:
    ops = generate_trace(
        random.Random(31),
        duration_ns=300_000,
        mean_interarrival_ns=700,     # ~1.4 Mops offered
        record_count=100,
        read_fraction=0.2,            # write heavy
        value_size=1024,
        burst_every_ns=100_000,
        burst_ops=24,
    )
    # Round-trip through the text trace format (what you'd version-control).
    ops = load_trace(dump_trace(ops))
    writes = sum(1 for op in ops if op.kind == "write")
    print(f"trace: {len(ops)} ops over {ops[-1].at_ns / 1000:.0f} us "
          f"({writes} writes, bursts of 24 every 100 us)\n")

    for name in ("gengar", "nvm-direct"):
        result = replay_on(name, ops)
        w = result.latency_by_kind["write"]
        r = result.latency_by_kind["read"]
        print(f"{name:12s} write mean {w['mean'] / 1000:6.2f} us  "
              f"p99 {w['p99'] / 1000:7.2f} us | "
              f"read p99 {r['p99'] / 1000:6.2f} us | "
              f"max outstanding {result.max_outstanding}")
    print("\nthe proxy wins on mean write latency (bursts land in DRAM); "
          "tails are comparable here because at this offered load both "
          "systems queue on shared client-side resources, not on NVM - "
          "see `python -m repro experiments X1` for the systematic sweep.")


if __name__ == "__main__":
    main()
