#!/usr/bin/env python3
"""Iterative MapReduce wordcount with shuffle data in the pool.

Run with::

    python examples/mapreduce_wordcount.py

Three wordcount jobs run back to back over the same pool-resident corpus.
Watch the per-iteration time drop as Gengar's hotness tracker promotes the
input splits into server DRAM.
"""

import random

from repro.apps.mapreduce import MapReduceEngine, wordcount_job
from repro.bench.experiments import bench_config, boot
from repro.sim.units import KIB
from repro.workloads.corpus import CorpusGenerator


def main() -> None:
    system = boot(
        "gengar", seed=7, num_servers=2, num_clients=2,
        config_overrides=bench_config(
            proxy_slot_size=128 * KIB, epoch_ns=50_000,
            report_every_ops=8, promote_threshold=0.5,
        ),
    )
    sim = system.sim
    corpus = CorpusGenerator(vocab_size=200, rng=random.Random(7))
    chunks = corpus.chunks(12, 32 * KIB)
    engine = MapReduceEngine(system.clients)

    def pipeline(sim):
        addrs = yield from engine.ingest(system.clients[0], chunks)
        print(f"ingested {len(chunks)} splits "
              f"({sum(len(c) for c in chunks) // 1024} KiB) into the pool")
        last = None
        for i in range(3):
            result = yield from engine.run(wordcount_job(num_reducers=4),
                                           addrs, [len(c) for c in chunks])
            cached = sum(
                1 for a in addrs
                if system.pool.master.directory.get(a).cached
            )
            print(f"iteration {i + 1}: {result.elapsed_ns / 1e6:.3f} ms "
                  f"(map {result.map_time_ns / 1e6:.3f} / "
                  f"reduce {result.reduce_time_ns / 1e6:.3f}), "
                  f"{cached}/{len(addrs)} input splits now DRAM-cached")
            yield sim.timeout(120_000)  # let the planner promote
            last = result
        return last

    (result,) = system.run(pipeline(sim))
    top = sorted(result.output.items(), key=lambda kv: -kv[1])[:8]
    print("\ntop words:")
    for word, count in top:
        print(f"  {word:12s} {count}")
    total = sum(result.output.values())
    print(f"\ntotal words counted: {total} "
          f"(shuffle moved {result.shuffle_bytes} bytes through the pool)")


if __name__ == "__main__":
    main()
