"""Experiment drivers E1-E12: one function per reconstructed table/figure.

Each function builds fresh deployments, runs the experiment, and returns an
:class:`ExperimentResult` holding paper-style tables.  ``python -m repro
experiments`` prints them (``docs/RESULTS.txt`` is that output, pinned),
``tests/bench/test_paper_claims.py`` asserts each table's claims on the
pinned file, and ``EXPERIMENTS.md`` records the claim each experiment
validates and the measured shape.

Scale disclaimer: op counts are sized so the full suite finishes in minutes
of host time while still spanning several hotness epochs of virtual time.
Absolute numbers are simulation outputs; the *shape* (orderings, crossovers,
relative factors) is the reproduction target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from repro.apps.mapreduce import MapReduceEngine, distributed_sort, wordcount_job
from repro.baselines.common import BuiltSystem, build_system
from repro.bench.report import Table, speedup
from repro.bench.runner import YcsbRunner
from repro.core.config import GengarConfig
from repro.core.hotness import (
    EpochDecayPolicy,
    LfuPolicy,
    LruPolicy,
    NeverCachePolicy,
    RandomPolicy,
)
from repro.sim import Simulator
from repro.sim.units import KIB, MIB, ops_per_sec
from repro.workloads.corpus import CorpusGenerator
from repro.workloads.ycsb import WORKLOADS


@dataclass
class ExperimentResult:
    """One experiment's regenerated tables."""

    exp_id: str
    title: str
    tables: List[Table] = field(default_factory=list)

    def render(self) -> str:
        head = f"### {self.exp_id}: {self.title}"
        return "\n\n".join([head] + [t.render() for t in self.tables])

    def table(self, title_fragment: str = "") -> Table:
        """First table whose title contains the fragment."""
        for t in self.tables:
            if title_fragment in t.title:
                return t
        raise KeyError(f"no table matching {title_fragment!r}")


# ---------------------------------------------------------------------------
# Shared construction helpers
# ---------------------------------------------------------------------------
def bench_config(**overrides) -> Callable[[GengarConfig], GengarConfig]:
    """Config-override hook preserving each system's mechanism switches."""

    def apply(base: GengarConfig) -> GengarConfig:
        tuned = replace(
            base,
            cache_capacity=4 * MIB,
            epoch_ns=100_000,
            report_every_ops=32,
            promote_threshold=2.0,
            demote_threshold=0.5,
            proxy_ring_slots=32,
            proxy_slot_size=4 * KIB,
        )
        return replace(tuned, **overrides)

    return apply


def boot(name: str, seed: int, num_servers: int = 2, num_clients: int = 2,
         config_overrides: Optional[Callable] = None, **kw) -> BuiltSystem:
    sim = Simulator(seed=seed)
    return build_system(
        name, sim, num_servers=num_servers, num_clients=num_clients,
        config_overrides=config_overrides or bench_config(), **kw,
    )


def _measure_op(sim, gen_factory: Callable[[], Generator], reps: int) -> float:
    """Average virtual-time latency of ``reps`` sequential operations."""
    total = {"ns": 0}

    def runner(sim):
        for _ in range(reps):
            t0 = sim.now
            yield from gen_factory()
            total["ns"] += sim.now - t0

    proc = sim.spawn(runner(sim))
    sim.run_until_complete(proc)
    return total["ns"] / reps


# ---------------------------------------------------------------------------
# E1 — read latency vs object size
# ---------------------------------------------------------------------------
def e01_read_latency(sizes: Sequence[int] = (64, 256, 1024, 4096, 16384, 65536),
                     reps: int = 12, seed: int = 701) -> ExperimentResult:
    """Reconstructs the read-latency figure: hot (DRAM-cached) Gengar reads
    vs cold (NVM) reads vs the NVM-direct baseline vs the DRAM-only bound."""
    variants = ("gengar-hot", "gengar-cold", "nvm-direct", "dram-only")
    table = Table(
        title="E1 read latency (us) vs object size (bytes)",
        headers=["system"] + [str(s) for s in sizes],
    )
    for variant in variants:
        name = "gengar" if variant.startswith("gengar") else variant
        system = boot(name, seed, num_servers=1, num_clients=1)
        client = system.clients[0]
        sim = system.sim
        row: List[float] = []
        for size in sizes:
            holder: Dict[str, int] = {}

            def setup(sim, size=size):
                gaddr = yield from client.gmalloc(size)
                yield from client.gwrite(gaddr, b"\xab" * size)
                yield from client.gsync()
                if variant == "gengar-hot":
                    yield from system.pool.master.pin(gaddr)
                    # Refresh the client's location metadata post-pin.
                    client._invalidate_meta(gaddr)
                # Warmup read so one-time metadata lookups stay out of the
                # measurement window.
                yield from client.gread(gaddr, length=1)
                holder["gaddr"] = gaddr

            system.run(setup(sim))
            gaddr = holder["gaddr"]
            avg = _measure_op(sim, lambda g=gaddr: client.gread(g), reps)
            row.append(avg / 1000.0)
        table.add_row(variant, *row)
    table.notes.append("hot = object pinned in home-server DRAM cache")
    return ExperimentResult("E1", "read latency vs object size", [table])


# ---------------------------------------------------------------------------
# E2 — write latency vs object size (the proxy redesign claim)
# ---------------------------------------------------------------------------
def e02_write_latency(sizes: Sequence[int] = (64, 256, 1024, 4096, 16384, 65536),
                      reps: int = 12, seed: int = 702) -> ExperimentResult:
    overrides = bench_config(proxy_slot_size=128 * KIB, proxy_ring_slots=8)
    table = Table(
        title="E2 write latency (us) vs object size (bytes)",
        headers=["system"] + [str(s) for s in sizes],
    )
    for name in ("gengar", "nvm-direct", "dram-only"):
        system = boot(name, seed, num_servers=1, num_clients=1,
                      config_overrides=overrides)
        client = system.clients[0]
        sim = system.sim
        row: List[float] = []
        for size in sizes:
            holder: Dict[str, int] = {}

            def setup(sim, size=size):
                holder["gaddr"] = yield from client.gmalloc(size)

            system.run(setup(sim))
            gaddr = holder["gaddr"]
            payload = b"\xcd" * size

            def one_write(g=gaddr, p=payload):
                yield from client.gwrite(g, p)
                # Pace so ring occupancy never throttles the measurement.
                yield 30_000

            avg = _measure_op(sim, one_write, reps) - 30_000
            row.append(max(avg, 0) / 1000.0)
        table.add_row(name, *row)
    table.notes.append("paced writes: ack latency, drains off the critical path")
    return ExperimentResult("E2", "write latency vs object size", [table])


# ---------------------------------------------------------------------------
# E3 — throughput scalability with client count
# ---------------------------------------------------------------------------
def e03_scalability(client_counts: Sequence[int] = (1, 2, 4, 8),
                    server_counts: Sequence[int] = (1, 2, 4),
                    ops_per_worker: int = 150, seed: int = 703) -> ExperimentResult:
    spec = WORKLOADS["B"].scaled(record_count=200, value_size=1024)
    table = Table(
        title="E3 YCSB-B throughput (kops/s) vs clients",
        headers=["system"] + [str(c) for c in client_counts],
    )
    for name in ("gengar", "nvm-direct"):
        row: List[float] = []
        for count in client_counts:
            system = boot(name, seed + count, num_servers=2, num_clients=count)
            runner = YcsbRunner(system, spec, num_workers=count,
                                ops_per_worker=ops_per_worker,
                                seed_tag=f"e3.{name}.{count}")
            runner.load()
            result = runner.run()
            row.append(result.throughput_ops_s / 1000.0)
        table.add_row(name, *row)

    # Second axis: memory-server scaling under a fixed, saturating client
    # population — more servers add NVM channels, NICs, and ingress ports.
    servers = Table(
        title="E3b throughput (kops/s) vs memory servers (8 workers)",
        headers=["system"] + [str(s) for s in server_counts],
    )
    heavy = WORKLOADS["A"].scaled(record_count=240, value_size=4096)
    for name in ("gengar", "nvm-direct"):
        row = []
        for count in server_counts:
            # 4 KiB payloads need >4 KiB slots or every write bypasses
            # the proxy (header + payload must fit).
            system = boot(name, seed + 100 + count, num_servers=count,
                          num_clients=4,
                          config_overrides=bench_config(proxy_slot_size=8 * KIB))
            runner = YcsbRunner(system, heavy, num_workers=8,
                                ops_per_worker=ops_per_worker,
                                seed_tag=f"e3b.{name}.{count}")
            runner.load()
            result = runner.run()
            row.append(result.throughput_ops_s / 1000.0)
        servers.add_row(name, *row)
    servers.notes.append("write-heavy 4 KiB ops: added servers widen the "
                         "aggregate NVM write path")

    # Third axis: control-plane scale-out.  Pure alloc/free loops hammer the
    # master with metadata RPCs and never touch the data plane, so the curve
    # isolates master-shard scaling — one master saturates its NIC, shards
    # split the metadata by home server (sid % N) and serve in parallel.
    shard_counts: Sequence[int] = (1, 2, 4)
    shard_workers, shard_ops = 64, 40
    shards_t = Table(
        title="E3c metadata throughput vs master shards (64 workers)",
        headers=["metric"] + [str(s) for s in shard_counts],
    )
    ops_row: List[float] = []
    p99_row: List[float] = []
    for count in shard_counts:
        system = boot("gengar", seed + 200 + count, num_servers=8,
                      num_clients=8,
                      config_overrides=bench_config(num_master_shards=count))
        sim = system.sim
        lat: List[int] = []

        def worker(i, system=system, sim=sim, lat=lat):
            client = system.clients[i % len(system.clients)]
            for _ in range(shard_ops):
                t0 = sim.now
                gaddr = yield from client.gmalloc(128)
                yield from client.gfree(gaddr)
                lat.append(sim.now - t0)

        start = sim.now
        system.run(*[worker(i) for i in range(shard_workers)])
        elapsed = sim.now - start
        lat.sort()
        total = shard_workers * shard_ops
        ops_row.append(total / (elapsed / 1e9) / 1000.0)
        p99_row.append(lat[min(len(lat) - 1, int(len(lat) * 0.99))] / 1000.0)
    shards_t.add_row("alloc/free kops/s", *ops_row)
    shards_t.add_row("p99 latency (us)", *p99_row)
    shards_t.notes.append("metadata-only ops: shards parallelise the master; "
                          "the knee appears once client NICs saturate")

    # Fourth axis: client fanout.  Every client attaches a control QP to
    # every master shard and every server, so this sweeps the servers' RPC
    # receive pools — the elastic shared pool (PROTOCOLS.md §12) grows in
    # powers of two as clients attach, where the historical fixed 16-slot
    # rings wedged at >=16 concurrent clients.
    fanout_counts: Sequence[int] = (16, 32, 64, 128)
    fanout_spec = WORKLOADS["B"].scaled(record_count=256, value_size=128)
    fanout_t = Table(
        title="E3d YCSB-B throughput vs attached clients "
              "(8 servers, 4 shards)",
        headers=["metric"] + [str(c) for c in fanout_counts],
    )
    kops_row: List[float] = []
    slots_row: List[float] = []
    for count in fanout_counts:
        system = boot("gengar", seed + 300 + count, num_servers=8,
                      num_clients=count,
                      config_overrides=bench_config(num_master_shards=4))
        runner = YcsbRunner(system, fanout_spec, num_workers=count,
                            ops_per_worker=20, seed_tag=f"e3d.{count}")
        runner.load()
        result = runner.run()
        kops_row.append(result.throughput_ops_s / 1000.0)
        slots_row.append(
            float(system.pool.master.rpc.pool_stats()["capacity"]))
    fanout_t.add_row("kops/s", *kops_row)
    fanout_t.add_row("master pool slots", *slots_row)
    fanout_t.notes.append("shared receive pools double as clients attach; "
                          "throughput keeps scaling through 64 clients and "
                          "flattens past the NIC knee at 128")
    return ExperimentResult("E3", "throughput scalability",
                            [table, servers, shards_t, fanout_t])


# ---------------------------------------------------------------------------
# E4 — YCSB A-F throughput across systems (the <=70% headline claim)
# ---------------------------------------------------------------------------
def e04_ycsb_throughput(
    workload_names: Sequence[str] = ("A", "B", "C", "D", "E", "F"),
    systems: Sequence[str] = ("gengar", "cache-only", "proxy-only",
                              "nvm-direct", "client-replica"),
    num_workers: int = 4, ops_per_worker: int = 150, seed: int = 704,
) -> ExperimentResult:
    table = Table(
        title="E4 YCSB throughput (kops/s) by system",
        headers=["system"] + [f"YCSB-{w}" for w in workload_names],
    )
    cells: Dict[tuple, float] = {}
    for name in systems:
        row: List[float] = []
        for wname in workload_names:
            spec = WORKLOADS[wname].scaled(record_count=300, value_size=1024)
            system = boot(name, seed + ord(wname), num_servers=2, num_clients=2)
            runner = YcsbRunner(system, spec, num_workers=num_workers,
                                ops_per_worker=ops_per_worker,
                                seed_tag=f"e4.{name}.{wname}")
            runner.load()
            result = runner.run()
            kops = result.throughput_ops_s / 1000.0
            cells[(name, wname)] = kops
            row.append(kops)
        table.add_row(name, *row)

    gain = Table(
        title="E4b Gengar speedup over NVM-direct (paper claims up to 1.7x)",
        headers=["workload", "speedup"],
    )
    for wname in workload_names:
        gain.add_row(f"YCSB-{wname}",
                     speedup(cells[("nvm-direct", wname)], cells[("gengar", wname)]))
    return ExperimentResult("E4", "YCSB A-F throughput", [table, gain])


# ---------------------------------------------------------------------------
# E5 — YCSB latency distribution
# ---------------------------------------------------------------------------
def e05_ycsb_latency(systems: Sequence[str] = ("gengar", "cache-only", "proxy-only",
                                               "nvm-direct"),
                     seed: int = 705) -> ExperimentResult:
    spec = WORKLOADS["A"].scaled(record_count=300, value_size=1024)
    table = Table(
        title="E5 YCSB-A latency (us)",
        headers=["system", "read mean", "read p99", "update mean", "update p99"],
    )
    for name in systems:
        system = boot(name, seed, num_servers=2, num_clients=2)
        runner = YcsbRunner(system, spec, num_workers=4, ops_per_worker=150,
                            seed_tag=f"e5.{name}")
        runner.load()
        result = runner.run()
        read = result.latency_ns.get("read", {})
        update = result.latency_ns.get("update", {})
        table.add_row(
            name,
            read.get("mean", 0) / 1000.0, read.get("p99", 0) / 1000.0,
            update.get("mean", 0) / 1000.0, update.get("p99", 0) / 1000.0,
        )
    return ExperimentResult("E5", "YCSB-A latency distribution", [table])


# ---------------------------------------------------------------------------
# E6 — sensitivity to DRAM cache size
# ---------------------------------------------------------------------------
def e06_cache_size(cache_sizes: Sequence[int] = (64 * KIB, 128 * KIB, 256 * KIB,
                                                 512 * KIB, 1 * MIB),
                   seed: int = 706) -> ExperimentResult:
    spec = WORKLOADS["C"].scaled(record_count=400, value_size=1024)
    table = Table(
        title="E6 cache-size sensitivity (YCSB-C, 400 x 1 KiB records)",
        headers=["cache bytes", "hit ratio", "kops/s"],
    )
    for size in cache_sizes:
        system = boot("gengar", seed, num_servers=1, num_clients=2,
                      config_overrides=bench_config(cache_capacity=size,
                                                    epoch_ns=50_000,
                                                    report_every_ops=16,
                                                    promote_threshold=0.5,
                                                    demote_threshold=0.1))
        runner = YcsbRunner(system, spec, num_workers=4, ops_per_worker=500,
                            seed_tag=f"e6.{size}")
        runner.load()
        result = runner.run()
        table.add_row(size, result.cache_hit_ratio,
                      result.throughput_ops_s / 1000.0)
    table.notes.append("working set ~400 KiB: hit ratio saturates once it fits")
    return ExperimentResult("E6", "DRAM buffer size sensitivity", [table])


# ---------------------------------------------------------------------------
# E7 — sensitivity to access skew
# ---------------------------------------------------------------------------
def e07_skew(thetas: Sequence[float] = (0.5, 0.7, 0.9, 0.99),
             seed: int = 707) -> ExperimentResult:
    table = Table(
        title="E7 skew sensitivity (YCSB-C)",
        headers=["system"] + [f"theta={t}" for t in thetas],
    )
    hits = Table(
        title="E7b Gengar cache hit ratio vs skew",
        headers=["theta", "hit ratio"],
    )
    for name in ("gengar", "nvm-direct"):
        row: List[float] = []
        for theta in thetas:
            spec = WORKLOADS["C"].scaled(record_count=400, value_size=1024,
                                         zipf_theta=theta)
            system = boot(name, seed, num_servers=1, num_clients=2,
                          config_overrides=bench_config(cache_capacity=128 * KIB))
            runner = YcsbRunner(system, spec, num_workers=4, ops_per_worker=150,
                                seed_tag=f"e7.{name}.{theta}")
            runner.load()
            result = runner.run()
            row.append(result.throughput_ops_s / 1000.0)
            if name == "gengar":
                hits.add_row(theta, result.cache_hit_ratio)
        table.add_row(name, *row)
    table.notes.append("cache sized below the working set: skew decides its value")
    return ExperimentResult("E7", "zipfian skew sensitivity", [table, hits])


# ---------------------------------------------------------------------------
# E8 — hot-data identification policy comparison
# ---------------------------------------------------------------------------
def e08_hotness_policy(seed: int = 708) -> ExperimentResult:
    # Large values make the DRAM/NVM read gap dominate, so placement quality
    # shows directly in throughput, not just hit ratio.
    spec = WORKLOADS["B"].scaled(record_count=300, value_size=4096)
    # 8 KiB proxy slots: a whole-object write (header + 4 KiB) must fit one
    # slot, or the object could be written straight to NVM and the
    # drain-coherence gate would never cache it (docs/PROTOCOLS.md §3.5).
    config = bench_config(cache_capacity=256 * KIB, epoch_ns=50_000,
                          report_every_ops=16, proxy_slot_size=8 * KIB)
    policies: Dict[str, Callable] = {
        "gengar-epoch-decay": lambda: EpochDecayPolicy(
            decay=0.5, promote_threshold=0.5, demote_threshold=0.1),
        "lru": LruPolicy,
        "lfu": lambda: LfuPolicy(promote_threshold=2.0),
        "random": lambda: RandomPolicy(random.Random(seed), churn=8),
        "no-cache": NeverCachePolicy,
    }
    table = Table(
        title="E8 placement policy comparison (YCSB-B, 4 KiB values, 256 KiB cache)",
        headers=["policy", "hit ratio", "kops/s"],
    )
    for pname, factory in policies.items():
        sim = Simulator(seed=seed)
        system = build_system(
            "gengar", sim, num_servers=1, num_clients=2,
            config_overrides=config,
            policy_factory=factory,
        )
        runner = YcsbRunner(system, spec, num_workers=4, ops_per_worker=400,
                            seed_tag=f"e8.{pname}")
        runner.load()
        result = runner.run()
        table.add_row(pname, result.cache_hit_ratio,
                      result.throughput_ops_s / 1000.0)
    table.notes.append("8 KiB proxy slots, so every 4 KiB object is cacheable")

    # Second table: the hot set *shifts* halfway through.  Decay adapts;
    # undecayed lifetime counts (LFU) keep caching yesterday's hot keys.
    shift = Table(
        title="E8b hit ratio after a hot-set shift (phase-2 only)",
        headers=["policy", "phase-2 hit ratio"],
    )
    from repro.apps.kvstore import KvStore
    from repro.workloads.zipf import ZipfianGenerator

    for pname, factory in policies.items():
        if pname == "no-cache":
            continue
        sim = Simulator(seed=seed + 1)
        system = build_system(
            "gengar", sim, num_servers=1, num_clients=2,
            config_overrides=config,
            policy_factory=factory,
        )
        store = KvStore(4096)
        n = 300

        def load(sim):
            yield from store.load(system.clients[0], range(n),
                                  lambda k: b"\x11" * 4096)

        system.run(load(sim))

        def phase(worker_idx: int, rotate: int, ops: int):
            client = system.clients[worker_idx % len(system.clients)]
            zipf = ZipfianGenerator(
                n, 0.99, sim.rng.stream(f"e8b.{pname}.{worker_idx}.{rotate}"))
            for _ in range(ops):
                key = (zipf.next() + rotate) % n
                yield from store.get(client, key)

        system.run(*[phase(i, 0, 300) for i in range(4)])
        hits0 = sim.metrics.counter("pool.cache_hits").count
        reads0 = sim.metrics.counter("pool.reads").count
        system.run(*[phase(i, n // 2, 300) for i in range(4)])
        hits = sim.metrics.counter("pool.cache_hits").count - hits0
        reads = sim.metrics.counter("pool.reads").count - reads0
        shift.add_row(pname, hits / reads if reads else 0.0)

    return ExperimentResult("E8", "hot-data identification quality",
                            [table, shift])


# ---------------------------------------------------------------------------
# E9 — proxy behaviour under write bursts
# ---------------------------------------------------------------------------
def e09_proxy_drain(burst: int = 64, write_size: int = 2048,
                    seed: int = 709) -> ExperimentResult:
    bucket_size = 8
    buckets = burst // bucket_size
    series = Table(
        title="E9 ack latency (us) during a write burst (per 8-op bucket)",
        headers=["system"] + [f"ops {i * bucket_size}-{(i + 1) * bucket_size - 1}"
                              for i in range(buckets)],
    )
    drain = Table(
        title="E9b burst absorption",
        headers=["system", "burst time (us)", "drain time (us)", "peak ring occupancy"],
    )
    for name in ("gengar", "nvm-direct"):
        system = boot(name, seed, num_servers=1, num_clients=1,
                      config_overrides=bench_config(proxy_ring_slots=32))
        client = system.clients[0]
        sim = system.sim
        latencies: List[int] = []
        info: Dict[str, int] = {}

        def app(sim):
            gaddr = yield from client.gmalloc(write_size)
            t_start = sim.now
            for i in range(burst):
                t0 = sim.now
                yield from client.gwrite(gaddr, bytes([i % 256]) * write_size)
                latencies.append(sim.now - t0)
            info["burst_time"] = sim.now - t_start
            t0 = sim.now
            yield from client.gsync()
            info["drain_time"] = sim.now - t0

        system.run(app(sim))
        row = [
            sum(latencies[i * bucket_size:(i + 1) * bucket_size]) / bucket_size / 1000.0
            for i in range(buckets)
        ]
        series.add_row(name, *row)
        occupancy = sim.metrics.level("server0.proxy.occupancy").peak if name == "gengar" else 0
        drain.add_row(name, info["burst_time"] / 1000.0,
                      info["drain_time"] / 1000.0, occupancy)
    series.notes.append("gengar absorbs the burst at DRAM speed until the ring fills")
    return ExperimentResult("E9", "proxy burst absorption and drain", [series, drain])


# ---------------------------------------------------------------------------
# E10 — MapReduce job time (the second headline claim)
# ---------------------------------------------------------------------------
def e10_mapreduce(systems: Sequence[str] = ("gengar", "cache-only", "proxy-only",
                                            "nvm-direct", "dram-only"),
                  num_chunks: int = 16, chunk_bytes: int = 64 * KIB,
                  iterations: int = 4, sort_records: int = 6000,
                  seed: int = 710) -> ExperimentResult:
    """Iterative analytics over pool-resident input, the paper's MapReduce
    scenario: successive jobs re-read the same input splits, so Gengar's
    hot-data cache progressively moves them into server DRAM."""
    per_iter = Table(
        title="E10 iterative wordcount: per-iteration time (ms)",
        headers=["system"] + [f"iter {i + 1}" for i in range(iterations)] + ["sort"],
    )
    summary = Table(
        title="E10b total pipeline time (ms) and speedup vs NVM-direct",
        headers=["system", "total", "speedup"],
    )
    totals: Dict[str, float] = {}
    rows: Dict[str, List[float]] = {}
    reference_output: Dict[str, Any] = {}
    for name in systems:
        # Input chunks are read once per iteration: promote on low scores.
        system = boot(name, seed, num_servers=2, num_clients=2,
                      config_overrides=bench_config(proxy_slot_size=128 * KIB,
                                                    proxy_ring_slots=16,
                                                    epoch_ns=50_000,
                                                    report_every_ops=8,
                                                    promote_threshold=0.5,
                                                    demote_threshold=0.1))
        corpus = CorpusGenerator(vocab_size=200, rng=random.Random(seed))
        chunks = corpus.chunks(num_chunks, chunk_bytes)
        engine = MapReduceEngine(system.clients)
        sim = system.sim
        outcome: Dict[str, Any] = {"iters": []}

        def pipeline(sim):
            addrs = yield from engine.ingest(system.clients[0], chunks)
            for _ in range(iterations):
                result = yield from engine.run(wordcount_job(num_reducers=4),
                                               addrs, [len(c) for c in chunks])
                outcome["iters"].append(result)
                # Inter-job gap: planner epochs fire, promotions land.
                yield 120_000
            outcome["wc"] = outcome["iters"][-1]

        def sort_app(sim):
            rng = random.Random(seed + 1)
            records = [rng.randrange(10**9) for _ in range(sort_records)]
            ordered, elapsed = yield from distributed_sort(
                system.clients, records, num_partitions=4)
            assert ordered == sorted(records)
            outcome["sort_ns"] = elapsed

        system.run(pipeline(sim))
        system.run(sort_app(sim))
        iter_ms = [r.elapsed_ns / 1e6 for r in outcome["iters"]]
        rows[name] = iter_ms + [outcome["sort_ns"] / 1e6]
        totals[name] = sum(iter_ms)
        if reference_output:
            assert outcome["wc"].output == reference_output["wc"], (
                f"system {name} computed different word counts"
            )
        else:
            reference_output["wc"] = outcome["wc"].output
    for name in systems:
        per_iter.add_row(name, *rows[name])
        summary.add_row(name, totals[name],
                        speedup(totals[name], totals["nvm-direct"]))
    per_iter.notes.append(
        "iterations 2+ re-read input that Gengar has promoted into DRAM"
    )
    return ExperimentResult("E10", "MapReduce job completion time",
                            [per_iter, summary])


# ---------------------------------------------------------------------------
# E11 — multi-user sharing / consistency overhead
# ---------------------------------------------------------------------------
def e11_sharing(share_ratios: Sequence[float] = (0.0, 0.25, 0.5, 1.0),
                num_clients: int = 4, ops_per_worker: int = 80,
                seed: int = 711) -> ExperimentResult:
    table = Table(
        title="E11 throughput (kops/s) vs fraction of locked shared-object ops",
        headers=["share ratio", "kops/s", "lock retries"],
    )
    for ratio in share_ratios:
        system = boot("gengar", seed, num_servers=1, num_clients=num_clients)
        sim = system.sim
        setupd: Dict[str, Any] = {}

        def setup(sim):
            shared = yield from system.clients[0].gmalloc(1024)
            yield from system.clients[0].gwrite(shared, bytes(1024))
            yield from system.clients[0].gsync()
            privates = []
            for client in system.clients:
                g = yield from client.gmalloc(1024)
                yield from client.gwrite(g, bytes(1024))
                privates.append(g)
            setupd["shared"] = shared
            setupd["privates"] = privates

        system.run(setup(sim))
        retries_base = sim.metrics.counter("pool.lock_retries").count

        def worker(idx: int):
            client = system.clients[idx]
            rng = sim.rng.stream(f"e11.{ratio}.{idx}")
            for i in range(ops_per_worker):
                if rng.random() < ratio:
                    g = setupd["shared"]
                    yield from client.glock(g, write=True)
                    yield from client.gwrite(g, bytes([i % 256]) * 1024)
                    yield from client.gunlock(g, write=True)
                else:
                    yield from client.gwrite(setupd["privates"][idx],
                                             bytes([i % 256]) * 1024)

        t0 = sim.now
        system.run(*[worker(i) for i in range(num_clients)])
        elapsed = sim.now - t0
        total_ops = num_clients * ops_per_worker
        retries = sim.metrics.counter("pool.lock_retries").count - retries_base
        table.add_row(ratio, ops_per_sec(total_ops, elapsed) / 1000.0, retries)
    table.notes.append("ratio 0 = embarrassingly parallel; 1 = fully serialized")
    return ExperimentResult("E11", "sharing/consistency overhead", [table])


# ---------------------------------------------------------------------------
# E12 — design-choice ablations
# ---------------------------------------------------------------------------
def e12_ablation(seed: int = 712) -> ExperimentResult:
    spec = WORKLOADS["A"].scaled(record_count=300, value_size=1024)

    mech = Table(
        title="E12 mechanism ablation (YCSB-A kops/s, mean of 3 seeds)",
        headers=["variant", "kops/s", "hit ratio"],
    )
    for name in ("gengar", "cache-only", "proxy-only", "nvm-direct"):
        kops: List[float] = []
        hit: List[float] = []
        for s in range(3):
            system = boot(name, seed + s, num_servers=2, num_clients=2)
            runner = YcsbRunner(system, spec, num_workers=4, ops_per_worker=150,
                                seed_tag=f"e12m.{name}.{s}")
            runner.load()
            result = runner.run()
            kops.append(result.throughput_ops_s / 1000.0)
            hit.append(result.cache_hit_ratio)
        mech.add_row(name, sum(kops) / len(kops), sum(hit) / len(hit))

    epochs = Table(
        title="E12b hotness epoch length (YCSB-C hit ratio)",
        headers=["epoch (us)", "hit ratio", "kops/s"],
    )
    cspec = WORKLOADS["C"].scaled(record_count=300, value_size=1024)
    for epoch_ns in (50_000, 200_000, 1_000_000):
        system = boot("gengar", seed, num_servers=1, num_clients=2,
                      config_overrides=bench_config(epoch_ns=epoch_ns))
        runner = YcsbRunner(system, cspec, num_workers=4, ops_per_worker=150,
                            seed_tag=f"e12e.{epoch_ns}")
        runner.load()
        result = runner.run()
        epochs.add_row(epoch_ns / 1000, result.cache_hit_ratio,
                       result.throughput_ops_s / 1000.0)

    rings = Table(
        title="E12c proxy ring size under a 64-write burst",
        headers=["ring slots", "avg ack latency (us)"],
    )
    for slots in (4, 16, 64):
        system = boot("gengar", seed, num_servers=1, num_clients=1,
                      config_overrides=bench_config(proxy_ring_slots=slots,
                                                    enable_cache=False))
        client = system.clients[0]
        sim = system.sim
        lat: List[int] = []

        def app(sim):
            gaddr = yield from client.gmalloc(2048)
            for i in range(64):
                t0 = sim.now
                yield from client.gwrite(gaddr, bytes([i % 256]) * 2048)
                lat.append(sim.now - t0)

        system.run(app(sim))
        rings.add_row(slots, sum(lat) / len(lat) / 1000.0)

    meta = Table(
        title="E12d client metadata cache (YCSB-C kops/s)",
        headers=["metadata cache", "kops/s", "lookup RPCs"],
    )
    for enabled in (True, False):
        system = boot("gengar", seed, num_servers=1, num_clients=2,
                      config_overrides=bench_config(metadata_cache=enabled))
        runner = YcsbRunner(system, cspec, num_workers=4, ops_per_worker=100,
                            seed_tag=f"e12md.{enabled}")
        runner.load()
        result = runner.run()
        lookups = system.sim.metrics.counter("pool.lookups").count
        meta.add_row("on" if enabled else "off",
                     result.throughput_ops_s / 1000.0, lookups)

    journal = Table(
        title="E12e metadata journal cost (gmalloc latency, us)",
        headers=["journal", "gmalloc mean (us)"],
    )
    for enabled in (False, True):
        system = boot("gengar", seed, num_servers=1, num_clients=1,
                      config_overrides=bench_config(metadata_journal=enabled))
        client = system.clients[0]
        sim = system.sim
        lat: List[int] = []

        def alloc_app(sim):
            for _ in range(40):
                t0 = sim.now
                yield from client.gmalloc(256)
                lat.append(sim.now - t0)

        system.run(alloc_app(sim))
        journal.add_row("on" if enabled else "off",
                        sum(lat) / len(lat) / 1000.0)
    journal.notes.append("durability of allocation metadata costs one "
                         "journal RPC + NVM write per gmalloc")

    return ExperimentResult("E12", "design-choice ablations",
                            [mech, epochs, rings, meta, journal])


# ---------------------------------------------------------------------------
# X1 — extension beyond the paper: open-loop saturation
# ---------------------------------------------------------------------------
def x01_open_loop_saturation(
    offered_kops: Sequence[int] = (200, 1000, 1600, 2000),
    duration_ns: int = 400_000, seed: int = 801,
) -> ExperimentResult:
    """Offered-load sweep with an open-loop trace replayer.

    Closed-loop YCSB can never push a system past saturation; an open-loop
    trace (ops issued at their timestamps regardless of completions) can.
    We sweep the offered write-heavy load and watch p99 latency: the system
    whose write path is slower (NVM-direct) collapses earlier than Gengar's
    proxy-staged path.  This validates C2 from a direction the paper's own
    figures cannot.
    """
    import random as _random

    from repro.apps.kvstore import KvStore
    from repro.workloads.traces import TraceReplayer, generate_trace

    table = Table(
        title="X1 write p99 latency (us) vs offered load (kops/s, open loop)",
        headers=["system"] + [str(k) for k in offered_kops],
    )
    for name in ("gengar", "nvm-direct"):
        row: List[float] = []
        for kops in offered_kops:
            system = boot(name, seed, num_servers=1, num_clients=2,
                          config_overrides=bench_config(proxy_ring_slots=128))
            sim = system.sim
            store = KvStore(1024)

            def load(sim):
                yield from store.load(system.clients[0], range(100),
                                      lambda k: bytes([k % 256]) * 1024)

            system.run(load(sim))
            interarrival = max(1, round(1e9 / (kops * 1000)))
            ops = generate_trace(
                _random.Random(seed), duration_ns=duration_ns,
                mean_interarrival_ns=interarrival, record_count=100,
                read_fraction=0.2, value_size=1024,
            )
            replayer = TraceReplayer(system.clients, store, value_size=1024)
            holder: Dict[str, Any] = {}

            def run(sim):
                holder["result"] = yield from replayer.replay(ops)

            system.run(run(sim))
            result = holder["result"]
            write_lat = result.latency_by_kind.get("write", {})
            row.append(write_lat.get("p99", 0.0) / 1000.0)
        table.add_row(name, *row)
    table.notes.append("extension experiment (not a paper figure): open-loop "
                       "replay exposes the write path's queueing behaviour; "
                       "each connection applies its 1 KiB NVM writes one at a "
                       "time (~570 kops/s), which NVM-direct hits first and "
                       "Gengar's proxy rings absorb")
    return ExperimentResult("X1", "open-loop saturation (extension)", [table])


# ---------------------------------------------------------------------------
# X2 — extension beyond the paper: rack locality on a two-tier fabric
# ---------------------------------------------------------------------------
def x02_rack_locality(value_size: int = 4096, seed: int = 802,
                      ops_per_worker: int = 150) -> ExperimentResult:
    """Same workload, three placements on an oversubscribed two-tier fabric:
    clients co-racked with the servers, clients across the core, and
    cross-rack with the core heavily oversubscribed.  Quantifies how much of
    Gengar's behaviour survives leaving the rack."""
    from repro.hardware.specs import DEFAULT_LINK, LinkSpec

    spec = WORKLOADS["C"].scaled(record_count=200, value_size=value_size)
    table = Table(
        title="X2 YCSB-C on a two-tier fabric (kops/s / read mean us)",
        headers=["placement", "kops/s", "read mean (us)"],
    )
    placements = {
        "same rack": ({"server0": "r0", "server1": "r0",
                       "client0": "r0", "client1": "r0", "master": "r0"}, None),
        "cross rack (2:1 core)": ({"server0": "r0", "server1": "r0",
                                   "client0": "r1", "client1": "r1",
                                   "master": "r1"},
                                  DEFAULT_LINK.bandwidth / 2),
        "cross rack (8:1 core)": ({"server0": "r0", "server1": "r0",
                                   "client0": "r1", "client1": "r1",
                                   "master": "r1"},
                                  DEFAULT_LINK.bandwidth / 8),
    }
    for label, (plan, core_bw) in placements.items():
        link = LinkSpec(
            bandwidth=DEFAULT_LINK.bandwidth,
            propagation_ns=DEFAULT_LINK.propagation_ns,
            header_bytes=DEFAULT_LINK.header_bytes,
            core_bandwidth=core_bw,
            core_hop_ns=300,
        )
        system = boot("gengar", seed, num_servers=2, num_clients=2,
                      link=link, rack_plan=plan)
        runner = YcsbRunner(system, spec, num_workers=4,
                            ops_per_worker=ops_per_worker,
                            seed_tag=f"x2.{label}")
        runner.load()
        result = runner.run()
        read = result.latency_ns.get("read", {})
        table.add_row(label, result.throughput_ops_s / 1000.0,
                      read.get("mean", 0) / 1000.0)
    table.notes.append("extension experiment: the DRAM cache cuts NVM time "
                       "but cannot cut core-network time — locality still "
                       "dominates on oversubscribed fabrics")

    # X2b: rack-local placement on a partitioned workload (each client
    # churns its own objects) - the case affinity-aware allocation targets.
    placement_tbl = Table(
        title="X2b partitioned workload: placement policy (kops/s)",
        headers=["placement", "kops/s", "inter-rack msgs"],
    )
    for policy_name in ("round-robin", "rack-local"):
        link = LinkSpec(
            bandwidth=DEFAULT_LINK.bandwidth,
            propagation_ns=DEFAULT_LINK.propagation_ns,
            header_bytes=DEFAULT_LINK.header_bytes,
            core_bandwidth=DEFAULT_LINK.bandwidth / 8,
            core_hop_ns=300,
        )
        system = boot("gengar", seed + 7, num_servers=2, num_clients=2,
                      link=link,
                      rack_plan={"server0": "r0", "server1": "r1",
                                 "client0": "r0", "client1": "r1",
                                 "master": "r0"},
                      config_overrides=bench_config(placement=policy_name,
                                                    proxy_slot_size=8 * KIB))
        sim = system.sim
        per_worker = 120
        value = 4096

        def worker(idx):
            client = system.clients[idx]
            addrs = []
            for _ in range(10):
                g = yield from client.gmalloc(value)
                addrs.append(g)
            for i in range(per_worker):
                g = addrs[i % len(addrs)]
                if i % 3 == 0:
                    yield from client.gwrite(g, bytes([i % 256]) * value)
                else:
                    yield from client.gread(g)

        t0 = sim.now
        system.run(*[worker(i) for i in range(2)])
        elapsed = sim.now - t0
        placement_tbl.add_row(
            policy_name,
            ops_per_sec(2 * per_worker, elapsed) / 1000.0,
            system.pool.cluster.fabric.inter_rack_messages.count,
        )
    placement_tbl.notes.append("rack-local allocation keeps each client's "
                               "working set behind its own ToR")
    return ExperimentResult("X2", "rack locality (extension)",
                            [table, placement_tbl])


# ---------------------------------------------------------------------------
# X3 — extension: attributing the YCSB-F regression to release consistency
# ---------------------------------------------------------------------------
def x03_release_consistency_tax(seed: int = 803,
                                ops_per_worker: int = 150) -> ExperimentResult:
    """E4 found Gengar *losing* on YCSB-F (locked read-modify-writes).  This
    ablation attributes the loss: with the release-time gsync disabled
    (weaker guarantee), the proxy's advantage returns — i.e. the regression
    is entirely the synchronous drain wait that release consistency puts
    back on the critical path."""
    spec = WORKLOADS["F"].scaled(record_count=300, value_size=1024)
    table = Table(
        title="X3 YCSB-F throughput (kops/s) vs release-consistency mode",
        headers=["variant", "kops/s", "rmw mean (us)"],
    )
    variants = {
        "gengar (sync release)": ("gengar", True),
        "gengar (unsafe release)": ("gengar", False),
        "nvm-direct": ("nvm-direct", True),
    }
    for label, (name, sync_release) in variants.items():
        system = boot(name, seed, num_servers=2, num_clients=2,
                      config_overrides=bench_config(
                          sync_on_release=sync_release))
        runner = YcsbRunner(system, spec, num_workers=4,
                            ops_per_worker=ops_per_worker,
                            seed_tag=f"x3.{label}")
        runner.load()
        result = runner.run()
        rmw = result.latency_ns.get("rmw", {})
        table.add_row(label, result.throughput_ops_s / 1000.0,
                      rmw.get("mean", 0) / 1000.0)
    table.notes.append("unsafe release drops the guarantee that the next "
                       "lock holder sees the writes; measurement only")
    return ExperimentResult("X3", "release-consistency tax (extension)", [table])


#: All experiments in id order, for the harness and docs.
ALL_EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "E1": e01_read_latency,
    "E2": e02_write_latency,
    "E3": e03_scalability,
    "E4": e04_ycsb_throughput,
    "E5": e05_ycsb_latency,
    "E6": e06_cache_size,
    "E7": e07_skew,
    "E8": e08_hotness_policy,
    "E9": e09_proxy_drain,
    "E10": e10_mapreduce,
    "E11": e11_sharing,
    "E12": e12_ablation,
    # Extension experiments (beyond the paper's figures).
    "X1": x01_open_loop_saturation,
    "X2": x02_rack_locality,
    "X3": x03_release_consistency_tax,
}
