"""The YCSB driver: loads a KV store and runs closed-loop workers.

The driver is system-agnostic: it only uses the uniform client API, so every
comparator runs exactly the same operation stream (same seeds, same keys).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator

from repro.apps.kvstore import KvStore
from repro.baselines.common import BuiltSystem
from repro.sim.stats import Histogram
from repro.sim.units import ops_per_sec
from repro.workloads.ycsb import Op, WorkloadSpec, YcsbGenerator


@dataclass
class YcsbResult:
    """Measurements from one YCSB run."""

    system: str
    workload: str
    total_ops: int
    elapsed_ns: int
    throughput_ops_s: float
    latency_ns: Dict[str, Dict[str, float]] = field(default_factory=dict)
    cache_hit_ratio: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)


class YcsbRunner:
    """Runs one workload against one built system."""

    def __init__(self, system: BuiltSystem, spec: WorkloadSpec,
                 num_workers: int = 4, ops_per_worker: int = 250,
                 seed_tag: str = "ycsb", read_batch: int = 8):
        if num_workers < 1 or ops_per_worker < 1:
            raise ValueError("workers and ops must be positive")
        if read_batch < 1:
            raise ValueError("read_batch must be >= 1")
        self.system = system
        self.spec = spec
        self.num_workers = num_workers
        self.ops_per_worker = ops_per_worker
        self.seed_tag = seed_tag
        #: Consecutive READ ops per worker are coalesced into one
        #: doorbell-batched ``multi_get`` of up to this many keys — the
        #: pipelining a real closed-loop YCSB client gets from issuing its
        #: independent point reads back to back.  1 restores the fully
        #: serial historical behaviour.
        self.read_batch = read_batch
        self.store = KvStore(spec.value_size)
        sim = system.sim
        self._hists: Dict[str, Histogram] = {
            kind: Histogram(f"{seed_tag}.{kind}")
            for kind in ("overall", "read", "update", "insert", "scan", "rmw")
        }
        self._rng_registry = sim.rng

    # ------------------------------------------------------------------
    def load(self) -> None:
        """Bulk-load the records, spread across all clients in parallel."""
        clients = self.system.clients
        spec = self.spec
        loader_gen = YcsbGenerator(spec, self._rng_registry.stream(f"{self.seed_tag}.load"))

        def load_shard(client, keys):
            yield from self.store.load(client, keys,
                                       lambda k: loader_gen.value(k, version=0))

        shards = [
            load_shard(clients[i % len(clients)],
                       range(i, spec.record_count, len(clients)))
            for i in range(len(clients))
        ]
        self.system.run(*shards)

    # ------------------------------------------------------------------
    def run(self) -> YcsbResult:
        """Execute the measurement phase; returns the aggregated result."""
        sim = self.system.sim
        clients = self.system.clients
        start = sim.now
        hit_base = sim.metrics.counter("pool.cache_hits").count
        read_base = sim.metrics.counter("pool.reads").count

        workers = [
            self._worker(i, clients[i % len(clients)])
            for i in range(self.num_workers)
        ]
        self.system.run(*workers)
        elapsed = sim.now - start

        total_ops = self.num_workers * self.ops_per_worker
        hits = sim.metrics.counter("pool.cache_hits").count - hit_base
        reads = sim.metrics.counter("pool.reads").count - read_base
        latency = {
            kind: hist.snapshot()
            for kind, hist in self._hists.items()
            if hist.count
        }
        return YcsbResult(
            system=self.system.name,
            workload=self.spec.name,
            total_ops=total_ops,
            elapsed_ns=elapsed,
            throughput_ops_s=ops_per_sec(total_ops, elapsed),
            latency_ns=latency,
            cache_hit_ratio=hits / reads if reads else 0.0,
        )

    # ------------------------------------------------------------------
    def _worker(self, index: int, client) -> Generator[Any, Any, None]:
        sim = self.system.sim
        gen = YcsbGenerator(
            self.spec, self._rng_registry.stream(f"{self.seed_tag}.w{index}")
        )
        insert_seq = 0
        pending_reads: list = []  # run of consecutive READ keys

        def flush_reads():
            """Issue the accumulated read run as one batched multi_get.

            Each member op's histogram sample is the batch's elapsed time —
            the latency an individual read *observed* (issue to harvest),
            which is what a pipelined closed-loop client experiences.
            """
            t0 = sim.now
            yield from self.store.multi_get(client, pending_reads)
            dt = sim.now - t0
            for _ in pending_reads:
                self._hists["overall"].record(dt)
                self._hists[Op.READ.value].record(dt)
            pending_reads.clear()

        for op, key, scan_len in gen.ops(self.ops_per_worker):
            if op is Op.READ:
                pending_reads.append(self._existing_key(key))
                if len(pending_reads) >= self.read_batch:
                    yield from flush_reads()
                continue
            if pending_reads:
                yield from flush_reads()
            t0 = sim.now
            if op is Op.UPDATE:
                key = self._existing_key(key)
                yield from self.store.put(client, key,
                                          gen.value(key, version=1 + index))
            elif op is Op.INSERT:
                # Workers own disjoint insert key ranges so ids never clash.
                new_key = (self.spec.record_count
                           + index + self.num_workers * insert_seq)
                insert_seq += 1
                if new_key not in self.store:
                    yield from self.store.insert(client, new_key,
                                                 gen.value(new_key, version=0))
            elif op is Op.SCAN:
                key = self._existing_key(key)
                yield from self.store.scan(client, key, scan_len)
            elif op is Op.RMW:
                key = self._existing_key(key)
                yield from self.store.read_modify_write(client, key, self._bump)
            dt = sim.now - t0
            self._hists["overall"].record(dt)
            self._hists[op.value].record(dt)
        if pending_reads:
            yield from flush_reads()

    def _existing_key(self, key: int) -> int:
        # Dynamic inserts from other workers may not be indexed yet when the
        # generator references them; clamp to the loaded range in that case.
        if key in self.store:
            return key
        return key % self.spec.record_count

    def _bump(self, old: bytes) -> bytes:
        value = int.from_bytes(old[:8], "little") + 1
        return value.to_bytes(8, "little") + old[8:]
