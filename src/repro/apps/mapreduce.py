"""A MapReduce engine whose data plane lives in the pool.

The paper's MapReduce evaluation stores job input and shuffle data in the
distributed memory pool.  This engine does the same:

1. **Ingest** — input splits are written as pool objects.
2. **Map** — worker processes read their splits (``gread``), run the map
   function (charged CPU time proportional to bytes), partition the output
   by reducer, serialize each partition, and write it back (``gwrite``) —
   the shuffle data.
3. **Reduce** — workers read every map output for their partition, merge
   with the reduce function, and write the final output objects.

The computation is real (wordcount counts actual words), so tests verify
both answers and timing behaviour.  Mappers and reducers are spread
round-robin over the system's clients, exactly how the paper's compute
nodes share the pool.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Tuple

#: CPU model: ~2 GB/s of per-byte map/reduce processing.
CPU_NS_PER_BYTE = 0.5
#: Fixed task overheads (scheduling, setup).
TASK_OVERHEAD_NS = 5_000


class MapReduceError(Exception):
    """Job configuration or execution failure."""


def stable_partition(key: Any, r: int) -> int:
    """Route a key to one of ``r`` reducers by its content.

    Never by ``hash()``: ``str`` hashes follow ``PYTHONHASHSEED``, so shuffle
    sizes — and with them virtual time — would follow the host process.
    """
    if isinstance(key, int):
        return key % r
    return zlib.crc32(key.encode() if isinstance(key, str) else key) % r


@dataclass
class JobSpec:
    """One MapReduce job.

    ``map_fn(chunk: bytes) -> dict[key, value]`` and
    ``reduce_fn(values: list[value]) -> value`` must be pure.
    ``partition_fn`` routes keys to reducers (defaults to
    :func:`stable_partition`).
    """

    name: str
    map_fn: Callable[[bytes], Dict[Any, Any]]
    reduce_fn: Callable[[List[Any]], Any]
    num_reducers: int = 4
    partition_fn: Callable[[Any, int], int] = stable_partition


@dataclass
class JobResult:
    """Outcome of a run: the merged output and timing."""

    output: Dict[Any, Any]
    elapsed_ns: int
    map_time_ns: int
    reduce_time_ns: int
    shuffle_bytes: int


class MapReduceEngine:
    """Runs jobs over one built system's clients."""

    def __init__(self, clients: List, max_object_bytes: int = 128 * 1024):
        if not clients:
            raise MapReduceError("need at least one client")
        self.clients = clients
        self.max_object_bytes = max_object_bytes

    # ------------------------------------------------------------------
    def ingest(self, client, chunks: List[bytes]) -> Generator[Any, Any, List[int]]:
        """Write input splits into the pool; returns their addresses."""
        addrs: List[int] = []
        for chunk in chunks:
            if len(chunk) > self.max_object_bytes:
                raise MapReduceError(
                    f"chunk of {len(chunk)} bytes exceeds the object cap "
                    f"{self.max_object_bytes}"
                )
            gaddr = yield from client.gmalloc(len(chunk))
            yield from client.gwrite(gaddr, chunk)
            addrs.append(gaddr)
        yield from client.gsync()
        return addrs

    def run(self, job: JobSpec, input_addrs: List[int],
            input_sizes: List[int]) -> Generator[Any, Any, JobResult]:
        """Execute ``job`` over already-ingested input splits."""
        if len(input_addrs) != len(input_sizes):
            raise MapReduceError("addrs and sizes length mismatch")
        sim = self.clients[0].sim
        start = sim.now
        shuffle: Dict[Tuple[int, int], Tuple[int, int]] = {}  # (m, r) -> (gaddr, size)
        shuffle_bytes = 0

        # ---- Map phase -------------------------------------------------
        def mapper(m: int, gaddr: int, size: int):
            client = self.clients[m % len(self.clients)]
            yield TASK_OVERHEAD_NS
            chunk = yield from client.gread(gaddr)
            yield from client.node.cpu_work(int(len(chunk) * CPU_NS_PER_BYTE))
            output = job.map_fn(chunk)
            partitions: List[Dict[Any, Any]] = [dict() for _ in range(job.num_reducers)]
            for key, value in output.items():
                partitions[job.partition_fn(key, job.num_reducers)][key] = value
            for r, part in enumerate(partitions):
                blob = pickle.dumps(part, protocol=pickle.HIGHEST_PROTOCOL)
                out_addr = yield from client.gmalloc(len(blob))
                yield from client.gwrite(out_addr, blob)
                shuffle[(m, r)] = (out_addr, len(blob))
            yield from client.gsync()

        map_start = sim.now
        procs = [
            sim.spawn(mapper(m, gaddr, size))
            for m, (gaddr, size) in enumerate(zip(input_addrs, input_sizes))
        ]
        yield sim.all_of(procs)
        map_time = sim.now - map_start
        shuffle_bytes = sum(size for _addr, size in shuffle.values())

        # ---- Reduce phase ----------------------------------------------
        results: Dict[int, Dict[Any, Any]] = {}

        def reducer(r: int):
            client = self.clients[r % len(self.clients)]
            yield TASK_OVERHEAD_NS
            merged: Dict[Any, List[Any]] = {}
            for m in range(len(input_addrs)):
                addr, size = shuffle[(m, r)]
                blob = yield from client.gread(addr)
                yield from client.node.cpu_work(int(len(blob) * CPU_NS_PER_BYTE))
                for key, value in pickle.loads(blob).items():
                    merged.setdefault(key, []).append(value)
            reduced = {key: job.reduce_fn(values) for key, values in merged.items()}
            blob = pickle.dumps(reduced, protocol=pickle.HIGHEST_PROTOCOL)
            if len(blob) <= self.max_object_bytes:
                out_addr = yield from client.gmalloc(len(blob))
                yield from client.gwrite(out_addr, blob)
                yield from client.gsync()
            results[r] = reduced

        reduce_start = sim.now
        procs = [sim.spawn(reducer(r)) for r in range(job.num_reducers)]
        yield sim.all_of(procs)
        reduce_time = sim.now - reduce_start

        output: Dict[Any, Any] = {}
        for partial in results.values():
            output.update(partial)
        return JobResult(
            output=output,
            elapsed_ns=sim.now - start,
            map_time_ns=map_time,
            reduce_time_ns=reduce_time,
            shuffle_bytes=shuffle_bytes,
        )


# ---------------------------------------------------------------------------
# Canonical jobs
# ---------------------------------------------------------------------------
def wordcount_job(num_reducers: int = 4) -> JobSpec:
    """Count word occurrences in text splits."""

    def map_fn(chunk: bytes) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for word in chunk.decode().split():
            counts[word] = counts.get(word, 0) + 1
        return counts

    return JobSpec(name="wordcount", map_fn=map_fn, reduce_fn=sum,
                   num_reducers=num_reducers)


def distributed_sort(clients: List, records: List[int],
                     num_partitions: int = 4) -> Generator[Any, Any, Tuple[List[int], int]]:
    """Sample-sort integer records through the pool.

    Partitions by sampled splitters (map), sorts each partition (reduce),
    and returns ``(sorted_records, elapsed_ns)``.  A separate top-level
    helper because its dataflow (range partitioning) differs from the
    hash-partitioned engine.
    """
    if not records:
        return [], 0
    sim = clients[0].sim
    start = sim.now
    # Splitters from a deterministic sample.
    sample = sorted(records[:: max(1, len(records) // 64)])
    splitters = [
        sample[(i + 1) * len(sample) // num_partitions - 1]
        for i in range(num_partitions - 1)
    ]

    def route(value: int) -> int:
        for i, s in enumerate(splitters):
            if value <= s:
                return i
        return num_partitions - 1

    # Partition phase: write each partition's records into the pool.
    partitions: List[List[int]] = [[] for _ in range(num_partitions)]
    for value in records:
        partitions[route(value)].append(value)

    addrs: List[Tuple[int, int]] = []

    def writer(p: int):
        client = clients[p % len(clients)]
        blob = pickle.dumps(partitions[p], protocol=pickle.HIGHEST_PROTOCOL)
        yield from client.node.cpu_work(int(len(blob) * CPU_NS_PER_BYTE))
        gaddr = yield from client.gmalloc(max(1, len(blob)))
        yield from client.gwrite(gaddr, blob)
        yield from client.gsync()
        addrs.append((p, gaddr))

    yield sim.all_of([sim.spawn(writer(p)) for p in range(num_partitions)])

    # Sort phase: each worker reads its partition, sorts, returns.
    sorted_parts: Dict[int, List[int]] = {}

    def sorter(p: int, gaddr: int):
        client = clients[p % len(clients)]
        blob = yield from client.gread(gaddr)
        values = pickle.loads(blob)
        yield from client.node.cpu_work(int(len(blob) * CPU_NS_PER_BYTE))
        sorted_parts[p] = sorted(values)

    yield sim.all_of([sim.spawn(sorter(p, gaddr)) for p, gaddr in addrs])

    merged: List[int] = []
    for p in range(num_partitions):
        merged.extend(sorted_parts.get(p, []))
    return merged, sim.now - start
