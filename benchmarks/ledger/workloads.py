"""The four workloads: pool shape, closed-loop drivers and output checks.

All four are closed loops over fixed op counts: a worker issues its next op
only when the previous one completed, and a segment ends when every worker
has finished its share, so a segment's virtual time depends only on the seed.
The program sees the generated ops through ``KvStore`` and the client API.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List

from loadgen import READ, ChurnShape, ChurnStream, YcsbShape, YcsbStream

from repro.apps.kvstore import KvStore
from repro.core import GengarConfig, GengarPool
from repro.sim import Simulator, Store

KIB = 1024

#: Keys per ``multi_get`` when a worker has a run of consecutive reads.
READ_BATCH = 8


#: CPU seconds :func:`reference_cpu_s` takes on the reference box when it is
#: quiet; calibrated times are stated on that scale.
REFERENCE_NOMINAL_S = 0.030


def reference_cpu_s() -> float:
    """CPU seconds of a fixed pure-Python loop that touches no repo code.

    This box slows down by up to half for seconds at a time (shared host),
    and the simulator slows with it.  Every timed region is bracketed by this
    loop, and its CPU time is divided by the loop's: the ratio is steady
    where the raw seconds are not (see README.md, noise floor).
    """
    table: Dict[int, int] = {}
    start = time.process_time()
    for i in range(300_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.process_time() - start


@dataclass
class Clocked:
    """CPU seconds of one timed region, raw and calibrated."""

    cpu_s: float
    ref_s: float

    @property
    def calibrated_s(self) -> float:
        return self.cpu_s * REFERENCE_NOMINAL_S / self.ref_s


@dataclass
class Segment:
    """What one measured segment cost on both clocks."""

    ops: int
    vt_ns: int
    events: int
    clock: Clocked
    user_bytes_written: int
    failed: int
    latencies: Dict[str, List[int]] = field(default_factory=dict)


class _Workload:
    """Shared set-up / segment bookkeeping; subclasses drive the ops."""

    classes: tuple = ()

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.sim: Simulator = None
        self.pool: GengarPool = None
        self.failures: List[str] = []
        self._ref_s = 0.0

    def clocked(self, fn, profiler=None) -> Clocked:
        """Run ``fn`` between two reference loops (the one before is the
        previous region's after) and return both CPU times."""
        before = self._ref_s or reference_cpu_s()
        if profiler is not None:
            profiler.enable()
        start = time.process_time()
        fn()
        cpu_s = time.process_time() - start
        if profiler is not None:
            profiler.disable()
        self._ref_s = reference_cpu_s()
        return Clocked(cpu_s, (before + self._ref_s) / 2)

    def setup(self) -> None:
        """Build the pool, load it and run the warm-up phase."""
        self._build()
        self.live_objects = self.pool.describe()["objects"]
        self.pool.run(*self._prepare(0)[0])

    def run_segment(self, phase: int, profiler=None) -> Segment:
        # Inputs are generated before the clocks start.
        workers, ops, latencies, state = self._prepare(phase)
        sim = self.sim
        vt0, ev0 = sim.now, sim.total_dispatched
        clock = self.clocked(lambda: self.pool.run(*workers), profiler)
        return Segment(
            ops=ops, vt_ns=sim.now - vt0, events=sim.total_dispatched - ev0,
            clock=clock, user_bytes_written=state["bytes"],
            failed=state["failed"], latencies=latencies)

    def _fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)


class YcsbWorkload(_Workload):
    """YCSB-style reads and updates against a loaded ``KvStore``."""

    classes = ("read", "update")

    def __init__(self, name: str, shape: YcsbShape, seed: int,
                 servers: int, clients: int, config: GengarConfig):
        super().__init__(name, seed)
        self.shape = shape
        self.stream = YcsbStream(name, shape, seed)
        self.servers = servers
        self.clients = clients
        self.config = config
        self.store: KvStore = None
        #: key -> versions the stream has written so far (read-back check).
        self.written: Dict[int, List[int]] = {}
        self._prefixes = [(f"k{k}l".encode(), f"k{k}v".encode())
                          for k in range(shape.records)]

    def digest(self, segments: int) -> str:
        return self.stream.digest(segments)

    def _build(self) -> None:
        self.sim = Simulator(seed=self.seed)
        self.pool = GengarPool.build(self.sim, num_servers=self.servers,
                                     num_clients=self.clients, config=self.config)
        self.store = KvStore(self.shape.value_size)
        clients = self.pool.clients
        records = self.shape.records
        self.pool.run(*[
            self.store.load(clients[i], range(i, records, len(clients)),
                            self.stream.load_value)
            for i in range(len(clients))])

    def _prepare(self, phase: int) -> tuple:
        per_worker = self.stream.phase_ops(phase)
        latencies = {"read": [], "update": []}
        state = {"bytes": 0, "failed": 0}
        clients = self.pool.clients
        workers = [self._worker(clients[i % len(clients)], ops, latencies, state)
                   for i, ops in enumerate(per_worker)]
        return workers, sum(len(o) for o in per_worker), latencies, state

    def _worker(self, client, ops, latencies, state) -> Generator[Any, Any, None]:
        sim, store, stream = self.sim, self.store, self.stream
        prefixes, written = self._prefixes, self.written
        lat_read, lat_update = latencies["read"], latencies["update"]
        pending: List[int] = []

        def flush():
            t0 = sim.now
            try:
                values = yield from store.multi_get(client, pending)
                for key, value in zip(pending, values):
                    if not value.startswith(prefixes[key]):
                        state["failed"] += 1
                        self._fail(f"read of key {key} returned another record")
            except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                state["failed"] += len(pending)
                self._fail(f"multi_get raised {type(exc).__name__}: {exc}")
            # A batched read's latency is its batch's: issue to harvest.
            lat_read.extend([sim.now - t0] * len(pending))
            pending.clear()

        for kind, key, version in ops:
            if kind == READ:
                pending.append(key)
                if len(pending) >= READ_BATCH:
                    yield from flush()
                continue
            if pending:
                yield from flush()
            value = stream.update_value(key, version)
            t0 = sim.now
            try:
                yield from store.put(client, key, value)
                written.setdefault(key, []).append(version)
                state["bytes"] += len(value)
            except Exception as exc:  # noqa: BLE001
                state["failed"] += 1
                self._fail(f"put raised {type(exc).__name__}: {exc}")
            lat_update.append(sim.now - t0)
        if pending:
            yield from flush()

    def verify(self) -> tuple:
        """gsync, then every key must hold its load value or a value the
        stream wrote to it.  Returns (checks, failed)."""
        clients = self.pool.clients
        stream, store = self.stream, self.store
        self.pool.run(*[c.gsync() for c in clients])
        keys = list(range(self.shape.records))
        out: List[bytes] = []

        def read_back():
            for i in range(0, len(keys), READ_BATCH):
                out.extend((yield from store.multi_get(
                    clients[0], keys[i:i + READ_BATCH])))

        self.pool.run(read_back())
        failed = 0
        for key, value in zip(keys, out):
            allowed = {stream.load_value(key)}
            allowed.update(stream.update_value(key, v)
                           for v in self.written.get(key, ()))
            if value not in allowed:
                failed += 1
                self._fail(f"key {key} reads back a value nobody wrote")
        live = self.pool.describe()["objects"]
        if live != self.live_objects:
            failed += 1
            self._fail(f"live objects {live} != {self.live_objects} after load")
        return len(keys) + 1, failed


class ChurnWorkload(_Workload):
    """Object lifecycles handed round a ring of clients (``meta_churn``)."""

    classes = ("alloc", "update", "lookup", "free")

    def __init__(self, name: str, shape: ChurnShape, seed: int,
                 servers: int, clients: int, shards: int):
        super().__init__(name, seed)
        self.shape = shape
        self.stream = ChurnStream(name, shape, seed)
        self.servers = servers
        self.clients = clients
        self.config = GengarConfig(num_master_shards=shards)
        self.inboxes: List[Store] = []

    def digest(self, segments: int) -> str:
        return self.stream.digest(segments)

    def _build(self) -> None:
        self.sim = Simulator(seed=self.seed)
        self.pool = GengarPool.build(self.sim, num_servers=self.servers,
                                     num_clients=self.clients,
                                     config=self.config)
        self.inboxes = [Store(self.sim, name=f"handoff{i}")
                        for i in range(self.shape.workers)]

    def _prepare(self, phase: int) -> tuple:
        plan = self.stream.phase_plan(phase)
        latencies = {c: [] for c in self.classes}
        state = {"bytes": 0, "failed": 0}
        workers = [self._worker(i, plan[i], len(plan[i - 1]), latencies, state)
                   for i in range(len(plan))]
        ops = sum(len(p) for p in plan) * self.shape.ops_per_lifecycle
        return workers, ops, latencies, state

    def _worker(self, index: int, publish: List[bytes], consume: int,
                latencies, state) -> Generator[Any, Any, None]:
        sim = self.sim
        # Ring neighbours sit on different clients, so every hand-off is a
        # first touch for its reader.
        client = self.pool.clients[index % self.clients]
        inbox = self.inboxes[index]
        outbox = self.inboxes[(index + 1) % len(self.inboxes)]
        size = self.shape.object_size
        # Publish and consume alternate, so neither side of the ring runs
        # ahead; the wait on the inbox is in no op's latency.
        for step in range(max(len(publish), consume)):
            if step < len(publish):
                value = publish[step]
                try:
                    t0 = sim.now
                    gaddr = yield from client.gmalloc(size)
                    t1 = sim.now
                    yield from client.gwrite(gaddr, value)
                    yield from client.gsync()
                    t2 = sim.now
                    latencies["alloc"].append(t1 - t0)
                    latencies["update"].append(t2 - t1)
                    state["bytes"] += size
                    outbox.put((gaddr, value))
                except Exception as exc:  # noqa: BLE001
                    state["failed"] += 2
                    self._fail(f"publish raised {type(exc).__name__}: {exc}")
                    outbox.put(None)
            if step < consume:
                item = yield inbox.get()
                if item is None:
                    state["failed"] += 2
                    continue
                gaddr, value = item
                try:
                    t0 = sim.now
                    data = yield from client.gread(gaddr)
                    t1 = sim.now
                    yield from client.gfree(gaddr)
                    t2 = sim.now
                    latencies["lookup"].append(t1 - t0)
                    latencies["free"].append(t2 - t1)
                    if data != value:
                        state["failed"] += 1
                        self._fail(f"object {gaddr:#x} read back wrong bytes")
                except Exception as exc:  # noqa: BLE001
                    state["failed"] += 2
                    self._fail(f"consume raised {type(exc).__name__}: {exc}")

    def verify(self) -> tuple:
        """Every allocation was freed and every hand-off consumed."""
        failed = 0
        leftover = sum(len(box) for box in self.inboxes)
        if leftover:
            failed += 1
            self._fail(f"{leftover} published objects were never consumed")
        live = self.pool.describe()["objects"]
        if live != self.live_objects:
            failed += 1
            self._fail(f"live objects {live} != {self.live_objects} after build")
        return 2, failed


def _scaled(ops: int, scale: float, multiple: int) -> int:
    return max(multiple, int(ops * scale) // multiple * multiple)


def make(name: str, seed: int, scale: float = 1.0):
    """Build the named workload; ``scale`` shrinks op counts (smoke runs)."""
    if name == "ycsb_b_hot":
        shape = YcsbShape(records=1000, value_size=128, read_share=0.95,
                          distribution="zipfian", workers=8,
                          warmup_ops=_scaled(8000, scale, 8),
                          segment_ops=_scaled(4000, scale, 8))
        return YcsbWorkload(name, shape, seed, 2, 2, GengarConfig())
    if name == "ycsb_a_write":
        shape = YcsbShape(records=1000, value_size=KIB, read_share=0.5,
                          distribution="zipfian", workers=8,
                          warmup_ops=_scaled(8000, scale, 8),
                          segment_ops=_scaled(4000, scale, 8))
        return YcsbWorkload(name, shape, seed, 2, 2, GengarConfig())
    if name == "ycsb_c_cold":
        shape = YcsbShape(records=1000, value_size=KIB, read_share=1.0,
                          distribution="uniform", workers=8,
                          warmup_ops=_scaled(12000, scale, 8),
                          segment_ops=_scaled(4000, scale, 8))
        return YcsbWorkload(name, shape, seed, 2, 2,
                            GengarConfig(cache_capacity=64 * KIB))
    if name == "meta_churn":
        shape = ChurnShape(workers=32, object_size=128,
                           warmup_ops=_scaled(1600, scale, 4),
                           segment_ops=_scaled(1600, scale, 4))
        return ChurnWorkload(name, shape, seed, servers=8, clients=32, shards=4)
    raise ValueError(f"unknown workload {name!r}")
