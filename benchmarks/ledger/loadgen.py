"""Seeded op-stream generation owned by the ledger.

The benchmark's inputs must not move when the program changes, so nothing
here imports ``repro``: key choice (scrambled zipfian / uniform), op mix,
values and the churn deal are all made from ``--seed`` with
:class:`random.Random` seeded through SHA-256.  No ``hash()`` of a ``str``
is taken anywhere, so the streams do not depend on ``PYTHONHASHSEED``.

A *phase* is one closed-loop round: phase 0 is the warm-up, phase ``k >= 1``
is measured segment ``k``.  Each (phase, worker) pair draws from its own
stream, so any number of segments can be generated and segment ``k`` is the
same ops however many segments run after it.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

READ = "r"
UPDATE = "u"

#: One YCSB op: (kind, key, version).  ``version`` names the value an
#: update writes (see :meth:`YcsbStream.update_value`); 0 for reads.
YcsbOp = Tuple[str, int, int]


def seeded_rng(seed: int, *tags) -> random.Random:
    """An independent stream for ``(seed, *tags)``."""
    label = ":".join(str(t) for t in (seed,) + tags)
    digest = hashlib.sha256(label.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _fnv1a_64(value: int) -> int:
    h = 0xCBF29CE484222325
    for _ in range(8):
        h = ((h ^ (value & 0xFF)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return h


class _Zipfian:
    """Gray et al.'s rejection-free zipfian over ranks 0..n-1, scattered
    over the key space by FNV-1a (YCSB's ScrambledZipfian)."""

    def __init__(self, n: int, theta: float):
        self.n = n
        self.theta = theta
        self.zetan = sum(1.0 / i ** theta for i in range(1, n + 1))
        self.alpha = 1.0 / (1.0 - theta)
        zeta2 = 1.0 + 0.5 ** theta
        self.eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta2 / self.zetan)
        self.second = 1.0 + 0.5 ** theta

    def key(self, u: float) -> int:
        uz = u * self.zetan
        if uz < 1.0:
            rank = 0
        elif uz < self.second:
            rank = 1
        else:
            rank = int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha)
        return _fnv1a_64(rank) % self.n


def _fill(stamp: bytes, size: int) -> bytes:
    return (stamp * (size // len(stamp) + 1))[:size]


@dataclass(frozen=True)
class YcsbShape:
    """The input properties of one YCSB-style workload."""

    records: int
    value_size: int
    read_share: float
    distribution: str  # "zipfian" | "uniform"
    workers: int
    warmup_ops: int
    segment_ops: int
    theta: float = 0.99


class YcsbStream:
    """The generated inputs of one YCSB-style workload under one seed."""

    def __init__(self, name: str, shape: YcsbShape, seed: int):
        if shape.distribution not in ("zipfian", "uniform"):
            raise ValueError(f"unknown distribution {shape.distribution!r}")
        self.name = name
        self.shape = shape
        self.seed = seed
        self._zipf = (_Zipfian(shape.records, shape.theta)
                      if shape.distribution == "zipfian" else None)

    def load_value(self, key: int) -> bytes:
        return _fill(f"k{key}load|".encode(), self.shape.value_size)

    def update_value(self, key: int, version: int) -> bytes:
        return _fill(f"k{key}v{version}|".encode(), self.shape.value_size)

    def phase_ops(self, phase: int) -> List[List[YcsbOp]]:
        """Per-worker op lists for one phase (0 = warm-up)."""
        shape = self.shape
        total = shape.warmup_ops if phase == 0 else shape.segment_ops
        per_worker = total // shape.workers
        out = []
        for worker in range(shape.workers):
            rng = seeded_rng(self.seed, self.name, phase, worker)
            ops: List[YcsbOp] = []
            for index in range(per_worker):
                is_read = rng.random() < shape.read_share
                if self._zipf is not None:
                    key = self._zipf.key(rng.random())
                else:
                    key = rng.randrange(shape.records)
                if is_read:
                    ops.append((READ, key, 0))
                else:
                    # Unique per (phase, worker, index): the read-back check
                    # can tell every written value apart.
                    version = (phase * shape.workers + worker) * per_worker + index + 1
                    ops.append((UPDATE, key, version))
            out.append(ops)
        return out

    def digest(self, segments: int) -> str:
        """SHA-256 over the load values and phases 0..segments."""
        h = hashlib.sha256()
        h.update(f"{self.name}|{self.shape}|".encode())
        for key in range(self.shape.records):
            h.update(self.load_value(key))
        for phase in range(segments + 1):
            for worker, ops in enumerate(self.phase_ops(phase)):
                h.update(f"p{phase}w{worker}:".encode())
                h.update(";".join(f"{k}{key}.{ver}" for k, key, ver in ops).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class ChurnShape:
    """The input properties of the object-lifecycle workload."""

    workers: int
    object_size: int
    warmup_ops: int
    segment_ops: int
    ops_per_lifecycle: int = 4  # alloc, write, read, free


class ChurnStream:
    """Shuffle-style lifecycles dealt to the owners in a ring.

    Each lifecycle's owner is a seeded draw (partition sizes in a shuffle
    are uneven); its reader is the owner's ring successor.
    """

    def __init__(self, name: str, shape: ChurnShape, seed: int):
        self.name = name
        self.shape = shape
        self.seed = seed

    def phase_plan(self, phase: int) -> List[List[bytes]]:
        """Per-owner lists of the values that owner publishes this phase."""
        shape = self.shape
        total = shape.warmup_ops if phase == 0 else shape.segment_ops
        rng = seeded_rng(self.seed, self.name, phase)
        plan: List[List[bytes]] = [[] for _ in range(shape.workers)]
        for index in range(total // shape.ops_per_lifecycle):
            owner = rng.randrange(shape.workers)
            stamp = f"p{phase}o{owner}i{index}x{rng.getrandbits(32):08x}|".encode()
            plan[owner].append(_fill(stamp, shape.object_size))
        return plan

    def digest(self, segments: int) -> str:
        h = hashlib.sha256()
        h.update(f"{self.name}|{self.shape}|".encode())
        for phase in range(segments + 1):
            for owner, values in enumerate(self.phase_plan(phase)):
                h.update(f"p{phase}o{owner}:".encode())
                for value in values:
                    h.update(value)
        return h.hexdigest()


def grouped_quantile(ordered: List[int], q: float) -> float:
    """Quantile ``q`` of sorted integer-ns latencies, read as 1 ns bins.

    Virtual time is whole nanoseconds and an uncontended op always takes the
    same number of them, so most of a class sits on one value.  This is the
    grouped-data estimator of :func:`statistics.median_grouped`, for any
    ``q``: it places the quantile inside the tied bin by rank, so it moves
    when the mass around it does, where a nearest-rank percentile would not.
    """
    n = len(ordered)
    if not n:
        return 0.0
    target = q * n
    value = ordered[min(n - 1, int(target))]
    below = bisect.bisect_left(ordered, value)
    count = bisect.bisect_right(ordered, value) - below
    return value - 0.5 + (target - below) / count


def summarize(latencies: Dict[str, List[int]]) -> Dict[str, Dict[str, float]]:
    """Per-class and overall p50/p99 with sample counts."""
    out = {}
    everything: List[int] = []
    for kind, values in list(latencies.items()) + [("all", everything)]:
        ordered = sorted(values)
        if kind != "all":
            everything.extend(ordered)
        out[kind] = {"count": len(ordered),
                     "p50": grouped_quantile(ordered, 0.50),
                     "p99": grouped_quantile(ordered, 0.99)}
    return out
