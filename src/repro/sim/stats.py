"""Streaming metrics for simulation components.

All models report into a :class:`MetricRegistry` hanging off the simulator
(``sim.metrics``).  The primitives are deliberately simple and allocation
light, because hot paths (every RDMA completion, every cache lookup) touch
them:

* :class:`Counter` — monotonically increasing count / sum.
* :class:`Histogram` — sample distribution with exact percentiles (samples
  are retained; callers cap sample count for very long runs via
  ``max_samples`` reservoir downsampling).
* :class:`TimeWeightedStat` — time-integral of a level (queue depth,
  buffer occupancy), for averages weighted by how long a value was held.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Counter:
    """A monotonically increasing event counter with an optional value sum.

    The per-message stages of the hardware and verbs layers bump ``count``
    and ``total`` in place instead of calling :meth:`add`: same values, one
    Python frame less per message and counter.
    """

    __slots__ = ("name", "count", "total")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0

    def add(self, value: float = 1.0) -> None:
        """Record one occurrence carrying ``value`` (defaults to 1)."""
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        """Average recorded value; 0.0 when nothing was recorded."""
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name} n={self.count} total={self.total}>"


class Histogram:
    """A sample distribution with exact order statistics.

    Keeps every sample up to ``max_samples``; beyond that, switches to
    reservoir sampling (uniform over the stream) so long benchmark runs stay
    memory-bounded while percentiles remain unbiased estimates.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_samples",
                 "_max_samples", "_rng_state", "_sorted")

    def __init__(self, name: str, max_samples: int = 100_000):
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._max_samples = max_samples
        # Cheap deterministic LCG for the reservoir; avoids pulling in the
        # registry (histograms must not perturb workload RNG streams).
        self._rng_state = 0x9E3779B97F4A7C15
        # Sorted view of _samples, built lazily on the first percentile and
        # reused until the next record() — a snapshot() asks for several
        # percentiles and must not pay one full sort per quantile.
        self._sorted: Optional[List[float]] = None

    def record(self, value: float) -> None:
        """Add one sample."""
        self.count += 1
        self.total += value
        self._sorted = None
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self.count <= self._max_samples:  # every sample so far was kept
            self._samples.append(value)
        else:
            self._rng_state = (self._rng_state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            slot = self._rng_state % self.count
            if slot < self._max_samples:
                self._samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Exact percentile over retained samples (nearest-rank).

        ``p`` is in [0, 100].  Returns 0.0 for an empty histogram so report
        code can render sparse sweeps without guards.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        if not self._samples:
            return 0.0
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, math.ceil(p / 100.0 * len(ordered)) - 1))
        return ordered[rank]

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict summary for reports."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min or 0.0,
            "max": self.max or 0.0,
            "p50": self.p50,
            "p90": self.percentile(90.0),
            "p99": self.p99,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.1f}>"


class TimeWeightedStat:
    """Time-weighted average of a level signal (queue depth, occupancy).

    Call :meth:`update` whenever the level changes; the integral accumulates
    ``level * dt`` between updates.
    """

    __slots__ = ("name", "sim", "_level", "_last_change", "_integral", "peak",
                 "_created")

    def __init__(self, name: str, sim: "Simulator", initial: float = 0.0):
        self.name = name
        self.sim = sim
        self._level = initial
        self._last_change = sim.now
        self._integral = 0.0
        self.peak = initial
        # Averages integrate from creation, not t=0: a stat created mid-run
        # must not be diluted by a phantom zero-level prefix it never held.
        self._created = sim.now

    @property
    def level(self) -> float:
        return self._level

    def update(self, level: float) -> None:
        """Set the level at the current instant."""
        now = self.sim.now
        self._integral += self._level * (now - self._last_change)
        self._last_change = now
        self._level = level
        if level > self.peak:
            self.peak = level

    def adjust(self, delta: float) -> None:
        """Shift the level by ``delta`` (convenience for counters)."""
        now = self.sim.now
        self._integral += self._level * (now - self._last_change)
        self._last_change = now
        level = self._level = self._level + delta
        if level > self.peak:
            self.peak = level

    def time_average(self) -> float:
        """Average level from this stat's creation up to now."""
        now = self.sim.now
        span = now - self._created
        if span <= 0:
            return self._level
        integral = self._integral + self._level * (now - self._last_change)
        return integral / span


class MetricRegistry:
    """Namespace of metrics owned by one simulator run."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._levels: Dict[str, TimeWeightedStat] = {}

    def counter(self, name: str) -> Counter:
        """Fetch-or-create the counter called ``name``."""
        c = self._counters.get(name)
        if c is None:
            c = Counter(name)
            self._counters[name] = c
        return c

    def histogram(self, name: str, max_samples: int = 100_000) -> Histogram:
        """Fetch-or-create the histogram called ``name``."""
        h = self._histograms.get(name)
        if h is None:
            h = Histogram(name, max_samples=max_samples)
            self._histograms[name] = h
        return h

    def level(self, name: str, initial: float = 0.0) -> TimeWeightedStat:
        """Fetch-or-create the time-weighted level called ``name``."""
        s = self._levels.get(name)
        if s is None:
            s = TimeWeightedStat(name, self.sim, initial=initial)
            self._levels[name] = s
        return s

    def names(self) -> Iterable[str]:
        yield from self._counters
        yield from self._histograms
        yield from self._levels
