"""Discrete-event simulation kernel.

This subpackage provides the deterministic, nanosecond-resolution event loop
that every hardware and protocol model in the reproduction runs on.  It is a
small, dependency-free engine in the style of SimPy:

* :class:`~repro.sim.kernel.Simulator` — the event loop and clock.
* :class:`~repro.sim.primitives.Event` / :class:`~repro.sim.primitives.Timeout`
  — waitable primitives yielded by process generators.
* :class:`~repro.sim.resources.Resource`, :class:`~repro.sim.resources.Store`,
  :class:`~repro.sim.resources.TokenBucket` — contention primitives.
* :mod:`~repro.sim.stats` — streaming metrics (counters, histograms).
* :mod:`~repro.sim.rng` — named deterministic random streams.

Processes are plain Python generators.  What one may ``yield``: an event;
a bare ``int``, a delay in nanoseconds; a ``Resource``, a wait for one of its
slots (``with (yield resource):``); a ``(resource, ns)`` pair, a slot taken,
kept ``ns`` nanoseconds and given back; or a ``Store``, a wait for its oldest
item (``item = yield store``; ``store.put(x)`` never waits).  Only the first
creates an object; for the rest the kernel queues the process's own wake-up.
All simulated time is kept as integer nanoseconds so long runs never
accumulate floating-point drift.
"""

from repro.sim.kernel import Simulator, Process, SimulationError
from repro.sim.primitives import (
    AllOf,
    AnyOf,
    Event,
    Timeout,
)
from repro.sim.resources import Resource, Store, TokenBucket
from repro.sim.rng import RngRegistry
from repro.sim.stats import Counter, Histogram, MetricRegistry, TimeWeightedStat
from repro.sim.units import KIB, MIB, GIB, US, MS, SEC, gbps_to_bytes_per_ns

__all__ = [
    "Simulator",
    "Process",
    "SimulationError",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Resource",
    "Store",
    "TokenBucket",
    "RngRegistry",
    "Counter",
    "Histogram",
    "TimeWeightedStat",
    "MetricRegistry",
    "KIB",
    "MIB",
    "GIB",
    "US",
    "MS",
    "SEC",
    "gbps_to_bytes_per_ns",
]
