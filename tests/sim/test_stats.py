"""Tests for the metrics primitives."""

import pytest

from repro.sim import Counter, Histogram, Simulator, TimeWeightedStat


def test_counter_accumulates():
    c = Counter("ops")
    for v in (1.0, 2.0, 3.0):
        c.add(v)
    assert c.count == 3
    assert c.total == 6.0
    assert c.mean == 2.0


def test_counter_empty_mean_is_zero():
    assert Counter("empty").mean == 0.0


def test_histogram_basic_stats():
    h = Histogram("lat")
    for v in [10, 20, 30, 40, 50]:
        h.record(v)
    assert h.count == 5
    assert h.mean == 30
    assert h.min == 10
    assert h.max == 50
    assert h.p50 == 30


def test_histogram_percentile_bounds_checked():
    h = Histogram("lat")
    with pytest.raises(ValueError):
        h.percentile(101)
    with pytest.raises(ValueError):
        h.percentile(-1)


def test_histogram_empty_percentile_is_zero():
    assert Histogram("lat").p99 == 0.0


def test_histogram_percentile_exact_small():
    h = Histogram("lat")
    for v in range(1, 101):
        h.record(v)
    assert h.percentile(1) == 1
    assert h.percentile(50) == 50
    assert h.percentile(99) == 99
    assert h.percentile(100) == 100
    assert h.percentile(0) == 1  # nearest-rank floor


def test_histogram_reservoir_keeps_memory_bounded():
    h = Histogram("lat", max_samples=100)
    for v in range(10_000):
        h.record(float(v))
    assert len(h._samples) == 100
    assert h.count == 10_000
    # The reservoir should still track the distribution roughly: the median of
    # uniform 0..9999 is near 5000.
    assert 2000 < h.p50 < 8000


def test_histogram_keeps_every_sample_up_to_the_bound_then_a_reservoir():
    h = Histogram("lat", max_samples=4)
    for v in range(4):
        h.record(float(v))
    assert h._samples == [0.0, 1.0, 2.0, 3.0]
    for v in range(4, 50):
        h.record(float(v))
        assert len(h._samples) == 4
    assert h.count == 50 and h._samples != [0.0, 1.0, 2.0, 3.0]


def test_histogram_snapshot_keys():
    h = Histogram("lat")
    h.record(5)
    snap = h.snapshot()
    assert set(snap) == {"count", "mean", "min", "max", "p50", "p90", "p99"}
    assert snap["count"] == 1


def test_histogram_invalid_max_samples():
    with pytest.raises(ValueError):
        Histogram("x", max_samples=0)


def test_time_weighted_average():
    sim = Simulator()
    level = TimeWeightedStat("depth", sim, initial=0.0)

    def proc(sim):
        yield sim.timeout(10)  # level 0 for 10 ns
        level.update(4.0)
        yield sim.timeout(10)  # level 4 for 10 ns
        level.update(2.0)
        yield sim.timeout(20)  # level 2 for 20 ns

    sim.spawn(proc(sim))
    sim.run()
    # integral = 0*10 + 4*10 + 2*20 = 80 over 40 ns
    assert level.time_average() == pytest.approx(2.0)
    assert level.peak == 4.0
    assert level.level == 2.0


def test_time_weighted_adjust():
    sim = Simulator()
    level = TimeWeightedStat("q", sim)
    level.adjust(+3)
    level.adjust(-1)
    assert level.level == 2


def test_time_weighted_adjust_is_update_by_a_delta():
    """``adjust`` integrates in place; it must stay ``update(level + delta)``
    to the last bit — average, peak and level."""
    sim = Simulator()
    adjusted = TimeWeightedStat("a", sim, initial=1.5)
    updated = TimeWeightedStat("u", sim, initial=1.5)

    def proc(sim):
        for dt, delta in [(3, +2.0), (0, -0.5), (7, +4.25), (11, -6.0), (2, +0.125)]:
            yield dt
            adjusted.adjust(delta)
            updated.update(updated.level + delta)

    sim.spawn(proc(sim))
    sim.run(until=40)
    for attr in ("level", "peak", "_integral", "_last_change"):
        assert getattr(adjusted, attr) == getattr(updated, attr)
    assert adjusted.time_average() == updated.time_average()


def test_time_weighted_at_time_zero():
    sim = Simulator()
    level = TimeWeightedStat("q", sim, initial=7.0)
    assert level.time_average() == 7.0


def test_metric_registry_fetch_or_create():
    sim = Simulator()
    c1 = sim.metrics.counter("reads")
    c2 = sim.metrics.counter("reads")
    assert c1 is c2
    h1 = sim.metrics.histogram("lat")
    assert sim.metrics.histogram("lat") is h1
    l1 = sim.metrics.level("depth")
    assert sim.metrics.level("depth") is l1
    assert set(sim.metrics.names()) == {"reads", "lat", "depth"}


def test_time_weighted_mid_run_creation_no_phantom_prefix():
    """Regression: a stat created at t=1000 must average from its creation,
    not from t=0.  The old denominator (``sim.now`` alone) diluted mid-run
    stats with a phantom zero-level prefix they never actually held."""
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1000)
        level = TimeWeightedStat("late", sim, initial=6.0)
        yield sim.timeout(500)  # held 6.0 for all 500 ns of its life
        return level

    p = sim.spawn(proc(sim))
    sim.run()
    level = p.value
    # Old code: integral/now = 3000/1500 = 2.0.  Correct: 6.0.
    assert level.time_average() == pytest.approx(6.0)


def test_time_weighted_mid_run_creation_partial_window():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(100)
        level = TimeWeightedStat("late", sim, initial=0.0)
        yield sim.timeout(10)
        level.update(8.0)
        yield sim.timeout(30)
        return level

    p = sim.spawn(proc(sim))
    sim.run()
    # Life: 40 ns (t=100..140); integral = 0*10 + 8*30 = 240 -> avg 6.0.
    assert p.value.time_average() == pytest.approx(6.0)


def test_histogram_sorted_view_cached_and_invalidated():
    """percentile() sorts once per record(), not once per call: a
    snapshot's four quantiles must reuse one sorted view, and a new sample
    must invalidate it."""
    h = Histogram("lat")
    for v in (5.0, 1.0, 3.0):
        h.record(v)
    assert h.p50 == 3.0
    # The cached view is reused (identity, not just equality).
    first = h._sorted
    assert first is not None
    h.snapshot()
    assert h._sorted is first
    # A new minimum must be visible immediately: stale cache would miss it.
    h.record(0.5)
    assert h._sorted is None
    assert h.percentile(0.0) == 0.5
    assert h.min == 0.5


def test_histogram_sorted_cache_with_reservoir_replacement():
    h = Histogram("lat", max_samples=4)
    for v in (4.0, 3.0, 2.0, 1.0):
        h.record(v)
    assert h.percentile(100.0) == 4.0
    # Overflow the reservoir: whatever happens to the sample set, the
    # cached order must be rebuilt, never reused stale.
    for v in (9.0, 8.0, 7.0, 6.0, 5.0):
        h.record(v)
    assert h.percentile(100.0) == max(h._samples)
    assert h.percentile(0.0) == min(h._samples)
