"""Tests for deterministic RNG streams and unit helpers."""

import pytest

from repro.sim import GIB, KIB, MIB, MS, SEC, US, RngRegistry, gbps_to_bytes_per_ns
from repro.sim.units import (
    gib_per_s_to_bytes_per_ns,
    ns_to_us,
    ops_per_sec,
)


def test_rng_same_name_same_stream_object():
    reg = RngRegistry(1)
    assert reg.stream("a") is reg.stream("a")


def test_rng_streams_reproducible_across_registries():
    a = [RngRegistry(7).stream("x").random() for _ in range(5)]
    b = [RngRegistry(7).stream("x").random() for _ in range(5)]
    assert a == b


def test_rng_streams_differ_by_name_and_seed():
    reg = RngRegistry(7)
    xs = [reg.stream("x").random() for _ in range(5)]
    ys = [reg.stream("y").random() for _ in range(5)]
    assert xs != ys
    other = [RngRegistry(8).stream("x").random() for _ in range(5)]
    assert xs != other


def test_rng_new_stream_does_not_perturb_existing():
    reg1 = RngRegistry(3)
    s = reg1.stream("workload")
    first = [s.random() for _ in range(3)]
    reg2 = RngRegistry(3)
    reg2.stream("brand-new-consumer")  # extra stream created first
    s2 = reg2.stream("workload")
    assert [s2.random() for _ in range(3)] == first


def test_size_constants():
    assert KIB == 1024
    assert MIB == 1024**2
    assert GIB == 1024**3


def test_time_constants():
    assert US == 1_000
    assert MS == 1_000_000
    assert SEC == 1_000_000_000


def test_gbps_conversion():
    assert gbps_to_bytes_per_ns(100) == pytest.approx(12.5)
    assert gbps_to_bytes_per_ns(8) == pytest.approx(1.0)


def test_gib_per_s_conversion():
    assert gib_per_s_to_bytes_per_ns(1.0) == pytest.approx(GIB / SEC)


def test_ns_to_us():
    assert ns_to_us(2_500) == pytest.approx(2.5)


def test_ops_per_sec():
    assert ops_per_sec(1000, SEC) == pytest.approx(1000.0)
    assert ops_per_sec(10, 0) == 0.0
    assert ops_per_sec(0, SEC) == 0.0
