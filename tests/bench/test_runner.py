"""Tests for the YCSB driver."""

import pytest

from repro.bench.runner import YcsbRunner
from repro.workloads.ycsb import WORKLOADS

from tests.apps.conftest import boot


def make_runner(workload="A", system_name="gengar", workers=2, ops=40,
                records=30, seed=2):
    sim, system = boot(name=system_name, num_servers=1, num_clients=2, seed=seed)
    spec = WORKLOADS[workload].scaled(record_count=records, value_size=256)
    runner = YcsbRunner(system, spec, num_workers=workers, ops_per_worker=ops,
                        seed_tag=f"t.{workload}.{system_name}")
    return sim, system, runner


def test_load_populates_all_records():
    sim, system, runner = make_runner()
    runner.load()
    assert len(runner.store) == 30


def test_run_reports_counts_and_throughput():
    sim, system, runner = make_runner(workers=2, ops=40)
    runner.load()
    result = runner.run()
    assert result.total_ops == 80
    assert result.elapsed_ns > 0
    assert result.throughput_ops_s > 0
    assert result.system == "gengar"
    assert result.workload == "A"
    assert "overall" in result.latency_ns
    assert result.latency_ns["overall"]["count"] == 80


def test_latency_split_by_op_type():
    sim, system, runner = make_runner(workload="A")
    runner.load()
    result = runner.run()
    assert "read" in result.latency_ns
    assert "update" in result.latency_ns
    assert result.latency_ns["overall"]["mean"] > 0


def test_workload_f_runs_rmw_through_locks():
    sim, system, runner = make_runner(workload="F", ops=30)
    runner.load()
    result = runner.run()
    assert "rmw" in result.latency_ns
    assert sim.metrics.counter("pool.lock_acquires").count > 0


def test_workload_e_scans():
    sim, system, runner = make_runner(workload="E", ops=30)
    runner.load()
    result = runner.run()
    assert "scan" in result.latency_ns


def test_workload_d_inserts_grow_store():
    sim, system, runner = make_runner(workload="D", ops=60, workers=2)
    runner.load()
    before = len(runner.store)
    runner.run()
    assert len(runner.store) > before


def test_insert_keys_disjoint_across_workers():
    sim, system, runner = make_runner(workload="D", ops=80, workers=3)
    runner.load()
    runner.run()  # would raise KvError on duplicate insert keys


def test_same_seed_same_result():
    def once():
        sim, system, runner = make_runner(seed=11)
        runner.load()
        return runner.run()

    a, b = once(), once()
    assert a.elapsed_ns == b.elapsed_ns
    assert a.throughput_ops_s == b.throughput_ops_s


def test_invalid_parameters_rejected():
    sim, system, _ = make_runner()
    spec = WORKLOADS["A"]
    with pytest.raises(ValueError):
        YcsbRunner(system, spec, num_workers=0)
    with pytest.raises(ValueError):
        YcsbRunner(system, spec, ops_per_worker=0)
