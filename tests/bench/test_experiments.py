"""Tests of the experiment harness (registry, config hook, boot) and the
one paper-claim assert kept at small scale, E3's monotone scale-out.

Every table's cells are pinned by ``test_results_pin.py``; the full-scale
shape asserts live in ``benchmarks/``.
"""

import pytest

from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    bench_config,
    boot,
    e03_scalability,
)
from repro.bench.report import Table


def test_registry_covers_all_experiments():
    assert list(ALL_EXPERIMENTS) == [f"E{i}" for i in range(1, 13)] + ["X1", "X2", "X3"]
    assert all(callable(fn) for fn in ALL_EXPERIMENTS.values())


def test_experiment_result_table_lookup():
    r = ExperimentResult("EX", "t", [Table(title="alpha", headers=["a"]),
                                     Table(title="beta", headers=["b"])])
    assert r.table("beta").title == "beta"
    with pytest.raises(KeyError):
        r.table("gamma")
    assert "### EX" in r.render()


def test_bench_config_preserves_mechanism_switches():
    from repro.core.config import NVM_DIRECT

    cfg = bench_config(cache_capacity=1234 * 64)(NVM_DIRECT)
    assert not cfg.enable_cache and not cfg.enable_proxy
    assert cfg.cache_capacity == 1234 * 64


def test_boot_builds_named_system():
    system = boot("nvm-direct", seed=1, num_servers=1, num_clients=1)
    assert system.name == "nvm-direct"
    assert len(system.clients) == 1


def test_e03_small_scale():
    """The paper's scale-out claim at its smallest: a second client adds
    throughput.  Every other experiment's cells are pinned byte for byte by
    ``test_results_pin.py``."""
    result = e03_scalability(client_counts=(1, 2), ops_per_worker=30, seed=3)
    rows = {row[0]: row[1:] for row in result.table("E3").rows}
    assert rows["gengar"][1] > rows["gengar"][0]
