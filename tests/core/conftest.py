"""Shared fixtures: small, fast Gengar deployments."""

import pytest

from repro.core import GengarConfig, GengarPool
from repro.core import server as server_module
from repro.hardware.specs import TEST_DRAM, TEST_NVM
from repro.sim import Simulator
from repro.sim.units import KIB, MIB


def fast_config(**overrides):
    """A config tuned for unit tests: short epochs, eager promotion."""
    defaults = dict(
        cache_capacity=256 * KIB,
        epoch_ns=50_000,
        report_every_ops=8,
        promote_threshold=4.0,
        proxy_ring_slots=8,
        proxy_slot_size=4 * KIB,
        lock_table_entries=1024,
    )
    defaults.update(overrides)
    return GengarConfig(**defaults)


def journal_entries(entries):
    """A module-scoped autouse fixture: every pool the module builds gets an
    ``entries``-record metadata journal.  Assign it to a module global."""
    @pytest.fixture(autouse=True, scope="module")
    def _journal():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(server_module, "JOURNAL_ENTRIES", entries)
            yield
    return _journal


def build_pool(seed=1, num_servers=2, num_clients=2, config=None, **kw):
    sim = Simulator(seed=seed)
    kw.setdefault("dram", TEST_DRAM)
    kw.setdefault("nvm", TEST_NVM)
    pool = GengarPool.build(
        sim,
        num_servers=num_servers,
        num_clients=num_clients,
        config=config or fast_config(),
        **kw,
    )
    return sim, pool


@pytest.fixture
def pool2x2():
    """Two servers, two clients, fast config."""
    return build_pool()
