"""Gengar core: the RDMA-based distributed hybrid memory pool.

Public surface:

* :class:`~repro.core.api.GengarPool` — build and boot a deployment.
* :class:`~repro.core.client.GengarClient` — the application API
  (``gmalloc``/``gfree``/``gread``/``gwrite``/``gsync``/``glock``/``gunlock``).
* :class:`~repro.core.config.GengarConfig` — tunables, plus the named
  presets ``FULL`` / ``CACHE_ONLY`` / ``PROXY_ONLY`` / ``NVM_DIRECT`` /
  ``DRAM_ONLY`` used by ablations and baselines.
"""

from repro.core.addressing import (
    GlobalAddress,
    make_gaddr,
    offset_of,
    server_of,
    shard_of,
)
from repro.core.api import GengarPool
from repro.core.client import GengarClient, RetryPolicy
from repro.core.errors import (
    ClientError,
    DeadlineExceededError,
    FatalError,
    FencedError,
    LeaseExpiredError,
    MasterUnavailableError,
    NotMyShard,
    PartitionSuspected,
    RetryableError,
    ServerUnavailableError,
    StaleRingError,
    StaleTermError,
)
from repro.core.config import (
    CACHE_ONLY,
    DRAM_ONLY,
    FULL,
    NVM_DIRECT,
    PROXY_ONLY,
    GengarConfig,
)
from repro.core.consistency import LockError
from repro.core.master import Master
from repro.core.server import MemoryServer

__all__ = [
    "GengarPool",
    "GengarClient",
    "GengarConfig",
    "Master",
    "MemoryServer",
    "ClientError",
    "FatalError",
    "RetryableError",
    "ServerUnavailableError",
    "MasterUnavailableError",
    "StaleRingError",
    "StaleTermError",
    "NotMyShard",
    "PartitionSuspected",
    "LeaseExpiredError",
    "FencedError",
    "DeadlineExceededError",
    "RetryPolicy",
    "LockError",
    "GlobalAddress",
    "make_gaddr",
    "server_of",
    "shard_of",
    "offset_of",
    "FULL",
    "CACHE_ONLY",
    "PROXY_ONLY",
    "NVM_DIRECT",
    "DRAM_ONLY",
]
