"""Tunables for the Gengar pool.

The two headline mechanisms (hot-data DRAM caching and proxy-staged writes)
are independently switchable, which is how the paper's ablations and the
NVM-direct baseline are expressed:

* full Gengar: ``enable_cache=True, enable_proxy=True``
* cache-only ablation: ``enable_proxy=False``
* proxy-only ablation: ``enable_cache=False``
* NVM-direct baseline (Octopus-class DSHM): both off.

One config object is built per deployment and handed to the master, every
memory server and every client at construction (``GengarPool.build``); it
never travels on the wire, so a field costs no protocol bytes.  A field
exists only where two callers outside the tests want different values: a
value nobody sets to a second one is a constant at its one reader (the
journal and intent-slot sizes in ``server``, the phi detector's threshold
and window in ``recovery``, the retry budget and backoff in
``driver.RetryPolicy``, which lock waits ride too, the RC retransmission
timeout in ``rdma.qp``, the wait-die bound in ``txn.manager``) or is
derived from a field that stays (the lease sweep runs every
``client_lease_ns // 4``, the cross-shard aggregation every ``epoch_ns``).
A mechanism whose fault-free cost is small has no field at all: every
pool runs crash-atomic transactions (intent region, stamp table, intent
roll-forward at every fence) and puts a commit word on every staged frame.
``tests/core/test_config_surface.py`` pins the count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.units import KIB, MIB


@dataclass(frozen=True)
class GengarConfig:
    """Configuration of one Gengar deployment."""

    # ---- headline mechanisms -------------------------------------------
    #: Cache hot objects in the home server's DRAM buffer.
    enable_cache: bool = True
    #: Stage writes in a server DRAM ring and drain to NVM asynchronously.
    enable_proxy: bool = True

    # ---- DRAM cache ------------------------------------------------------
    #: DRAM bytes per server dedicated to the hot-object cache.
    cache_capacity: int = 4 * MIB

    # ---- write proxy -----------------------------------------------------
    #: Ring slots per attached client.
    proxy_ring_slots: int = 32
    #: Bytes per ring slot; a longer write is staged as a frame group.
    proxy_slot_size: int = 4 * KIB

    # ---- hotness tracking -------------------------------------------------
    #: Client reports its access counts to the master every this many ops.
    report_every_ops: int = 128
    #: Master re-plans the cache every epoch (simulated ns).
    epoch_ns: int = 200_000
    #: Minimum decayed score for promotion into DRAM.
    promote_threshold: float = 4.0

    # ---- placement ---------------------------------------------------------
    #: Store primary data in DRAM instead of NVM (the DRAM-only upper bound).
    data_in_dram: bool = False
    #: Home-server selection for new objects: "round-robin" spreads evenly;
    #: "rack-local" prefers servers in the allocating client's rack (falling
    #: back to round robin when none fit) — pairs with two-tier fabrics.
    placement: str = "round-robin"

    # ---- consistency --------------------------------------------------------
    #: Sync outstanding proxy writes before releasing a write lock (release
    #: consistency).  Turning this off trades the next lock holder's
    #: freshness guarantee for faster unlocks — quantified in extension
    #: experiment X3.
    sync_on_release: bool = True
    #: Lock words per server (one per live object at most).
    lock_table_entries: int = 65536

    # ---- metadata durability ---------------------------------------------
    #: Journal every allocation/free into a reserved NVM region on the home
    #: server, so the master's directory can be rebuilt after a full restart
    #: (at the price of one extra RPC + NVM write per gmalloc/gfree).  It
    #: carries the master's *term*: control replies and journal appends
    #: carry it, stale ones are rejected, and a rebuilt master claims a
    #: higher one before it serves (PROTOCOLS §9).
    metadata_journal: bool = False

    # ---- client ---------------------------------------------------------------
    #: Client-side metadata cache (gaddr -> location); disable to force a
    #: lookup RPC per access (for overhead experiments).
    metadata_cache: bool = True

    # ---- resilience ------------------------------------------------------
    #: Per-op wall (virtual) time budget; 0 disables the deadline watchdog.
    #: With a deadline, an op either completes in time or raises a typed
    #: DeadlineExceededError — it never blocks unboundedly.
    op_deadline_ns: int = 0
    #: Client lease duration (failure detection, FaRM-style).  0 disables
    #: leases entirely — no heartbeats, no lease sweeper, lock words carry
    #: epoch 0 — keeping the fault-free path bit-identical to the pre-lease
    #: build.  When set, clients renew at lease/3 (piggybacked on reports
    #: or a standalone ``renew``) and the master recovers the locks, pins,
    #: and proxy rings of any client whose lease lapses, fencing its epoch.
    client_lease_ns: int = 0
    #: Phi-accrual-style failure detection over heartbeat history instead
    #: of the raw lease deadline: a lapsed lease is first only *suspected*
    #: (renewals were flowing irregularly — a flapping or partitioned link)
    #: and fenced when the suspicion level crosses the master's
    #: ``PHI_THRESHOLD``.  Off: a lapsed deadline fences immediately.
    failure_detector: bool = False

    # ---- control-plane sharding ------------------------------------------
    #: Master shards.  Object metadata is partitioned by home server
    #: (``shard_of(gaddr) = server_of(gaddr) % num_master_shards``); each
    #: shard owns the directory entries, allocator spans, journals, term,
    #: lease sweep, txn-intent recovery scan, and epoch/hotness planner for
    #: its server subset, and a cross-shard aggregation step keeps the DRAM
    #: cache budget globally coherent once per ``epoch_ns``.  1 (the
    #: default) builds exactly the single-master control plane: no
    #: aggregation loop, protocol bytes and virtual time identical.
    num_master_shards: int = 1

    def __post_init__(self) -> None:
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be non-negative")
        if self.proxy_ring_slots < 1:
            raise ValueError("need at least one proxy ring slot")
        if self.proxy_slot_size < 64:
            raise ValueError("proxy slots must hold at least a header + small payload")
        if self.report_every_ops < 1 or self.epoch_ns < 1:
            raise ValueError("reporting cadence must be positive")
        if self.placement not in ("round-robin", "rack-local"):
            raise ValueError(f"unknown placement policy {self.placement!r}")
        if self.op_deadline_ns < 0:
            raise ValueError("op_deadline_ns must be non-negative (0 disables)")
        if self.client_lease_ns < 0:
            raise ValueError("client_lease_ns must be non-negative (0 disables)")
        if self.failure_detector and not self.client_lease_ns:
            raise ValueError("failure_detector requires client_lease_ns "
                             "(it observes lease heartbeats)")
        if self.num_master_shards < 1:
            raise ValueError("num_master_shards must be at least 1")


#: The paper's system.
FULL = GengarConfig()
#: Ablations and the NVM-direct comparator, used across benchmarks.
CACHE_ONLY = GengarConfig(enable_proxy=False)
PROXY_ONLY = GengarConfig(enable_cache=False)
NVM_DIRECT = GengarConfig(enable_cache=False, enable_proxy=False)
DRAM_ONLY = GengarConfig(enable_cache=False, enable_proxy=False, data_in_dram=True)
