"""The public façade: build and boot a Gengar deployment in one call.

:class:`GengarPool` assembles the cluster (master node, memory servers,
client nodes), wires every RDMA connection, and runs the bootstrap handshake
(master registration, client attach, proxy ring setup).  After
:meth:`GengarPool.build`, the pool's clients are ready for
``gmalloc``/``gread``/``gwrite``/``glock``.

Typical usage::

    from repro.core import GengarPool
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    pool = GengarPool.build(sim, num_servers=2, num_clients=2)

    def app(sim, client):
        gaddr = yield from client.gmalloc(4096)
        yield from client.gwrite(gaddr, b"hello pool")
        data = yield from client.gread(gaddr, length=10)
        return data

    proc = sim.spawn(app(sim, pool.clients[0]))
    sim.run()
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

from repro.cluster.cluster import Cluster, ClusterSpec
from repro.cluster.node import NodeSpec
from repro.core.client import GengarClient
from repro.core.config import GengarConfig
from repro.core.master import Master, MasterError
from repro.core.protocol import default_shard_map
from repro.core.server import MemoryServer
from repro.hardware.nic import PIPELINE_WIDTH
from repro.hardware.specs import (
    CONNECTX5_NIC,
    DDR4_DRAM,
    DEFAULT_LINK,
    OPTANE_NVM,
    LinkSpec,
    MemorySpec,
    NicSpec,
)
from repro.rdma.endpoint import connect
from repro.rdma.rpc import DEFAULT_BUFFER_SIZE, DEFAULT_RING_SLOTS, RpcClient

#: DRAM reserved on a client for one RPC connection's rings (receive + send).
_RPC_SPAN = 2 * DEFAULT_RING_SLOTS * DEFAULT_BUFFER_SIZE


def _control_client(node, qp, base: int, name: str) -> RpcClient:
    """The calling side of one control connection, its buffers in the
    node's DRAM at ``base``."""
    return RpcClient(node.endpoint, qp, node.dram, base=base, name=name)


class GengarPool:
    """A booted Gengar deployment: master + servers + attached clients."""

    def __init__(self, sim: "Simulator", cluster: Cluster, master: Master,
                 servers: Dict[int, MemoryServer], clients: List[GengarClient],
                 config: GengarConfig, standby: Optional[Master] = None,
                 masters: Optional[List[Master]] = None):
        self.sim = sim
        self.cluster = cluster
        self.master = master
        self.servers = servers
        self.clients = clients
        self.config = config
        #: Warm standby master (``build(standby_master=True)``): wired to
        #: every server and client but refusing to serve until
        #: :meth:`promote_standby` runs its recovery + term claim.
        self.standby = standby
        #: All master shards in shard order (``masters[0] is master``).
        #: A single-master pool is the one-shard special case.
        self.masters: List[Master] = masters if masters else [master]

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        sim: "Simulator",
        num_servers: int = 2,
        num_clients: int = 2,
        config: Optional[GengarConfig] = None,
        dram: MemorySpec = DDR4_DRAM,
        nvm: MemorySpec = OPTANE_NVM,
        nic: NicSpec = CONNECTX5_NIC,
        link: LinkSpec = DEFAULT_LINK,
        client_cores: int = 16,
        policy_factory=None,
        rack_plan: Optional[Dict[str, str]] = None,
        standby_master: bool = False,
    ) -> "GengarPool":
        """Construct the cluster, wire it, and run the bootstrap handshake.

        The simulator is run (synchronously) until the handshake completes;
        virtual time spent booting is realistic RPC time.
        """
        if num_servers < 1 or num_clients < 1:
            raise ValueError("need at least one server and one client")
        config = config or GengarConfig()
        num_shards = config.num_master_shards
        if num_shards > num_servers:
            raise ValueError(
                f"num_master_shards ({num_shards}) cannot exceed "
                f"num_servers ({num_servers}): every shard must own at "
                f"least one server")

        rack_plan = rack_plan or {}
        node_specs = [NodeSpec(name="master", dram=dram, nvm=None,
                               rack=rack_plan.get("master"))]
        for k in range(1, num_shards):
            node_specs.append(NodeSpec(name=f"master_s{k}", dram=dram,
                                       nvm=None,
                                       rack=rack_plan.get(f"master_s{k}")))
        if standby_master:
            node_specs.append(NodeSpec(name="master1", dram=dram, nvm=None,
                                       rack=rack_plan.get("master1")))
        for i in range(num_servers):
            node_specs.append(NodeSpec(name=f"server{i}", dram=dram, nvm=nvm,
                                       rack=rack_plan.get(f"server{i}")))
        for i in range(num_clients):
            node_specs.append(
                NodeSpec(name=f"client{i}", dram=dram, nvm=None,
                         cores=client_cores, rack=rack_plan.get(f"client{i}"))
            )
        cluster = Cluster(sim, ClusterSpec(nodes=tuple(node_specs), link=link))

        # Shard k owns servers with sid % num_shards == k; shard 0 lives on
        # the "master" node, so the one-shard pool is byte-identical to the
        # historical single-master deployment.
        masters: List[Master] = [
            Master(cluster.node("master" if k == 0 else f"master_s{k}"),
                   config, policy_factory=policy_factory,
                   shard_id=k, num_shards=num_shards)
            for k in range(num_shards)
        ]
        master = masters[0]
        shard_map = default_shard_map(range(num_servers), num_shards)
        servers: Dict[int, MemoryServer] = {}
        for sid in range(num_servers):
            server_node = cluster.node(f"server{sid}")
            servers[sid] = MemoryServer(server_node, sid, config)

        # Master <-> server control connections.  Every shard is wired to
        # every server (cross-shard txn applies need a path), but only the
        # owning shard registers it as owned.
        master_node = cluster.node("master")
        for m in masters:
            m.shard_map = dict(shard_map)
            for sid, server in servers.items():
                qp_m, qp_s = connect(m.node.endpoint, server.node.endpoint)
                server.serve_control(qp_s)
                rpc = _control_client(m.node, qp_m, m.carve_rpc_span(),
                                      f"{m.node.name}->server{sid}")
                m.add_server(server.descriptor(), rpc,
                             data_capacity=server.data_capacity,
                             owned=shard_map[sid] == m.shard_id)

        # Shard 0 <-> peer shard control connections (cross-shard hotness
        # aggregation: demand stats out, budgets back).
        for m in masters[1:]:
            qp_0, qp_k = connect(master_node.endpoint, m.node.endpoint)
            m.serve_control(qp_k)
            rpc = _control_client(master_node, qp_0, master.carve_rpc_span(),
                                  f"master->{m.node.name}")
            master.add_peer_shard(m.shard_id, rpc)

        # Warm standby for shard 0: wired to every server (for the journal
        # scan + term claim at promotion) but born recovering — it serves
        # nothing and journals nothing until promote_standby().
        standby: Optional[Master] = None
        if standby_master:
            standby_node = cluster.node("master1")
            standby = Master(standby_node, config,
                             policy_factory=policy_factory, standby=True,
                             shard_id=0, num_shards=num_shards)
            standby.shard_map = dict(shard_map)
            for sid, server in servers.items():
                qp_m, qp_s = connect(standby_node.endpoint, server.node.endpoint)
                server.serve_control(qp_s)
                rpc = _control_client(standby_node, qp_m,
                                      standby.carve_rpc_span(),
                                      f"master1->server{sid}")
                standby.add_server(server.descriptor(), rpc,
                                   data_capacity=server.data_capacity,
                                   owned=shard_map[sid] == 0)

        # Clients: control to master, control + data to each server.  Each
        # (client, server) pair gets enough data QPs ("read lanes") that a
        # client's QPs fill its NIC's TX pipeline: a QP's send gate holds one
        # WQE at a time, so one QP per server would leave slots idle.
        read_lanes = max(1, math.ceil(PIPELINE_WIDTH / num_servers))
        clients: List[GengarClient] = []
        for cid in range(num_clients):
            client_node = cluster.node(f"client{cid}")
            client = GengarClient(client_node, config, name=f"client{cid}")
            for m in masters:
                qp_c, qp_m = connect(client_node.endpoint, m.node.endpoint)
                m.serve_control(qp_m)
                client.add_master_conn(_control_client(
                    client_node, qp_c,
                    client.carve_dram(_RPC_SPAN, f"rpc.{m.node.name}"),
                    f"{client.name}->{m.node.name}"), shard=m.shard_id)
            if standby is not None:
                qp_c2, qp_m2 = connect(client_node.endpoint,
                                       standby.node.endpoint)
                standby.serve_control(qp_m2)
                client.add_master_conn(_control_client(
                    client_node, qp_c2,
                    client.carve_dram(_RPC_SPAN, "rpc.master1"),
                    f"{client.name}->master1"))
            for sid, server in servers.items():
                ctrl_c, ctrl_s = connect(client_node.endpoint, server.node.endpoint)
                server.serve_control(ctrl_s)
                server_rpc = _control_client(
                    client_node, ctrl_c,
                    client.carve_dram(_RPC_SPAN, f"rpc.server{sid}"),
                    f"{client.name}->server{sid}")
                lanes = tuple(connect(client_node.endpoint, server.node.endpoint)[0]
                              for _ in range(read_lanes))
                client.add_server_conn(server.descriptor(), lanes, server_rpc)
            clients.append(client)

        # Bootstrap handshake: attach every client, then start the planners
        # (shard 0's also arms the cross-shard aggregator).
        def bootstrap(sim):
            for client in clients:
                yield from client.attach()
            for m in masters:
                m.start_planner()

        sim.run_until_complete(sim.spawn(bootstrap(sim), name="bootstrap"))
        return cls(sim, cluster, master, servers, clients, config,
                   standby=standby, masters=masters)

    # ------------------------------------------------------------------
    def run(self, *generators, max_events: Optional[int] = None) -> list:
        """Spawn application processes and run until all of them finish.

        Background service loops (proxy drains, the hotness planner) keep
        the event queue non-empty forever, so callers should use this rather
        than ``sim.run()``.  Returns the processes' values in order; raises
        the first failure.
        """
        procs = [self.sim.spawn(g) for g in generators]
        self.sim.run_until_complete(self.sim.all_of(procs), max_events=max_events)
        return [p.value for p in procs]

    def promote_standby(self, rebuild: bool = True):
        """Promote the warm standby: spawn its recovery process (journal
        replay + term claim) and return the process.

        The claim journals a term above every persisted one, which makes
        the servers reject the old incumbent's subsequent appends — the
        deposed master cannot ack another allocation even if it is still
        running on the far side of a partition.  Clients fail over on
        their own: a stale-term reply (or unreachable incumbent) makes the
        retry loop rotate to the standby's connection.

        The standby keeps refusing RPCs ("master recovering") until the
        claim lands, so promotion mid-partition is safe — it just parks
        until the fabric heals enough to reach the journals.
        """
        if self.standby is None:
            raise ValueError("pool was built without standby_master=True")
        standby = self.standby
        proc = self.sim.spawn(standby.recovery_process(rebuild=rebuild),
                              name="master1.promote")
        # The promoted standby is the pool's master from here on (the old
        # incumbent object stays alive — and fenced — for inspection).  It
        # stands by for shard 0, so ``masters[0] is master`` keeps holding:
        # a later MasterCrash(shard=0) must hit the promoted master, not
        # resurrect the deposed one.
        self.master, self.standby = standby, self.master
        self.masters[0] = standby
        return proc

    def reshard(self, server_id: int, to_shard: int) -> None:
        """Move ownership of ``server_id``'s metadata to ``to_shard``.

        Instant in virtual time: the exporting shard's directory records,
        allocator, lock bookkeeping, and dedup entries are grafted onto
        the adopting shard, and every master installs the new shard map in
        the same virtual instant (map epoch bumped in lockstep).  Clients
        discover the move lazily — their next misrouted op gets a typed
        ``not my shard`` redirect and re-resolves.
        """
        if not 0 <= to_shard < len(self.masters):
            raise ValueError(f"no such shard: {to_shard}")
        if server_id not in self.servers:
            raise ValueError(f"no such server: {server_id}")
        current = self.master.shard_map.get(
            server_id, server_id % len(self.masters))
        if current == to_shard:
            return
        for role, m in (("exporting", self.masters[current]),
                        ("adopting", self.masters[to_shard])):
            if (not m.node.endpoint.alive or m._recovering or m._deposed):
                raise MasterError(
                    f"reshard needs the {role} shard serving (shard "
                    f"{m.shard_id} is down, recovering, or deposed)")
        state = self.masters[current].export_server(server_id)
        self.masters[to_shard].adopt_server(state)
        new_map = dict(self.master.shard_map)
        new_map[server_id] = to_shard
        everyone = list(self.masters)
        if self.standby is not None:
            everyone.append(self.standby)
        for m in everyone:
            m.apply_shard_map(new_map)

    def inject_faults(self, plan, rng_name: str = "faults"):
        """Arm a :class:`~repro.faults.plan.FaultPlan` against this pool.

        Returns the installed :class:`~repro.faults.injector.FaultInjector`
        (keep it to ``uninstall()`` the fabric hook later).
        """
        from repro.faults.injector import FaultInjector

        return FaultInjector.for_pool(self, plan, rng_name=rng_name).install()

    def server_for(self, gaddr: int) -> MemoryServer:
        """The memory server homing ``gaddr``."""
        from repro.core.addressing import server_of

        return self.servers[server_of(gaddr)]

    def describe(self) -> Dict[str, object]:
        """Structured operator snapshot of the whole deployment.

        Complements :meth:`metrics_snapshot` (flat pool-wide counters) with
        per-component state: directory occupancy, per-server cache/proxy
        status, and per-client session state.
        """
        m = self.sim.metrics
        servers = {}
        for sid, server in self.servers.items():
            servers[f"server{sid}"] = {
                "alive": server.is_alive,
                "cached_objects": len(server.cached),
                "cache_used_bytes": server.cache_used_bytes,
                "drained_writes": server.drained_writes.count,
                "peak_ring_occupancy": server.ring_occupancy.peak,
                "promotions": server.promotions.count,
                "demotions": server.demotions.count,
                "crashes": server.crashes,
                "torn_slots_skipped": server.torn_skipped.count,
                "journal_records": getattr(server, "_journal_count", 0)
                if server.journal_base is not None else None,
                "host_bytes": {"dram": server.node.dram.resident_bytes,
                               "nvm": server.node.nvm.resident_bytes},
            }
        clients = {}
        for client in self.clients:
            clients[client.name] = {
                "uid": client.uid,
                "pending_overlay_writes": len(client._overlay),
                "cached_metadata_entries": len(client._meta_cache),
                "fence_epoch": client.fence_epoch,
                "fenced": client.fenced,
            }
        return {
            "virtual_time_ns": self.sim.now,
            "objects": sum(len(m.directory) for m in self.masters),
            "shards": {
                "count": len(self.masters),
                "map_epoch": self.master.map_epoch,
                "owners": {m.node.name: sorted(m._servers)
                           for m in self.masters},
                "location_log": {m.node.name: len(m._loc_log)
                                 for m in self.masters},
            },
            "master": {
                "allocations": self.master.allocations.count,
                "reports": self.master.reports.count,
                "promotions": self.master.promote_ops.count,
                "demotions": self.master.demote_ops.count,
                "crashes": self.master.crashes,
                "quarantine_peak": max(
                    m.quarantine_peak for m in self.masters),
            },
            "servers": servers,
            "clients": clients,
            "host_bytes": {
                "clients": sum(c.node.dram.resident_bytes for c in self.clients),
                "masters": sum(n.dram.resident_bytes for n in self.cluster.nodes
                               if n.name.startswith("master")),
            },
            "locks": {
                "acquires": m.counter("pool.lock_acquires").count,
                "retries": m.counter("pool.lock_retries").count,
            },
            "resilience": {
                "lease_renewals": self.master.lease_renewals.count,
                "lease_expiries": self.master.lease_expiries.count,
                "fence_rejections_master": self.master.fence_rejections.count,
                "fence_rejections_clients":
                    m.counter("pool.fence_rejections").count,
                "lock_recoveries": int(self.master.lock_recoveries.total),
                "torn_slot_skips": sum(
                    s.torn_skipped.count for s in self.servers.values()),
                "master_failovers": self.master.failovers.count,
                "journal_records_replayed": int(self.master.journal_replayed.total),
                "client_master_reattaches":
                    m.counter("pool.master_failovers").count,
            },
            "partitions": {
                "master_term": self.master.term,
                "master_deposed": self.master._deposed,
                "standby": (self.standby.node.name
                            if self.standby is not None else None),
                "suspected_clients":
                    m.counter("master.suspected_clients").count,
                "term_claims": m.counter("master.term_claims").count,
                "depositions": m.counter("master.depositions").count,
                "stale_term_rejections":
                    m.counter("pool.stale_term_rejections").count,
                "partition_suspected":
                    m.counter("pool.partition_suspected").count,
                "lease_lapses": m.counter("pool.lease_lapses").count,
            },
            "txn": {
                "enabled": self.config.enable_txn,
                "begins": m.counter("pool.txn_begins").count,
                "commits": m.counter("pool.txn_commits").count,
                "aborts": m.counter("pool.txn_aborts").count,
                "wait_die_deaths": m.counter("pool.txn_wait_die").count,
                "commit_handoffs": m.counter("pool.txn_handoffs").count,
                "rolled_forward":
                    m.counter("master.txn_rolled_forward").count,
                "lock_timeouts": m.counter("pool.lock_timeouts").count,
                "intents_journaled": sum(
                    m.counter(f"{s.node.name}.txn.intents").count
                    for s in self.servers.values()),
                "writes_applied": sum(
                    m.counter(f"{s.node.name}.txn.applied").count
                    for s in self.servers.values()),
            },
        }

    def metrics_snapshot(self) -> Dict[str, float]:
        """Pool-wide counters most benchmarks report."""
        m = self.sim.metrics
        reads = m.counter("pool.reads")
        hits = m.counter("pool.cache_hits")
        return {
            "reads": reads.count,
            "writes": m.counter("pool.writes").count,
            "cache_hits": hits.count,
            "cache_hit_ratio": hits.count / reads.count if reads.count else 0.0,
            "proxy_writes": m.counter("pool.proxy_writes").count,
            "direct_writes": m.counter("pool.direct_writes").count,
            "read_latency_mean_ns": m.histogram("pool.read_latency").mean,
            "write_latency_mean_ns": m.histogram("pool.write_latency").mean,
        }
