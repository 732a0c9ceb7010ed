"""The deterministic perf capture: ``BENCH_perf.json``.

Every figure here repeats exactly on any machine — virtual times, virtual
throughput, dispatch counts, pool statistics — so the capture is a pin, not
a measurement.  ``tests/bench/test_perf.py`` regenerates it and requires
equality with the committed file; a PR that moves a number on purpose
commits the regenerated file, and the diff is the record.  Host time is not
here: host-time claims are made with ``benchmarks/ledger`` (see its README).

* **kernel** — dispatches for many concurrent delay-driven processes;
* **rpc** / **doorbell** — events per echo RPC and per doorbell-batched
  READ on a bare two-node rig (the per-message event budgets);
* **txn** — virtual cost of the uncontended distributed-commit path;
* **scaleout** — virtual metadata throughput and p99 vs the number of
  master shards (1/2/4/8);
* **scaleout_clients** — YCSB-B virtual throughput vs the number of
  attached clients (16/32/64/128 over 8 servers x 4 shards), with the
  first master shard's receive-pool growth;
* **ycsb_small** / **ycsb_medium** — full Gengar YCSB-B runs at two scales.

Usage::

    PYTHONPATH=src python -m repro.bench.perf     # rewrite BENCH_perf.json

The JSON layout::

    {"schema": 1, "current": {"kernel": {...}, "rpc": {...}, ...}}
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Dict

from repro.baselines.common import build_system
from repro.bench.runner import YcsbRunner
from repro.sim.kernel import Simulator
from repro.workloads.ycsb import WORKLOAD_B

SCHEMA_VERSION = 1

#: Default output location: the tracked capture, when run from the repo root.
DEFAULT_OUT = "BENCH_perf.json"


# ----------------------------------------------------------------------
# Kernel microbenchmark
# ----------------------------------------------------------------------
def bench_kernel(num_procs: int = 64,
                 timeouts_per_proc: int = 2000) -> Dict[str, Any]:
    """Event-loop dispatch count: many processes ping-ponging through
    bare delays.  ``dispatched_events`` counts actual kernel dispatches, so
    it tracks what each wait costs the kernel (heap ops, callback dispatch,
    process resume)."""

    def worker(sim: Simulator, n: int):
        for _ in range(n):
            yield 10  # the bare delay every hardware model waits with

    sim = Simulator(seed=1)
    for _i in range(num_procs):
        sim.spawn(worker(sim, timeouts_per_proc))
    base = sim.total_dispatched
    sim.run()
    return {
        "processes": num_procs,
        "timeouts_per_proc": timeouts_per_proc,
        "dispatched_events": sim.total_dispatched - base,
        "virtual_time_ns": sim.now,
    }


# ----------------------------------------------------------------------
# YCSB-B macro runs
# ----------------------------------------------------------------------
def bench_ycsb(record_count: int, num_workers: int, ops_per_worker: int,
               seed: int = 42, value_size: int = 128) -> Dict[str, Any]:
    """One full YCSB-B run on the Gengar system."""
    sim = Simulator(seed=seed)
    system = build_system("gengar", sim, num_servers=2, num_clients=2)
    spec = WORKLOAD_B.scaled(record_count=record_count, value_size=value_size)
    runner = YcsbRunner(system, spec, num_workers=num_workers,
                        ops_per_worker=ops_per_worker)
    runner.load()
    result = runner.run()
    batches = sim.metrics.histogram("pool.read_batch")
    depth = (batches.snapshot()["mean"] if batches.count else 1.0)
    return {
        "record_count": record_count,
        "num_workers": num_workers,
        "ops_per_worker": ops_per_worker,
        "total_ops": result.total_ops,
        "virtual_time_ns": sim.now,
        "sim_throughput_ops_s": result.throughput_ops_s,
        "cache_hit_ratio": result.cache_hit_ratio,
        #: Mean RDMA READs per gread_many doorbell — effective pipelining.
        "read_pipeline_depth": round(depth, 2),
    }


# ----------------------------------------------------------------------
# Hot-path microbenchmarks: RPC round trips and doorbell batches
# ----------------------------------------------------------------------
def _two_node_rig(seed: int = 7):
    """A minimal two-endpoint rig (no Gengar stack) for verb-layer benches."""
    from repro.hardware.memory import MemoryDevice
    from repro.hardware.network import Fabric
    from repro.hardware.nic import Nic
    from repro.hardware.specs import CONNECTX5_NIC, LinkSpec, MemorySpec
    from repro.rdma import RdmaEndpoint, connect

    def dram(name):
        return MemorySpec(name=name, kind="dram", capacity_bytes=1 << 22,
                          read_latency_ns=80, write_latency_ns=80,
                          read_bw=16.0, write_bw=16.0, channels=4)

    sim = Simulator(seed=seed)
    fabric = Fabric(sim, LinkSpec(bandwidth=12.5, propagation_ns=500))
    mem_a = MemoryDevice(sim, dram("a.mem"), name="a.mem")
    mem_b = MemoryDevice(sim, dram("b.mem"), name="b.mem")
    ep_a = RdmaEndpoint(sim, "a", Nic(sim, CONNECTX5_NIC, "a.nic"), fabric)
    ep_b = RdmaEndpoint(sim, "b", Nic(sim, CONNECTX5_NIC, "b.nic"), fabric)
    qp_a, qp_b = connect(ep_a, ep_b)
    return sim, (ep_a, mem_a, qp_a), (ep_b, mem_b, qp_b)


def _echo_rpc_rig():
    """The two-node rig with an echo server on ``b`` and its client on
    ``a``; the server carves its rings (and their growth) from a
    :class:`~repro.core.layout.DramCarver`, as every pool server does."""
    from repro.core.layout import DramCarver
    from repro.rdma import RpcClient, RpcServer
    from repro.rdma.rpc import DEFAULT_BUFFER_SIZE, DEFAULT_RING_SLOTS

    sim, (ep_a, mem_a, qp_a), (ep_b, mem_b, qp_b) = _two_node_rig()
    carver = DramCarver(mem_b)
    server = RpcServer(
        ep_b, mem_b, base=carver.carve(2 * DEFAULT_RING_SLOTS * DEFAULT_BUFFER_SIZE),
        grow_cb=carver.carve, name="srv.rpc")
    server.register("echo", lambda req: req)
    server.serve(qp_b)
    client = RpcClient(ep_a, qp_a, mem_a, base=0, name="cli.rpc")
    return sim, client


def bench_rpc(calls: int = 1000) -> Dict[str, Any]:
    """Events per RPC round trip (control-plane hot path).

    One client process issues ``calls`` sequential echo RPCs; the per-call
    event count exposes the full stack — framing, SEND/RECV verb state
    machines, CQ delivery, demux — in kernel dispatches.
    """
    sim, client = _echo_rpc_rig()

    def caller(sim, n):
        for i in range(n):
            yield from client.call("echo", i)

    proc = sim.spawn(caller(sim, calls))
    base = sim.total_dispatched
    sim.run_until_complete(proc)
    events = sim.total_dispatched - base
    return {
        "calls": calls,
        "dispatched_events": events,
        "events_per_call": round(events / calls, 2),
        "virtual_time_ns": sim.now,
    }


def bench_doorbell(batches: int = 120, batch_size: int = 16) -> Dict[str, Any]:
    """Events per doorbell-batched one-sided read.

    Each iteration posts ``batch_size`` RDMA READs with one
    ``post_send_many`` doorbell (timers armed via one batched kernel call)
    and consumes completions out of order through a :class:`CompletionMux` —
    the data-plane fast path ``gread_many`` drives.  The per-WR event count
    makes trampoline regressions visible in isolation from the Gengar
    client logic.
    """
    from repro.rdma import Opcode, WorkRequest
    from repro.rdma.cq import CompletionMux
    from repro.rdma.mr import AccessFlags

    total_wrs = batches * batch_size
    sim, (ep_a, mem_a, qp_a), (ep_b, mem_b, qp_b) = _two_node_rig()
    local_mr = ep_a.register_mr(mem_a, 0, 1 << 20, access=AccessFlags.ALL,
                                name="db.local")
    remote_mr = ep_b.register_mr(mem_b, 0, 1 << 20, access=AccessFlags.ALL,
                                 name="db.remote")

    def driver(sim):
        for _b in range(batches):
            wrs = [
                WorkRequest(
                    opcode=Opcode.RDMA_READ,
                    remote_rkey=remote_mr.rkey,
                    remote_offset=i * 64,
                    local_mr=local_mr,
                    local_offset=i * 64,
                    length=64,
                    wr_id=i,
                )
                for i in range(batch_size)
            ]
            mux = CompletionMux(sim)
            for i, ev in enumerate(qp_a.post_send_many(wrs)):
                mux.add(ev, tag=i)
            for _ in range(batch_size):
                yield mux.next_event()

    proc = sim.spawn(driver(sim))
    base = sim.total_dispatched
    sim.run_until_complete(proc)
    events = sim.total_dispatched - base
    return {
        "batches": batches,
        "batch_size": batch_size,
        "wrs": total_wrs,
        "dispatched_events": events,
        "events_per_wr": round(events / total_wrs, 2),
        "virtual_time_ns": sim.now,
    }


# ----------------------------------------------------------------------
# Control-plane scale-out: throughput vs master shard count
# ----------------------------------------------------------------------
def bench_scaleout(shard_counts=(1, 2, 4, 8), num_servers: int = 8,
                   num_clients: int = 8, num_workers: int = 64,
                   ops_per_worker: int = 50, seed: int = 53) -> Dict[str, Any]:
    """Metadata throughput and p99 latency vs ``num_master_shards``.

    Pure alloc/free loops: every op is a master RPC and the data plane is
    never touched, so the sweep isolates the control plane.  One master
    serialises the whole fleet on its NIC; shards split the directory by
    home server and serve in parallel.  The knee past 4 shards is real
    (client NICs saturate), not measurement noise.
    """
    from repro.core import GengarConfig, GengarPool

    points = []
    for shards in shard_counts:
        sim = Simulator(seed=seed)
        pool = GengarPool.build(sim, num_servers=num_servers,
                                num_clients=num_clients,
                                config=GengarConfig(num_master_shards=shards))
        latencies: list = []

        def worker(i, pool=pool, sim=sim, latencies=latencies):
            client = pool.clients[i % len(pool.clients)]
            for _ in range(ops_per_worker):
                t0 = sim.now
                gaddr = yield from client.gmalloc(128)
                yield from client.gfree(gaddr)
                latencies.append(sim.now - t0)

        pool.run(*[worker(i) for i in range(num_workers)])
        total = num_workers * ops_per_worker
        latencies.sort()
        p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
        points.append({
            "shards": shards,
            "total_ops": total,
            "virtual_time_ns": sim.now,
            "ops_per_sec_virtual": round(total / (sim.now / 1e9), 1),
            "p99_latency_ns": p99,
        })
    return {
        "num_servers": num_servers,
        "num_clients": num_clients,
        "num_workers": num_workers,
        "ops_per_worker": ops_per_worker,
        "points": points,
    }


def bench_scaleout_clients(client_counts=(16, 32, 64, 128),
                           num_servers: int = 8, shards: int = 4,
                           record_count: int = 256, ops_per_worker: int = 20,
                           seed: int = 61) -> Dict[str, Any]:
    """YCSB-B throughput vs *attached-client* count (the E3c fanout axis).

    Every client attaches a control QP to every master shard and every
    server, so the binding resource is the servers' RPC receive pools.
    Each elastic shared receive pool grows in powers of two as clients
    attach and each client's receive window bounds its outstanding
    requests, so the sweep completes at every point (a fixed 16-slot ring
    wedged at >=16 clients; ``tests/rdma/test_ring_elastic.py`` pins the
    fix).

    Each point also snapshots the first master shard's
    :meth:`RpcServer.pool_stats` so the growth trajectory (capacity,
    grow count, peak occupancy) is part of the committed record.
    """
    from dataclasses import replace

    points = []
    for n in client_counts:
        sim = Simulator(seed=seed)
        system = build_system(
            "gengar", sim, num_servers=num_servers, num_clients=n,
            config_overrides=lambda c: replace(c, num_master_shards=shards))
        spec = WORKLOAD_B.scaled(record_count=record_count, value_size=128)
        runner = YcsbRunner(system, spec, num_workers=n,
                            ops_per_worker=ops_per_worker)
        runner.load()
        result = runner.run()
        stats = system.pool.master.rpc.pool_stats()
        points.append({
            "clients": n,
            "total_ops": result.total_ops,
            "virtual_time_ns": sim.now,
            "ops_per_sec_virtual": result.throughput_ops_s,
            "master_pool": {
                "qps": stats["qps"],
                "capacity": stats["capacity"],
                "grows": stats["grows"],
                "peak_occupancy": stats["peak_occupancy"],
            },
        })
    return {
        "num_servers": num_servers,
        "shards": shards,
        "record_count": record_count,
        "ops_per_worker": ops_per_worker,
        "points": points,
    }


# ----------------------------------------------------------------------
# Transaction commit microbenchmark
# ----------------------------------------------------------------------
def bench_txn(txns: int = 400, accounts: int = 16,
              seed: int = 42) -> Dict[str, Any]:
    """Virtual cost of the distributed-commit fast path.

    One client, two servers, bank-transfer-shaped transactions (two locks
    in gaddr order, two traced reads, intent append, per-server applies,
    intent clear, unlock) — the whole crash-atomic pipeline with no
    contention, so the figure isolates protocol overhead rather than
    wait-die backoff.
    """
    from repro.core import GengarPool
    from repro.workloads.bank import BankSpec, bank_setup, bank_transfer

    sim = Simulator(seed=seed)
    pool = GengarPool.build(sim, num_servers=2, num_clients=1)
    client = pool.clients[0]
    spec = BankSpec(accounts=accounts, initial_balance=1000, max_transfer=10)
    holder: Dict[str, Any] = {}

    def setup(sim):
        holder["gaddrs"] = yield from bank_setup(client, spec)

    pool.run(setup(sim))
    gaddrs = holder["gaddrs"]
    rng = sim.rng.stream("bench.txn")

    def driver(sim):
        for _i in range(txns):
            i = rng.randrange(accounts)
            j = (i + 1 + rng.randrange(accounts - 1)) % accounts
            yield from bank_transfer(client, gaddrs[i], gaddrs[j], 1)

    vt0 = sim.now
    pool.run(driver(sim))
    return {
        "txns": txns,
        "accounts": accounts,
        "committed": sim.metrics.counter("pool.txn_commits").count,
        "virtual_time_ns": sim.now,
        "virtual_ns_per_txn": round((sim.now - vt0) / txns, 1),
    }


# ----------------------------------------------------------------------
# Harness plumbing
# ----------------------------------------------------------------------
def capture() -> Dict[str, Any]:
    """Run every bench and return the ``BENCH_perf.json`` document."""
    return {"schema": SCHEMA_VERSION, "current": {
        "kernel": bench_kernel(),
        "rpc": bench_rpc(),
        "doorbell": bench_doorbell(),
        "txn": bench_txn(),
        "scaleout": bench_scaleout(),
        "scaleout_clients": bench_scaleout_clients(),
        "ycsb_small": bench_ycsb(record_count=200, num_workers=4,
                                 ops_per_worker=250),
        "ycsb_medium": bench_ycsb(record_count=1000, num_workers=8,
                                  ops_per_worker=500),
    }}


def render(doc: Dict[str, Any]) -> str:
    """The exact bytes of ``BENCH_perf.json`` for ``doc``."""
    return json.dumps(doc, indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output JSON path (default: {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    doc = capture()
    Path(args.out).write_text(render(doc))
    cur = doc["current"]
    print(f"kernel: {cur['kernel']['dispatched_events']:,} dispatches")
    print(f"rpc: {cur['rpc']['events_per_call']} events/call, "
          f"doorbell: {cur['doorbell']['events_per_wr']} events/WR")
    print(f"txn: {cur['txn']['virtual_ns_per_txn']:,.0f} virtual ns/txn")
    for pt in cur["scaleout"]["points"]:
        print(f"scaleout {pt['shards']} shard(s): "
              f"{pt['ops_per_sec_virtual']:,.0f} metadata ops/s virtual, "
              f"p99 {pt['p99_latency_ns']:,} ns")
    for pt in cur["scaleout_clients"]["points"]:
        mp = pt["master_pool"]
        print(f"scaleout {pt['clients']} client(s): "
              f"{pt['ops_per_sec_virtual']:,.0f} YCSB ops/s virtual, "
              f"pool {mp['capacity']} slots ({mp['grows']} grows, "
              f"peak occupancy {mp['peak_occupancy']:.0f})")
    for scale in ("ycsb_small", "ycsb_medium"):
        print(f"{scale}: virtual time {cur[scale]['virtual_time_ns']:,} ns, "
              f"{cur[scale]['sim_throughput_ops_s']:,.0f} ops/s virtual, "
              f"hit ratio {cur[scale]['cache_hit_ratio']:.4f}, "
              f"pipeline depth {cur[scale]['read_pipeline_depth']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
