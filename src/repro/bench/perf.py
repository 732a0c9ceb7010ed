"""Wall-clock performance harness for the simulator fast path.

Every experiment in this reproduction funnels through the discrete-event
kernel and the Gengar client data path, so *wall-clock cost per simulated
op* bounds how large a sweep we can afford.  This module measures that cost
directly and records the trajectory across PRs in ``BENCH_perf.json`` at the
repo root:

* **kernel microbenchmark** — raw event-loop throughput (dispatched events
  per wall-clock second) with many concurrent timeout-driven processes;
* **YCSB-B macro runs** — operations per wall-clock second for a full
  Gengar deployment at two scales;
* **control-plane scale-out** — virtual metadata throughput and p99 vs
  the number of master shards (1/2/4/8), the scaling record for the
  sharded control plane;
* **client-fanout scale-out** — YCSB-B virtual throughput vs the number
  of attached clients (16/32/64/128 over 8 servers x 4 shards), the
  scaling record for the elastic shared receive pool.

Alongside each wall-clock figure the harness records the run's *virtual*
results (final virtual time, simulated throughput).  Optimisations must be
semantics-preserving: the virtual numbers must not move when only the
wall-clock numbers improve (see ``tests/core/test_determinism.py``).

Usage::

    PYTHONPATH=src python -m repro.bench.perf                 # update "current"
    PYTHONPATH=src python -m repro.bench.perf --smoke         # tiny CI smoke run
    PYTHONPATH=src python -m repro.bench.perf --guard-against BENCH_perf.json

``--guard-against`` is the CI regression gate.  It gates on what repeats
exactly on any machine: every ``virtual_time_ns`` pin must equal the
committed file's ``current`` section, and the event budgets
(``kernel.dispatched_events``, ``rpc.events_per_call``,
``doorbell.events_per_wr``) must not rise.  Host time is printed as
``INFO`` and never fails the job — it swings 15-25 % on a shared box, and
host-time claims are made with ``benchmarks/ledger`` (see its README).  It
never writes the JSON file.

``__slots__`` note: the per-object bookkeeping types on the hot path
(``Counter``, ``ObjectStats``, WRs, span tuples) all declare ``__slots__``.
Measured on this container (CPython 3.11, 64 live ``ObjectStats`` with
20k attribute-churn iterations, best of 5): attribute access is at parity
with dict-backed instances (0.95-1.05x — modern CPython inline caches close
the gap), but the footprint is 80 bytes/object vs 176 with ``__dict__``,
a 2.2x shrink that keeps the master's directory and hotness tables (one
record per allocated object, thousands live in the medium run) cache-
resident.  The win is memory and allocation rate, not raw access latency.

The JSON layout::

    {
      "schema": 1,
      "current": {"kernel": {...}, "ycsb_small": {...}, "ycsb_medium": {...}}
    }
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.baselines.common import build_system
from repro.bench.runner import YcsbRunner
from repro.sim.kernel import Simulator
from repro.workloads.ycsb import WORKLOAD_B

SCHEMA_VERSION = 1

#: Default output location: the repo root (two levels above ``src/repro``).
DEFAULT_OUT = "BENCH_perf.json"


# ----------------------------------------------------------------------
# Kernel microbenchmark
# ----------------------------------------------------------------------
def bench_kernel(num_procs: int = 64, timeouts_per_proc: int = 2000,
                 repeats: int = 3) -> Dict[str, Any]:
    """Event-loop throughput: many processes ping-ponging through timeouts.

    Reports the best of ``repeats`` runs (wall-clock noise only shrinks the
    number, never inflates it).  ``events_per_sec`` counts actual kernel
    dispatches, not just timeouts, so it tracks the full per-event overhead
    (heap ops, callback dispatch, process resume).
    """

    def worker(sim: Simulator, n: int):
        for _ in range(n):
            yield 10  # the bare delay every hardware model waits with

    best: Optional[Dict[str, Any]] = None
    for _ in range(max(1, repeats)):
        sim = Simulator(seed=1)
        for _i in range(num_procs):
            sim.spawn(worker(sim, timeouts_per_proc))
        base = getattr(sim, "total_dispatched", 0)
        t0 = time.perf_counter()
        sim.run()
        dt = time.perf_counter() - t0
        dispatched = getattr(sim, "total_dispatched", 0) - base
        if not dispatched:
            # Seed kernels without the dispatch counter: fall back to the
            # known timeout count so the metric stays comparable.
            dispatched = num_procs * timeouts_per_proc
        sample = {
            "processes": num_procs,
            "timeouts_per_proc": timeouts_per_proc,
            "dispatched_events": dispatched,
            "seconds": dt,
            "events_per_sec": dispatched / dt if dt > 0 else 0.0,
            "virtual_time_ns": sim.now,
        }
        if best is None or sample["events_per_sec"] > best["events_per_sec"]:
            best = sample
    assert best is not None
    return best


# ----------------------------------------------------------------------
# YCSB-B macro runs
# ----------------------------------------------------------------------
def bench_ycsb(record_count: int, num_workers: int, ops_per_worker: int,
               seed: int = 42, value_size: int = 128,
               repeats: int = 1) -> Dict[str, Any]:
    """One full YCSB-B run on the Gengar system; wall-clock + virtual stats.

    With ``repeats > 1`` the wall-clock figure is the best of N runs (noise
    only slows a run down); the virtual-side numbers are asserted identical
    across repeats — same seed, same simulation, bit for bit.
    """
    best: Optional[Dict[str, Any]] = None
    for _ in range(max(1, repeats)):
        sim = Simulator(seed=seed)
        system = build_system("gengar", sim, num_servers=2, num_clients=2)
        spec = WORKLOAD_B.scaled(record_count=record_count, value_size=value_size)
        runner = YcsbRunner(system, spec, num_workers=num_workers,
                            ops_per_worker=ops_per_worker)
        runner.load()
        t0 = time.perf_counter()
        result = runner.run()
        dt = time.perf_counter() - t0
        batches = sim.metrics.histogram("pool.read_batch")
        depth = (batches.snapshot()["mean"] if batches.count else 1.0)
        sample = {
            "record_count": record_count,
            "num_workers": num_workers,
            "ops_per_worker": ops_per_worker,
            "total_ops": result.total_ops,
            "seconds": dt,
            "ops_per_sec_wallclock": result.total_ops / dt if dt > 0 else 0.0,
            # Virtual-side invariants: must not move under wall-clock-only work.
            "virtual_time_ns": sim.now,
            "sim_throughput_ops_s": result.throughput_ops_s,
            "cache_hit_ratio": result.cache_hit_ratio,
            #: Mean RDMA READs per gread_many doorbell — effective pipelining.
            "read_pipeline_depth": round(depth, 2),
        }
        if best is not None:
            for key in ("virtual_time_ns", "sim_throughput_ops_s",
                        "cache_hit_ratio", "read_pipeline_depth"):
                assert sample[key] == best[key], (
                    f"non-deterministic virtual metric {key}: "
                    f"{sample[key]} != {best[key]}")
        if best is None or sample["ops_per_sec_wallclock"] > best["ops_per_sec_wallclock"]:
            best = sample
    assert best is not None
    return best


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


def bench_rpc(calls: int = 1000, repeats: int = 3) -> Dict[str, Any]:
    """Wall-clock cost of an RPC round trip (control-plane hot path).

    One client process issues ``calls`` sequential echo RPCs; the per-call
    and per-event ns figures expose the full stack cost — framing, SEND/RECV
    verb state machines, CQ delivery, demux — per kernel dispatch.
    """
    from repro.rdma import RpcClient, RpcServer

    best: Optional[Dict[str, Any]] = None
    for _ in range(max(1, repeats)):
        sim, (ep_a, mem_a, qp_a), (ep_b, mem_b, qp_b) = _two_node_rig()
        server = RpcServer(ep_b, mem_b, base=0, name="srv.rpc")
        server.register("echo", lambda req: req)
        server.serve(qp_b)
        client = RpcClient(ep_a, qp_a, mem_a, base=0, name="cli.rpc")

        def caller(sim, n):
            for i in range(n):
                yield from client.call("echo", i)

        proc = sim.spawn(caller(sim, calls))
        base = sim.total_dispatched
        t0 = time.perf_counter()
        sim.run_until_complete(proc)
        dt = time.perf_counter() - t0
        events = sim.total_dispatched - base
        sample = {
            "calls": calls,
            "seconds": dt,
            "calls_per_sec": calls / dt if dt > 0 else 0.0,
            "ns_per_call": dt / calls * 1e9,
            "dispatched_events": events,
            "events_per_call": round(events / calls, 2),
            "ns_per_event": dt / events * 1e9 if events else 0.0,
            "virtual_time_ns": sim.now,
        }
        if best is None or sample["calls_per_sec"] > best["calls_per_sec"]:
            best = sample
    assert best is not None
    return best


def bench_doorbell(batches: int = 120, batch_size: int = 16,
                   repeats: int = 3) -> Dict[str, Any]:
    """Wall-clock cost of doorbell-batched one-sided reads.

    Each iteration posts ``batch_size`` RDMA READs with one
    ``post_send_many`` doorbell (timers armed via one batched kernel call)
    and consumes completions out of order through a :class:`CompletionMux` —
    the data-plane fast path ``gread_many`` drives.  Reported per-WR and
    per-event ns make trampoline regressions visible in isolation from the
    Gengar client logic.
    """
    from repro.rdma import Opcode, WorkRequest
    from repro.rdma.cq import CompletionMux
    from repro.rdma.mr import AccessFlags

    best: Optional[Dict[str, Any]] = None
    total_wrs = batches * batch_size
    for _ in range(max(1, repeats)):
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
        t0 = time.perf_counter()
        sim.run_until_complete(proc)
        dt = time.perf_counter() - t0
        events = sim.total_dispatched - base
        sample = {
            "batches": batches,
            "batch_size": batch_size,
            "wrs": total_wrs,
            "seconds": dt,
            "wrs_per_sec": total_wrs / dt if dt > 0 else 0.0,
            "ns_per_wr": dt / total_wrs * 1e9,
            "dispatched_events": events,
            "events_per_wr": round(events / total_wrs, 2),
            "ns_per_event": dt / events * 1e9 if events else 0.0,
            "virtual_time_ns": sim.now,
        }
        if best is None or sample["wrs_per_sec"] > best["wrs_per_sec"]:
            best = sample
    assert best is not None
    return best


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
    home server and serve in parallel.  All figures here are *virtual*
    (simulated ns), hence machine-independent and deterministic — the knee
    past 4 shards is real (client NICs saturate), not measurement noise.
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

        t0 = time.perf_counter()
        pool.run(*[worker(i) for i in range(num_workers)])
        dt = time.perf_counter() - t0
        total = num_workers * ops_per_worker
        latencies.sort()
        p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
        points.append({
            "shards": shards,
            "total_ops": total,
            "virtual_time_ns": sim.now,
            "ops_per_sec_virtual": round(total / (sim.now / 1e9), 1),
            "p99_latency_ns": p99,
            "seconds": dt,
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
    attach and credit-based flow control bounds each client's outstanding
    requests, so the sweep completes at every point (a fixed 16-slot ring
    wedged at >=16 clients; ``tests/rdma/test_ring_elastic.py`` pins the
    fix).  All recorded figures are virtual (simulated ns) and therefore
    deterministic.

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
        t0 = time.perf_counter()
        result = runner.run()
        dt = time.perf_counter() - t0
        stats = system.pool.master.rpc.pool_stats()
        points.append({
            "clients": n,
            "total_ops": result.total_ops,
            "virtual_time_ns": sim.now,
            "ops_per_sec_virtual": result.throughput_ops_s,
            "seconds": dt,
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
def bench_txn(txns: int = 400, accounts: int = 16, seed: int = 42,
              repeats: int = 3) -> Dict[str, Any]:
    """Wall-clock cost of the distributed-commit fast path.

    One client, two servers, bank-transfer-shaped transactions (two locks
    in gaddr order, two traced reads, intent append, per-server applies,
    intent clear, unlock) — the whole crash-atomic pipeline with no
    contention, so the figure isolates protocol overhead rather than
    wait-die backoff.  Virtual-side numbers are invariants: the commit
    path must not gain or lose simulated events under wall-clock work.
    """
    from repro.core import GengarConfig, GengarPool
    from repro.workloads.bank import BankSpec, bank_setup, bank_transfer

    best: Optional[Dict[str, Any]] = None
    for _ in range(max(1, repeats)):
        sim = Simulator(seed=seed)
        pool = GengarPool.build(sim, num_servers=2, num_clients=1,
                                config=GengarConfig(enable_txn=True))
        client = pool.clients[0]
        spec = BankSpec(accounts=accounts, initial_balance=1000,
                        max_transfer=10)
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
        t0 = time.perf_counter()
        pool.run(driver(sim))
        dt = time.perf_counter() - t0
        commits = sim.metrics.counter("pool.txn_commits").count
        sample = {
            "txns": txns,
            "accounts": accounts,
            "committed": commits,
            "seconds": dt,
            "txns_per_sec_wallclock": txns / dt if dt > 0 else 0.0,
            "virtual_time_ns": sim.now,
            "virtual_ns_per_txn": round((sim.now - vt0) / txns, 1),
        }
        if best is not None:
            for key in ("committed", "virtual_time_ns", "virtual_ns_per_txn"):
                assert sample[key] == best[key], (
                    f"non-deterministic virtual metric {key}: "
                    f"{sample[key]} != {best[key]}")
        if best is None or (sample["txns_per_sec_wallclock"]
                            > best["txns_per_sec_wallclock"]):
            best = sample
    assert best is not None
    return best


# ----------------------------------------------------------------------
# Observability artifacts
# ----------------------------------------------------------------------
def export_trace(trace_out: Optional[Path], span_log: Optional[Path],
                 seed: int = 42) -> None:
    """Run one *separate* instrumented smoke-size YCSB-B pass and export it.

    Deliberately not the measured run: attaching the span recorder would
    taint the wall-clock numbers, so the artifacts come from their own
    small pass (identical virtual behaviour — spans add no simulated
    events — just extra Python work).
    """
    if trace_out is None and span_log is None:
        return
    from repro import obs

    sim = Simulator(seed=seed)
    system = build_system("gengar", sim, num_servers=2, num_clients=2)
    recorder = obs.install(sim)
    spec = WORKLOAD_B.scaled(record_count=64, value_size=128)
    runner = YcsbRunner(system, spec, num_workers=2, ops_per_worker=50)
    runner.load()
    runner.run()
    if trace_out is not None:
        trace_out.write_text(json.dumps(obs.chrome_trace(recorder)))
        print(f"wrote {trace_out}: {len(recorder)} spans")
    if span_log is not None:
        span_log.write_text(obs.spans_jsonl(recorder))
        print(f"wrote {span_log}")


# ----------------------------------------------------------------------
# Harness plumbing
# ----------------------------------------------------------------------
def measure(smoke: bool = False) -> Dict[str, Any]:
    """Run the full suite (or the tiny smoke variant) and return the shape
    stored under ``current``."""
    if smoke:
        kernel = bench_kernel(num_procs=8, timeouts_per_proc=200, repeats=1)
        rpc = bench_rpc(calls=100, repeats=1)
        doorbell = bench_doorbell(batches=15, batch_size=8, repeats=1)
        txn = bench_txn(txns=60, accounts=8, repeats=1)
        scaleout = bench_scaleout(shard_counts=(1, 2), num_servers=2,
                                  num_clients=2, num_workers=8,
                                  ops_per_worker=20)
        scaleout_clients = bench_scaleout_clients(
            client_counts=(4, 8), num_servers=2, shards=2,
            record_count=64, ops_per_worker=10)
        ycsb_small = bench_ycsb(record_count=64, num_workers=2, ops_per_worker=50)
        ycsb_medium = None
    else:
        kernel = bench_kernel()
        rpc = bench_rpc()
        doorbell = bench_doorbell()
        txn = bench_txn(repeats=2)
        scaleout = bench_scaleout()
        scaleout_clients = bench_scaleout_clients()
        ycsb_small = bench_ycsb(record_count=200, num_workers=4,
                                ops_per_worker=250, repeats=2)
        ycsb_medium = bench_ycsb(record_count=1000, num_workers=8,
                                 ops_per_worker=500, repeats=3)
    out: Dict[str, Any] = {
        "captured_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "smoke": smoke,
        "kernel": kernel,
        "rpc": rpc,
        "doorbell": doorbell,
        "txn": txn,
        "scaleout": scaleout,
        "scaleout_clients": scaleout_clients,
        "ycsb_small": ycsb_small,
    }
    if ycsb_medium is not None:
        out["ycsb_medium"] = ycsb_medium
    return out


def run_harness(out_path: Path, smoke: bool = False) -> Dict[str, Any]:
    """Measure and write ``out_path``."""
    doc = {"schema": SCHEMA_VERSION, "current": measure(smoke=smoke)}
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


#: ``--guard-against`` tolerance for ycsb_medium's virtual throughput
#: (fraction of the committed value).
GUARD_FLOOR = 0.9


def run_guard(guard_path: Path) -> int:
    """CI regression gate: re-measure and compare against a committed file.

    Runs the full-size kernel microbenchmark and the medium YCSB pass
    regardless of ``--smoke`` — virtual times, virtual throughput and event
    counts are machine-independent, so they only compare against the
    committed figures when measured at the committed run shape.  The
    control-plane scale-out section is re-run at full shape too and checked
    exactly (virtual times per shard count, plus monotonic ops/s through 4
    shards).  Exits 1 when an event budget rose, a virtual time drifted or
    virtual throughput fell more than 10%; host time is reported, not gated.
    Never writes the JSON file.
    """
    try:
        committed = json.loads(guard_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"perf-guard: cannot read {guard_path}: {exc}")
        return 1
    ref = committed.get("current") or {}

    kernel = bench_kernel()
    medium = bench_ycsb(record_count=1000, num_workers=8, ops_per_worker=500,
                        repeats=2)
    budgets = {"kernel": kernel, "rpc": bench_rpc(repeats=1),
               "doorbell": bench_doorbell(repeats=1)}

    checks = []
    want = (ref.get("kernel") or {}).get("events_per_sec")
    if want:
        print(f"perf-guard kernel events_per_sec: "
              f"{kernel['events_per_sec']:,.0f} vs committed {want:,.0f} "
              f"(x{kernel['events_per_sec'] / want:.3f}) INFO (host time, "
              f"not gated)")
    # Event budgets: dispatch counts repeat exactly and must not rise.
    for section, key in (("kernel", "dispatched_events"),
                         ("rpc", "events_per_call"),
                         ("doorbell", "events_per_wr")):
        got, want = budgets[section][key], (ref.get(section) or {}).get(key)
        if want is None:
            print(f"perf-guard: no committed reference for {section} {key}; "
                  f"skipped")
            continue
        ok = got <= want
        print(f"perf-guard {section} {key}: {got} vs committed {want} "
              f"{'OK' if ok else 'ROSE'}")
        checks.append(ok)
    want = (ref.get("ycsb_medium") or {}).get("sim_throughput_ops_s")
    if want:
        ratio = medium["sim_throughput_ops_s"] / want
        ok = ratio >= GUARD_FLOOR
        print(f"perf-guard ycsb_medium sim_throughput_ops_s: "
              f"{medium['sim_throughput_ops_s']:,.0f} vs committed "
              f"{want:,.0f} (x{ratio:.3f}) {'OK' if ok else 'REGRESSION'}")
        checks.append(ok)
    # Determinism guard (noise-free, machine-independent): the medium run's
    # final virtual time must match the committed figure exactly — any drift
    # means event ordering changed, not just wall-clock speed.
    want_vt = (ref.get("ycsb_medium") or {}).get("virtual_time_ns")
    if want_vt:
        ok = medium["virtual_time_ns"] == want_vt
        print(f"perf-guard ycsb_medium virtual_time_ns: "
              f"{medium['virtual_time_ns']} vs committed {want_vt} "
              f"{'OK' if ok else 'ORDERING DRIFT'}")
        checks.append(ok)
    # Scale-out guard: all-virtual, so both checks are exact.  The sharded
    # control plane must keep scaling monotonically through 4 shards, and
    # each point's final virtual time must match the committed capture —
    # any drift means the multi-shard event ordering changed.
    want_scale = (ref.get("scaleout") or {}).get("points")
    if want_scale:
        scale = bench_scaleout()
        by_shards = {p["shards"]: p for p in scale["points"]}
        for want in want_scale:
            got = by_shards.get(want["shards"])
            if got is None:
                continue
            ok = got["virtual_time_ns"] == want["virtual_time_ns"]
            print(f"perf-guard scaleout {want['shards']} shard(s) "
                  f"virtual_time_ns: {got['virtual_time_ns']} vs committed "
                  f"{want['virtual_time_ns']} {'OK' if ok else 'ORDERING DRIFT'}")
            checks.append(ok)
        curve = [p["ops_per_sec_virtual"] for p in scale["points"]
                 if p["shards"] <= 4]
        ok = all(b > a for a, b in zip(curve, curve[1:]))
        print(f"perf-guard scaleout ops/s 1->4 shards: "
              f"{[f'{v:,.0f}' for v in curve]} "
              f"{'MONOTONIC' if ok else 'NOT MONOTONIC'}")
        checks.append(ok)
    # Client-fanout guard: the E3c sweep along the attached-client axis.
    # All-virtual again, so two exact checks: per-point virtual times and
    # YCSB throughput monotonic 16->32->64 clients (the elastic receive
    # pool must keep scaling; 128 is recorded but past the NIC knee).
    want_fanout = (ref.get("scaleout_clients") or {}).get("points")
    if want_fanout:
        fanout = bench_scaleout_clients()
        by_clients = {p["clients"]: p for p in fanout["points"]}
        for want in want_fanout:
            got = by_clients.get(want["clients"])
            if got is None:
                continue
            ok = got["virtual_time_ns"] == want["virtual_time_ns"]
            print(f"perf-guard scaleout_clients {want['clients']} client(s) "
                  f"virtual_time_ns: {got['virtual_time_ns']} vs committed "
                  f"{want['virtual_time_ns']} {'OK' if ok else 'ORDERING DRIFT'}")
            checks.append(ok)
        curve = [p["ops_per_sec_virtual"] for p in fanout["points"]
                 if p["clients"] <= 64]
        ok = all(b > a for a, b in zip(curve, curve[1:]))
        print(f"perf-guard scaleout_clients ops/s 16->64 clients: "
              f"{[f'{v:,.0f}' for v in curve]} "
              f"{'MONOTONIC' if ok else 'NOT MONOTONIC'}")
        checks.append(ok)
    print(f"perf-guard ycsb_medium cache_hit_ratio: "
          f"{medium['cache_hit_ratio']:.4f}, "
          f"read_pipeline_depth: {medium['read_pipeline_depth']}")
    if checks and all(checks):
        print("perf-guard: PASS")
        return 0
    print(f"perf-guard: FAIL (an event budget rose, a virtual time drifted "
          f"or virtual throughput fell below x{GUARD_FLOOR} of the committed "
          f"current section)")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run for CI smoke testing")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output JSON path (default: {DEFAULT_OUT})")
    parser.add_argument("--trace-out", default=None,
                        help="also emit a Chrome trace from a separate "
                             "instrumented smoke run")
    parser.add_argument("--span-log", default=None,
                        help="also emit a JSONL span dump from that run")
    parser.add_argument("--guard-against", default=None, metavar="PATH",
                        help="regression-gate mode: compare a fresh "
                             "measurement against this committed JSON's "
                             "'current' section and exit 1 when an "
                             "event budget rose or a virtual number "
                             "drifted (writes nothing)")
    args = parser.parse_args(argv)

    if args.guard_against:
        return run_guard(Path(args.guard_against))

    cur = run_harness(Path(args.out), smoke=args.smoke)["current"]
    export_trace(Path(args.trace_out) if args.trace_out else None,
                 Path(args.span_log) if args.span_log else None)
    print(f"kernel: {cur['kernel']['events_per_sec']:,.0f} events/s")
    if cur.get("rpc"):
        print(f"rpc: {cur['rpc']['ns_per_call']:,.0f} ns/call "
              f"({cur['rpc']['events_per_call']} events/call, "
              f"{cur['rpc']['ns_per_event']:,.0f} ns/event)")
    if cur.get("doorbell"):
        print(f"doorbell: {cur['doorbell']['ns_per_wr']:,.0f} ns/WR "
              f"({cur['doorbell']['events_per_wr']} events/WR, "
              f"{cur['doorbell']['ns_per_event']:,.0f} ns/event)")
    if cur.get("txn"):
        print(f"txn: {cur['txn']['txns_per_sec_wallclock']:,.0f} commits/s "
              f"wall-clock ({cur['txn']['virtual_ns_per_txn']:,.0f} "
              f"virtual ns/txn)")
    if cur.get("scaleout"):
        for pt in cur["scaleout"]["points"]:
            print(f"scaleout {pt['shards']} shard(s): "
                  f"{pt['ops_per_sec_virtual']:,.0f} metadata ops/s virtual, "
                  f"p99 {pt['p99_latency_ns']:,} ns")
    if cur.get("scaleout_clients"):
        for pt in cur["scaleout_clients"]["points"]:
            mp = pt["master_pool"]
            print(f"scaleout {pt['clients']} client(s): "
                  f"{pt['ops_per_sec_virtual']:,.0f} YCSB ops/s virtual, "
                  f"pool {mp['capacity']} slots ({mp['grows']} grows, "
                  f"peak occupancy {mp['peak_occupancy']:.0f})")
    for scale in ("ycsb_small", "ycsb_medium"):
        if cur.get(scale):
            print(f"{scale}: {cur[scale]['ops_per_sec_wallclock']:,.1f} ops/s "
                  f"wall-clock, virtual {cur[scale]['sim_throughput_ops_s']:,.0f} ops/s, "
                  f"hit ratio {cur[scale]['cache_hit_ratio']:.4f}, "
                  f"pipeline depth {cur[scale]['read_pipeline_depth']}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
