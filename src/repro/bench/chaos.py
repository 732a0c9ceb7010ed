"""Chaos soak: YCSB traffic under a deterministic fault plan.

The harness boots a pool with an op deadline (every client retries and
re-attaches), bulk-loads a key space, arms a :class:`FaultPlan` with server
crashes, a lossy window, a latency spike, and a ring stall, and runs
closed-loop YCSB-B workers straight through the faults.  Afterwards it
audits the durability contract:

* every value read parses back to a version this harness actually wrote
  (no torn or fabricated data, ever);
* no key regresses below its last *safely synced* version — a gsync that
  completed with no re-attach in between is a durability promise;
* staged writes lost to a crash are reported in the client's fault log
  exactly once (a re-report without an intervening ack is a violation);
* no operation outruns its deadline without raising the typed error.

Every probabilistic choice draws from the simulator's seeded RNG registry,
so the same ``--seed`` reproduces a bit-identical soak — counters, fault
timings, and all (``--check-determinism`` proves it by running twice).

A run is one named row of :data:`SCENARIOS`: the base soak, then at most one
further phase with the features it needs armed.  A row is green when its
report's ``violations`` list is empty and two runs are equal;
``tests/bench/test_chaos_soak.py`` asserts exactly that for every row at
every seed the table names.

Run it::

    PYTHONPATH=src python -m repro.bench.chaos --scenario chaos-txn --seed 11 \
        --smoke --check-determinism
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.check import HistoryRecorder, check_history
from repro.core import GengarConfig, GengarPool
from repro.core.errors import (
    ClientError,
    DeadlineExceededError,
    FencedError,
    RetryableError,
)
from repro.core.protocol import lock_epoch, lock_is_write_locked, lock_owner
from repro.faults import (
    ClientCrash,
    ClientRecover,
    FaultPlan,
    LatencySpike,
    LossyLink,
    MasterCrash,
    MasterRecover,
    Partition,
    RingStall,
    ServerCrash,
    ServerRecover,
)
from repro import obs
from repro.hardware.specs import TEST_DRAM, TEST_NVM
from repro.sim import Simulator
from repro.workloads.bank import (
    BankSpec,
    bank_read_balances,
    bank_setup,
    bank_total,
    bank_transfer,
)
from repro.workloads.ycsb import WORKLOAD_B, Op, YcsbGenerator

#: Virtual-time slack allowed past a deadline before we call it a miss
#: (the watchdog wakes at the next event boundary, never mid-verb).
_DEADLINE_SLACK_NS = 5_000

#: How often the crash-tolerance phase peeks the dead holder's lock word:
#: the wait check's resolution, far below its one-lease bound.
_WORD_POLL_NS = 1_000

#: Event categories ``--dump-trace`` prints as the fault timeline.
TIMELINE_CATEGORIES = frozenset({
    "fault", "retry", "failover", "lease", "fence", "partition",
    "term", "check", "txn"})


class _MidCommitKill(Exception):
    """Raised out of a victim's commit hook to unwind its worker after
    the crash landed — the simulated analogue of the process dying with
    the commit half-done."""


def soak_config(scenario: str = "base") -> GengarConfig:
    """The small, fast-epoch pool the soak runs under, plus whatever the
    scenario's phase needs armed (see :data:`SCENARIOS`)."""
    return GengarConfig(
        cache_capacity=256 * 1024,
        epoch_ns=50_000,
        report_every_ops=16,
        proxy_ring_slots=8,
        proxy_slot_size=4 * 1024,
        lock_table_entries=1024,
        op_deadline_ns=400_000,
        **SCENARIOS[scenario].config,
    )


def soak_plan(t0: int, smoke: bool = False) -> FaultPlan:
    """Two crash/recover cycles, one lossy window, a spike, and a stall,
    anchored at ``t0`` (virtual ns; typically the end of the load phase)."""
    scale = 0.35 if smoke else 1.0

    def at(us: float) -> int:
        return t0 + int(us * 1_000 * scale)

    return FaultPlan.of(
        # Freeze server0's drains just before killing it, so staged writes
        # are still in the ring when the crash lands (the lost-write path).
        RingStall(at_ns=at(100), duration_ns=int(60_000 * scale), server_id=0),
        ServerCrash(at_ns=at(150), server_id=0),
        ServerRecover(at_ns=at(280), server_id=0),
        LossyLink(start_ns=at(350), end_ns=at(500), drop_prob=0.25),
        LatencySpike(start_ns=at(550), end_ns=at(650), extra_ns=3_000),
        RingStall(at_ns=at(700), duration_ns=int(120_000 * scale), server_id=1),
        ServerCrash(at_ns=at(900), server_id=1),
        ServerRecover(at_ns=at(1030), server_id=1),
    )


#: What :func:`soak_plan` must make happen: both crash/recover cycles land.
_BASE_FAULTS = {"faults.crashes": 2, "faults.recoveries": 2}


class ChaosSoak:
    """One soak run: load, fault, verify, then the scenario's phase."""

    def __init__(self, scenario: str = "base", seed: int = 7,
                 smoke: bool = False, dump_trace: bool = False,
                 record_spans: bool = False):
        self.name = scenario
        self.scenario = SCENARIOS[scenario]
        self.seed = seed
        self.smoke = smoke
        #: High-fanout phase outcome (None unless the scenario ran it).
        self.fanout_report: Optional[Dict[str, Any]] = None
        self.records = 24 if smoke else 48
        self.value_size = 512
        self.num_workers = 2 if smoke else 4
        self.ops_per_worker = 80 if smoke else 400
        self.config = soak_config(scenario)
        self.sim = Simulator(seed=seed)
        self.recorder = None
        if record_spans:
            self.recorder = obs.install(self.sim)
        elif dump_trace:
            # Events only: the fault timeline does not pay for a span log.
            self.recorder = self.sim.spans = obs.SpanRecorder(
                self.sim, keep_spans=False, histograms=False)
        self.pool = GengarPool.build(
            self.sim, num_servers=2,
            num_clients=self.scenario.clients,
            config=self.config,
            dram=TEST_DRAM, nvm=TEST_NVM,
            standby_master=self.scenario.standby_master,
        )
        spec = WORKLOAD_B.scaled(record_count=self.records,
                                 value_size=self.value_size)
        self.spec = spec
        self._gen0 = YcsbGenerator(spec, self.sim.rng.stream("chaos.values"))

        self.gaddrs: Dict[int, int] = {}
        self._key_of: Dict[int, int] = {}  # gaddr -> key
        self.attempted: Dict[int, set] = {}
        self.acked: Dict[int, int] = {}
        self.synced: Dict[int, int] = {}
        self.tainted: set = set()
        #: (client_name, gaddr) -> ack times, for the exactly-once audit.
        self.ack_times: Dict[Tuple[str, int], List[int]] = {}
        self.violations: List[str] = []
        self.ops_ok = 0
        self.ops_typed_failures = 0
        #: Partition/shard-phase state: the op-history recorder, the
        #: checker's verdict, and the version counters the nemesis workers
        #: hand out under their write locks.
        self.history_recorder = None
        self.check_result = None
        self._nemesis_versions: Dict[int, int] = {}
        #: Transaction-phase state: the txn-history recorder, the
        #: auditor's verdict, and the bank phase's conservation outcome.
        self.txn_history_recorder = None
        self.txn_check_result = None
        self.bank_total_ok: Optional[bool] = None
        #: Crash-tolerance phase: when the contender called ``glock``, when
        #: recovery freed the dead holder's word, when the victim's
        #: post-restart ``gsync`` returned, and when the contender acquired
        #: (virtual ns; None for an instant that never came).
        self.tolerance_times: Optional[Dict[str, Optional[int]]] = None

    # ------------------------------------------------------------------
    def encode(self, key: int, version: int) -> bytes:
        return self._gen0.value(key, version)

    def parse(self, key: int, data: bytes) -> Optional[int]:
        """The version encoded in ``data``, or None if it is not a value
        this harness could have written for ``key``."""
        head, _, _rest = data.partition(b"|")
        if not head.startswith(b"k") or b"v" not in head:
            return None
        k_part, _, v_part = head[1:].partition(b"v")
        try:
            k, v = int(k_part), int(v_part)
        except ValueError:
            return None
        if k != key or self.encode(key, v) != data:
            return None
        return v

    # ------------------------------------------------------------------
    def load(self) -> None:
        def loader(client):
            for key in range(self.records):
                gaddr = yield from client.gmalloc(self.value_size)
                self.gaddrs[key] = gaddr
                self._key_of[gaddr] = key
                yield from client.gwrite(gaddr, self.encode(key, 0))
                self.attempted[key] = {0}
                self.acked[key] = 0
            yield from client.gsync()
            for key in range(self.records):
                self.synced[key] = 0

        self.pool.run(loader(self.pool.clients[0]))

    # ------------------------------------------------------------------
    def _check_read(self, key: int, data: bytes) -> None:
        version = self.parse(key, data)
        if version is None or version not in self.attempted[key]:
            self.violations.append(
                f"key {key}: read returned bytes of no attempted version "
                f"(head={data[:24]!r})")
        elif key not in self.tainted and version < self.synced.get(key, 0):
            self.violations.append(
                f"key {key}: read v{version} regressed below synced "
                f"v{self.synced[key]}")

    def _absorb_losses(self, client, seen: int, shard: set) -> int:
        """Fold new fault-log records into the worker's bookkeeping.

        A staged write reported lost voids the ack for its key: the durable
        version is unknown (some earlier drained one) until the worker
        writes the key again.  Returns the new fault-log cursor.
        """
        for rec in client.fault_log[seen:]:
            for gaddr in rec["lost"]:
                key = self._key_of.get(gaddr)
                if key in shard:
                    self.acked[key] = None
        return len(client.fault_log)

    def _mark_synced(self, client, keys, acked_at_sync: Dict[int, Optional[int]],
                     fault_log_len: int) -> None:
        # A sync only counts as a durability promise if no failover happened
        # while it ran (a re-attach turns staged writes into reported losses
        # and lets the sync complete trivially).
        if len(client.fault_log) != fault_log_len or client._driver.server_gates:
            return
        for key in keys:
            acked = acked_at_sync[key]
            if acked is not None:
                self.synced[key] = max(self.synced.get(key, 0), acked)

    def worker(self, index: int, client, mode: str) -> Generator[Any, Any, None]:
        """One closed-loop worker over its own key shard.

        Modes: ``burst`` hammers zipfian updates and never syncs mid-run
        (staged writes are always in flight when a crash lands); ``rr``
        sweeps its shard round-robin with updates (distinct keys, so a full
        stalled ring is hit on keys with no overlay entry, and the writer
        waits the stall out); ``ycsb`` runs plain YCSB-B.
        """
        sim = self.sim
        shard = [k for k in range(self.records)
                 if k % self.num_workers == index]
        shard_set = set(shard)
        gen = YcsbGenerator(self.spec, sim.rng.stream(f"chaos.w{index}"))
        next_version = {k: 1 for k in shard}
        sync_every = 10**9 if mode == "burst" else 24
        seen_log = 0
        deadline = self.config.op_deadline_ns
        for i in range(self.ops_per_worker):
            op, key_id, _scan = gen.next_op()
            if mode == "rr":
                key = shard[i % len(shard)]
            else:
                key = shard[key_id % len(shard)]
            gaddr = self.gaddrs[key]
            do_write = mode in ("burst", "rr") or op is Op.UPDATE
            t0 = sim.now
            typed = False
            try:
                if do_write:
                    version = next_version[key]
                    next_version[key] = version + 1
                    self.attempted[key].add(version)
                    yield from client.gwrite(gaddr, self.encode(key, version))
                    self.acked[key] = version
                    self.ack_times.setdefault((client.name, gaddr), []).append(sim.now)
                else:
                    data = yield from client.gread(gaddr)
                    self._check_read(key, data)
                self.ops_ok += 1
            except DeadlineExceededError:
                typed = True
                self.ops_typed_failures += 1
                if do_write:
                    # An abandoned write attempt may still land later, out
                    # of order; stop holding this key to the sync bar.
                    self.tainted.add(key)
            except RetryableError:
                typed = True
                self.ops_typed_failures += 1
                if do_write:
                    self.tainted.add(key)
            except ClientError as exc:
                self.violations.append(
                    f"worker {index} op {i}: unexpected fatal "
                    f"{type(exc).__name__}: {exc}")
                return
            elapsed = sim.now - t0
            if deadline and not typed and elapsed > deadline + _DEADLINE_SLACK_NS:
                self.violations.append(
                    f"worker {index} op {i}: ran {elapsed} ns past the "
                    f"{deadline} ns deadline without a typed error")
            if (i + 1) % sync_every == 0:
                seen_log = self._absorb_losses(client, seen_log, shard_set)
                log_len = len(client.fault_log)
                acked_now = {k: self.acked[k] for k in shard}
                try:
                    yield from client.gsync()
                except ClientError:
                    self.ops_typed_failures += 1
                else:
                    self._mark_synced(client, shard, acked_now, log_len)

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Post-horizon audit: final sync, read-back, loss accounting."""
        def final_pass(client, keys):
            yield from client.gsync()
            for key in keys:
                data = yield from client.gread(self.gaddrs[key])
                self._check_read(key, data)

        clients = self.pool.clients
        shards = [
            [k for k in range(self.records) if k % len(clients) == i]
            for i in range(len(clients))
        ]
        self.pool.run(*[final_pass(c, s) for c, s in zip(clients, shards)])

        for sid, server in self.pool.servers.items():
            if not server.is_alive:
                self.violations.append(f"server {sid} never recovered")

        # Lost staged writes: reported exactly once.  The same gaddr may
        # legitimately show up in a later record only if the client staged
        # (acked) a new write to it between the two reports.
        reported = 0
        for client in clients:
            last_report: Dict[int, int] = {}
            for rec in client.fault_log:
                if len(set(rec["lost"])) != len(rec["lost"]):
                    self.violations.append(
                        f"{client.name}: duplicate gaddr within one "
                        f"lost-write report at t={rec['time_ns']}")
                reported += len(rec["lost"])
                for gaddr in rec["lost"]:
                    prev = last_report.get(gaddr)
                    if prev is not None:
                        acks = self.ack_times.get((client.name, gaddr), [])
                        if not any(prev < t <= rec["time_ns"] for t in acks):
                            self.violations.append(
                                f"{client.name}: gaddr {gaddr:#x} reported "
                                f"lost twice with no write in between")
                    last_report[gaddr] = rec["time_ns"]
        # .total carries the lost-write sum (.count is reports made).
        counted = int(self.sim.metrics.counter("pool.lost_staged_writes").total)
        if counted != reported:
            self.violations.append(
                f"lost-write counter ({counted}) != fault-log total ({reported})")
        # With the proxy on every write rides the ring (PROTOCOLS §3.2).
        direct = self.sim.metrics.counter("pool.direct_writes").count
        if self.config.enable_proxy and direct:
            self.violations.append(f"proxy: {direct} writes bypassed the ring")

    # ------------------------------------------------------------------
    def crash_tolerance_phase(self) -> None:
        """Full-pool crash tolerance: kill a lock-holding client mid-write
        (torn slot), crash and rebuild the master mid-workload, and audit
        that every recovery path engages — recovery frees the dead client's
        lock word within a bounded wait of a contender's ``glock``, the
        torn frame never reaches NVM, the restarted client cannot release
        its old incarnation's lock, and allocations ride out the master
        outage on retries.

        The two timing-dependent checks measure what recovery controls.
        The wait check runs from the contender's ``glock`` call to the
        moment the dead holder's word is freed, which a watcher peeks at
        the home's lock MR (the contender's own backoff is not recovery's).
        The value check orders the contender's read, taken under its lock,
        against the victim's post-restart section: ``payload_new`` if the
        victim's ``gsync`` returned before the contender acquired, else the
        last write before the kill.  The four instants go into the report
        (:attr:`tolerance_times`)."""
        sim = self.sim
        lease = self.config.client_lease_ns
        t0 = sim.now
        kill_at = t0 + 40_000
        restart_at = kill_at + (5 * lease) // 2
        victim = self.pool.clients[2]
        contender = self.pool.clients[0]
        allocator = self.pool.clients[1]
        torn_before = sum(
            s.drain.torn_skipped.count for s in self.pool.servers.values())
        injector = self.pool.inject_faults(
            FaultPlan.of(
                ClientCrash(at_ns=kill_at, client=victim.name,
                            tear_inflight=True),
                ClientRecover(at_ns=restart_at, client=victim.name),
                MasterCrash(at_ns=t0 + 20_000),
                MasterRecover(at_ns=t0 + 80_000)),
            rng_name="faults.tolerance")

        outcome: Dict[str, Any] = {}
        times: Dict[str, Optional[int]] = dict.fromkeys(
            ("contender_call_ns", "word_freed_ns", "victim_synced_ns",
             "contender_acquired_ns"))
        self.tolerance_times = times
        payload_old = b"\xa1" * 256
        payload_torn = b"\xb2" * 256
        payload_new = b"\xc3" * 256

        def word_watch(sim, locks, at: int, holder: tuple):
            """Peek the lock word at ``at`` of the home's lock MR until
            ``holder``'s ``(uid, epoch)`` no longer holds it, or the
            contender's ``glock`` has ended without that."""
            while "contender_done" not in outcome:
                word = locks.read_u64(at)
                if not (lock_is_write_locked(word)
                        and (lock_owner(word), lock_epoch(word)) == holder):
                    times["word_freed_ns"] = sim.now
                    return
                yield _WORD_POLL_NS

        def victim_run(sim):
            g_lock = yield from victim.gmalloc(self.value_size)
            g_data = yield from victim.gmalloc(self.value_size)
            outcome["g_lock"], outcome["g_data"] = g_lock, g_data
            yield from victim.glock(g_lock)
            meta = victim._metas.get(g_lock)
            locks = self.pool.servers[meta.server_id].lock_mr
            word = locks.read_u64(meta.lock_idx * 8)
            sim.spawn(word_watch(sim, locks, meta.lock_idx * 8,
                                 (lock_owner(word), lock_epoch(word))),
                      name="crash_tolerance.word_watch")
            yield from victim.gwrite(g_data, payload_old)
            yield from victim.gsync()
            # Staged but never synced: the crash re-stages half of this
            # frame, which the commit word must keep out of NVM.
            yield from victim.gwrite(g_data, payload_torn)
            yield (restart_at - sim.now) + 10_000
            while not victim._attached:  # the restart's attach is in flight
                yield 1_000
            # The new incarnation holds nothing: releasing the old one's
            # lock must fail typed, not corrupt.
            try:
                yield from victim.gunlock(g_lock)
                outcome["old_lock_fenced"] = False
            except FencedError:
                outcome["old_lock_fenced"] = True
            try:
                yield from victim.glock(g_lock)
                yield from victim.gwrite(g_data, payload_new)
                yield from victim.gsync()
                times["victim_synced_ns"] = sim.now
                yield from victim.gunlock(g_lock)
                data = yield from victim.gread(g_data,
                                               length=len(payload_new))
            except ClientError:
                return  # the read-back check below fires
            outcome["rejoin_data_ok"] = data == payload_new

        def contender_run(sim):
            # Outlive the lease and the master outage, then the dead
            # holder's lock must clear within one further lease.
            yield (kill_at - sim.now) + 2 * lease
            while "g_lock" not in outcome:  # pragma: no cover - ordering
                yield 1_000
            times["contender_call_ns"] = sim.now
            try:
                yield from contender.glock(outcome["g_lock"])
            except ClientError:
                return  # the wait and value checks below fire
            finally:
                outcome["contender_done"] = True
            times["contender_acquired_ns"] = sim.now
            data = yield from contender.gread(outcome["g_data"], length=256)
            outcome["contender_saw"] = bytes(data)
            yield from contender.gunlock(outcome["g_lock"])

        def allocator_run(sim):
            yield 30_000  # the master is down now
            gaddr = yield from allocator.gmalloc(self.value_size)
            yield from allocator.gwrite(gaddr, b"\xd4" * 64)
            yield from allocator.gsync()
            data = yield from allocator.gread(gaddr, length=64)
            outcome["alloc_through_outage_ok"] = (
                data == b"\xd4" * 64
                and gaddr in self.pool.master.directory)

        self.pool.run(victim_run(sim), contender_run(sim), allocator_run(sim))
        injector.uninstall()

        if not outcome.get("old_lock_fenced"):
            self.violations.append(
                "crash-tolerance: restarted client released its old "
                "incarnation's lock without being fenced")
        if not outcome.get("rejoin_data_ok"):
            self.violations.append(
                "crash-tolerance: victim's post-restart write did not "
                "read back")
        called, freed = times["contender_call_ns"], times["word_freed_ns"]
        if freed is None or freed - called >= lease:
            waited = ("never freed" if freed is None
                      else f"freed {max(0, freed - called)} ns")
            self.violations.append(
                f"crash-tolerance: wait check: the dead client's lock word "
                f"was {waited} after the contender's glock call (bound "
                f"{lease} ns)")
        synced = times["victim_synced_ns"]
        acquired = times["contender_acquired_ns"]
        names = {payload_old: "the last synced write",
                 payload_torn: "the whole staged write",
                 payload_new: "the victim's post-restart write", None: "nothing"}
        if synced is not None and acquired is not None and synced < acquired:
            expected = (payload_new,)
        else:
            expected = (payload_old, payload_torn)
        saw = outcome.get("contender_saw")
        if saw not in expected:
            read = names.get(saw) or f"bytes of no whole write ({saw[:4].hex()}...)"
            self.violations.append(
                f"crash-tolerance: value check: contender read {read}, "
                f"expected {' or '.join(names[p] for p in expected)}")
        torn_after = sum(
            s.drain.torn_skipped.count for s in self.pool.servers.values())
        if torn_after - torn_before < 1:
            self.violations.append(
                "crash-tolerance: the injected mid-write kill produced "
                "no skipped torn slot")
        if not outcome.get("alloc_through_outage_ok"):
            self.violations.append(
                "crash-tolerance: allocation did not survive the "
                "master outage")

    # ------------------------------------------------------------------
    # Partition nemesis (the Jepsen loop)
    # ------------------------------------------------------------------
    def _demote_section_writes(self, client_name: str, key: int,
                               since_ns: int) -> None:
        """Reclassify a failed locked section's acked writes as ``info``.

        A proxy write acks at stage time; it is only *promised* once the
        section's release (which syncs first) completes.  When the section
        instead ends in a fence, the master may retire the client's ring
        and drop the staged frame — so the ack is indeterminate, exactly
        Jepsen's ``:info``: the write may or may not have taken effect.
        """
        hist = self.sim.history
        if hist is None:
            return
        for rec in reversed(hist.ops):
            if rec["t0"] < since_ns:
                break
            if (rec["client"] == client_name and rec.get("key") == key
                    and rec["op"] == "write" and rec["status"] == "ok"):
                rec["status"] = "info"
                rec["t1"] = None
                rec["error"] = "section-aborted"

    def audit_worker(self, index: int, client, keys: List[int],
                     rounds: int) -> Generator[Any, Any, None]:
        """Closed-loop lock-protected traffic for the partition phase.

        Every shared-key access rides a lock section — the consistency
        contract only promises linearizability for lock-protected ops
        (raw proxy writes are release-consistent: acked at stage time,
        drained later).  Write sections are lock / write / unlock (the
        write-unlock syncs first); read sections take the shared lock.
        A fence mid-section makes its writes indeterminate (see
        :meth:`_demote_section_writes`) and the worker re-attaches.
        """
        sim = self.sim
        lease = self.config.client_lease_ns
        rng = sim.rng.stream(f"chaos.nemesis.w{index}")
        versions = self._nemesis_versions
        for i in range(rounds):
            key = keys[int(rng.randrange(len(keys)))]
            gaddr = self.gaddrs[key]
            write = rng.random() < 0.5
            t_section = sim.now
            try:
                if write:
                    yield from client.glock(gaddr)
                    try:
                        # Version handout is inside the exclusive section,
                        # so versions are per-key monotone across clients.
                        version = versions[key] + 1
                        versions[key] = version
                        self.attempted[key].add(version)
                        yield from client.gwrite(
                            gaddr, self.encode(key, version))
                    finally:
                        yield from client.gunlock(gaddr)
                else:
                    yield from client.glock(gaddr, write=False)
                    try:
                        data = yield from client.gread(gaddr)
                        v = self.parse(key, bytes(data))
                        if v is None or v not in self.attempted[key]:
                            self.violations.append(
                                f"nemesis: key {key} read bytes of no "
                                f"attempted version (head={bytes(data[:24])!r})")
                    finally:
                        yield from client.gunlock(gaddr, write=False)
                self.ops_ok += 1
            except FencedError:
                self.ops_typed_failures += 1
                if write:
                    self._demote_section_writes(client.name, key, t_section)
                try:
                    # A fence is terminal across the whole control plane:
                    # re-attach every shard so the epochs converge again.
                    for s in range(max(1, client._num_shards)):
                        yield from client.reattach_master(s)
                except ClientError:
                    yield lease // 2
            except ClientError:
                self.ops_typed_failures += 1
                if write:
                    self._demote_section_writes(client.name, key, t_section)
            yield 2_000 + int(rng.randrange(4_000))

    def _nemesis_round(self, plan: FaultPlan, extra_procs: List,
                       keys: List[int], rounds: int, tail_ns: int,
                       tag: str) -> None:
        """One Jepsen iteration: arm the nemesis, run workers through it,
        let the schedule (and any straggling recovery) play out, disarm."""
        injector = self.pool.inject_faults(
            plan, rng_name=f"faults.nemesis.{tag}")
        workers = [self.audit_worker(i, c, keys, rounds)
                   for i, c in enumerate(self.pool.clients)]
        self.pool.run(*(list(extra_procs) + workers))
        self.sim.run(until=max(self.sim.now, plan.horizon_ns + tail_ns))
        injector.uninstall()

    def _audit_history(self, message: str, txn: bool = False):
        """Stop recording and audit the history; ``txn`` picks the recorder
        and the report labels.  Counterexamples become violations; the
        checker's result is kept for ``--counterexample-out``."""
        recorder = self.txn_history_recorder if txn else self.history_recorder
        prefix, label = ("txn_", "serializability") if txn else (
            "", "linearizability")
        recorder.uninstall()
        result = check_history(recorder.ops)
        m = self.sim.metrics
        m.counter(f"check.{prefix}histories").add()
        m.counter(f"check.{prefix}history_ops").add(len(recorder.ops))
        rec = self.sim.spans
        if rec is not None:
            rec.event("chaos", "check", message,
                      ops=len(recorder.ops), ok=result.ok,
                      violations=len(result.violations))
        if not result.ok:
            m.counter("check.violations").add(len(result.violations))
            for v in result.violations[:5]:
                self.violations.append(f"{label}-check: {v}")
        if txn:
            self.txn_check_result = result
        else:
            self.check_result = result

    def partition_phase(self) -> None:
        """Three nemesis rounds against the term-fenced control plane:

        1. **Split-brain attempt**: partition the master away from
           everything, promote the standby mid-partition, heal — the old
           master must end up deposed (its first post-heal fence attempt
           hits the journal's term fence), never having fenced a client
           or acked an allocation after the standby's term claim.
        2. **Heal mid-failover**: crash the *current* master inside a
           partition and start its recovery before the heal; recovery must
           ride out the unreachable journal and complete with a higher term.
        3. **Asymmetric control-plane split**: clients lose the master but
           keep the server data plane; ops complete or fail typed.

        The whole phase is recorded and the history is audited per key
        (register linearizability + lock-model mutual exclusion and epoch
        monotonicity).
        """
        sim = self.sim
        pool = self.pool
        lease = self.config.client_lease_ns
        self.history_recorder = HistoryRecorder(sim).install()

        keys = list(range(min(8, self.records)))
        # Versions start far above anything the main soak wrote, so the
        # durability parse audit stays discriminating across phases.
        self._nemesis_versions = {k: 1_000_000 for k in keys}
        rounds = 10 if self.smoke else 24
        names = (["master", "master1"]
                 + [f"server{sid}" for sid in sorted(pool.servers)]
                 + [c.name for c in pool.clients])

        def others(master_name: str):
            return tuple(n for n in names if n != master_name)

        # --- Round 1: split-brain attempt -----------------------------
        old_master = pool.master
        first_term = old_master.journal.term
        start = sim.now + 10_000
        plan = FaultPlan.of(Partition(
            start_ns=start, end_ns=start + 4 * lease,
            group_a=(old_master.node.name,),
            group_b=others(old_master.node.name)))

        def promoter():
            yield start + lease - sim.now
            pool.promote_standby()
            # Bounded deterministic wait for the term claim to land.
            for _ in range(64):
                if not pool.master._recovering:
                    return
                yield lease // 8

        # Tail: the old master's phi crosses threshold ~6 leases after
        # heartbeats stop; its next sweep then attempts a fence, hits the
        # journal's term fence, and deposes itself.
        self._nemesis_round(plan, [promoter()], keys, rounds,
                            tail_ns=5 * lease, tag="splitbrain")
        if pool.master is old_master or pool.master.journal.term <= old_master.journal.term:
            self.violations.append(
                "nemesis: standby promotion did not supersede the old "
                "master's term")
        if not old_master.journal.deposed:
            self.violations.append(
                "nemesis: the partitioned old master was never deposed "
                "after the heal (split-brain window left open)")

        # --- Round 2: heal mid-failover -------------------------------
        cur = pool.master
        failovers_before = cur.failovers.count
        plan = FaultPlan.heal_mid_failover(
            at_ns=sim.now + 10_000, others=others(cur.node.name),
            master=cur.node.name, partition_ns=3 * lease,
            crash_after_ns=lease // 2, recover_after_ns=lease)
        self._nemesis_round(plan, [], keys, rounds,
                            tail_ns=2 * lease, tag="healmid")
        if cur.failovers.count <= failovers_before:
            self.violations.append(
                "nemesis: recovery started mid-partition never completed "
                "a failover after the heal")

        # --- Round 3: asymmetric control-plane split ------------------
        cur = pool.master
        plan = FaultPlan.control_plane_split(
            at_ns=sim.now + 10_000,
            clients=tuple(c.name for c in pool.clients),
            master=cur.node.name, duration_ns=3 * lease)
        self._nemesis_round(plan, [], keys, rounds,
                            tail_ns=lease, tag="ctrlsplit")

        if pool.master.journal.term < first_term + 2:
            self.violations.append(
                f"nemesis: two failovers left the master at term "
                f"{pool.master.journal.term}, below {first_term + 2}")
        self._audit_history("history audited")

    def shard_phase(self) -> None:
        """Kill one master shard mid-YCSB, one round per shard.

        The audit workers keep hammering lock-protected keys while the
        victim shard is down and through its journal rebuild; every other
        shard must keep serving unperturbed (per-shard terms and leases),
        and the per-shard failover must not lose a committed version or
        admit a stale one.  The whole phase is recorded and audited exactly
        like the partition nemesis.
        """
        sim = self.sim
        lease = self.config.client_lease_ns
        self.history_recorder = HistoryRecorder(sim).install()

        keys = list(range(min(8, self.records)))
        # Versions start far above anything the main soak wrote, so the
        # durability parse audit stays discriminating across phases.
        self._nemesis_versions = {k: 2_000_000 for k in keys}
        rounds = 10 if self.smoke else 24
        # Secondaries first, then shard 0 (the hotness aggregator): the
        # audit must hold whichever shard is the one that dies.
        for victim in [*range(1, self.config.num_master_shards), 0]:
            t0 = sim.now + 10_000
            plan = FaultPlan.of(
                MasterCrash(at_ns=t0, shard=victim),
                MasterRecover(at_ns=t0 + 3 * lease, shard=victim))
            self._nemesis_round(plan, [], keys, rounds,
                                tail_ns=3 * lease, tag=f"shardkill{victim}")
        self._audit_history("shard-kill history audited")

    # ------------------------------------------------------------------
    # Mid-commit kill nemesis (the transaction phase)
    # ------------------------------------------------------------------
    _KILL_POINTS = ("pre-intent", "post-intent", "mid-apply",
                    "pre-clear", "post-clear")

    def _arm_mid_commit_kill(self, victim, point: str, nth: int,
                             also_master: bool = False) -> Dict[str, Any]:
        """Arm the victim's commit hook to crash the ``nth`` time one of
        its commits passes ``point`` — and optionally take the master
        down in the same instant, so the intent must survive into the
        rebuilt master's orphan sweep instead of the lease sweep."""
        state = {"n": 0, "fired": False}

        def hook(p: str, txn) -> None:
            if p != point:
                return
            state["n"] += 1
            if state["n"] < nth:
                return
            state["fired"] = True
            victim.txn.commit_hook = None
            victim.crash()
            self.sim.metrics.counter("faults.client_crashes").add()
            if also_master:
                self.pool.master.crash()
                self.sim.metrics.counter("faults.master_crashes").add()
            rec = self.sim.spans
            if rec is not None:
                rec.event("chaos", "fault", "mid-commit kill", point=p,
                          txn=txn.id, master=also_master)
            raise _MidCommitKill(point)

        victim.txn.commit_hook = hook
        return state

    def _bank_worker(self, client, gaddrs: List[int], spec: BankSpec,
                     count: int, rng_tag: str) -> Generator[Any, Any, None]:
        """Closed-loop random transfers; rides out fences and aborts."""
        sim = self.sim
        lease = self.config.client_lease_ns
        rng = sim.rng.stream(f"chaos.txn.{rng_tag}")

        def proc(sim):
            for _ in range(count):
                i = rng.randrange(spec.accounts)
                j = rng.randrange(spec.accounts)
                if i == j:
                    j = (j + 1) % spec.accounts
                amount = 1 + rng.randrange(spec.max_transfer)
                try:
                    yield from bank_transfer(
                        client, gaddrs[i], gaddrs[j], amount)
                    self.ops_ok += 1
                except _MidCommitKill:
                    return  # this worker just died mid-commit
                except FencedError:
                    self.ops_typed_failures += 1
                    try:
                        yield from client.reattach_master()
                    except ClientError:
                        yield lease // 2
                except ClientError:
                    # Wait-die deaths past the retry budget, lock
                    # timeouts, aborts on an unreachable server — all
                    # typed, none fatal to the worker.
                    self.ops_typed_failures += 1
                yield 1_000 + int(rng.randrange(3_000))

        return proc(sim)

    def _bank_audit(self, gaddrs: List[int], spec: BankSpec,
                    tag: str) -> None:
        """Byte-level conservation read-back: a torn transfer (one leg
        applied, the other lost with the client) breaks the total."""
        sim = self.sim
        lease = self.config.client_lease_ns
        client = self.pool.clients[0]
        out: Dict[str, int] = {}

        def audit(sim):
            for _ in range(6):
                try:
                    balances = yield from bank_read_balances(client, gaddrs)
                    out["total"] = bank_total(balances)
                    return
                except FencedError:
                    try:
                        yield from client.reattach_master()
                    except ClientError:
                        yield lease
                except ClientError:
                    yield lease

        self.pool.run(audit(sim))
        if out.get("total") != spec.expected_total:
            self.bank_total_ok = False
            self.violations.append(
                f"txn-phase {tag}: conserved total {out.get('total')} != "
                f"{spec.expected_total} (a transfer became visible torn)")
        elif self.bank_total_ok is None:
            self.bank_total_ok = True

    def txn_phase(self) -> None:
        """Crash-atomic transactions under a mid-commit kill nemesis.

        Bank-transfer rounds (conserved-total invariant) with a victim
        client killed at seeded points across the whole commit window:
        before the intent lands (clean rollback — buffered writes die
        with the client), right after the commit point, between the
        per-server applies (the torn case the intent record exists for),
        and around the intent clear.  The lease sweep must roll every
        post-commit-point intent forward before force-unlocking.
        Master-crash rounds kill the client AND the master in the same
        instant: the on-NVM intent must then survive into the rebuilt
        master's orphan sweep.  The whole phase is recorded and audited
        for atomicity + strict serializability.
        """
        sim = self.sim
        pool = self.pool
        lease = self.config.client_lease_ns
        self.txn_history_recorder = HistoryRecorder(sim).install()

        spec = BankSpec(accounts=8, initial_balance=1000, max_transfer=50)
        holder: Dict[str, List[int]] = {}

        def setup(sim):
            holder["gaddrs"] = yield from bank_setup(pool.clients[0], spec)

        pool.run(setup(sim))
        gaddrs = holder["gaddrs"]

        rng = sim.rng.stream("chaos.txn.nemesis")
        victim = pool.clients[2]
        others = [pool.clients[0], pool.clients[1]]
        per_round = 4 if self.smoke else 8

        # Round 0: pure contention, no faults — wait-die and the
        # serializability of healthy concurrent transfers.
        pool.run(*[self._bank_worker(c, gaddrs, spec, per_round + 4,
                                     f"warm.{c.name}")
                   for c in pool.clients])
        self._bank_audit(gaddrs, spec, "warmup")

        # Client-kill rounds: cycle through every commit-window point.
        points = self._KILL_POINTS[:3] if self.smoke else self._KILL_POINTS
        for r, point in enumerate(points):
            nth = 1 + rng.randrange(2)
            state = self._arm_mid_commit_kill(victim, point, nth)
            procs = [self._bank_worker(victim, gaddrs, spec, per_round,
                                       f"kill{r}.victim")]
            procs += [self._bank_worker(c, gaddrs, spec, per_round // 2,
                                        f"kill{r}.{c.name}")
                      for c in others]
            pool.run(*procs)
            victim.txn.commit_hook = None
            if state["fired"]:
                # Let the lease lapse; the sweep consults the intent and
                # rolls forward past the commit point, back otherwise.
                sim.run(until=sim.now + 5 * lease)
                pool.run(victim.restart())
            self._bank_audit(gaddrs, spec, f"client-kill@{point}")

        # Master-crash rounds: the lease table dies with the master, so
        # the rebuilt master's orphan sweep is the only recovery path.
        master_points = (("post-intent",) if self.smoke
                         else ("post-intent", "mid-apply"))
        for r, point in enumerate(master_points):
            nth = 1 + rng.randrange(2)
            state = self._arm_mid_commit_kill(victim, point, nth,
                                              also_master=True)
            procs = [self._bank_worker(victim, gaddrs, spec, per_round,
                                       f"mkill{r}.victim")]
            procs += [self._bank_worker(c, gaddrs, spec, per_round // 2,
                                        f"mkill{r}.{c.name}")
                      for c in others]
            pool.run(*procs)
            victim.txn.commit_hook = None
            if state["fired"]:
                sim.run(until=sim.now + 2 * lease)
                master = pool.master
                master.recover()
                sim.spawn(master.recovery_process(),
                          name="master.recovery")
                # Term claim + journal replay + orphan sweep (which rolls
                # the surviving intent forward before force-unlocking).
                sim.run(until=sim.now + 6 * lease)
                pool.run(victim.restart())
            self._bank_audit(gaddrs, spec, f"master-crash@{point}")

        self._audit_history("txn history audited", txn=True)

    # ------------------------------------------------------------------
    def fanout_phase(self) -> None:
        """High-fanout crash reclamation: N clients hammer the control
        plane (alloc/write/read/free, one control RPC per alloc and free)
        while a quarter of them are killed mid-run.

        Runs in its own simulator/pool — the soak's 2-3-client world can't
        express a 32-client fanout, and fresh node names avoid clashing
        with the shared sim.  The audit is the shared-receive-pool
        accounting: after the lease sweep fences every victim, each pool's
        outstanding slots must equal its attached QPs exactly (one posted
        receive per QP, a dead client's included) — a victim whose
        in-flight slot never returned would show up as a leak here, and
        enough leaks wedge the pool for every surviving client.
        """
        n = 32
        config = replace(self.config, client_lease_ns=120_000)
        sim = Simulator(seed=self.seed + 104729)
        pool = GengarPool.build(sim, num_servers=4, num_clients=n,
                                config=config, dram=TEST_DRAM, nvm=TEST_NVM)
        lease = config.client_lease_ns
        t0 = sim.now
        victims = pool.clients[::4]
        injector = pool.inject_faults(
            FaultPlan.of(*[
                ClientCrash(at_ns=t0 + 20_000 + 3_000 * i, client=v.name)
                for i, v in enumerate(victims)
            ]),
            rng_name="faults.fanout")
        ops = 12 if self.smoke else 30
        value = b"\xe5" * 128
        typed = {"count": 0}

        def worker(client):
            for _ in range(ops):
                try:
                    gaddr = yield from client.gmalloc(256)
                    yield from client.gwrite(gaddr, value)
                    data = yield from client.gread(gaddr, length=len(value))
                    if bytes(data) != value:
                        self.violations.append(
                            f"fanout: {client.name} read back wrong bytes")
                    yield from client.gfree(gaddr)
                except (DeadlineExceededError, RetryableError):
                    typed["count"] += 1  # congestion on a survivor: fine
                except ClientError:
                    if client.crashed or client.fenced:
                        return
                    raise

        pool.run(*[worker(c) for c in pool.clients])
        # Let every victim's lease lapse and the fence sweep run the
        # reclamation path (master + per-server ring retirement).
        sim.run(until=sim.now + 6 * lease)
        injector.uninstall()

        rpcs = [("master", pool.master.rpc)]
        rpcs += [(f"server{sid}", s.rpc)
                 for sid, s in sorted(pool.servers.items())]
        pools: Dict[str, Any] = {}
        for label, rpc in rpcs:
            stats = rpc.pool_stats()
            pools[label] = stats
            qps = stats["qps"]
            if stats["outstanding"] != qps:
                self.violations.append(
                    f"fanout: {label} leaked receive slots: outstanding "
                    f"{stats['outstanding']} != QPs {qps}")
            if stats["capacity"] <= qps:
                self.violations.append(
                    f"fanout: {label} has no spare receive slot: capacity "
                    f"{stats['capacity']} <= QPs {qps}")
            if stats["grows"] < 1:
                self.violations.append(
                    f"fanout: {label} never grew under a {n}-client fanout "
                    f"— the elastic path never engaged")
        # Extent conservation: whatever the killed clients were in the
        # middle of, every extent is allocated, quarantined or free.
        leaks = [str(v) for v in pool.master.check_extents()]
        self.violations += [f"fanout: extent leak: {v}" for v in leaks]
        self.fanout_report = {
            "clients": n,
            "victims": len(victims),
            "typed_failures": typed["count"],
            "extent_leaks": len(leaks),
            "pools": pools,
        }

    # ------------------------------------------------------------------
    def _totals(self, names) -> Dict[str, float]:
        m = self.sim.metrics
        return {name: m.counter(name).total for name in names}

    def _require_moves(self, tag: str, before: Dict[str, float],
                       exactly: Dict[str, int],
                       at_least: Dict[str, int]) -> None:
        """One violation per counter that did not move since ``before`` the
        way the faults just injected require — a fault that never landed,
        or a recovery path that never did any work."""
        now = self._totals(before)
        for bounds, wrong, word in ((exactly, int.__ne__, "exactly"),
                                    (at_least, int.__lt__, "at least")):
            for name, want in bounds.items():
                moved = int(now[name] - before[name])
                if wrong(moved, want):
                    self.violations.append(
                        f"{tag}: {name} moved by {moved}, expected {word} "
                        f"{want}")

    def run(self) -> Dict[str, Any]:
        self.load()
        t0 = self.sim.now
        plan = soak_plan(t0, smoke=self.smoke)
        injector = self.pool.inject_faults(plan)

        modes = {0: "burst", 1: "rr" if not self.smoke else "ycsb"}
        # Workers stay on the first two clients; a third, where the
        # scenario has one, is reserved as its phase's victim.
        worker_clients = self.pool.clients[:2]
        workers = [
            self.worker(i, worker_clients[i % len(worker_clients)],
                        mode=modes.get(i, "ycsb"))
            for i in range(self.num_workers)
        ]
        before = self._totals(_BASE_FAULTS)
        self.pool.run(*workers)
        # Let any still-pending plan actions (late recovery) play out.
        self.sim.run(until=max(self.sim.now, plan.horizon_ns + 100_000))
        injector.uninstall()
        self._require_moves("base", before, _BASE_FAULTS, {})
        self.verify()
        row = self.scenario
        if row.phase is not None:
            before = self._totals({**row.exactly, **row.at_least})
            row.phase(self)
            self._require_moves(self.name, before, row.exactly, row.at_least)

        m = self.sim.metrics
        counters = {
            name: m.counter(f"pool.{name}").count
            for name in ("retries", "failovers", "deadline_misses",
                         "proxy_writes", "direct_writes")
        }
        counters["lost_staged_writes"] = int(
            m.counter("pool.lost_staged_writes").total)
        counters["fabric_dropped"] = m.counter("fabric.dropped").count
        counters["faults_crashes"] = m.counter("faults.crashes").count
        counters["faults_recoveries"] = m.counter("faults.recoveries").count
        counters["faults_stalls"] = m.counter("faults.stalls").count
        counters["faults_client_crashes"] = m.counter(
            "faults.client_crashes").count
        counters["faults_master_crashes"] = m.counter(
            "faults.master_crashes").count
        counters["faults_torn_injected"] = m.counter(
            "faults.torn_injected").count
        master = self.pool.master
        counters["lease_renewals"] = master.lease_renewals.count
        counters["lease_expiries"] = master.lease_expiries.count
        counters["lock_recoveries"] = int(master.lock_recoveries.total)
        counters["fence_rejections"] = m.counter(
            "pool.fence_rejections").count
        counters["torn_slot_skips"] = sum(
            s.drain.torn_skipped.count for s in self.pool.servers.values())
        counters["master_failovers"] = master.failovers.count
        counters["journal_replayed"] = int(master.journal_replayed.total)
        # Partition-tolerance counters (all zero unless the scenario armed
        # the term-fenced control plane).  The master.* metrics live in
        # the shared registry, so one read covers both master instances.
        counters["suspected_clients"] = m.counter(
            "master.suspected_clients").count
        counters["term_claims"] = m.counter("master.term_claims").count
        counters["depositions"] = m.counter("master.depositions").count
        counters["master_term"] = master.journal.term
        counters["stale_term_rejections"] = m.counter(
            "pool.stale_term_rejections").count
        counters["partition_suspected"] = m.counter(
            "pool.partition_suspected").count
        counters["lease_lapses"] = m.counter("pool.lease_lapses").count
        # Transaction counters (all zero outside chaos-txn).
        counters["txn_begins"] = m.counter("pool.txn_begins").count
        counters["txn_commits"] = m.counter("pool.txn_commits").count
        counters["txn_aborts"] = m.counter("pool.txn_aborts").count
        counters["txn_wait_die"] = m.counter("pool.txn_wait_die").count
        counters["txn_handoffs"] = m.counter("pool.txn_handoffs").count
        counters["txn_rolled_forward"] = m.counter(
            "master.txn_rolled_forward").count
        # Sharded-control-plane counters (all zero at one shard).
        counters["shard_redirects"] = m.counter("pool.shard_redirects").count
        counters["txn_cross_shard_commits"] = m.counter(
            "pool.txn_cross_shard_commits").count
        return {
            "scenario": self.name,
            "seed": self.seed,
            "smoke": self.smoke,
            "virtual_end_ns": self.sim.now,
            "ops_ok": self.ops_ok,
            "ops_typed_failures": self.ops_typed_failures,
            "lost_reports": sum(len(c.fault_log) for c in self.pool.clients),
            "tainted_keys": len(self.tainted),
            "linearizable": (self.check_result.ok
                             if self.check_result is not None else None),
            "history_ops": (len(self.history_recorder.ops)
                            if self.history_recorder is not None else 0),
            "serializable": (self.txn_check_result.ok
                             if self.txn_check_result is not None else None),
            "bank_total_ok": self.bank_total_ok,
            "txn_history_ops": (len(self.txn_history_recorder.ops)
                                if self.txn_history_recorder is not None
                                else 0),
            "fanout": self.fanout_report,
            "crash_tolerance": self.tolerance_times,
            "counters": counters,
            "violations": self.violations,
        }


@dataclass(frozen=True)
class Scenario:
    """One chaos row: the base soak, then ``phase`` (if any) on a pool of
    ``clients`` clients with ``config`` armed on top of the resilient
    profile.  ``exactly`` / ``at_least`` name the counters the phase must
    move — the faults it injects land exactly once each, the recovery
    paths it exists to exercise do real work — and ``seeds`` are the seeds
    the tier-1 test runs the row at."""

    phase: Optional[Callable[[ChaosSoak], None]] = None
    config: Dict[str, Any] = field(default_factory=dict)
    clients: int = 2
    standby_master: bool = False
    exactly: Dict[str, int] = field(default_factory=dict)
    at_least: Dict[str, int] = field(default_factory=dict)
    seeds: Tuple[int, ...] = (7,)


#: Journal (and so per-master terms) + leases + the phi-accrual failure
#: detector (which keeps the base soak's lossy windows from reading as
#: client death).
_FAILOVER_STACK = dict(client_lease_ns=120_000, metadata_journal=True,
                       failure_detector=True)

SCENARIOS: Dict[str, Scenario] = {
    # YCSB-B through server crashes, a lossy window and ring stalls, with
    # leases off.
    "base": Scenario(),
    # Kill a lock-holding client mid-RDMA_WRITE and crash/rebuild the
    # master mid-workload: leases, fencing, torn-slot commit words and
    # journal failover all have to engage.
    "crash-tolerance": Scenario(
        ChaosSoak.crash_tolerance_phase, clients=3,
        config=dict(client_lease_ns=120_000, metadata_journal=True),
        exactly={"faults.client_crashes": 1, "faults.torn_injected": 1,
                 "faults.master_crashes": 1},
        at_least={"master.lease_renewals": 1, "master.lock_recoveries": 1,
                  "pool.fence_rejections": 1, "master.failovers": 1,
                  "master.journal_replayed": 1}),
    # Partition nemesis with standby promotion, audited Jepsen-style.
    "chaos-partition": Scenario(
        ChaosSoak.partition_phase, standby_master=True,
        config=_FAILOVER_STACK,
        at_least={"check.history_ops": 1, "master.depositions": 1,
                  "master.term_claims": 2,
                  "pool.stale_term_rejections": 1}),
    # 32 clients in a fresh pool, a quarter killed mid-run; the phase has
    # its own simulator, so all its checks are its own.
    "chaos-fanout": Scenario(ChaosSoak.fanout_phase),
    # Bank transfers with the client (and once the master) killed at
    # seeded points inside the commit window.
    "chaos-txn": Scenario(
        ChaosSoak.txn_phase, clients=3, seeds=(11, 12, 13),
        config=dict(client_lease_ns=120_000, metadata_journal=True),
        at_least={"check.txn_history_ops": 1, "pool.txn_begins": 1,
                  "pool.txn_commits": 1, "faults.client_crashes": 3,
                  "faults.master_crashes": 1,
                  "master.txn_rolled_forward": 1}),
    # Two master shards, each killed in turn mid-YCSB and rebuilt from
    # its journal while the other keeps serving; audited like the
    # partition row.
    "chaos-shard": Scenario(
        ChaosSoak.shard_phase, seeds=(1, 2, 3),
        config=dict(_FAILOVER_STACK, num_master_shards=2),
        at_least={"check.history_ops": 1, "master.failovers": 2,
                  "master.journal_replayed": 1,
                  "master.lease_renewals": 1}),
}

#: Report fields two identically seeded runs must agree on.
COMPARED_FIELDS = ("virtual_end_ns", "ops_ok", "ops_typed_failures",
                   "lost_reports", "tainted_keys", "linearizable",
                   "history_ops", "serializable", "bank_total_ok",
                   "txn_history_ops", "fanout", "counters", "violations")


def run_soak(scenario: str = "base", seed: int = 7, smoke: bool = False,
             dump_trace: bool = False,
             trace_out: Optional[str] = None,
             span_log: Optional[str] = None,
             history_out: Optional[str] = None,
             counterexample_out: Optional[str] = None) -> Dict[str, Any]:
    """One full soak; returns the audit report (see :class:`ChaosSoak`)."""
    soak = ChaosSoak(scenario, seed=seed, smoke=smoke, dump_trace=dump_trace,
                     record_spans=bool(trace_out or span_log))
    report = soak.run()
    if history_out:
        dumper = soak.history_recorder or soak.txn_history_recorder
        if dumper is not None:
            n = dumper.dump_jsonl(history_out)
            report["history_file"] = history_out
            print(f"wrote {history_out}: {n} recorded ops", file=sys.stderr)
    failed_check = next(
        (r for r in (soak.check_result, soak.txn_check_result)
         if r is not None and not r.ok), None)
    if failed_check is not None and counterexample_out:
        n = failed_check.dump_counterexample(counterexample_out)
        report["counterexample_file"] = counterexample_out
        print(f"wrote {counterexample_out}: minimal counterexample "
              f"({n} ops)", file=sys.stderr)
    if dump_trace:
        report["trace"] = obs.timeline(soak.recorder, limit=200,
                                       categories=TIMELINE_CATEGORIES)
    if trace_out or span_log:
        if trace_out:
            with open(trace_out, "w") as fh:
                json.dump(obs.chrome_trace(soak.recorder), fh)
        if span_log:
            with open(span_log, "w") as fh:
                fh.write(obs.spans_jsonl(soak.recorder))
        report["spans_recorded"] = soak.recorder.recorded
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Chaos soak: YCSB-B under a deterministic fault plan")
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default="base",
                        help="the named row to run: the base soak plus the "
                             "phase that row adds (see SCENARIOS)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast variant (what the tier-1 test runs)")
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report here")
    parser.add_argument("--dump-trace", action="store_true",
                        help="record fault/retry/failover trace and dump it")
    parser.add_argument("--trace-out", type=str, default=None,
                        help="record op spans and write Chrome trace JSON "
                             "here (load in Perfetto)")
    parser.add_argument("--span-log", type=str, default=None,
                        help="write the raw span log as JSONL here")
    parser.add_argument("--history-out", type=str, default=None,
                        help="write the recorded op history as JSONL here "
                             "(replayable via `python -m repro check`)")
    parser.add_argument("--counterexample-out", type=str, default=None,
                        help="on a check failure, write the minimal "
                             "counterexample history here")
    parser.add_argument("--check-determinism", action="store_true",
                        help="run twice and require identical results")
    args = parser.parse_args(argv)

    report = run_soak(args.scenario, seed=args.seed, smoke=args.smoke,
                      dump_trace=args.dump_trace,
                      trace_out=args.trace_out, span_log=args.span_log,
                      history_out=args.history_out,
                      counterexample_out=args.counterexample_out)
    if args.check_determinism:
        second = run_soak(args.scenario, seed=args.seed, smoke=args.smoke)
        mismatched = [k for k in COMPARED_FIELDS if report[k] != second[k]]
        if mismatched:
            report["violations"].append(
                f"non-deterministic fields across identical runs: {mismatched}")
        else:
            report["determinism"] = "identical across two runs"

    if args.out:
        payload = {k: v for k, v in report.items() if k != "trace"}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)

    ok = not report["violations"]
    print(f"chaos soak {args.scenario} seed={args.seed} smoke={args.smoke}: "
          f"{'PASS' if ok else 'FAIL'}")
    print(f"  virtual time: {report['virtual_end_ns'] / 1e6:.3f} ms, "
          f"ops ok: {report['ops_ok']}, "
          f"typed failures: {report['ops_typed_failures']}")
    if report["linearizable"] is not None:
        print(f"  linearizable: {report['linearizable']} "
              f"({report['history_ops']} recorded ops)")
    if report["serializable"] is not None:
        print(f"  serializable: {report['serializable']} "
              f"({report['txn_history_ops']} recorded ops)")
    if report["bank_total_ok"] is not None:
        print(f"  bank conservation: "
              f"{'PASS' if report['bank_total_ok'] else 'FAIL'}")
    if report.get("fanout"):
        fo = report["fanout"]
        print(f"  fanout: {fo['clients']} clients, {fo['victims']} killed, "
              f"master pool {fo['pools']['master']['capacity']} slots "
              f"({fo['pools']['master']['grows']} grows)")
    if report["crash_tolerance"] is not None:
        print("  crash-tolerance instants (virtual ns): " + ", ".join(
            f"{name[:-3].replace('_', ' ')} {value}"
            for name, value in report["crash_tolerance"].items()))
    for name, value in sorted(report["counters"].items()):
        print(f"  {name}: {value}")
    if "determinism" in report:
        print(f"  determinism: {report['determinism']}")
    for v in report["violations"]:
        print(f"  VIOLATION: {v}", file=sys.stderr)
    if not ok and report.get("trace"):
        print("--- fault timeline (tail) ---", file=sys.stderr)
        print(report["trace"], file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
