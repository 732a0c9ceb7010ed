"""Deterministic execution of a :class:`~repro.faults.plan.FaultPlan`.

The injector turns a declarative plan into scheduled simulator callbacks
(crash/recover/stall) and a fabric fault hook (loss, latency, flaps,
partitions).  Every probabilistic decision draws from one named stream of
the simulator's seeded RNG registry, so the same seed + the same plan
reproduces a bit-identical run — including which individual packets were
dropped — without perturbing any other consumer's stream.

Usage::

    plan = FaultPlan.of(
        ServerCrash(at_ns=1_000_000, server_id=0),
        ServerRecover(at_ns=2_000_000, server_id=0),
        LossyLink(start_ns=3_000_000, end_ns=4_000_000, drop_prob=0.2),
    )
    injector = FaultInjector.for_pool(pool, plan)
    injector.install()
    ...run the workload...

or, equivalently, ``pool.inject_faults(plan)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import GengarPool
    from repro.core.master import Master
    from repro.core.server import MemoryServer
    from repro.hardware.network import Fabric
    from repro.sim.kernel import Simulator

from repro.faults.plan import (
    ClientCrash,
    ClientRecover,
    FaultPlan,
    FaultPlanError,
    LatencySpike,
    LinkFlap,
    LossyLink,
    MasterCrash,
    MasterRecover,
    Partition,
    RingStall,
    ServerCrash,
    ServerRecover,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import GengarClient


class _Window:
    """One link-shaping window, normalized for the hot fabric hook."""

    __slots__ = ("start_ns", "end_ns", "drop_prob", "extra_ns", "matches")

    def __init__(self, start_ns: int, end_ns: int, drop_prob: float,
                 extra_ns: int, matches: Callable[[str, str], bool]):
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.drop_prob = drop_prob
        self.extra_ns = extra_ns
        self.matches = matches


def _pair_matcher(src: Optional[str], dst: Optional[str]) -> Callable[[str, str], bool]:
    def matches(s: str, d: str) -> bool:
        return (src is None or s == src) and (dst is None or d == dst)
    return matches


def _flap_matcher(node: str) -> Callable[[str, str], bool]:
    def matches(s: str, d: str) -> bool:
        return s == node or d == node
    return matches


def _partition_matcher(group_a, group_b) -> Callable[[str, str], bool]:
    a, b = frozenset(group_a), frozenset(group_b)

    def matches(s: str, d: str) -> bool:
        return (s in a and d in b) or (s in b and d in a)
    return matches


class FaultInjector:
    """Executes one plan against one deployment.

    Single-shot: build a new injector per plan.  :meth:`install` is the arm
    step; :meth:`uninstall` detaches the fabric hook (timed actions that
    already fired are not undone — schedule matching recoveries in the plan).
    """

    def __init__(self, sim: "Simulator", plan: FaultPlan, *,
                 fabric: Optional["Fabric"] = None,
                 servers: Optional[Dict[int, "MemoryServer"]] = None,
                 master: Optional["Master"] = None,
                 masters: Optional[List["Master"]] = None,
                 clients: Optional[Dict[str, "GengarClient"]] = None,
                 rng_name: str = "faults"):
        self.sim = sim
        self.plan = plan
        self.fabric = fabric
        self.servers = servers or {}
        self.master = master
        #: All control-plane shards, indexed by shard id; [master] when the
        #: caller wired only the single-master form.
        self.masters: List["Master"] = (
            list(masters) if masters else ([master] if master else []))
        if self.master is None and self.masters:
            self.master = self.masters[0]
        self.clients = clients or {}
        self._rng = sim.rng.stream(rng_name)
        self._windows: List[_Window] = []
        self._installed = False

        m = sim.metrics
        self.crashes_injected = m.counter("faults.crashes")
        self.recoveries_injected = m.counter("faults.recoveries")
        self.stalls_injected = m.counter("faults.stalls")
        self.master_crashes_injected = m.counter("faults.master_crashes")
        self.master_recoveries_injected = m.counter("faults.master_recoveries")
        self.client_crashes_injected = m.counter("faults.client_crashes")
        self.client_recoveries_injected = m.counter("faults.client_recoveries")
        self.torn_injected = m.counter("faults.torn_injected")

        for f in plan.timed:
            if isinstance(f, (ServerCrash, ServerRecover, RingStall)):
                if f.server_id not in self.servers:
                    raise FaultPlanError(
                        f"plan names server {f.server_id} but only "
                        f"{sorted(self.servers)} are wired")
            elif isinstance(f, (MasterCrash, MasterRecover)):
                if not self.masters:
                    raise FaultPlanError(
                        f"plan has master faults but no master was wired: {f!r}")
                if f.shard >= len(self.masters):
                    raise FaultPlanError(
                        f"plan names master shard {f.shard} but only "
                        f"{len(self.masters)} shard(s) are wired")
            else:  # ClientCrash / ClientRecover
                if f.client not in self.clients:
                    raise FaultPlanError(
                        f"plan names client {f.client!r} but only "
                        f"{sorted(self.clients)} are wired")
        if plan.windows and fabric is None:
            raise FaultPlanError("plan has link faults but no fabric was wired")

    @classmethod
    def for_pool(cls, pool: "GengarPool", plan: FaultPlan,
                 rng_name: str = "faults") -> "FaultInjector":
        """Wire an injector to a booted :class:`GengarPool`."""
        return cls(pool.sim, plan,
                   fabric=pool.cluster.fabric,
                   servers=pool.servers,
                   master=pool.master,
                   masters=getattr(pool, "masters", None),
                   clients={c.name: c for c in pool.clients},
                   rng_name=rng_name)

    # ------------------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Arm the plan: schedule timed actions, hook the fabric.

        Faults timestamped in the past (relative to ``sim.now``) are
        rejected — anchor relative plans with :meth:`FaultPlan.shifted`.
        Returns ``self`` for chaining.
        """
        if self._installed:
            raise FaultPlanError("injector already installed")
        now = self.sim.now
        for f in self.plan.timed:
            if f.at_ns < now:
                raise FaultPlanError(
                    f"fault at t={f.at_ns} is in the past (now={now}); "
                    "use plan.shifted(...) to anchor it")
        self._installed = True

        schedule = self.sim.schedule
        for f in self.plan.timed:
            delay = f.at_ns - now
            if isinstance(f, ServerCrash):
                schedule(delay, self._do_crash, f.server_id)
            elif isinstance(f, ServerRecover):
                schedule(delay, self._do_recover, f.server_id, f.reconcile)
            elif isinstance(f, MasterCrash):
                schedule(delay, self._do_master_crash, f.shard)
            elif isinstance(f, MasterRecover):
                schedule(delay, self._do_master_recover, f.shard)
            elif isinstance(f, ClientCrash):
                schedule(delay, self._do_client_crash, f.client, f.tear_inflight)
            elif isinstance(f, ClientRecover):
                schedule(delay, self._do_client_recover, f.client)
            else:  # RingStall
                schedule(delay, self._do_stall, f.server_id, f.duration_ns)

        for f in self.plan.windows:
            if isinstance(f, LossyLink):
                w = _Window(f.start_ns, f.end_ns, f.drop_prob, 0,
                            _pair_matcher(f.src, f.dst))
            elif isinstance(f, LatencySpike):
                w = _Window(f.start_ns, f.end_ns, 0.0, f.extra_ns,
                            _pair_matcher(f.src, f.dst))
            elif isinstance(f, LinkFlap):
                w = _Window(f.start_ns, f.end_ns, 1.0, 0, _flap_matcher(f.node))
            else:  # Partition
                w = _Window(f.start_ns, f.end_ns, 1.0, 0,
                            _partition_matcher(f.group_a, f.group_b))
            self._windows.append(w)
        if self._windows:
            self.fabric.set_fault_hook(self._verdict)
        rec = self.sim.spans
        if rec is not None:
            rec.event("faults", "fault", "fault plan installed",
                      faults=len(self.plan), horizon_ns=self.plan.horizon_ns)
        return self

    def uninstall(self) -> None:
        """Detach the fabric hook (e.g. before a verification phase)."""
        if self._windows and self.fabric is not None:
            self.fabric.set_fault_hook(None)
        self._windows = []

    # ------------------------------------------------------------------
    # Fabric hook (hot path: one call per transmission attempt)
    # ------------------------------------------------------------------
    def _verdict(self, src: str, dst: str, nbytes: int) -> Tuple[bool, int]:
        now = self.sim.now
        drop_prob = 0.0
        extra_ns = 0
        for w in self._windows:
            if w.start_ns <= now < w.end_ns and w.matches(src, dst):
                if w.drop_prob > drop_prob:
                    drop_prob = w.drop_prob
                extra_ns += w.extra_ns
        if drop_prob >= 1.0:
            dropped = True  # deterministic black hole: no RNG draw
        elif drop_prob > 0.0:
            dropped = self._rng.random() < drop_prob
        else:
            dropped = False
        if dropped and self.sim.spans is not None:
            self.sim.spans.event("faults", "fault", "message dropped", src=src,
                                 dst=dst, bytes=nbytes)
        return dropped, extra_ns

    # ------------------------------------------------------------------
    # Timed actions
    # ------------------------------------------------------------------
    def _do_crash(self, server_id: int) -> None:
        rec = self.sim.spans
        if rec is not None:
            rec.event("faults", "fault", "injecting server crash",
                      server=server_id)
        self.servers[server_id].crash()
        self.crashes_injected.add()

    def _do_recover(self, server_id: int, reconcile: bool) -> None:
        rec = self.sim.spans
        if rec is not None:
            rec.event("faults", "fault", "injecting server recovery",
                      server=server_id)
        self.servers[server_id].recover()
        if reconcile:
            # Reconcile through the master that OWNS the server — on a
            # sharded control plane shard 0 may know nothing about it.
            owner = next((m for m in self.masters
                          if server_id in m._servers), self.master)
            if owner is not None:
                owner.on_server_recovered(server_id)
        self.recoveries_injected.add()

    def _do_stall(self, server_id: int, duration_ns: int) -> None:
        rec = self.sim.spans
        if rec is not None:
            rec.event("faults", "fault", "injecting ring stall",
                      server=server_id, duration_ns=duration_ns)
        self.servers[server_id].drain.stall(duration_ns)
        self.stalls_injected.add()

    def _do_master_crash(self, shard: int = 0) -> None:
        rec = self.sim.spans
        if rec is not None:
            rec.event("faults", "fault", "injecting master crash", shard=shard)
        self.masters[shard].crash()
        self.master_crashes_injected.add()

    def _do_master_recover(self, shard: int = 0) -> None:
        rec = self.sim.spans
        if rec is not None:
            rec.event("faults", "fault", "injecting master recovery",
                      shard=shard)
        target = self.masters[shard]
        target.recover()
        # recovery_process must ALWAYS run: it is the only thing that
        # clears the "recovering" gate (without a journal it reopens with
        # an empty directory).
        self.sim.spawn(target.recovery_process(),
                       name=f"{target.node.name}.recovery")
        self.master_recoveries_injected.add()

    def _do_client_crash(self, client_name: str, tear_inflight: bool) -> None:
        rec = self.sim.spans
        if rec is not None:
            rec.event("faults", "fault", "injecting client crash",
                      client=client_name, tear=tear_inflight)
        client = self.clients[client_name]
        if tear_inflight and self._tear_inflight_write(client):
            return  # the torn doorbell's process crashes the client
        self._crash_client(client)

    def _crash_client(self, client: "GengarClient") -> None:
        client.crash()
        self.client_crashes_injected.add()

    def _do_client_recover(self, client_name: str) -> None:
        rec = self.sim.spans
        if rec is not None:
            rec.event("faults", "fault", "injecting client restart",
                      client=client_name)
        self.sim.spawn(self.clients[client_name].restart(),
                       name=f"{client_name}.restart")
        self.client_recoveries_injected.add()

    # ------------------------------------------------------------------
    def _tear_inflight_write(self, client: "GengarClient") -> bool:
        """Plant a half-written proxy slot: re-stage the first frame of the
        victim's last staged write (more-bit set if it had more), but cut the
        RDMA_WRITE short partway through the payload — the frame lands, the
        commit word does not.  The drain loop still gets the doorbell
        (write-after-write ordering only covers *completed* writes) and,
        since every frame carries a commit word, skips the slot as torn
        instead of applying it.  Returns whether a doorbell is on its way;
        its process then crashes the client."""
        from repro.core.protocol import PROXY_HEADER_BYTES, pack_commit_word, pack_proxy_slot

        if client._last_staged is None:
            rec = self.sim.spans
            if rec is not None:
                rec.event("faults", "fault", "no staged write to tear",
                          client=client.name)
            return False
        sid, gaddr, offset, data = client._last_staged
        server = self.servers.get(sid)
        conn = client._conns.get(sid)
        if server is None or conn is None or conn.ring.desc is None:
            return False
        ring_state = server.drain.attached(client.name)
        if ring_state is None:
            return False
        ring = conn.ring
        desc = ring.desc
        if ring.written - ring_state.drained >= desc.slots:
            rec = self.sim.spans
            if rec is not None:
                rec.event("faults", "fault", "ring full; tear skipped",
                          client=client.name)
            return False
        seq = ring.reserve(desc, 1)
        slot = seq % desc.slots
        capacity = ring.capacity
        frame = pack_proxy_slot(gaddr, offset, data[:capacity], more=len(data) > capacity)
        data = data[:capacity]
        full = frame + pack_commit_word(seq, frame)
        cut = PROXY_HEADER_BYTES + max(1, len(data) // 2)
        base = slot * desc.slot_size
        # The partial payload lands now (the bytes the NIC pushed out before
        # the host died); the zero-fill keeps the judgement deterministic
        # even when the slot is reused after a ring wrap.
        ring_state.mr.poke(base, bytes(desc.slot_size))
        ring_state.mr.poke(base, full[:cut])
        self.sim.spawn(self._deliver_torn_doorbell(client, conn, desc.ring_rkey,
                                                   base, slot),
                       name=f"faults.tear.{client.name}")
        self.torn_injected.add()
        rec = self.sim.spans
        if rec is not None:
            rec.event("faults", "fault", "torn slot planted",
                      client=client.name, server=sid, slot=slot, seq=seq,
                      cut=cut, of=len(full))
        return True

    def _deliver_torn_doorbell(self, client: "GengarClient", conn, rkey: int,
                               base: int, slot: int) -> Any:
        """Ship the torn slot's doorbell through the victim's own data QP
        (as a zero-length RDMA_WRITE_WITH_IMM) instead of pushing straight
        into the server's completion queue.

        A real NIC processes WRs in FIFO order, so the dying client's final
        (torn) write can never overtake a completed write it queued behind.
        Bypassing the QP would deliver doorbells out of seq order, and the
        drain's seq cursor would then reject a *good* in-flight frame as
        torn — losing a write the client was told had synced.

        The doorbell is the last WR the dying NIC puts on the wire: the
        client crashes as soon as it has left the send gate, so every WR
        still queued behind it flushes.
        """
        from repro.rdma.qp import QpError
        from repro.rdma.wr import Opcode, WorkRequest

        wr = WorkRequest(
            opcode=Opcode.RDMA_WRITE_IMM,
            remote_rkey=rkey,
            remote_offset=base,
            imm_data=slot,
            inline_data=b"",
            length=0,
        )
        qp = conn.data_qp
        try:
            qp.post_send(wr)
        except QpError:
            rec = self.sim.spans
            if rec is not None:
                rec.event("faults", "fault", "torn doorbell dropped (QP down)",
                          client=client.name)
        else:
            yield 0  # the doorbell's process queues on the send gate first
            with (yield qp._send_gate):
                pass  # so once this holds it, the doorbell is on the wire
        self._crash_client(client)
