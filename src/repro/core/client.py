"""The Gengar client library.

All application access to the pool goes through this class, which is exactly
what lets Gengar harvest access semantics for free: every ``gread``/``gwrite``
the library posts is also an access record, batched and piggybacked to the
master (see :mod:`repro.core.hotness`).

Data-plane routing per operation:

* **read, object cached** → one RDMA READ of the home server's DRAM cache
  slot (self-verifying tag; a mismatch means stale metadata: the client
  re-reads the NVM home while a lookup runs, and keeps those bytes once
  the lookup confirms the object's size; :mod:`repro.core.reads`),
* **read, uncached** → one RDMA READ of the NVM home,
* **write, proxy on** → one RDMA WRITE_WITH_IMM into the client's private
  ring in server DRAM; completion at DRAM latency, NVM updated by the
  server's drain loop off the critical path,
* **write, proxy off** → RDMA WRITE to NVM (plus a verified cache update
  when a DRAM copy exists).

Reads of objects with proxy writes staged since the client last needed
the ring or synced are served from the client's local overlay, so every
client observes its own writes.
"""

from __future__ import annotations

import re
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, Iterable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node
    from repro.rdma.qp import QueuePair
    from repro.rdma.rpc import RpcClient

from repro.core.addressing import server_of
from repro.core.config import GengarConfig
from repro.core.consistency import LockOps
from repro.core.errors import (
    FatalError,
    FencedError,
    LeaseExpiredError,
    MasterUnavailableError,
    NotMyShard,
    PartitionSuspected,
    RetryableError,
    StaleTermError,
)
from repro.core.driver import OpDriver, RetryPolicy, wc_error
from repro.core.layout import DramCarver
from repro.core.metacache import MetaCache, check_bounds
from repro.core.protocol import (
    CACHE_TAG_BYTES,
    MAX_TRANSFER,
    ObjectMeta,
    ServerDescriptor,
    tag_matches,
)
from repro.core.reads import SCRATCH_BYTES, ClientReads, Scratch
from repro.core.ring import ClientRing
from repro.rdma.mr import AccessFlags
from repro.rdma.rpc import RpcError
from repro.rdma.wr import Opcode, WcStatus, WorkRequest

__all__ = ["GengarClient", "RetryPolicy"]


@dataclass
class _ServerConn:
    """Client-side state for one memory server."""

    desc: ServerDescriptor
    #: Data QPs to the server ("read lanes").  Lane 0 is the ordered lane:
    #: writes, proxy WRITE_IMMs and atomics stay on it, so their per-QP
    #: order holds; only RDMA READs spread across the lanes.
    lanes: Tuple["QueuePair", ...]
    rpc: "RpcClient"
    client: InitVar["GengarClient"]
    reads_posted: int = 0  # READ cursor over the lanes (ClientReads.deal)
    ring: ClientRing = field(init=False, repr=False)  # the proxy ring

    def __post_init__(self, client: "GengarClient") -> None:
        self.ring = ClientRing(client, self)

    @property
    def data_qp(self) -> "QueuePair":
        """The ordered lane."""
        return self.lanes[0]


#: Consecutive master transport failures before the client's verdict
#: upgrades from "one lost RPC" to "the path to the master is partitioned".
_SUSPECT_STREAK = 3

#: What a shard's "not my shard" rejection looks like on the wire; the
#: client parses the owning shard and map epoch out of it to correct its
#: cached shard map before retrying at the right shard.
_NOT_MY_SHARD_RE = re.compile(
    r"not my shard: server (\d+) is owned by shard (\d+), "
    r"not shard (\d+) \(map epoch (\d+)\)")


class _MasterShard:
    """Client-side state for one master shard.  Its wiring — the
    connections in rotation order (active + standbys) and the active one —
    survives a restart; its volatile state — term floor, fail streak,
    lease deadline, last renewal and renewal loop — :meth:`reset` clears.
    Each shard leases the client on its own, so only this shard's renewals
    move its deadline."""

    __slots__ = ("client", "shard", "rotation", "active_rpc", "term_floor",
                 "fail_streak", "lease_deadline", "last_renew_ns",
                 "heartbeat")

    def __init__(self, client: "GengarClient", shard: int):
        self.client = client
        self.shard = shard
        self.rotation: list = []
        self.active_rpc: Optional["RpcClient"] = None
        self.reset()

    def reset(self) -> None:
        #: Highest master term observed in any reply from this shard: every
        #: shard runs its own term sequence, so a failover on one shard must
        #: not make another shard's healthy replies look stale.  Replies
        #: below the floor are deposed-master echoes and are rejected.
        self.term_floor = 0
        #: Consecutive transport failures; at the suspicion streak the
        #: failure is reported as PartitionSuspected, not just one more
        #: MasterUnavailableError.
        self.fail_streak = 0
        self.lease_deadline = 0  # virtual time at which the lease lapses
        self.last_renew_ns = 0
        self.heartbeat: Any = None  # the renewal loop's process

    def wire(self, rpc: "RpcClient") -> None:
        """Add a connection to the rotation; the first becomes active."""
        if rpc not in self.rotation:
            self.rotation.append(rpc)
        if self.active_rpc is None:
            self.active_rpc = rpc

    def rotate(self) -> None:
        """Point the shard at its next wired master (no-op without
        standbys).  Stale-term protection makes this safe to do eagerly: if
        the rotation lands on a deposed master, its replies carry a term
        below the floor and are rejected, rotating us onward."""
        rotation = self.rotation
        if len(rotation) < 2:
            return
        i = rotation.index(self.active_rpc)
        self.active_rpc = rotation[(i + 1) % len(rotation)]
        self._event("failover", "rotated to next master")

    def _event(self, category: str, message: str, **fields: Any) -> None:
        client = self.client
        rec = client.sim.spans
        if rec is not None:
            rec.event(client.name, category, message, shard=self.shard,
                      **fields)

    def call(self, method: str, payload) -> Generator[Any, Any, Any]:
        """Call this shard, mapping transport failures and the recovering
        window into the retryable :class:`MasterUnavailableError` so the
        resilience engine (and its auto master re-attach) can handle them.

        With ``metadata_journal`` the reply rides a ``{"t": term, "r": result}``
        envelope: a term below :attr:`term_floor` is a deposed master's
        echo — rejected with :class:`StaleTermError` rather than trusted.
        A streak of pure transport failures upgrades the verdict to
        :class:`PartitionSuspected`: not one lost RPC, a dead path.  A
        shard that no longer owns the addressed server answers "not my
        shard"; that surfaces as :class:`NotMyShard` after correcting the
        cached shard map, so the retry dials the owner.  Any other refusal —
        a handler error (``gmalloc(0)``, ``OutOfMemory``, an address the
        directory does not hold) or a call too large to frame — is a
        :class:`FatalError` carrying the error's message: no retry can fix
        it, so no :class:`RpcError` leaves this method.

        Every raised error is tagged with this shard (``exc.shard``) so the
        resilience engine re-attaches the right control-plane connection.
        """
        client, shard = self.client, self.shard
        try:
            try:
                result = yield from self.active_rpc.call(method, payload)
            except RpcError as exc:
                msg = str(exc)
                if "not my shard" in msg:
                    owner, epoch = client._learn_redirect(msg)
                    client.m_shard_redirects.add()
                    self._event("shard", f"{method} redirected", owner=owner)
                    raise NotMyShard(
                        f"{method}: {msg}", shard_id=shard, owner_shard=owner,
                        map_epoch=epoch) from exc
                if "master deposed" in msg or "stale master term" in msg:
                    client.m_stale_terms.add()
                    self._event("term", f"{method} hit a deposed master")
                    raise StaleTermError(f"{method}: {msg}",
                                         known_term=self.term_floor) from exc
                if WcStatus.WR_FLUSH_ERROR.value in msg:
                    raise FatalError(f"{method}: {msg}") from exc  # we died
                if "transport failed" in msg:
                    self.fail_streak = streak = self.fail_streak + 1
                    if streak >= _SUSPECT_STREAK:
                        client.m_partition_suspected.add()
                        self._event("partition",
                                    "master path suspected partitioned",
                                    failures=streak)
                        raise PartitionSuspected(
                            f"{method}: {streak} consecutive "
                            f"master transport failures ({msg})") from exc
                    raise MasterUnavailableError(f"{method}: {msg}") from exc
                if "master recovering" in msg:
                    raise MasterUnavailableError(f"{method}: {msg}") from exc
                raise FatalError(msg) from exc
            self.fail_streak = 0
            if client.config.metadata_journal:
                term, known = result["t"], self.term_floor
                if term < known:
                    client.m_stale_terms.add()
                    self._event("term", f"{method} reply term stale",
                                reply_term=term, known_term=known)
                    raise StaleTermError(
                        f"{method}: reply term {term} below observed "
                        f"{known}", reply_term=term, known_term=known)
                self.term_floor = term
                result = result["r"]
        except RetryableError as err:
            err.shard = shard
            raise
        return result

    # Lease ---------------------------------------------------------------
    def start(self, fresh: bool) -> None:
        """Start a fresh lease from now if ``fresh``, and a renewal loop
        unless one runs (no-op with leases off): one loop per shard, so a
        stuck shard delays no other."""
        client = self.client
        if not client.lease_ns:
            return
        if fresh:
            self.last_renew_ns = now = client.sim.now
            self.lease_deadline = now + client.lease_ns
        if self.heartbeat is None or not self.heartbeat.is_alive:
            self.heartbeat = client.sim.spawn(
                self._heartbeat_loop(), name=f"{client.name}.heartbeat"
                + (f".s{self.shard}" if self.shard else ""))

    def _heartbeat_loop(self) -> Generator[Any, Any, None]:
        """Renew the lease at lease/3.  Reports piggyback shard 0's
        renewals for free, so its loop only issues a standalone ``renew``
        when no report went out recently (an idle client stays alive too);
        secondary shards lease us independently and see piggybacked
        renewals only for objects they own, so theirs renew on every tick.
        A crash ends the loop: its next renewal flushes (``FatalError``)."""
        client = self.client
        interval = max(1, client.lease_ns // 3)
        incarnation = client._incarnation
        while True:
            yield interval
            if (client._fenced or not client.lease_ns
                    or client._incarnation != incarnation):
                return
            if (self.shard == 0
                    and client.sim.now - self.last_renew_ns < interval):
                continue  # a piggybacked report renewed shard 0 recently
            yield from self.renew()
            if client._fenced:
                return

    def renew(self) -> Generator[Any, Any, None]:
        """One standalone renewal; failures are swallowed (the next tick
        tries again, and so does a failed re-attach: it must cost a tick,
        not the loop keeping the other shards' leases alive), a ``fenced``
        verdict fences the client — the epoch is retired everywhere.  A
        verdict about an epoch that a re-attach replaced while the renewal
        was out is dropped: it speaks for an incarnation this client no
        longer is."""
        client = self.client
        epoch = client.fence_epoch
        try:
            reply = yield from self.call(
                "renew", {"client": client.name, "epoch": epoch})
        except StaleTermError:
            # Our master was deposed: rotate / re-attach so renewals
            # reach the incumbent before the lease deadline does.
            yield from client._driver.auto_reattach_master(self.shard)
            return
        except RetryableError:
            return  # master down/recovering: keep trying until fenced
        if epoch != client.fence_epoch:
            return
        if reply.get("ok"):
            self.note_renewal(reply.get("lease_ns", client.lease_ns))
            return
        reason = reply.get("reason")
        if reason == "unknown":
            # A restarted master forgot us: re-adopt our identity there.
            yield from client._driver.auto_reattach_master(self.shard)
            return
        self.fence("heartbeat fenced", reason=reason)

    def note_renewal(self, lease_ns: int) -> None:
        """This shard renewed the lease (a ``renew`` or a piggybacked
        ``report`` verdict)."""
        client = self.client
        self.last_renew_ns = now = client.sim.now
        self.lease_deadline = now + (lease_ns or client.lease_ns)
        client.m_lease_renewals.add()

    def fence(self, message: str, **fields: Any) -> None:
        """This shard's verdict retired the client's epoch."""
        self.client._fenced = True
        self.client.m_fence_rejections.add()
        self._event("fence", message, **fields)

    def lapse_probe(self, op: str) -> Generator[Any, Any, None]:
        """Resolve a *locally* lapsed lease before the next attempt.

        The lapse is ambiguous: either the master was merely unreachable
        longer than one lease (an op parked in retry backoff outlasted the
        deadline — recoverable), or it expired us and retired our epoch
        (our locks are gone — terminal).  A zombie must not be silently
        re-attached under a fresh epoch mid-op, so one renewal
        (:meth:`renew`) lets the master's verdict pick the branch; only
        ``fenced`` raises the terminal :class:`FencedError`.
        """
        yield from self.renew()
        if self.client._fenced:
            raise FencedError(
                f"{op}: lease lapsed and the master fenced this epoch; "
                "reattach_master() to rejoin")


class GengarClient:
    """One application's handle on the pool.

    All public operations are *process helpers*: call them with
    ``yield from`` inside a simulation process.
    """

    def __init__(self, node: "Node", config: GengarConfig, name: str = ""):
        self.node = node
        self.sim = node.sim
        self.name = name or node.name
        self.config = config
        self._num_shards = config.num_master_shards
        #: One :class:`_MasterShard` per master shard, indexed by shard id.
        self._shards = tuple(_MasterShard(self, shard)
                             for shard in range(self._num_shards))
        self._conns: Dict[int, _ServerConn] = {}
        #: Lazily constructed transaction engine (see the ``txn`` property);
        #: stays None — zero cost — unless transactions are actually used.
        self._txn_manager = None
        #: Unique id assigned by the master at attach; tags write locks so
        #: abandoned ones are attributable and recoverable.  A restart
        #: presents it, so the master recovers the old incarnation.
        self.uid = 0
        #: Fencing epoch carried in every lock word this client installs.
        self.fence_epoch = 0
        #: Bumped by :meth:`restart`; an op begun under an older value is
        #: stale and fails with FencedError at its next attempt boundary.
        self._incarnation = 0
        #: Monotone per-client sequence for idempotency tokens: one req_id
        #: per *logical* gmalloc/gfree, reused verbatim across retries so
        #: the master can deduplicate an execute-then-crash replay.  It
        #: survives a restart: the master may still map an old token.
        self._req_seq = 0
        self.retry_policy = RetryPolicy.from_config(config)
        #: One record per completed re-attach: {"time_ns", "server_id",
        #: "lost"} — the durability audit trail (each lost staged write is
        #: reported in exactly one record).
        self.fault_log: list = []

        # Local scratch buffers for DMA sources/destinations.
        self._carver = DramCarver(node.dram)

        m = self.sim.metrics
        self.m_reads = m.counter("pool.reads")
        self.m_writes = m.counter("pool.writes")
        self.m_cache_hits = m.counter("pool.cache_hits")
        self.m_nvm_reads = m.counter("pool.nvm_reads")
        self.m_overlay_hits = m.counter("pool.overlay_hits")
        self.m_tag_misses = m.counter("pool.tag_misses")
        self.m_proxy_writes = m.counter("pool.proxy_writes")
        self.m_direct_writes = m.counter("pool.direct_writes")
        self.m_lookups = m.counter("pool.lookups")
        self.m_read_aheads = m.counter("pool.read_aheads")
        self.m_read_ahead_drops = m.counter("pool.read_ahead_drops")
        self.m_retries = m.counter("pool.retries")
        self.m_failovers = m.counter("pool.failovers")
        self.m_lost_writes = m.counter("pool.lost_staged_writes")
        self.m_ring_waits = m.counter("pool.ring_waits")
        self.m_ring_refreshes = m.counter("pool.ring_refreshes")
        self.m_deadline_misses = m.counter("pool.deadline_misses")
        self.m_lease_renewals = m.counter("pool.lease_renewals")
        self.m_fence_rejections = m.counter("pool.fence_rejections")
        self.m_master_failovers = m.counter("pool.master_failovers")
        self.m_lease_lapses = m.counter("pool.lease_lapses")
        self.m_stale_terms = m.counter("pool.stale_term_rejections")
        self.m_partition_suspected = m.counter("pool.partition_suspected")
        self.m_shard_redirects = m.counter("pool.shard_redirects")
        self.m_location_updates = m.counter("pool.location_updates")
        self.m_location_resyncs = m.counter("pool.location_resyncs")
        self.h_read = m.histogram("pool.read_latency")
        self.h_write = m.histogram("pool.write_latency")
        #: Per-doorbell batch sizes from gread_many — mean = effective
        #: read-pipelining depth, reported by the perf harness.
        self.h_read_batch = m.histogram("pool.read_batch")
        self._reads = ClientReads(self)
        self._driver = OpDriver(self)
        self._init_volatile()

    def _init_volatile(self) -> None:
        """Set every field a kill loses to its state before attach: the one
        list of what :meth:`restart` forgets."""
        self._attached = False
        self.locks = LockOps(self)
        for ms in self._shards:
            ms.reset()
        #: Client-side shard map (home server id -> owning shard), learned
        #: at attach and corrected lazily by "not my shard" redirects that
        #: carry a map epoch at least as new as the one cached here.
        self._shard_map: Dict[int, int] = {}
        self._shard_map_epoch = 0
        #: Round-robin cursor spreading gmallocs across shards.
        self._alloc_rr = 0
        #: req_id -> shard memo: every retry of one logical gmalloc must
        #: re-present its idempotency token to the SAME shard (or, after a
        #: redirect, to the shard that inherited the dedup entry).
        self._req_shards: Dict[int, int] = {}
        self._metas = MetaCache(self)
        self._access_counts: Dict[int, list] = {}  # gaddr -> [reads, writes]
        self._ops_since_report = 0
        self._report_inflight = False
        #: In-flight re-attach gates: concurrent failed ops coalesce onto a
        #: single handshake per server and per master shard.
        self._driver.server_gates, self._driver.master_gates = {}, {}
        # ---- lease / fencing state (all inert while lease_ns == 0) ------
        #: Lease duration granted by the master at attach; 0 = leases off.
        self.lease_ns = 0
        self._fenced = False
        #: Last successfully staged proxy write (server_id, gaddr, offset,
        #: data) — what a torn-write fault injection would re-stage halfway.
        self._last_staged: Optional[tuple] = None
        self._reads.scratch = Scratch(self.sim, SCRATCH_BYTES)
        # Fresh per-server state on the same wiring: an op begun before a
        # restart keeps the old objects and cannot skew the new rings.
        self._conns = {sid: _ServerConn(c.desc, c.lanes, c.rpc, self)
                       for sid, c in self._conns.items()}

    # ------------------------------------------------------------------
    @property
    def fenced(self) -> bool:
        """True once the master has fenced this client's epoch (its locks
        were recovered); every lock op raises FencedError until
        :meth:`reattach_master`."""
        return self._fenced

    @property
    def crashed(self) -> bool:
        return not self.node.endpoint.alive

    def _check_lease_fence(self, what: str, gaddr: Optional[int] = None,
                           shards: Iterable[int] = ()) -> None:
        """Lease fencing (the FaRM rule): a client whose lease has lapsed —
        or that the master already fenced — must not touch the pool.  Its
        locks may have been recovered and handed to a new holder; letting
        a zombie's RDMA WRITE (or its ``CAS(0 -> word)`` on a free lock
        word) race the new owner's critical section would corrupt exactly
        the data the lock protects.  Data verbs check per attempt, lock
        ops per acquire/release.  Each master shard leases the client on
        its own and recovers only its own objects' locks, so the leases
        tested are that of the shard owning ``gaddr`` (lock ops), else those
        of ``shards`` (data verbs: the shards of the objects or servers they
        touch); a lapse carries its shard as ``shard``.  Inert with leases
        off (``lease_ns == 0``), so the fault-free path pays nothing.
        """
        if not self.lease_ns:
            return
        fields = {} if gaddr is None else {"gaddr": hex(gaddr)}
        where = what if gaddr is None else f"{what} of {gaddr:#x}"
        if self._fenced:
            self.m_fence_rejections.add()
            rec = self.sim.spans
            if rec is not None:
                rec.event(self.name, "fence", f"{what} refused: epoch fenced",
                          **fields)
            raise FencedError(
                f"{where}: master fenced this epoch; "
                "reattach_master() to rejoin under a fresh epoch")
        if gaddr is not None:
            shards = (self._resolve_shard(gaddr),)
        now = self.sim.now
        for shard in shards:
            if now < self._shards[shard].lease_deadline:
                continue
            # The deadline lapsed *locally* but the master never said
            # "fenced" — typically the master was unreachable longer than
            # one lease (its own retry backoff can outlast the lease).
            # That is a retryable condition, not a terminal one: the
            # resilience engine re-attaches (fresh lease, same epoch) and
            # retries, instead of a zombie-style self-fence.
            self.m_fence_rejections.add()
            self.m_lease_lapses.add()
            rec = self.sim.spans
            if rec is not None:
                rec.event(self.name, "lease",
                          f"{what} parked: lease lapsed locally", **fields,
                          shard=shard)
            err = LeaseExpiredError(
                f"{where}: lease deadline lapsed locally; re-attach to "
                "renew before retrying")
            err.shard = shard
            raise err

    # ------------------------------------------------------------------
    # Wiring + attach (called by the deployment bootstrap)
    # ------------------------------------------------------------------
    def carve_dram(self, nbytes: int, label: str) -> int:
        """Reserve client DRAM for connection buffers (bootstrap helper)."""
        return self._carver.carve(nbytes, label)

    def add_server_conn(self, desc: ServerDescriptor,
                        lanes: Tuple["QueuePair", ...],
                        rpc: "RpcClient") -> None:
        self._conns[desc.server_id] = _ServerConn(desc, lanes, rpc, self)

    def add_master_conn(self, rpc: "RpcClient", shard: int = 0) -> None:
        """Register a master control connection (active or standby) for one
        shard.  The first one registered for a shard becomes that shard's
        active master; the rest are the rotation order
        :meth:`_MasterShard.rotate` walks on failover."""
        self._shards[shard].wire(rpc)

    def _learn_redirect(self, msg: str) -> tuple:
        """Parse a "not my shard" rejection and fold the ownership it
        reveals into the client-side shard map (newest map epoch wins).
        Returns ``(owner_shard, map_epoch)`` — both None/stale-safe."""
        m = _NOT_MY_SHARD_RE.search(msg)
        if m is None:
            return None, self._shard_map_epoch
        sid, owner, _asked, epoch = (int(g) for g in m.groups())
        if epoch >= self._shard_map_epoch:
            if self._server_shard(sid) != owner:
                # The new owner's log names the records it adopted, but
                # only to a cursor that predates the adoption: forget
                # their locations rather than rely on that.
                self._shard_map[sid] = owner
                self._metas.resync([sid])
            self._shard_map_epoch = epoch
        return owner, epoch

    def _resolve_shard(self, gaddr: int) -> int:
        """Which shard owns ``gaddr``'s home server, per the client-side
        shard map (default: server id mod shard count, the bootstrap
        layout, until a redirect teaches us better)."""
        return self._server_shard(server_of(gaddr))

    def _server_shard(self, sid: int) -> int:
        """Which shard owns server ``sid``, per the client-side shard map."""
        if self._num_shards <= 1:
            return 0
        return self._shard_map.get(sid, sid % self._num_shards)

    def attach(self) -> Generator[Any, Any, None]:
        """Join the pool: learn our uid, lease and servers from the master,
        set up proxy rings.  A client that already has a uid is restarting
        (:meth:`restart`): every shard is shown its old uid and epoch."""
        unwired = [ms.shard for ms in self._shards if ms.active_rpc is None]
        if unwired:
            raise FatalError(f"client not wired to master shards {unwired}")
        restart = ({"epoch": self.fence_epoch, "restart": True}
                   if self.uid else {})
        servers: list = []
        for shard in range(self._num_shards):
            # Shard 0 mints our uid; the other shards adopt the same
            # identity (and lease us).
            request = ({"client": self.name, "uid": self.uid,
                        "epoch": self.fence_epoch, **restart}
                       if shard or restart else {"client": self.name})
            info = yield from self._shards[shard].call("attach", request)
            self.uid = info["client_id"]
            self.fence_epoch = max(self.fence_epoch, info["epoch"])
            self.lease_ns = info["lease_ns"]
            self._metas.cursors[shard] = info["log"]
            # Each shard's reply lists only the servers it owns: the union
            # is the pool, and which shard answered IS the shard map.
            for desc in info["servers"]:
                self._shard_map[desc.server_id] = shard
            servers.extend(info["servers"])
        # Phase the allocation round-robin by our (master-issued,
        # sequential) uid: with every client starting its cursor at 0, the
        # fleet sweeps the shards in lockstep — each instant all allocs
        # converge on ONE shard and the others idle, which is
        # single-master queueing with extra steps.
        self._alloc_rr = self.uid
        for ms in self._shards:
            ms.start(fresh=True)

        if self._reads.mr is None:
            self._reads.mr = self.node.endpoint.register_mr(
                self.node.dram, self._carver.carve(SCRATCH_BYTES, "scratch"),
                SCRATCH_BYTES, access=AccessFlags.ALL,
                name=f"{self.name}.scratch")

        for desc in servers:
            conn = self._conns.get(desc.server_id)
            if conn is None:
                raise FatalError(
                    f"master lists server {desc.server_id} but no QP was wired"
                )
            if self.config.enable_proxy:
                conn.ring.install((yield from self._ring_handshake(conn)))
        self._attached = True

    def _ring_handshake(self, conn: _ServerConn) -> Generator[Any, Any, Any]:
        """Ask the server for a (fresh) proxy ring bound to our data QP."""
        return conn.rpc.call(
            "attach",
            {"client": self.name, "qp_num": conn.data_qp.remote.qp_num})

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def gmalloc(self, size: int) -> Generator[Any, Any, int]:
        """Allocate an object in the pool; returns its global address.

        Fresh objects read as zeros (calloc semantics): freed extents are
        scrubbed server-side before reuse, so no allocation can observe a
        previous object's bytes.
        """
        self._require_attached()
        req_id = self._next_req_id()
        if self._num_shards > 1:
            # Spread allocations round-robin across shards; the memo pins
            # every retry of this req_id to one shard so its dedup entry
            # is consulted where it lives.
            self._req_shards[req_id] = self._alloc_rr % self._num_shards
            self._alloc_rr += 1
        try:
            meta = yield from self._driver.resilient(
                "gmalloc", self._gmalloc_once, size, req_id)
        finally:
            self._req_shards.pop(req_id, None)
        return meta.gaddr

    def _next_req_id(self) -> int:
        """Mint an idempotency token: globally unique (uid is master-issued
        and survives re-attach), minted once per logical op, repeated
        verbatim on every retry of that op."""
        self._req_seq += 1
        return (self.uid << 32) | self._req_seq

    def _gmalloc_once(self, size: int, req_id: int = 0) -> Generator[Any, Any, ObjectMeta]:
        shard = self._req_shards.get(req_id, 0)
        try:
            meta = yield from self._shards[shard].call(
                "gmalloc", {"size": size, "client": self.name,
                            "req_id": req_id})
        except NotMyShard as exc:
            # A reshard moved the allocation's home mid-retry: chase the
            # dedup entry to the owning shard so the retry observes the
            # original outcome instead of double-allocating.
            if exc.owner_shard is not None:
                self._req_shards[req_id] = exc.owner_shard
            raise
        self._metas.store(meta)
        return meta

    def gfree(self, gaddr: int) -> Generator[Any, Any, None]:
        """Free a pool object.  Outstanding writes are synced first."""
        self._require_attached()
        sid = server_of(gaddr)
        if sid in self._conns and gaddr in self._conns[sid].ring.overlay:
            yield from self._driver.op("gsync", sid, history=False)
        yield from self._driver.resilient(
            "gfree", self._gfree_once, gaddr, self._next_req_id())
        self._metas.drop(gaddr)
        self._access_counts.pop(gaddr, None)

    def _gfree_once(self, gaddr: int,
                    req_id: int) -> Generator[Any, Any, None]:
        # Re-resolved per attempt: a redirect may have moved the shard.
        return self._shards[self._resolve_shard(gaddr)].call(
            "gfree", {"gaddr": gaddr, "req_id": req_id})

    def gread(self, gaddr: int, offset: int = 0,
              length: Optional[int] = None) -> Generator[Any, Any, bytes]:
        """Read ``length`` bytes of an object (defaults to the whole object).

        Applies the client's :class:`RetryPolicy`: retryable failures (dead
        server, torn-down ring) are retried with backoff up to
        ``max_attempts``, re-attaching first where the failure needs it; a
        deadline turns an unbounded stall into :class:`DeadlineExceededError`.
        """
        return self._driver.op("gread", gaddr, offset, length)

    def gwrite(self, gaddr: int, data: bytes, offset: int = 0) -> Generator[Any, Any, None]:
        """Write ``data`` into an object at ``offset``.

        Retries per the client's :class:`RetryPolicy`.  With the proxy on,
        every write is staged in the home server's ring
        (:meth:`ClientRing.stage`).
        """
        return self._driver.op("gwrite", gaddr, data, offset)

    def _gwrite_attempt(self, span_op: int, gaddr: int, data: bytes,
                        offset: int) -> Generator[Any, Any, None]:
        if not data:
            raise FatalError("empty write")
        metas = self._metas
        meta = metas.get(gaddr)
        if meta is None:
            meta = yield from metas.lookup(gaddr, span_op=span_op)
        check_bounds(meta, offset, len(data))
        yield from self.node.cpu_work()

        conn = self._conns[meta.server_id]
        if self.config.enable_proxy:
            yield from conn.ring.stage(gaddr, offset, data, span_op)
            self.m_proxy_writes.add(len(data))
        else:
            yield from self._direct_write(conn, gaddr, meta, offset, data,
                                          span_op=span_op)
            self.m_direct_writes.add(len(data))
        self._note_access(gaddr, read=False)

    def gsync(self, server_id: Optional[int] = None) -> Generator[Any, Any, None]:
        """Block until outstanding proxy writes have drained to NVM.

        With ``server_id=None``, syncs every server.  Retries per the
        client's :class:`RetryPolicy` (a crash mid-sync surfaces as
        :class:`ServerUnavailableError`; after an auto re-attach the lost
        staged writes are recorded in :attr:`fault_log` and the sync
        trivially completes).
        """
        return self._driver.op("gsync", server_id)

    def _gsync_attempt(self, span_op: int,
                       server_id: Optional[int]) -> Generator[Any, Any, None]:
        targets = [server_id] if server_id is not None else sorted(self._conns)
        for sid in targets:
            ring = self._conns[sid].ring
            if ring.desc is None:
                # Mid-reattach (or ring torn down): sync cannot vouch for
                # writes still staged toward this server — the wait fails
                # typed rather than return a hollow success.
                if not ring.undrained():
                    continue
            elif ring.written <= ring.drained_known:
                if ring.pruned < ring.drained_known:
                    ring.prune()
                continue
            rec = self.sim.spans
            t0 = self.sim.now if rec is not None else 0
            yield from ring.await_drained(0)
            if rec is not None:
                rec.record(self.name, "phase.drain_wait", t0, op=span_op,
                           server=sid)

    def reattach_server(self, server_id: int) -> Generator[Any, Any, list]:
        """Re-establish state with a recovered server.

        Returns the global addresses of this client's writes that were still
        staged in the (lost) proxy ring and not known drained — the data
        that did NOT survive the crash.  Applications decide whether to
        replay them.

        The session bookkeeping (lost-write report, counters, epoch bump)
        happens only *after* the ring handshake succeeds, in one atomic
        (yield-free) step — a failed re-attach against a still-dead server
        leaves the session state untouched, so the eventual successful
        re-attach reports each lost write exactly once.  Ops that fail while
        it runs wait on its gate rather than start their own.
        """
        return (yield from self._driver.gated(
            self._driver.server_gates, server_id,
            f"{self.name}.reattach{server_id}", self._reattach_server))

    def _reattach_server(self, server_id: int) -> Generator[Any, Any, list]:
        """:meth:`reattach_server`'s body, run by whoever holds the gate."""
        self._require_attached()
        conn = self._conns[server_id]
        ring = conn.ring
        desc = None
        if self.config.enable_proxy:
            prev = ring.desc
            # Writers must not stage into the old (torn-down) ring while the
            # handshake is in flight: they fail typed and wait on its gate.
            ring.desc = None
            try:
                desc = yield from self._ring_handshake(conn)
            except BaseException:
                ring.desc = prev
                raise
        lost = ring.install(desc)
        # Location metadata for that server's objects is stale (the DRAM
        # cache is empty now); bump the server epoch so every cached entry
        # for it reads as a miss and is re-learned lazily — O(1) instead of
        # scanning the whole metadata cache.
        self._metas.devalue([server_id])
        return lost

    def reattach_master(self, shard: int = 0) -> Generator[Any, Any, None]:
        """Re-join a restarted (or fencing) master shard.

        Presents the old uid so the master re-adopts this identity instead
        of minting a new one — cached metadata, lock attribution, and the
        journal-rebuilt directory all keep working.  Adopts whatever epoch
        the master grants (bumped past ours if we were fenced), clears the
        fenced flag, and restarts the heartbeat.  Proxy rings are NOT
        re-established here; the StaleRingError machinery heals those
        lazily per server.
        """
        self._require_attached()
        info = yield from self._shards[shard].call(
            "attach",
            {"client": self.name, "uid": self.uid, "epoch": self.fence_epoch})
        # The location cursor stays: a restarted master's log is a new
        # incarnation, so the next report to it resyncs.
        self.uid = info["client_id"]
        self.fence_epoch = info.get("epoch", self.fence_epoch)
        self.lease_ns = info.get("lease_ns", self.lease_ns)
        self._fenced = False
        # A fresh lease on this shard; a fence ended every shard's loop.
        for ms in self._shards:
            ms.start(fresh=ms.shard == shard)

    # ------------------------------------------------------------------
    # Kill / restart (driven by the fault injector)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill this client: its endpoint dies, so every WR it posts from
        now on flushes unsent (a request already on the wire still lands).
        Heartbeats cease, so its lease lapses and the master recovers its
        locks/pins/rings; application processes built on this client fail
        at their next verb, which flushes.  Only :meth:`restart` brings it
        back, as a new incarnation."""
        endpoint = self.node.endpoint
        if not endpoint.alive:
            return
        endpoint.alive = False
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.name, "fault", "client crashed")

    def restart(self) -> Generator[Any, Any, None]:
        """Bring a killed client back as a new incarnation: nothing
        volatile survives (:meth:`_init_volatile`), and each master shard
        recovers the old incarnation (intents, locks, pins, rings) before
        it grants the new one an epoch.  An op begun before the restart
        fails with :class:`FencedError` at its next attempt boundary."""
        self.node.endpoint.alive = True
        self._incarnation += 1
        self._init_volatile()
        rec = self.sim.spans
        if rec is not None:
            rec.event(self.name, "fault", "client restarted",
                      incarnation=self._incarnation)
        yield from self.attach()

    # Batched operations --------------------------------------------------
    def gread_many(self, gaddrs) -> Generator[Any, Any, list]:
        """Read many whole objects with true doorbell batching; results in
        argument order.

        Reads are grouped by home server; each group's RDMA READs (DRAM
        cache or NVM, per object) are dealt round-robin across the server's
        read lanes and posted with one
        :meth:`~repro.rdma.qp.QueuePair.post_send_many` doorbell per lane, and
        completions are consumed *out of order* as they arrive — a finished
        read is processed (and its scratch span recycled) while
        earlier-posted reads are still in flight.  Adjacent NVM reads in a
        doorbell are additionally tagged for server-side read combining.
        A stale cache tag is repaired inside the batch: the item re-reads
        its NVM home while its ``lookup`` runs, and stands once that returns.

        Items the batched path cannot serve — overlay partial overlaps,
        objects larger than one transfer, failed lookups, repairs whose
        lookup names another size, failed completions — fall back to serial
        :meth:`gread` (which retries per the :class:`RetryPolicy`); the
        first failure, in argument order, propagates.  Both verbs read by
        one rule (:class:`~repro.core.reads.ClientReads`).
        """
        return self._driver.op("gread_many", list(gaddrs))

    # Lock API (delegates to the consistency layer) ----------------------
    def glock(self, gaddr: int, write: bool = True) -> Generator[Any, Any, None]:
        """Acquire the object's lock (exclusive by default, shared if not)."""
        return self._driver.op("glock", gaddr, write)

    def _glock_attempt(self, span_op: int, gaddr: int,
                       write: bool) -> Generator[Any, Any, None]:
        return self.locks.acquire(gaddr, write, span_op=span_op)

    def gunlock(self, gaddr: int, write: bool = True) -> Generator[Any, Any, None]:
        """Release the object's lock.  Write unlocks sync first."""
        return self._driver.op("gunlock", gaddr, write)

    def _gunlock_attempt(self, span_op: int, gaddr: int,
                         write: bool) -> Generator[Any, Any, None]:
        if write:
            return self.locks.release_write(gaddr, span_op=span_op)
        return self.locks.release_read(gaddr, span_op=span_op)

    # Transactions (delegates to repro.txn) ------------------------------
    @property
    def txn(self):
        """This client's :class:`~repro.txn.TxnManager`, constructed on
        first use.  Every pool can run transactions: each server carves its
        intent region and stamp table at start."""
        if self._txn_manager is None:
            from repro.txn import TxnManager

            self._txn_manager = TxnManager(self)
        return self._txn_manager

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def _require_attached(self) -> None:
        if not self._attached:
            raise FatalError(f"client {self.name} is not attached; run attach() first")

    # ------------------------------------------------------------------
    # Write paths
    # ------------------------------------------------------------------
    def _direct_write(self, conn: _ServerConn, gaddr: int, meta: ObjectMeta,
                      offset: int, data: bytes,
                      span_op: int = 0) -> Generator[Any, Any, None]:
        rec = self.sim.spans
        t0 = self.sim.now if rec is not None else 0
        yield from self._rdma_write(
            conn, conn.desc.data_rkey, meta.nvm_offset + offset, data
        )
        if self.config.enable_cache and meta.cached:
            fresh = yield from self._verified_cache_write(conn, gaddr, meta, offset, data)
            if not fresh:
                self._metas.drop(gaddr)
        if rec is not None:
            rec.record(self.name, "phase.direct_write", t0, op=span_op,
                       bytes=len(data))

    def _verified_cache_write(self, conn: _ServerConn, gaddr: int, meta: ObjectMeta,
                              offset: int, data: bytes) -> Generator[Any, Any, bool]:
        """Update the DRAM copy of a cached object, verifying the tag first.

        Without the proxy this costs an extra round trip per write — the
        coherence tax the proxy design eliminates (drains update the cache
        server-side for free).
        """
        raw = yield from self._reads.read(
            conn, conn.desc.cache_rkey, meta.cache_offset, CACHE_TAG_BYTES
        )
        if not tag_matches(raw, gaddr):
            self.m_tag_misses.add()
            return False
        yield from self._rdma_write(
            conn, conn.desc.cache_rkey,
            meta.cache_offset + CACHE_TAG_BYTES + offset, data,
        )
        return True

    # ------------------------------------------------------------------
    # Raw verb helpers
    # ------------------------------------------------------------------
    def _rdma_write(self, conn: _ServerConn, rkey: int, remote_offset: int,
                    data: bytes) -> Generator[Any, Any, None]:
        if len(data) > MAX_TRANSFER:
            pos = 0
            while pos < len(data):
                chunk = data[pos : pos + MAX_TRANSFER]
                yield from self._rdma_write(conn, rkey, remote_offset + pos, chunk)
                pos += len(chunk)
            return
        wr = WorkRequest(
            opcode=Opcode.RDMA_WRITE, remote_rkey=rkey,
            remote_offset=remote_offset, length=len(data),
        )
        if self.node.nic.is_inline(len(data)):
            wr.inline_data = data
            wc = yield conn.data_qp.post_send(wr)
        else:
            scratch, mr = self._reads.scratch, self._reads.mr
            scratch_off = scratch.try_alloc(len(data))
            if scratch_off is None:
                scratch_off = yield scratch.wait(len(data))
            try:
                mr.poke(scratch_off, data)
                wr.local_mr = mr
                wr.local_offset = scratch_off
                wc = yield conn.data_qp.post_send(wr)
            finally:
                scratch.free(scratch_off, len(data))
        if not wc.ok:
            raise wc_error(wc, "RDMA write", conn)

    def _atomic_cas(self, server_id: int, lock_offset: int, compare: int,
                    swap: int) -> Generator[Any, Any, int]:
        conn = self._conns[server_id]
        wc = yield conn.data_qp.post_send(WorkRequest(
            opcode=Opcode.ATOMIC_CAS,
            remote_rkey=conn.desc.lock_rkey, remote_offset=lock_offset,
            compare=compare, swap=swap,
        ))
        if not wc.ok:
            raise wc_error(wc, "atomic CAS", conn)
        return wc.atomic_value

    def _atomic_faa(self, server_id: int, lock_offset: int,
                    add: int) -> Generator[Any, Any, int]:
        conn = self._conns[server_id]
        wc = yield conn.data_qp.post_send(WorkRequest(
            opcode=Opcode.ATOMIC_FAA,
            remote_rkey=conn.desc.lock_rkey, remote_offset=lock_offset,
            add=add,
        ))
        if not wc.ok:
            raise wc_error(wc, "atomic FAA", conn)
        return wc.atomic_value

    # ------------------------------------------------------------------
    # Hotness reporting (the RDMA-semantics harvest)
    # ------------------------------------------------------------------
    def _note_access(self, gaddr: int, read: bool) -> None:
        counts = self._access_counts.get(gaddr)
        if counts is None:
            counts = [0, 0]
            self._access_counts[gaddr] = counts
        counts[0 if read else 1] += 1
        self._ops_since_report += 1
        if (self._ops_since_report >= self.config.report_every_ops
                and not self._report_inflight):
            self._report_inflight = True
            self.sim.spawn(self._send_report(), name=f"{self.name}.report")

    def _by_shard(self, entries: list) -> Dict[int, list]:
        """Split report entries (gaddr first) along the shard
        map: each shard scores only the objects it owns, so the batch
        becomes one RPC per shard with entries."""
        if self._num_shards <= 1:
            return {0: entries}
        groups: Dict[int, list] = {}
        for entry in entries:
            groups.setdefault(self._resolve_shard(entry[0]), []).append(entry)
        return groups

    def _send_report(self) -> Generator[Any, Any, None]:
        """Send the access counts, one ``report`` per shard, and apply the
        location changes each reply brings (PROTOCOLS §3.5)."""
        entries = [(gaddr, reads, writes)
                   for gaddr, (reads, writes) in self._access_counts.items()]
        self._access_counts.clear()
        self._ops_since_report = 0
        piggyback = bool(self.lease_ns and not self._fenced)
        try:
            for shard, group in self._by_shard(entries).items():
                ms = self._shards[shard]
                request: Dict[str, Any] = {"entries": group,
                                           "cursor": self._metas.cursors[shard]}
                if piggyback:
                    # Every report doubles as a lease heartbeat for free.
                    request["client"] = self.name
                    request["epoch"] = self.fence_epoch
                try:
                    reply = yield from ms.call("report", request)
                except (MasterUnavailableError, NotMyShard, FatalError):
                    continue  # hotness reports are advisory; drop on the floor
                if piggyback:
                    verdict = reply["lease"]
                    if verdict == "ok":
                        ms.note_renewal(self.lease_ns)
                    elif verdict == "fenced":
                        ms.fence("report fenced")
                self._metas.apply(shard, reply)
        finally:
            self._report_inflight = False
