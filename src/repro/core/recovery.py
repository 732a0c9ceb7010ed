"""A master shard's client leases with their phi-accrual failure detector,
and its recovery of dead clients: one fence and one pass over their
intents, rings and lock words (PROTOCOLS §8.2, §10.3)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, Iterable, List

from repro.core.addressing import server_of
from repro.core.errors import MasterError
from repro.core.directory import entry as journal_entry
from repro.core.protocol import JOURNAL_OP_FENCE
from repro.rdma.rpc import DEFAULT_BUFFER_SIZE, RpcError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.master import Master

#: Most lock indices one ``recover_dead`` carries: an index pickles to at
#: most 5 bytes and a cleared ``(lock_idx, owner)`` reply pair to at most 13,
#: so a full batch and its reply leave half the RPC buffer to the filter.
_RECOVER_MAX_LOCKS = DEFAULT_BUFFER_SIZE // 32
#: Phi-accrual failure detection (``failure_detector``): the suspicion level
#: (base 10) at which a suspected client is declared dead and fenced — phi
#: == k means "if heartbeats kept their observed cadence, the chance they
#: are merely late is 10^-k" — and the heartbeat inter-arrival samples kept
#: per client for the estimate.
PHI_THRESHOLD = 8.0
PHI_WINDOW = 16


def _fragments(intents: list) -> Dict[int, list]:
    """Cut each scanned ``(coordinator, record)`` intent's write-set by
    home server: server id -> one ``writes`` fragment per intent, each to
    ride one ``recover_dead`` (PROTOCOLS §8.2 says why it fits)."""
    fragments: Dict[int, list] = {}
    for _, record in intents:
        by_server: Dict[int, list] = {}
        for entry in record["writes"]:
            by_server.setdefault(server_of(entry[0]), []).append(entry)
        for sid, writes in by_server.items():
            fragments.setdefault(sid, []).append(writes)
    return fragments


class Leases:
    """One master incarnation's leases (none unless ``client_lease_ns``)
    and heartbeat history; the only code that writes them.  A restart
    replaces the object."""

    __slots__ = ("master", "expiry", "hb_last", "hb_intervals", "suspected")

    def __init__(self, master: "Master"):
        self.master = master
        #: client name -> absolute lease expiry time.
        self.expiry: Dict[str, int] = {}
        #: Phi-accrual state (inert unless ``config.failure_detector``):
        #: last heartbeat receipt and the recent inter-arrival window, per
        #: client, plus who is currently suspected (lease lapsed but
        #: cadence says "late, not dead").
        self.hb_last: Dict[str, int] = {}
        self.hb_intervals: Dict[str, List[int]] = {}
        self.suspected: set = set()

    def grant(self, name: str) -> None:
        """A fresh lease, at an attach or a renewal.  Each is a heartbeat:
        without the attach's, a client that loses the master right after
        attaching has no arrival history, phi comes back infinite, and the
        very first lapsed sweep fences it — the spurious revocation the
        detector exists to prevent."""
        config = self.master.config
        self.expiry[name] = self.master.sim.now + config.client_lease_ns
        if config.failure_detector:
            self.heard(name)

    def renew(self, name: str, epoch: int) -> str:
        """The verdict on a report's or a renew's lease at ``epoch``:
        ``ok`` (renewed) | ``fenced`` (we retired this epoch; counted) |
        ``unknown`` (we have never heard of this client — typically a
        restarted master — or lost its epoch, so it must re-attach)."""
        m = self.master
        if name not in m._client_uids:
            return "unknown"
        current = m._epochs.get(m._client_uids[name], 0)
        if current > epoch:
            m.fence_rejections.add()
            return "fenced"
        if current < epoch:
            return "unknown"  # we restarted and lost the epoch; re-attach
        if m.config.client_lease_ns:
            self.grant(name)
            m.lease_renewals.add()
        return "ok"

    def forget(self, names: Iterable[str]) -> None:
        """Fenced clients hold no lease and are suspected no more."""
        for name in names:
            self.expiry.pop(name, None)
            self.suspected.discard(name)

    def lapsed(self, name: str) -> bool:
        """Whether ``name`` is to be fenced now.

        Re-checks the deadline at processing time, not snapshot time: the
        sweeper yields inside each earlier client's recovery RPCs, and a
        client that renewed or re-attached in that window holds a fresh
        lease at the SAME epoch — fencing it would clear locks it
        legitimately holds and hand them to a second writer.  With the
        failure detector a lapsed deadline alone is not death: while the
        accrued suspicion stays under the threshold the client is only
        *suspected* (heartbeats were flowing at a cadence that makes "late"
        more plausible than "dead"); its lease entry stays so every sweep
        re-evaluates it.
        """
        m = self.master
        expiry = self.expiry.get(name)
        if expiry is None or expiry > m.sim.now:
            return False  # renewed / re-attached while the sweep was in flight
        if m.config.failure_detector:
            phi = self.phi(name)
            if phi < PHI_THRESHOLD:
                if name not in self.suspected:
                    self.suspected.add(name)
                    m.suspected_clients.add()
                    m._event("partition", "client suspected", client=name,
                             phi=round(phi, 2))
                return False
            self.suspected.discard(name)
        return True

    def heard(self, name: str) -> None:
        """Feed one heartbeat receipt into the inter-arrival estimator."""
        now = self.master.sim.now
        last = self.hb_last.get(name)
        if last is not None and now > last:
            window = self.hb_intervals.setdefault(name, [])
            window.append(now - last)
            if len(window) > PHI_WINDOW:
                del window[0]
        self.hb_last[name] = now
        if name in self.suspected:
            self.suspected.discard(name)
            self.master._event("partition", "suspected client heard again",
                               client=name)

    def phi(self, name: str) -> float:
        """Suspicion level for ``name``: how implausibly late is its next
        heartbeat, given the cadence we actually observed?

        Exponential-tail approximation of phi-accrual: with mean observed
        inter-arrival m and silence t, P(still alive) ~ exp(-t/m), so
        phi = t / (m * ln 10).  Flapping links inflate m, which keeps phi
        low through the next flap — exactly the spurious-revocation
        damping the detector exists for.
        """
        last = self.hb_last.get(name)
        if last is None:
            return float("inf")  # never heard a heartbeat at all
        window = self.hb_intervals.get(name, [])
        if len(window) >= 2:
            mean = sum(window) / len(window)
        else:
            mean = float(self.master.config.client_lease_ns)
        elapsed = self.master.sim.now - last
        return elapsed / (mean * 2.302585092994046)


class Recovery:
    """How one master shard declares clients dead: every path fences
    through :meth:`_fence_and_recover`, and it alone runs the pass."""

    __slots__ = ("master", "sweeping")

    def __init__(self, master: "Master"):
        self.master = master
        self.sweeping = False

    def start_sweeper(self) -> None:
        if not self.sweeping:
            self.sweeping = True
            m = self.master
            m.sim.spawn(self._lease_sweeper_loop(), name=f"{m.node.name}.leases")

    def _lease_sweeper_loop(self) -> Generator[Any, Any, None]:
        m = self.master
        check = max(1, m.config.client_lease_ns // 4)
        validated_ns = m.sim.now
        while True:
            yield check
            # A dead master detects nothing: its clock is "stopped".  Its
            # sends would flush, but expiring a lease or suspecting a client
            # first bumps ``lease_expiries`` / ``suspected_clients``, which
            # recover() does not reset.
            if not m.node.endpoint.alive or m._recovering or m.journal.deposed:
                continue
            now = m.sim.now
            if (m.config.metadata_journal and m._servers
                    and now - validated_ns >= m.config.client_lease_ns):
                # Periodic authority re-validation against the journal (the
                # master-lease-on-shared-storage pattern).  Without it a
                # healed stale master whose clients happen to still
                # heartbeat *it* would keep granting leases at its old term
                # forever — neither side ever hears about the successor,
                # because only the journal knows.  Rejection deposes us;
                # every later reply then bounces clients to the incumbent.
                validated_ns = now
                try:
                    yield from m.journal.validate()
                except MasterError:
                    continue  # deposed: _check_serving refuses from now on
            expired = sorted(n for n, exp in m.leases.expiry.items() if exp <= now)
            for name in expired:
                yield from self._expire_lease(name)

    def _expire_lease(self, name: str) -> Generator[Any, Any, None]:
        m = self.master
        if not m.leases.lapsed(name):
            return
        if m.config.metadata_journal and m._servers:
            # Authority check before the irreversible part: lock recovery
            # CAS-clears lock words directly, so unlike allocations it is
            # not naturally fenced by the journal write path.  A deposed
            # master behind a healed partition would otherwise "expire"
            # every client it stopped hearing from and clear locks the
            # incumbent's clients legitimately hold.  Appending a no-op
            # TERM record at our own term makes the servers adjudicate:
            # rejection means a successor claimed a higher term — stand
            # down instead of fencing.
            try:
                confirmed = yield from m.journal.validate()
            except MasterError:
                m._event("term", "lease fence aborted: deposed", client=name,
                         term=m.journal.term)
                return
            if not confirmed:
                return  # journal unreachable: no authority to fence now
        m.lease_expiries.add()
        m._event("lease", "lease expired", client=name)
        yield from m.evict_client(name)

    def _fence_and_recover(self, held: Dict[int, int],
                           names: List[str]) -> Generator[Any, Any, int]:
        """Declare clients dead: ``held`` maps each dead uid to the highest
        epoch seen in its words and intents, ``names`` are its clients'
        names.  Their leases, suspicion and pins go; each uid's epoch is
        bumped past ours and the one seen (first, before any yield, so a
        zombie's renew is refused and its re-attach gets the fresh epoch)
        and journaled; then :meth:`_recover_dead` runs.  Returns the number
        of locks recovered."""
        m = self.master
        m.leases.forget(names)
        owners = {uid: max(m._epochs.get(uid, 0), seen)
                  for uid, seen in held.items()}
        journaled = None
        if not m.config.client_lease_ns:
            owners = dict.fromkeys(owners)  # no epochs: any word is dead
        else:
            m._epochs.update((uid, epoch + 1) for uid, epoch in owners.items())
            if m.config.metadata_journal:
                # Durability before destruction: the retirement is durable
                # before the pass changes anything (it only scans while the
                # append is in flight), so a master that dies mid-sweep (and
                # rebuilds with a blank epoch map) still refuses to re-grant
                # the epoch whose locks it was recovering.
                journaled = m.sim.spawn(self._journal_fences(owners))
        cleared = yield from self._recover_dead({"owners": owners,
                                                 "clients": names}, journaled)
        for record in list(m.directory.objects()):
            if record.pinned and record.pinned_by in names:
                record.pinned = False
                record.pinned_by = None
                yield from m.planner.demote(record.gaddr)
        m._event("lease", "clients fenced", clients=names, uids=sorted(owners),
                 locks_recovered=cleared)
        return cleared

    def _recover_dead(self, dead: dict,
                      journaled=None) -> Generator[Any, Any, int]:
        """The one recovery pass, run by :meth:`_fence_and_recover` for a
        lease expiry, a restart's eviction and the orphan sweep alike.

        ``dead`` is the filter ``txn_intent_scan`` and the servers'
        ``recover_dead`` take: ``owners`` (dead uid -> the epoch it is
        fenced at, None with leases off) and ``clients``, the dead clients'
        names.  ``journaled``, when given, is the fence's journal append:
        it is awaited after the scan, before the first load.

        Step 1 scans every server for the dead set's intents (a dead
        client's coordinator may belong to another shard than its
        write-set) and sends each home of a committed fragment one
        ``recover_dead`` per fragment (the server retires the dead rings,
        waits for their drain loops to exit and applies it); step 2 clears
        each intent whose every home answered; only then does step 3 send
        each owned server the lock indices of this shard's objects on it,
        skipping those of an intent left durable: the later sweep that
        re-applies it frees them (PROTOCOLS §8.2, §10.3).  Returns the
        number of words cleared.
        """
        m = self.master
        rec = m.sim.spans
        t0 = m.sim.now if rec is not None else 0
        intents = yield from self._scan_intents(m._all_servers, dead)
        if journaled is not None:
            yield journaled
        _, applied = yield from self._send_loads({
            sid: [dict(dead, writes=writes) for writes in fragments]
            for sid, fragments in _fragments(intents).items()})
        held = yield from self._clear_intents(intents, applied, t0)
        unlocks, _ = yield from self._send_loads(self._lock_loads(dead, held))
        cleared = sum(len(reply["cleared"]) for _, reply in unlocks)
        m.lock_recoveries.add(cleared)
        return cleared

    def _scan_intents(self, sids, dead: dict) -> Generator[Any, Any, list]:
        """``(sid, record)`` of each durable intent of the ``dead`` filter
        on the servers ``sids``."""
        intents = []
        for sid in sorted(sids):
            try:
                records = yield from self.master._all_servers[sid].rpc.call(
                    "txn_intent_scan", dead)
            except RpcError:
                continue  # coordinator down: its intents wait for it
            intents += [(sid, record) for record in records]
        return intents

    def _lock_loads(self, dead: dict, held=()) -> Dict[int, list]:
        """Beside the ``dead`` filter, each owned server's lock indices of
        this shard's objects not in ``held``, ``_RECOVER_MAX_LOCKS`` a load
        (one load even with none, which still retires the rings there)."""
        loads = {}
        for sid in self.master._servers:
            got = sorted(r.lock_idx for r in self.master.directory.on_server(sid)
                         if r.gaddr not in held)
            loads[sid] = [dict(dead, lock_idxs=got[at:at + _RECOVER_MAX_LOCKS])
                          for at in range(0, max(len(got), 1),
                                          _RECOVER_MAX_LOCKS)]
        return loads

    def _send_loads(self, loads: Dict[int, list]) -> Generator[Any, Any, tuple]:
        """Send each server its ``recover_dead`` loads in order: the ``(sid,
        reply)`` of every answered load, and the servers that answered all."""
        replies, answered = [], set()
        for sid in sorted(loads):
            try:
                for load in loads[sid]:
                    reply = yield from self.master._all_servers[sid].rpc.call(
                        "recover_dead", load)
                    replies.append((sid, reply))
            except RpcError:
                continue  # dead server: its lock table and rings died too
            answered.add(sid)
        return replies, answered

    def _clear_intents(self, intents: list, applied: set,
                       t0: int) -> Generator[Any, Any, set]:
        """Step 2 of :meth:`_recover_dead` (begun at ``t0``): clear each
        intent whose every home ``applied`` its fragment; return the
        objects of those left durable."""
        m = self.master
        held = set()
        rolled = 0
        for coordinator, record in intents:
            gaddrs = {g for g, _, _ in record["writes"]}
            landed = {server_of(g) for g in gaddrs} <= applied
            if landed:
                try:
                    yield from m._all_servers[coordinator].rpc.call(
                        "txn_intent_clear", {"txn": record["txn"]})
                except RpcError:
                    landed = False
            if not landed:
                held |= gaddrs
                continue
            rolled += 1
            m.txn_rolled_forward.add()
            m._event("txn", "rolled forward", txn=record["txn"],
                     owner=record["owner"], writes=len(record["writes"]))
        rec = m.sim.spans
        if rec is not None:
            rec.record(m.node.name, "txn.recover", t0, rolled_forward=rolled)
        return held

    def _journal_fences(self, retired: Dict[int, int]) -> Generator[Any, Any, None]:
        """Journal each uid's new floor, one above its ``retired`` epoch, on
        the first reachable server (rebuild scans every journal; with none
        reachable the fence proceeds un-journaled).  A deposed master's
        append raises :class:`MasterError`: no authority to keep fencing."""
        m = self.master
        for uid in sorted(retired):
            for sid in sorted(m._servers):
                try:
                    yield from m.journal.call(
                        m._servers[sid], "journal_append",
                        journal_entry(JOURNAL_OP_FENCE, uid, retired[uid] + 1))
                    break
                except RpcError:
                    continue  # server (or its journal) down: try the next one

    def _orphan_lock_sweep(self) -> Generator[Any, Any, None]:
        """Post-failover grace sweep (the restarted master lost all leases):
        after one lease interval, every holder on this shard's servers that
        did not re-attach belongs to a client that died with the old
        master, and is fenced as a lease expiry fences one.  Live clients
        re-attach within a heartbeat (lease/3), so they keep their locks
        and rings."""
        m = self.master
        yield m.config.client_lease_ns
        if m._recovering:
            return
        wake = m.sim.now
        if m.config.failure_detector:
            # Partition-aware failover: a client absent after one lease may
            # be dead — or merely on the wrong side of a partition that
            # outlived the old master.  Retiring its rings now would greet
            # it with StaleRingError the moment the fabric heals, so the
            # absentees are only *suspected* for one extra grace lease;
            # whoever re-attaches during it keeps its rings and locks.
            wake += m.config.client_lease_ns
            m._event("partition",
                     "orphan sweep deferred: absent clients suspected",
                     reattached=sorted(m._client_uids))
        # The holders, learned now that a client absent for a lease has
        # lapsed and takes nothing more until it re-attaches: every durable
        # intent's owner and epoch, and every write-locked word's, with the
        # servers' ring names (a bare ``recover_dead`` clears nothing).
        intents = yield from self._scan_intents(m._servers, {})
        held = [(record["owner"], record["epoch"]) for _, record in intents]
        rings = set()
        replies, _ = yield from self._send_loads(
            self._lock_loads({"owners": {}, "clients": []}))
        for _, reply in replies:
            held += reply["holders"][0]
            rings.update(reply["holders"][1])
        if m.sim.now < wake:
            yield wake - m.sim.now
        # Re-check after the last yield, as _expire_lease does: whoever
        # re-attached is alive; a later re-attach gets the bumped epoch.
        if m._recovering:
            return
        live = set(m._client_uids.values())
        dead = {uid: epoch for uid, epoch in sorted(held) if uid not in live}
        names = sorted(rings.difference(m._client_uids))
        if dead or names:
            try:
                yield from self._fence_and_recover(dead, names)
            except MasterError:
                return  # deposed mid-sweep: no authority to keep fencing
