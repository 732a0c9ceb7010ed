"""Declarative fault plans.

A :class:`FaultPlan` is an immutable description of *what goes wrong when*,
in virtual time, expressed with small frozen dataclasses.  Plans are pure
data: they can be built before a run, shifted to line up with a workload
phase (:meth:`FaultPlan.shifted`), embedded in test parametrizations, and
compared for equality.  The :class:`~repro.faults.injector.FaultInjector`
executes them.

Two families of faults:

* **Timed actions** fire once at an instant: :class:`ServerCrash`,
  :class:`ServerRecover`, :class:`RingStall`, :class:`MasterCrash`,
  :class:`MasterRecover`, :class:`ClientCrash`, :class:`ClientRecover`.
* **Link windows** shape the fabric over an interval: :class:`LossyLink`,
  :class:`LatencySpike`, :class:`LinkFlap`, :class:`Partition`.

All times are absolute virtual nanoseconds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple, Union


class FaultPlanError(ValueError):
    """An ill-formed fault plan (bad times, probabilities, or groups)."""


# ----------------------------------------------------------------------
# Timed actions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServerCrash:
    """Power-cycle a memory server at ``at_ns``: DRAM state (cache, proxy
    rings, lock table) is lost; NVM survives."""

    at_ns: int
    server_id: int


@dataclass(frozen=True)
class ServerRecover:
    """Restart a crashed server at ``at_ns``.  With ``reconcile=True`` the
    master's directory is reconciled in the same instant (the production
    recovery sequence); disable it to test clients racing a stale
    directory."""

    at_ns: int
    server_id: int
    reconcile: bool = True


@dataclass(frozen=True)
class MasterCrash:
    """Kill one metadata master at ``at_ns``: volatile state (directory,
    hotness scores, leases, client table) is lost; the NVM metadata journal
    on the servers survives.  ``shard`` picks which master on a sharded
    control plane (0, the default, is the only master of an unsharded
    pool)."""

    at_ns: int
    shard: int = 0


@dataclass(frozen=True)
class MasterRecover:
    """Restart a crashed master at ``at_ns``.  With ``rebuild=True`` the
    directory is rebuilt from the NVM metadata journal (the production
    failover sequence); disable it to test clients against a master that
    forgot everything.  ``shard`` picks which master on a sharded control
    plane."""

    at_ns: int
    rebuild: bool = True
    shard: int = 0


@dataclass(frozen=True)
class ClientCrash:
    """Kill a client process at ``at_ns``: its heartbeats stop (so its
    lease lapses and the master recovers its locks/pins/rings).  With
    ``tear_inflight=True`` the crash additionally leaves a half-written
    proxy slot in the victim's ring — the torn-write case the per-slot
    commit word exists to catch."""

    at_ns: int
    client: str
    tear_inflight: bool = False


@dataclass(frozen=True)
class ClientRecover:
    """Revive a crashed client at ``at_ns`` — as a zombie: until it calls
    ``reattach_master()`` its lapsed lease fences every lock op."""

    at_ns: int
    client: str


@dataclass(frozen=True)
class RingStall:
    """Freeze a server's proxy drain loops for ``duration_ns`` starting at
    ``at_ns`` — staged writes stop reaching NVM and the drained counter
    stops advancing (models a wedged drain thread / NVM write stall)."""

    at_ns: int
    duration_ns: int
    server_id: int


# ----------------------------------------------------------------------
# Link windows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LossyLink:
    """Drop each matching message with ``drop_prob`` during the window.

    ``src``/``dst`` of ``None`` match any sender/receiver; name a node to
    restrict the loss to one direction of one path.
    """

    start_ns: int
    end_ns: int
    drop_prob: float
    src: Optional[str] = None
    dst: Optional[str] = None


@dataclass(frozen=True)
class LatencySpike:
    """Add ``extra_ns`` of one-way latency to matching messages during the
    window (congestion, a rerouted path, a misbehaving switch)."""

    start_ns: int
    end_ns: int
    extra_ns: int
    src: Optional[str] = None
    dst: Optional[str] = None


@dataclass(frozen=True)
class LinkFlap:
    """Black-hole *all* traffic to and from ``node`` during the window (a
    cable pull / port flap).  Unlike a crash, the node's state survives;
    verbs stall in retransmission until the window ends."""

    start_ns: int
    end_ns: int
    node: str


@dataclass(frozen=True)
class Partition:
    """Drop all traffic crossing between two node groups during the window.

    Traffic within a group is unaffected.
    """

    start_ns: int
    end_ns: int
    group_a: Tuple[str, ...]
    group_b: Tuple[str, ...]


Fault = Union[ServerCrash, ServerRecover, RingStall,
              MasterCrash, MasterRecover, ClientCrash, ClientRecover,
              LossyLink, LatencySpike, LinkFlap, Partition]

_TIMED_TYPES = (ServerCrash, ServerRecover, RingStall,
                MasterCrash, MasterRecover, ClientCrash, ClientRecover)
_WINDOW_TYPES = (LossyLink, LatencySpike, LinkFlap, Partition)

#: The absolute times a fault can carry (``duration_ns`` is relative).
_TIME_FIELDS = ("at_ns", "start_ns", "end_ns")


def _shifted(fault: Fault, delta: int) -> Fault:
    """``fault`` with each of its absolute times moved by ``delta`` ns."""
    return dataclasses.replace(fault, **{
        name: getattr(fault, name) + delta
        for name in _TIME_FIELDS if hasattr(fault, name)})


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated collection of faults."""

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        for f in self.faults:
            if not isinstance(f, _TIMED_TYPES + _WINDOW_TYPES):
                raise FaultPlanError(f"not a fault: {f!r}")
            if isinstance(f, _TIMED_TYPES):
                if f.at_ns < 0:
                    raise FaultPlanError(f"negative fault time: {f!r}")
                if isinstance(f, RingStall) and f.duration_ns < 1:
                    raise FaultPlanError(f"stall needs a positive duration: {f!r}")
                if isinstance(f, (ClientCrash, ClientRecover)) and not f.client:
                    raise FaultPlanError(f"client fault needs a client name: {f!r}")
                if (isinstance(f, (MasterCrash, MasterRecover))
                        and f.shard < 0):
                    raise FaultPlanError(f"negative master shard: {f!r}")
            else:
                if f.start_ns < 0 or f.end_ns <= f.start_ns:
                    raise FaultPlanError(f"empty or negative window: {f!r}")
            if isinstance(f, LossyLink) and not 0.0 < f.drop_prob <= 1.0:
                raise FaultPlanError(f"drop_prob must be in (0, 1]: {f!r}")
            if isinstance(f, LatencySpike) and f.extra_ns < 1:
                raise FaultPlanError(f"latency spike needs extra_ns >= 1: {f!r}")
            if isinstance(f, Partition):
                if not f.group_a or not f.group_b:
                    raise FaultPlanError(f"partition groups must be non-empty: {f!r}")
                if set(f.group_a) & set(f.group_b):
                    raise FaultPlanError(f"partition groups overlap: {f!r}")

    @classmethod
    def of(cls, *faults: Fault) -> "FaultPlan":
        """Convenience constructor: ``FaultPlan.of(crash, recover, ...)``."""
        return cls(faults=tuple(faults))

    # ------------------------------------------------------------------
    # Composed nemesis schedules (the Jepsen-style chaos building blocks)
    # ------------------------------------------------------------------
    @classmethod
    def control_plane_split(cls, at_ns: int, *, clients: Tuple[str, ...],
                            master: str = "master",
                            duration_ns: int = 200_000) -> "FaultPlan":
        """Asymmetric split: ``clients`` keep the server data plane but
        lose the master control plane (both directions) for the window.

        Data ops that need no metadata keep working; control ops (renew,
        gmalloc, lookup misses) must fail *typed* within their deadline —
        this is the schedule the degraded-mode tests run under.
        """
        end = at_ns + duration_ns
        faults: list = []
        for client in clients:
            faults.append(LossyLink(start_ns=at_ns, end_ns=end,
                                    drop_prob=1.0, src=client, dst=master))
            faults.append(LossyLink(start_ns=at_ns, end_ns=end,
                                    drop_prob=1.0, src=master, dst=client))
        return cls.of(*faults)

    @classmethod
    def heal_mid_failover(cls, at_ns: int, *, others: Tuple[str, ...],
                          master: str = "master",
                          partition_ns: int = 300_000,
                          crash_after_ns: int = 50_000,
                          recover_after_ns: int = 100_000,
                          rebuild: bool = True) -> "FaultPlan":
        """Crash the partitioned master and *restart it mid-partition*, so
        its recovery (journal scan, term claim) begins against an
        unreachable fabric and the heal arrives in the middle of it.

        Exercises the recovering master's retry loop: it must refuse to
        serve until the claim lands post-heal, and clients must keep
        getting typed "recovering" errors rather than hangs meanwhile.
        """
        return cls.of(
            Partition(start_ns=at_ns, end_ns=at_ns + partition_ns,
                      group_a=(master,), group_b=tuple(others)),
            MasterCrash(at_ns=at_ns + crash_after_ns),
            MasterRecover(at_ns=at_ns + recover_after_ns, rebuild=rebuild),
        )

    # ------------------------------------------------------------------
    @property
    def timed(self) -> Tuple[Fault, ...]:
        """Crash/recover/stall actions, in time order (ties keep plan order)."""
        acts = [f for f in self.faults if isinstance(f, _TIMED_TYPES)]
        return tuple(sorted(acts, key=lambda f: f.at_ns))

    @property
    def windows(self) -> Tuple[Fault, ...]:
        """Link-shaping windows, in plan order."""
        return tuple(f for f in self.faults if isinstance(f, _WINDOW_TYPES))

    @property
    def horizon_ns(self) -> int:
        """The instant after which the plan is fully played out."""
        horizon = 0
        for f in self.faults:
            if isinstance(f, RingStall):
                horizon = max(horizon, f.at_ns + f.duration_ns)
            elif isinstance(f, _TIMED_TYPES):
                horizon = max(horizon, f.at_ns)
            else:
                horizon = max(horizon, f.end_ns)
        return horizon

    def shifted(self, delta: int) -> "FaultPlan":
        """The same plan, every time moved by ``delta`` ns (e.g. to anchor a
        plan authored relative to zero at the end of a load phase)."""
        return FaultPlan(faults=tuple(_shifted(f, delta) for f in self.faults))

    def __len__(self) -> int:
        return len(self.faults)
