"""Hotpot-class comparator: client-local replicas with lease expiry.

This design point caches whole objects *at the client* after a read.  Repeat
reads within the lease window are local (no network at all); after the lease
expires the next read re-fetches.  Writes go straight to the NVM home (this
system has no proxy) and update the local replica.

Compared with Gengar this wins on single-client re-read latency but:

* every client pays DRAM for its own replicas (no sharing of cache space),
* cross-client freshness is only lease-bounded (Gengar's server-side cache
  has a single authoritative copy), and
* writes still eat the full NVM latency.

Lock operations delegate to the underlying one-sided lock protocol and
invalidate the local replica on acquire, so locked accesses are coherent —
the same guarantee Gengar provides.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.core.client import GengarClient


@dataclass
class _Replica:
    data: bytes
    fetched_at: int


class ReplicaClient:
    """Wraps a (NVM-direct) Gengar client with client-local replication."""

    def __init__(self, inner: GengarClient, lease_ns: int = 200_000,
                 capacity_bytes: int = 4 * 1024 * 1024):
        if lease_ns <= 0 or capacity_bytes <= 0:
            raise ValueError("lease and capacity must be positive")
        self.inner = inner
        self.sim = inner.sim
        self.name = f"{inner.name}.replica"
        self.lease_ns = lease_ns
        self.capacity_bytes = capacity_bytes
        self._replicas: "OrderedDict[int, _Replica]" = OrderedDict()
        self._bytes = 0
        m = self.sim.metrics
        self.replica_hits = m.counter("replica.hits")
        self.replica_misses = m.counter("replica.misses")

    # ------------------------------------------------------------------
    # Replica cache maintenance
    # ------------------------------------------------------------------
    def _fresh(self, gaddr: int) -> Optional[_Replica]:
        rep = self._replicas.get(gaddr)
        if rep is None:
            return None
        if self.sim.now - rep.fetched_at > self.lease_ns:
            self._drop(gaddr)
            return None
        self._replicas.move_to_end(gaddr)  # LRU touch
        return rep

    def _store(self, gaddr: int, data: bytes) -> None:
        self._drop(gaddr)
        while self._bytes + len(data) > self.capacity_bytes and self._replicas:
            victim, rep = self._replicas.popitem(last=False)
            self._bytes -= len(rep.data)
        if self._bytes + len(data) <= self.capacity_bytes:
            self._replicas[gaddr] = _Replica(data=data, fetched_at=self.sim.now)
            self._bytes += len(data)

    def _drop(self, gaddr: int) -> None:
        rep = self._replicas.pop(gaddr, None)
        if rep is not None:
            self._bytes -= len(rep.data)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def gmalloc(self, size: int) -> Generator[Any, Any, int]:
        gaddr = yield from self.inner.gmalloc(size)
        return gaddr

    def gfree(self, gaddr: int) -> Generator[Any, Any, None]:
        self._drop(gaddr)
        yield from self.inner.gfree(gaddr)

    def gread(self, gaddr: int, offset: int = 0,
              length: Optional[int] = None) -> Generator[Any, Any, bytes]:
        rep = self._fresh(gaddr)
        if rep is not None and (length is None or offset + length <= len(rep.data)):
            yield from self.inner.node.cpu_work()  # local copy still costs CPU
            self.replica_hits.add()
            end = len(rep.data) if length is None else offset + length
            return rep.data[offset:end]
        self.replica_misses.add()
        # Fetch the whole object so future reads of any range hit locally.
        data = yield from self.inner.gread(gaddr)
        self._store(gaddr, data)
        if length is None:
            return data[offset:]
        return data[offset : offset + length]

    def gread_many(self, gaddrs) -> Generator[Any, Any, list]:
        """Whole-object reads in argument order, each through the
        lease-bounded :meth:`gread` (no doorbell batching)."""
        results = []
        for gaddr in gaddrs:
            results.append((yield from self.gread(gaddr)))
        return results

    def gwrite(self, gaddr: int, data: bytes, offset: int = 0) -> Generator[Any, Any, None]:
        yield from self.inner.gwrite(gaddr, data, offset=offset)
        rep = self._replicas.get(gaddr)
        if rep is not None:
            if offset + len(data) <= len(rep.data):
                patched = bytearray(rep.data)
                patched[offset : offset + len(data)] = data
                rep.data = bytes(patched)
                rep.fetched_at = self.sim.now
            else:
                self._drop(gaddr)

    def gsync(self, server_id: Optional[int] = None) -> Generator[Any, Any, None]:
        yield from self.inner.gsync(server_id=server_id)

    def glock(self, gaddr: int, write: bool = True) -> Generator[Any, Any, None]:
        yield from self.inner.glock(gaddr, write=write)
        # Coherence under locks: never trust a pre-lock replica.
        self._drop(gaddr)

    def gunlock(self, gaddr: int, write: bool = True) -> Generator[Any, Any, None]:
        yield from self.inner.gunlock(gaddr, write=write)

    # Pass-throughs benchmarks rely on.
    @property
    def node(self):
        return self.inner.node

    @property
    def config(self):
        return self.inner.config
