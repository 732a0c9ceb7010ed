"""Queued memory device model backing real byte storage.

A :class:`MemoryDevice` is both a *cost model* (requests contend for a fixed
number of channels, each serving ``latency + bytes/channel_bw``) and a
*functional store* (sparse ``bytearray`` pages that RDMA operations actually
copy in and out of).  Keeping both in one object lets tests assert data
integrity and performance shape on the same run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

from repro.hardware.specs import MemorySpec


class MemoryAccessError(Exception):
    """Out-of-bounds or otherwise invalid device access."""


class SparseBuffer:
    """A page-granular sparse byte store that holds only what was written.

    Device capacities are far beyond what a host should allocate (an Optane
    DIMM is 128 GiB), and a pool touches most of what it carves (ring slots,
    RPC buffers) only at its head.  A page is a ``bytearray`` as long as the
    furthest byte written into it: it grows on demand, zero-filling any gap,
    and bytes past its end read as zeros, like fresh memory.
    """

    #: The grain of RPC slots and most objects.
    PAGE_SIZE = 4 * 1024

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._pages: dict[int, bytearray] = {}

    def read(self, offset: int, nbytes: int) -> bytes:
        """Copy ``nbytes`` out, zero-filling whatever was never written."""
        page_no, page_off = divmod(offset, self.PAGE_SIZE)
        end = page_off + nbytes
        if end > self.PAGE_SIZE:  # one piece per page it spans
            cut = self.PAGE_SIZE - page_off
            pieces = [self.read(offset, cut)]
            while cut < nbytes:
                pieces.append(self.read(offset + cut, min(self.PAGE_SIZE, nbytes - cut)))
                cut += self.PAGE_SIZE
            return b"".join(pieces)
        page = self._pages.get(page_no)
        if page is None:
            return bytes(nbytes)
        held = page[page_off:end]
        short = nbytes - len(held)
        return bytes(held) + bytes(short) if short else bytes(held)

    def write(self, offset: int, payload: bytes) -> None:
        """Copy ``payload`` in, creating or growing pages as needed."""
        nbytes = len(payload)
        if not nbytes:
            return
        page_no, page_off = divmod(offset, self.PAGE_SIZE)
        end = page_off + nbytes
        if end > self.PAGE_SIZE:  # one piece per page it spans
            cut = self.PAGE_SIZE - page_off
            self.write(offset, payload[:cut])
            while cut < nbytes:
                self.write(offset + cut, payload[cut : cut + self.PAGE_SIZE])
                cut += self.PAGE_SIZE
            return
        page = self._pages.get(page_no)
        if page is None:
            self._pages[page_no] = bytearray(page_off) + payload
            return
        gap = page_off - len(page)
        if gap > 0:
            page += bytes(gap)
        page[page_off:end] = payload

    @property
    def resident_bytes(self) -> int:
        """Host bytes held: per page, up to the furthest byte written."""
        return sum(map(len, self._pages.values()))


class MemoryDevice:
    """A DRAM or NVM device with channel queuing and real backing bytes.

    Access methods are process helpers::

        data = yield from device.read(offset, nbytes)
        yield from device.write(offset, payload)

    Timing model per request: a channel is held for
    ``latency + nbytes / (bw / channels)``; requests beyond the channel count
    queue FIFO, which reproduces bandwidth saturation (the mechanism behind
    the Optane write wall that Gengar's proxy works around).
    """

    def __init__(self, sim: "Simulator", spec: MemorySpec, name: str = ""):
        self.sim = sim
        self.spec = spec
        self.name = name or spec.name
        self._data = SparseBuffer(spec.capacity_bytes)
        self._capacity = spec.capacity_bytes  # read on every access
        self._channels = Resource(sim, capacity=spec.channels, name=f"{self.name}.channels")
        self._per_channel_read_bw = spec.read_bw / spec.channels
        self._per_channel_write_bw = spec.write_bw / spec.channels
        # Read on every access, which computes its service time inline.
        self._read_latency_ns = spec.read_latency_ns
        self._write_latency_ns = spec.write_latency_ns
        m = sim.metrics
        self.bytes_read = m.counter(f"{self.name}.bytes_read")
        self.bytes_written = m.counter(f"{self.name}.bytes_written")

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Total device capacity in bytes."""
        return self.spec.capacity_bytes

    @property
    def is_persistent(self) -> bool:
        """True for NVM devices (contents survive 'power loss')."""
        return self.spec.kind == "nvm"

    @property
    def resident_bytes(self) -> int:
        """Host bytes the simulated contents hold (see :class:`SparseBuffer`)."""
        return self._data.resident_bytes

    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self._capacity:
            raise MemoryAccessError(
                f"{self.name}: access [{offset}, {offset + nbytes}) outside "
                f"capacity {self.capacity}"
            )

    def read_service_time(self, nbytes: int) -> int:
        """Channel hold time for a read of ``nbytes`` (what :meth:`read`
        holds a channel for, computed there inline)."""
        return self._read_latency_ns + round(nbytes / self._per_channel_read_bw)

    def write_service_time(self, nbytes: int) -> int:
        """Channel hold time for a write of ``nbytes`` (what :meth:`write`
        holds a channel for, computed there inline)."""
        return self._write_latency_ns + round(nbytes / self._per_channel_write_bw)

    # ------------------------------------------------------------------
    # Timed, functional access (process helpers).  Every access, here and
    # below, tests the in-range condition itself and calls ``_check_range``
    # only to raise: one frame less per access.
    # ------------------------------------------------------------------
    def read(self, offset: int, nbytes: int) -> Generator[Any, Any, bytes]:
        """Read ``nbytes`` at ``offset``; returns the bytes."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self._capacity:
            self._check_range(offset, nbytes)
        yield (self._channels,
               self._read_latency_ns + round(nbytes / self._per_channel_read_bw))
        self.bytes_read.count += 1
        self.bytes_read.total += nbytes
        return self._data.read(offset, nbytes)

    def write(self, offset: int, payload: bytes) -> Generator[Any, Any, None]:
        """Write ``payload`` at ``offset``."""
        nbytes = len(payload)
        if offset < 0 or offset + nbytes > self._capacity:
            self._check_range(offset, nbytes)
        yield (self._channels,
               self._write_latency_ns + round(nbytes / self._per_channel_write_bw))
        self._data.write(offset, payload)
        self.bytes_written.count += 1
        self.bytes_written.total += nbytes

    # ------------------------------------------------------------------
    # Instant access (zero simulated cost)
    # ------------------------------------------------------------------
    # Used by the NIC's DMA engine when the timing is accounted elsewhere,
    # and by tests that need to inspect or seed contents.
    def peek(self, offset: int, nbytes: int) -> bytes:
        """Untimed read of device contents."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self._capacity:
            self._check_range(offset, nbytes)
        return self._data.read(offset, nbytes)

    def poke(self, offset: int, payload: bytes) -> None:
        """Untimed write of device contents."""
        if offset < 0 or offset + len(payload) > self._capacity:
            self._check_range(offset, len(payload))
        self._data.write(offset, payload)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MemoryDevice {self.name} {self.spec.kind} {self.capacity >> 20} MiB>"
