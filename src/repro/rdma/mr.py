"""Registered memory regions.

A :class:`MemoryRegion` pins a window ``[base, base + length)`` of a node's
:class:`~repro.hardware.memory.MemoryDevice` and exposes it for local and —
if the access flags allow — remote access.  Remote peers address the region
by ``(rkey, offset)`` where ``offset`` is region-relative, and every access
is bounds- and permission-checked exactly as an RNIC's MTT/MPT would.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Any, Generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.memory import MemoryDevice

def _key_counter_for(sim):
    """Per-simulator lkey/rkey source.

    Keys travel inside pickled RPC payloads (server/ring descriptors), so a
    process-global counter would make a second same-seed run in one process
    pickle slightly larger ints — different wire sizes, different virtual
    times.  Simulator-local numbering keeps identical runs bit-identical.
    """
    counter = getattr(sim, "_mr_key_counter", None)
    if counter is None:
        counter = itertools.count(start=0x1000)
        sim._mr_key_counter = counter
    return counter


class MrError(Exception):
    """Protection or bounds violation on a memory region."""


class AccessFlags(enum.Flag):
    """Subset of ibv_access_flags the protocols need."""

    LOCAL = enum.auto()
    REMOTE_READ = enum.auto()
    REMOTE_WRITE = enum.auto()
    REMOTE_ATOMIC = enum.auto()
    ALL = LOCAL | REMOTE_READ | REMOTE_WRITE | REMOTE_ATOMIC


_LOCAL = AccessFlags.LOCAL._value_


class MemoryRegion:
    """A registered window of one memory device."""

    def __init__(
        self,
        device: "MemoryDevice",
        base: int,
        length: int,
        access: AccessFlags = AccessFlags.ALL,
        name: str = "",
    ):
        if base < 0 or length <= 0 or base + length > device.capacity:
            raise MrError(
                f"region [{base}, {base + length}) outside device "
                f"{device.name!r} capacity {device.capacity}"
            )
        self.device = device
        self.base = base
        self.length = length
        self.access = access
        # Int mask of the flags *not* granted: check() runs on every verb,
        # and Flag arithmetic costs five calls into enum.py per test.
        self._denied = ~access._value_
        keys = _key_counter_for(device.sim)
        self.lkey = next(keys)
        self.rkey = next(keys)
        self.name = name or f"mr-{self.rkey:#x}"

    # ------------------------------------------------------------------
    def check(self, offset: int, nbytes: int, need: AccessFlags) -> None:
        """Validate an access or raise :class:`MrError`."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.length:
            raise MrError(
                f"{self.name}: access [{offset}, {offset + nbytes}) outside "
                f"region length {self.length}"
            )
        if need._value_ & self._denied:
            raise MrError(f"{self.name}: access flags {need} not granted ({self.access})")

    # ------------------------------------------------------------------
    # Timed access (device queuing applies) — used for DMA on data paths.
    # Every access, here and below, tests the pass condition itself and
    # calls ``check`` only to raise: one frame less per access.
    # ------------------------------------------------------------------
    def read(self, offset: int, nbytes: int, need: AccessFlags = AccessFlags.LOCAL) -> Generator[Any, Any, bytes]:
        """Timed read of ``nbytes`` at region offset ``offset``: checked here,
        then the device's own generator (``yield from mr.read(...)``)."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.length or need._value_ & self._denied:
            self.check(offset, nbytes, need)
        return self.device.read(self.base + offset, nbytes)

    def write(self, offset: int, payload: bytes, need: AccessFlags = AccessFlags.LOCAL) -> Generator[Any, Any, None]:
        """Timed write of ``payload`` at region offset ``offset``: checked
        here, then the device's own generator."""
        if offset < 0 or offset + len(payload) > self.length or need._value_ & self._denied:
            self.check(offset, len(payload), need)
        return self.device.write(self.base + offset, payload)

    # ------------------------------------------------------------------
    # Untimed access — for setup, assertions, and costs accounted elsewhere.
    # ------------------------------------------------------------------
    def peek(self, offset: int, nbytes: int) -> bytes:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.length or self._denied & _LOCAL:
            self.check(offset, nbytes, AccessFlags.LOCAL)
        return self.device.peek(self.base + offset, nbytes)

    def poke(self, offset: int, payload: bytes) -> None:
        if offset < 0 or offset + len(payload) > self.length or self._denied & _LOCAL:
            self.check(offset, len(payload), AccessFlags.LOCAL)
        self.device.poke(self.base + offset, payload)

    # ------------------------------------------------------------------
    def read_u64(self, offset: int) -> int:
        """Untimed read of an 8-byte little-endian word (atomics helper)."""
        return int.from_bytes(self.peek(offset, 8), "little")

    def write_u64(self, offset: int, value: int) -> None:
        """Untimed write of an 8-byte little-endian word (atomics helper)."""
        self.poke(offset, (value % (1 << 64)).to_bytes(8, "little"))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MR {self.name} rkey={self.rkey:#x} len={self.length}>"
