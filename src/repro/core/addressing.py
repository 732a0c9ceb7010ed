"""Global address space: 64-bit addresses spanning every server's NVM.

Gengar presents remote NVM as one flat space.  We encode the home server in
the upper bits so the data-plane never needs a lookup to find an object's
home: ``gaddr = (server_id << 48) | nvm_offset``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import FatalError

#: Bits reserved for the per-server offset (256 TiB per server).
OFFSET_BITS = 48
OFFSET_MASK = (1 << OFFSET_BITS) - 1
MAX_SERVERS = 1 << (64 - OFFSET_BITS)


class AddressError(FatalError):
    """Malformed or out-of-range global address: a usage error, so a verb
    given one fails typed, as every verb failure does."""


def make_gaddr(server_id: int, offset: int) -> int:
    """Pack ``(server_id, offset)`` into a global address."""
    if not 0 <= server_id < MAX_SERVERS:
        raise AddressError(f"server id {server_id} out of range")
    if not 0 <= offset <= OFFSET_MASK:
        raise AddressError(f"offset {offset:#x} out of range")
    return (server_id << OFFSET_BITS) | offset


def server_of(gaddr: int) -> int:
    """The home server id encoded in ``gaddr``."""
    if gaddr < 0 or gaddr >= 1 << 64:
        raise AddressError(f"gaddr {gaddr:#x} is not a 64-bit address")
    return gaddr >> OFFSET_BITS


def shard_of(gaddr: int, num_shards: int) -> int:
    """The master shard owning ``gaddr``'s metadata.

    Sharding is by home server (``server_of % num_shards``), so the owner
    is decidable from the address alone — no lookup, and a shard's
    directory, allocator spans, and journals cover a disjoint server
    subset.
    """
    if num_shards <= 1:
        return 0
    return server_of(gaddr) % num_shards


def offset_of(gaddr: int) -> int:
    """The home-server NVM offset encoded in ``gaddr``."""
    if gaddr < 0 or gaddr >= 1 << 64:
        raise AddressError(f"gaddr {gaddr:#x} is not a 64-bit address")
    return gaddr & OFFSET_MASK


@dataclass(frozen=True)
class GlobalAddress:
    """Decoded view of a global address (for debugging and reports)."""

    server_id: int
    offset: int

    @classmethod
    def decode(cls, gaddr: int) -> "GlobalAddress":
        return cls(server_id=server_of(gaddr), offset=offset_of(gaddr))

    def encode(self) -> int:
        return make_gaddr(self.server_id, self.offset)

    def __int__(self) -> int:
        return self.encode()

    def __repr__(self) -> str:  # pragma: no cover
        return f"g{self.server_id}:{self.offset:#x}"
