"""Wire formats shared by Gengar clients and servers.

Three little-endian binary layouts travel over one-sided verbs and therefore
must be bit-exact on both ends:

* **Proxy ring slot**: ``[gaddr u64][obj_offset u32][length u32][payload]
  [commit u64]``.  A client stages a write here with one RDMA
  WRITE_WITH_IMM; the immediate carries the slot index.  A write longer
  than a slot is a *frame group* of consecutive slots, all but the last
  with :data:`PROXY_MORE` set.
* **Cache slot tag**: ``[gaddr u64][flags u64]`` prepended to every cached
  object.  Reads are self-verifying: a client that reads a slot whose tag
  does not match the gaddr it expected knows its metadata is stale.
* **Lock word**: a u64 reader/writer lock driven purely by RDMA atomics —
  bit 0 is the writer bit, bits 1+ count readers in units of 2.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Proxy ring slots
# ---------------------------------------------------------------------------
_SLOT_HEADER = struct.Struct("<QII")
PROXY_HEADER_BYTES = _SLOT_HEADER.size  # 16
#: Trailing commit word: 8 bytes after the payload that let the drain loop
#: detect a torn (half-written) slot.
COMMIT_WORD_BYTES = 8
#: The more-bit, in ``length``: the next frame continues this write.
PROXY_MORE = 1 << 31
_SEQ_MASK = (1 << 32) - 1


def pack_proxy_slot(gaddr: int, obj_offset: int, payload: bytes, more: bool = False) -> bytes:
    """Serialize one frame of a staged write (``more``: not its last)."""
    length = len(payload) | PROXY_MORE if more else len(payload)
    return _SLOT_HEADER.pack(gaddr, obj_offset, length) + payload


def unpack_proxy_header(raw: bytes) -> tuple[int, int, int]:
    """Parse ``(gaddr, obj_offset, length | more-bit)`` from a slot's first 16 bytes."""
    return _SLOT_HEADER.unpack_from(raw)


def pack_commit_word(seq: int, frame: bytes) -> bytes:
    """The commit word trailing a slot: ``[seq_lo32 | crc32(frame) ^ seq]``.

    ``frame`` is the full ``header+payload`` bytes of the slot.  A client
    that dies mid-WRITE leaves either stale commit bytes (wrong seq half)
    or a checksum that no longer covers the torn frame — neither equals
    the word the drain loop recomputes, so it never applies the garbage.
    """
    s = seq & _SEQ_MASK
    return ((s << 32) | (zlib.crc32(frame) ^ s)).to_bytes(COMMIT_WORD_BYTES, "little")


#: The largest RDMA transfer a client posts (and stages in one frame group).
MAX_TRANSFER = 256 * 1024


def proxy_payload_capacity(slot_size: int) -> int:
    """Largest payload one frame in a slot of ``slot_size`` bytes carries:
    the slot less its header and its commit word."""
    return slot_size - PROXY_HEADER_BYTES - COMMIT_WORD_BYTES


# ---------------------------------------------------------------------------
# Cache slot tags
# ---------------------------------------------------------------------------
_TAG = struct.Struct("<QQ")
CACHE_TAG_BYTES = _TAG.size  # 16
#: Tag flag: slot holds a live object.
TAG_LIVE = 1


def pack_cache_tag(gaddr: int, flags: int = TAG_LIVE) -> bytes:
    return _TAG.pack(gaddr, flags)


def unpack_cache_tag(raw: bytes) -> tuple[int, int]:
    """Parse ``(gaddr, flags)`` from a cache slot's first 16 bytes."""
    return _TAG.unpack_from(raw)


def tag_matches(raw: bytes, gaddr: int) -> bool:
    """True if the slot's tag names ``gaddr`` and is live."""
    tag_gaddr, flags = unpack_cache_tag(raw)
    return tag_gaddr == gaddr and bool(flags & TAG_LIVE)


# ---------------------------------------------------------------------------
# Persistent metadata journal (optional, lives at the tail of each server's
# NVM).  Record layout, 32 bytes little-endian:
#   [magic u16][op u16][lock_idx u32][gaddr u64][size u64][req_id u64]
# req_id is the client-supplied idempotency token (0 = none); replaying it
# lets a restarted master keep deduplicating retried gmalloc/gfree RPCs.
# ---------------------------------------------------------------------------
_JOURNAL = struct.Struct("<HHIQQQ")
JOURNAL_RECORD_BYTES = _JOURNAL.size  # 32
JOURNAL_MAGIC = 0x4721
JOURNAL_OP_ALLOC = 1
JOURNAL_OP_FREE = 2
#: Master-term claim (split-brain fencing): the term value rides in the
#: ``gaddr`` field; lock_idx/size/req_id are zero.  Replay takes the max.
JOURNAL_OP_TERM = 3
#: Fencing-epoch retirement: the fenced client's uid rides in ``gaddr``
#: and the freshly granted (post-bump) epoch in ``size``.  Replay takes
#: the max per uid, so a restarted master — whose epoch map is volatile —
#: can never re-grant an epoch the lease sweep already retired.
JOURNAL_OP_FENCE = 4
#: Bytes reserved at the journal base for the record-count header word.
JOURNAL_HEADER_BYTES = 64
#: Records per ``journal_read`` reply: a page of records with every field at
#: its widest still pickles under the 4 KiB RPC buffer.  A shorter page is
#: the journal's last.
JOURNAL_PAGE_RECORDS = 64


def pack_journal_record(op: int, lock_idx: int, gaddr: int, size: int,
                        req_id: int = 0) -> bytes:
    if op not in (JOURNAL_OP_ALLOC, JOURNAL_OP_FREE, JOURNAL_OP_TERM,
                  JOURNAL_OP_FENCE):
        raise ValueError(f"unknown journal op {op}")
    return _JOURNAL.pack(JOURNAL_MAGIC, op, lock_idx, gaddr, size, req_id)


def unpack_journal_record(raw: bytes) -> tuple[int, int, int, int, int]:
    """Parse ``(op, lock_idx, gaddr, size, req_id)``; raises on a bad magic."""
    magic, op, lock_idx, gaddr, size, req_id = _JOURNAL.unpack_from(raw)
    if magic != JOURNAL_MAGIC:
        raise ValueError(f"corrupt journal record (magic {magic:#x})")
    return op, lock_idx, gaddr, size, req_id


# ---------------------------------------------------------------------------
# Lock words
#
# Layout (64 bits):
#   bit 0        writer bit
#   bits 1-31    reader count, in units of 2 (reader FAAs never carry into
#                the owner field at any realistic reader count)
#   bits 32-47   writer owner id (the client uid), 0 unless write-locked
#   bits 48-63   fencing epoch of the holder at acquire time
#
# A writer acquires with CAS(0 -> (epoch << 48) | (uid << 32) | 1) and
# releases with CAS(w -> w - word) against the word it installed, retrying
# while only reader increments moved.  The owner field is what makes
# abandoned locks *recoverable*: the master can identify and clear exactly
# the locks a dead client held.  The epoch field is what makes that
# recovery *fenced*: the master bumps a client's epoch when its lease
# expires or it restarts, so a zombie whose lock was recovered (and
# possibly re-acquired by someone else) can never mistake the new word for
# its own — its conditional release fails loudly instead of clobbering the
# new holder.  Epoch 0 words are bit-identical to the pre-lease layout.
# ---------------------------------------------------------------------------
WRITER_BIT = 1
READER_UNIT = 2
LOCK_WORD_BYTES = 8
_OWNER_SHIFT = 32
_EPOCH_SHIFT = 48
_OWNER_MASK = (1 << (_EPOCH_SHIFT - _OWNER_SHIFT)) - 1
_LOW_MASK = (1 << _OWNER_SHIFT) - 1
#: Largest representable fencing epoch (16 bits).
MAX_FENCE_EPOCH = (1 << 16) - 1


def write_lock_word(owner_uid: int, epoch: int = 0) -> int:
    """The word a writer installs: fencing epoch + owner id + writer bit."""
    if not 0 < owner_uid <= _OWNER_MASK:
        raise ValueError(f"owner uid out of range: {owner_uid}")
    if not 0 <= epoch <= MAX_FENCE_EPOCH:
        raise ValueError(f"fencing epoch out of range: {epoch}")
    return (epoch << _EPOCH_SHIFT) | (owner_uid << _OWNER_SHIFT) | WRITER_BIT


def lock_is_write_locked(word: int) -> bool:
    return bool(word & WRITER_BIT)


def lock_owner(word: int) -> int:
    """The writer's uid (0 when not write-locked)."""
    return (word >> _OWNER_SHIFT) & _OWNER_MASK


def lock_epoch(word: int) -> int:
    """The fencing epoch the writer held at acquire time."""
    return word >> _EPOCH_SHIFT


def lock_reader_count(word: int) -> int:
    return (word & _LOW_MASK) >> 1


def lock_is_free(word: int) -> bool:
    return word == 0


# ---------------------------------------------------------------------------
# Control-plane sharding
# ---------------------------------------------------------------------------
def default_shard_map(server_ids, num_shards: int) -> dict:
    """The bootstrap shard layout: server ``sid`` is owned by shard
    ``sid % num_shards`` (the same modulus :func:`~repro.core.addressing.
    shard_of` applies to addresses).  Resharding moves entries away from
    this layout; every divergence is announced by a map-epoch bump."""
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    return {sid: sid % num_shards for sid in server_ids}


# ---------------------------------------------------------------------------
# The ``report`` RPC (docs/PROTOCOLS.md §2, §3.5).  Request:
#   {"entries": [(gaddr, reads, writes), ...], "cursor": int}
# plus "client" and "epoch" with leases on.  Reply:
#   {"updates": [(gaddr, cached, cache_offset), ...] | None, "cursor": int}
# plus "lease" with leases on.  ``updates`` is the current location of every
# object whose cache location the shard changed since the request's cursor;
# None means the cursor was unusable and the client resyncs.
# ---------------------------------------------------------------------------
#: Most location updates one ``report`` reply carries: a ``(gaddr, cached,
#: cache_offset)`` triple pickles to at most 25 bytes, so a full reply fits
#: the 4 KiB RPC buffer with room to spare.
LOCATION_REPLY_UPDATES = 128


# ---------------------------------------------------------------------------
# Object metadata exchanged over RPC (plain dataclass; pickled by the RPC
# layer with realistic size accounting).
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ObjectMeta:
    """What a client needs to reach an object with one-sided verbs."""

    gaddr: int
    size: int
    server_id: int
    nvm_offset: int
    lock_idx: int
    cached: bool
    cache_offset: int  # valid only when cached

    def with_cache(self, cached: bool, cache_offset: int = 0) -> "ObjectMeta":
        return ObjectMeta(
            gaddr=self.gaddr,
            size=self.size,
            server_id=self.server_id,
            nvm_offset=self.nvm_offset,
            lock_idx=self.lock_idx,
            cached=cached,
            cache_offset=cache_offset,
        )


@dataclass(frozen=True)
class ServerDescriptor:
    """Everything a client needs to talk to one memory server.

    Returned by the master at attach time: rkeys for the data region, the
    DRAM cache, the lock table and the wait-die stamp table, so the
    client's data plane never touches the master again.
    """

    server_id: int
    node_name: str
    data_rkey: int
    cache_rkey: int
    lock_rkey: int
    stamp_rkey: int


@dataclass(frozen=True)
class RingDescriptor:
    """A client's private proxy ring on one server."""

    ring_rkey: int
    slots: int
    slot_size: int
    #: Region-relative offset of the drained-counter u64 (readable one-sided).
    counter_offset: int
