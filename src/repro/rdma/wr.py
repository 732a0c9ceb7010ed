"""Work request and work completion types."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class Opcode(enum.Enum):
    """Verb opcodes supported by the reliable-connected queue pair."""

    SEND = "send"
    RECV = "recv"
    RDMA_READ = "rdma_read"
    RDMA_WRITE = "rdma_write"
    RDMA_WRITE_IMM = "rdma_write_imm"
    ATOMIC_CAS = "atomic_cas"
    ATOMIC_FAA = "atomic_faa"


class WcStatus(enum.Enum):
    """Completion status, mirroring ibv_wc_status (the subset we can hit)."""

    SUCCESS = "success"
    LOCAL_PROTECTION_ERROR = "local_protection_error"
    REMOTE_ACCESS_ERROR = "remote_access_error"
    REMOTE_INVALID_REQUEST = "remote_invalid_request"
    #: The peer stopped responding (crashed node); maps to IBV_WC_RETRY_EXC_ERR.
    RETRY_EXCEEDED = "retry_exceeded"


#: Wire size of an atomic request (address + compare/swap operands).
ATOMIC_REQUEST_BYTES = 24
#: Wire size of an atomic response (the prior value).
ATOMIC_RESPONSE_BYTES = 8
#: All atomics operate on exactly 8 bytes, like ibverbs.
ATOMIC_OPERAND_BYTES = 8


@dataclass
class WorkRequest:
    """One send-queue work element.

    Exactly one data source is used, depending on opcode:

    * SEND / RDMA_WRITE / RDMA_WRITE_IMM: ``inline_data`` *or*
      (``local_mr``, ``local_offset``, ``length``) naming registered memory
      to DMA out of.
    * RDMA_READ: the destination is (``local_mr``, ``local_offset``) and
      ``length`` bytes are fetched from (``remote_rkey``, ``remote_offset``).
    * ATOMIC_CAS: ``compare`` and ``swap`` (ints, 8 bytes on the wire);
      the prior value is returned in the completion.
    * ATOMIC_FAA: ``add``; prior value returned in the completion.
    """

    opcode: Opcode
    wr_id: int = 0
    # Local buffer (registered memory) view.
    local_mr: Optional[object] = None  # MemoryRegion; object to avoid cycle
    local_offset: int = 0
    length: int = 0
    # Inline payload alternative for small sends/writes.
    inline_data: Optional[bytes] = None
    # Remote target for one-sided verbs.
    remote_rkey: Optional[int] = None
    remote_offset: int = 0
    # Immediate data for RDMA_WRITE_IMM / SEND-with-imm.
    imm_data: Optional[int] = None
    # Atomic operands.
    compare: int = 0
    swap: int = 0
    add: int = 0
    # Read-combining token: RDMA_READ WRs rung with one doorbell whose
    # remote ranges are adjacent may share a group object here; a target
    # with a read combiner installed services the whole group as a single
    # device transfer (see repro.core.server.ReadCombiner).  None (the
    # default) means the WR is serviced individually.
    combine: Optional[object] = None

    def __post_init__(self) -> None:
        if self.inline_data is not None:
            self.length = len(self.inline_data)

    @property
    def is_atomic(self) -> bool:
        return self.opcode in (Opcode.ATOMIC_CAS, Opcode.ATOMIC_FAA)


@dataclass
class WorkCompletion:
    """One completion-queue entry."""

    wr_id: int
    opcode: Opcode
    status: WcStatus = WcStatus.SUCCESS
    byte_len: int = 0
    imm_data: Optional[int] = None
    #: Prior value for atomics.
    atomic_value: int = 0
    #: Virtual time at which the completion was generated.
    timestamp: int = 0
    #: For RECV completions: where the payload landed.
    recv_mr: Optional[object] = None
    recv_offset: int = 0
    #: Extra context the QP attaches (e.g. source QP for servers).
    context: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is WcStatus.SUCCESS
