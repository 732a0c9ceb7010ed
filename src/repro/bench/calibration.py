"""Closed-form latency models and simulator calibration.

Every data-path operation has an analytic uncontended latency that follows
directly from the device specs.  This module states those formulas once and
checks the simulator against them, which serves three purposes:

1. **Calibration** — the cost models can be sanity-checked against published
   hardware numbers without running workloads.
2. **Regression guard** — `tests/bench/test_calibration.py` asserts the
   simulator tracks the closed forms within tolerance, so an accidental
   double-charge (or dropped charge) in a protocol path fails CI.
3. **Documentation** — the formulas *are* the cost model, in one place.

Formulas model the uncontended single-op path; queueing effects are what the
simulator adds on top — except two queues that have a closed form too: N
WRs posted back to back on one idle QP complete one send-gate period apart
(:func:`expected_back_to_back_ns`), and a backed-up proxy ring drains
across the NVM channels (:func:`expected_backlogged_drain_ns`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.protocol import CACHE_TAG_BYTES, PROXY_HEADER_BYTES
from repro.hardware.specs import LinkSpec, MemorySpec, NicSpec
from repro.rdma.qp import READ_REQUEST_BYTES
from repro.rdma.wr import ATOMIC_REQUEST_BYTES, ATOMIC_RESPONSE_BYTES


@dataclass(frozen=True)
class PathModel:
    """The spec triple a data path runs over."""

    nic: NicSpec
    link: LinkSpec
    client_dram: MemorySpec
    server_dram: MemorySpec
    server_nvm: MemorySpec


def _wire_ns(link: LinkSpec, payload: int) -> float:
    """One-way fabric time: serialization of payload+headers + propagation."""
    return max(1.0, (payload + link.header_bytes) / link.bandwidth) + link.propagation_ns


def _mem_read_ns(spec: MemorySpec, nbytes: int) -> float:
    """Uncontended device read: latency + transfer at per-channel bandwidth."""
    return spec.read_latency_ns + nbytes / (spec.read_bw / spec.channels)


def _mem_write_ns(spec: MemorySpec, nbytes: int) -> float:
    return spec.write_latency_ns + nbytes / (spec.write_bw / spec.channels)


def expected_rdma_read_ns(model: PathModel, nbytes: int, from_nvm: bool = True) -> float:
    """One-sided READ of ``nbytes`` from server NVM (or DRAM).

    Path: client NIC tx -> wire(request) -> server NIC rx -> server memory
    read (DMA) -> wire(data) -> client NIC rx -> client memory write (DMA).
    """
    device = model.server_nvm if from_nvm else model.server_dram
    return (
        model.nic.processing_ns
        + _wire_ns(model.link, READ_REQUEST_BYTES)
        + model.nic.processing_ns
        + _mem_read_ns(device, nbytes)
        + _wire_ns(model.link, nbytes)
        + model.nic.processing_ns
        + _mem_write_ns(model.client_dram, nbytes)
    )


def expected_rdma_write_ns(model: PathModel, nbytes: int, to_nvm: bool = True,
                           inline: bool = False) -> float:
    """One-sided WRITE of ``nbytes`` to server NVM (or DRAM).

    Path: client NIC tx (+ local DMA read unless inline) -> wire(data) ->
    server NIC rx -> server memory write -> wire(ack) -> client NIC rx.
    """
    device = model.server_nvm if to_nvm else model.server_dram
    local_dma = 0.0 if (inline or nbytes <= model.nic.max_inline_bytes) \
        else _mem_read_ns(model.client_dram, nbytes)
    return (
        model.nic.processing_ns
        + local_dma
        + _wire_ns(model.link, nbytes)
        + model.nic.processing_ns
        + _mem_write_ns(device, nbytes)
        + _wire_ns(model.link, 0)
        + model.nic.processing_ns
    )


def expected_atomic_ns(model: PathModel) -> float:
    """CAS/FAA round trip: request -> remote 8B read(+write) -> response."""
    return (
        model.nic.processing_ns
        + _wire_ns(model.link, ATOMIC_REQUEST_BYTES)
        + model.nic.processing_ns
        + _mem_read_ns(model.server_dram, 8)
        + _mem_write_ns(model.server_dram, 8)
        + _wire_ns(model.link, ATOMIC_RESPONSE_BYTES)
        + model.nic.processing_ns
    )


def expected_hot_read_ns(model: PathModel, nbytes: int, cpu_op_ns: int = 150) -> float:
    """A Gengar cached read: client CPU + READ of tag+payload from DRAM."""
    return cpu_op_ns + expected_rdma_read_ns(
        model, CACHE_TAG_BYTES + nbytes, from_nvm=False
    )


def expected_cold_read_ns(model: PathModel, nbytes: int, cpu_op_ns: int = 150) -> float:
    """A Gengar uncached read: client CPU + READ from NVM."""
    return cpu_op_ns + expected_rdma_read_ns(model, nbytes, from_nvm=True)


def expected_proxy_write_ns(model: PathModel, nbytes: int, cpu_op_ns: int = 150) -> float:
    """A Gengar proxy write ack: WRITE_WITH_IMM of header+payload into the
    server's DRAM ring (the NVM drain is off this path by design)."""
    return cpu_op_ns + expected_rdma_write_ns(
        model, PROXY_HEADER_BYTES + nbytes, to_nvm=False
    )


def expected_direct_write_ns(model: PathModel, nbytes: int, cpu_op_ns: int = 150) -> float:
    """An NVM-direct write: the full Optane write path, inline with the op."""
    return cpu_op_ns + expected_rdma_write_ns(model, nbytes, to_nvm=True)


def _wire_serialization_ns(link: LinkSpec, payload: int) -> int:
    """Serialization of payload+headers, rounded as the fabric rounds it."""
    return max(1, round((payload + link.header_bytes) / link.bandwidth))


def expected_back_to_back_ns(model: PathModel, first_ns: int, k: int,
                             request_bytes: int, lane: int = 0) -> int:
    """When the ``k``-th (1-based) of N WRs posted back to back on one idle
    QP completes, given the first one's completion ``first_ns``:
    ``T1 + (k-1)·(processing_ns + wire_time(request))``.

    The period is how long one WQE holds its QP's send gate: NIC processing
    plus the request's wire serialization (payload inline or none, so no
    local DMA); the flight is paid outside the gate.  With up to
    ``PIPELINE_WIDTH`` lanes (QPs) posting at once, lane ``i`` runs ``i``
    request serializations behind lane 0 — their requests leave through one
    egress port — and otherwise keeps the same period, so the lanes together
    complete ``PIPELINE_WIDTH`` WRs per period.  (Valid while nothing
    downstream is slower than that: here, responses that serialize no longer
    than the request.)
    """
    wire = _wire_serialization_ns(model.link, request_bytes)
    return first_ns + lane * wire + (k - 1) * (model.nic.processing_ns + wire)


def expected_backlogged_drain_ns(model: PathModel, frames: int,
                                 payload_bytes: int, cpu_op_ns: int = 150) -> int:
    """How long after a drain stall lifts one backed-up ring of ``frames``
    equal frames is fully drained (its drained counter reaches ``frames``).

    Valid for frames to distinct, uncached objects, at least half the
    ring's slots of them, on an otherwise idle server, when one frame's NVM
    write outlasts a header parse (``W > c``; on Optane any payload over 31
    bytes): each frame then finds the one before it still in flight, so the
    whole burst takes the overlapped drain.  (With ``W <= c`` the last
    frames, parsed once fewer than half the slots are backed up, drain
    serially at ``c + W`` each.)  The drain loop hands frame ``k`` (0-based)
    off after ``k + 1`` header parses of ``c = cpu_op_ns`` each, and the
    server applies at most one frame per NVM channel at a time (``C``
    channels, ``W`` one frame's write), FIFO, so frame ``k`` starts at
    ``S_k = max(S_{k-C} + W, (k+1)·c)``, which unrolls to
    ``max((k+1)·c, (k mod C + 1)·c + ⌊k/C⌋·W)``; the last one ends ``W``
    after it starts.
    """
    nvm = model.server_nvm
    channels = nvm.channels
    write = nvm.write_latency_ns + round(payload_bytes / (nvm.write_bw / channels))
    last = frames - 1
    start = max((last + 1) * cpu_op_ns,
                (last % channels + 1) * cpu_op_ns + (last // channels) * write)
    return start + write


def calibration_report(model: PathModel,
                       sizes=(64, 1024, 4096, 65536)) -> Dict[str, Dict[int, float]]:
    """All closed forms over a size sweep (microseconds), for reports."""
    return {
        "cold_read_us": {s: expected_cold_read_ns(model, s) / 1000 for s in sizes},
        "hot_read_us": {s: expected_hot_read_ns(model, s) / 1000 for s in sizes},
        "proxy_write_us": {s: expected_proxy_write_ns(model, s) / 1000 for s in sizes},
        "direct_write_us": {s: expected_direct_write_ns(model, s) / 1000 for s in sizes},
        "atomic_us": {8: expected_atomic_ns(model) / 1000},
    }
