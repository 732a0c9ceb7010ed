"""Jepsen-style bank-transfer workload over ``repro.txn``.

A fixed set of accounts, each an 8-byte big-endian balance in its own
global object.  Workers pick random ``(src, dst)`` pairs and move a
random amount with a two-object transaction (read both, write both).
Money is never created or destroyed *by a transfer*, so the workload
carries a single global invariant the chaos soak can audit byte-for-byte
after any amount of mid-commit carnage:

    sum(balances) == accounts * initial_balance

A torn transfer — one account debited, the other never credited because
the client died between applies — breaks conservation immediately, which
makes this the sharpest end-to-end probe of the intent-record
roll-forward/roll-back machinery.  Balances may legitimately go negative
(we don't read-check-skip); only the total is invariant.

The transfer driver also feeds :func:`repro.check.check_history` through
the ordinary history hooks: every transfer is a txn with a 2-key read-set and
2-key write-set, so serializability violations (e.g. two transfers both
reading the same pre-balance) surface in the audit as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Sequence

__all__ = ["BankSpec", "encode_balance", "decode_balance", "bank_setup",
           "bank_transfer", "bank_read_balances", "bank_total"]

BALANCE_BYTES = 8


@dataclass(frozen=True)
class BankSpec:
    """Sizing for one bank run."""

    accounts: int = 16
    initial_balance: int = 1000
    max_transfer: int = 100

    def __post_init__(self) -> None:
        if self.accounts < 2:
            raise ValueError("bank needs at least 2 accounts")
        if self.initial_balance < 0 or self.max_transfer < 1:
            raise ValueError("initial balance must be >= 0, max transfer >= 1")

    @property
    def expected_total(self) -> int:
        return self.accounts * self.initial_balance


def encode_balance(value: int) -> bytes:
    """Balances are signed (transfers may overdraw); two's complement."""
    return value.to_bytes(BALANCE_BYTES, "big", signed=True)


def decode_balance(data: bytes) -> int:
    return int.from_bytes(data[:BALANCE_BYTES], "big", signed=True)


def bank_setup(client, spec: BankSpec) -> Generator[Any, Any, List[int]]:
    """Allocate and initialise the accounts; returns their gaddrs."""
    gaddrs: List[int] = []
    for _ in range(spec.accounts):
        gaddr = yield from client.gmalloc(BALANCE_BYTES)
        yield from client.gwrite(gaddr, encode_balance(spec.initial_balance))
        gaddrs.append(gaddr)
    yield from client.gsync()
    return gaddrs


def bank_transfer(client, src: int, dst: int,
                  amount: int) -> Generator[Any, Any, int]:
    """Move ``amount`` from account ``src`` to ``dst`` (gaddrs) in one
    transaction.  Returns the source's post-transfer balance."""

    def body(txn):
        src_raw = yield from txn.read(src, length=BALANCE_BYTES)
        dst_raw = yield from txn.read(dst, length=BALANCE_BYTES)
        new_src = decode_balance(src_raw) - amount
        txn.write(src, encode_balance(new_src))
        txn.write(dst, encode_balance(decode_balance(dst_raw) + amount))
        return new_src

    return (yield from client.txn.run((src, dst), body))


def bank_read_balances(client,
                       gaddrs: Sequence[int]) -> Generator[Any, Any, Dict[int, int]]:
    """Read every balance outside any transaction (audit helper).

    Uses the op driver's no-history entry so the audit itself doesn't
    pollute a recorded history with single-register reads of txn-managed
    keys.
    """
    balances: Dict[int, int] = {}
    for gaddr in gaddrs:
        raw = yield from client._driver.op("gread", gaddr, 0, BALANCE_BYTES,
                                           history=False)
        balances[gaddr] = decode_balance(raw)
    return balances


def bank_total(balances: Dict[int, int]) -> int:
    return sum(balances.values())
