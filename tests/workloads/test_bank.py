"""The transactional bank workload: conserved totals under contention.

Each transfer is one two-object transaction, so the pool-wide invariant —
the sum of all balances never changes — holds at every instant a reader
could observe, not just at quiescence.  The test drives three contending
clients, audits the byte-level total, and replays the recorded history
through the strict-serializability checker.
"""

import pytest

from repro.check import check_history
from repro.check.history import HistoryRecorder
from repro.core.errors import TxnAbortedError
from repro.workloads import (
    BankSpec,
    bank_read_balances,
    bank_setup,
    bank_total,
    bank_transfer,
    decode_balance,
    encode_balance,
)
from tests.core.conftest import build_pool, fast_config


def txn_config(**overrides):
    defaults = dict(enable_txn=True)
    defaults.update(overrides)
    return fast_config(**defaults)


def test_spec_validation_and_encoding():
    spec = BankSpec(accounts=4, initial_balance=250)
    assert spec.expected_total == 1000
    with pytest.raises(ValueError):
        BankSpec(accounts=1)
    # Balances are SIGNED: an overdraft must round-trip, since only the
    # total is invariant, not per-account non-negativity.
    for value in (0, 1000, -1, -123456789):
        assert decode_balance(encode_balance(value)) == value


def test_single_transfer_moves_exactly_amount():
    sim, pool = build_pool(seed=1, num_servers=2, num_clients=1,
                           config=txn_config())
    client = pool.clients[0]
    spec = BankSpec(accounts=2, initial_balance=100)

    def app(sim):
        gaddrs = yield from bank_setup(client, spec)
        new_src = yield from bank_transfer(client, gaddrs[0], gaddrs[1], 30)
        balances = yield from bank_read_balances(client, gaddrs)
        return gaddrs, new_src, balances

    ((gaddrs, new_src, balances),) = pool.run(app(sim))
    assert new_src == 70
    assert [balances[g] for g in gaddrs] == [70, 130]
    assert bank_total(balances) == spec.expected_total


def test_contending_transfers_conserve_total_and_serialize():
    sim, pool = build_pool(seed=9, num_servers=2, num_clients=3,
                           config=txn_config())
    recorder = HistoryRecorder(sim)
    recorder.install()
    spec = BankSpec(accounts=8, initial_balance=1000)

    def setup(sim):
        return (yield from bank_setup(pool.clients[0], spec))

    (gaddrs,) = pool.run(setup(sim))

    def worker(client, count, tag):
        rng = sim.rng.stream(f"bank-test.{tag}")

        def proc(sim):
            done = 0
            for _ in range(count):
                i = rng.randrange(spec.accounts)
                j = rng.randrange(spec.accounts - 1)
                if j >= i:
                    j += 1
                amount = 1 + rng.randrange(spec.max_transfer)
                try:
                    yield from bank_transfer(client, gaddrs[i], gaddrs[j],
                                             amount)
                except TxnAbortedError:
                    continue  # clean abort: nothing moved
                done += 1
                yield sim.timeout(1_000 + rng.randrange(2_000))
            return done

        return proc

    counts = pool.run(*(worker(c, 20, c.name)(sim) for c in pool.clients))
    assert sum(counts) > 0

    def audit(sim):
        return (yield from bank_read_balances(pool.clients[0], gaddrs))

    (balances,) = pool.run(audit(sim))
    assert bank_total(balances) == spec.expected_total

    recorder.uninstall()
    res = check_history(recorder.ops)
    assert res.ok, res.violations
    assert res.stats["committed"] == sum(counts)
    assert res.stats["undecided"] == []
