"""record() vs record_batch() equivalence for every placement policy.

The master flushes each epoch report through ``record_batch`` (one call per
server) instead of one ``record`` per object.  Batching is purely a
wall-clock optimisation: for every policy the batched fold must leave the
policy in exactly the state the per-entry calls would, so promotion and
demotion decisions cannot change.
"""

import random

from repro.core.hotness import (
    EpochDecayPolicy,
    LfuPolicy,
    LruPolicy,
    NeverCachePolicy,
    RandomPolicy,
)

ENTRIES = [
    (1, 5, 0),
    (2, 0, 3),
    (3, 2, 2),
    (1, 4, 1),   # repeat gaddr: batches must accumulate, not overwrite
    (99, 7, 7),  # untracked gaddr: both paths must ignore it
    (4, 1, 0),
]


def _seed_tracked(policy):
    for g in (1, 2, 3, 4):
        policy.track(g, 256)


def _pair(factory):
    """Two identically-configured policies tracking the same objects."""
    a, b = factory(), factory()
    _seed_tracked(a)
    _seed_tracked(b)
    return a, b


def _plans(policy, rounds=4, capacity=768, used=0):
    """Drive several epochs so decay/eviction behaviour is exercised too."""
    out = []
    for _ in range(rounds):
        plan = policy.plan(capacity=capacity, used=used)
        for g in plan.promotions:
            policy.on_promoted(g)
        for g in plan.demotions:
            policy.on_demoted(g)
        used += sum(256 for _ in plan.promotions)
        used -= sum(256 for _ in plan.demotions)
        out.append((plan.promotions, plan.demotions))
    return out


def _assert_equivalent(factory):
    seq, batched = _pair(factory)
    for entry in ENTRIES:
        seq.record(*entry)
    batched.record_batch(ENTRIES)
    assert _plans(seq) == _plans(batched)


def test_epoch_decay_batch_matches_sequential():
    _assert_equivalent(lambda: EpochDecayPolicy(decay=0.5, promote_threshold=4.0))


def test_epoch_decay_batch_accumulates_stats():
    seq, batched = _pair(lambda: EpochDecayPolicy(decay=0.5, promote_threshold=4.0))
    for entry in ENTRIES:
        seq.record(*entry)
    batched.record_batch(ENTRIES)
    for policy in (seq, batched):
        policy.plan(capacity=0, used=0)  # folds epoch counts into scores
        policy.record(1, reads=1, writes=0)
        policy.plan(capacity=0, used=0)
    for g in (1, 2, 3, 4):
        assert seq.stats_for(g).score == batched.stats_for(g).score
    assert batched.stats_for(1).score == (5 + 4 + 1) * 0.5 + 1


def test_lru_batch_matches_sequential():
    _assert_equivalent(LruPolicy)


def test_lru_batch_clock_orders_like_sequential():
    # The victim choice depends on the per-entry clock: the last-touched
    # object in the batch must be the most recent, exactly as sequentially.
    seq, batched = _pair(LruPolicy)
    order = [(1, 1, 0), (2, 1, 0), (3, 1, 0), (4, 1, 0), (1, 1, 0)]
    for entry in order:
        seq.record(*entry)
    batched.record_batch(order)
    assert seq._last_touch == batched._last_touch


def test_lfu_batch_matches_sequential():
    _assert_equivalent(lambda: LfuPolicy(promote_threshold=2))


def test_random_batch_matches_sequential():
    # record() never consumes randomness, so seeding both policies alike
    # keeps their plan() draws aligned.
    _assert_equivalent(lambda: RandomPolicy(random.Random(7), churn=2))


def test_never_cache_batch_is_inert():
    _assert_equivalent(NeverCachePolicy)


def test_batch_ignores_untracked_entries():
    for factory in (
        lambda: EpochDecayPolicy(decay=0.5, promote_threshold=4.0),
        LruPolicy,
        lambda: LfuPolicy(promote_threshold=2),
        lambda: RandomPolicy(random.Random(3), churn=2),
        NeverCachePolicy,
    ):
        policy = factory()
        policy.record_batch([(12345, 10, 10)])  # nothing tracked: no effect
        assert policy.plan(capacity=4096, used=0).is_noop


def test_empty_batch_is_noop():
    policy = EpochDecayPolicy(decay=0.5, promote_threshold=4.0)
    _seed_tracked(policy)
    policy.record_batch([])
    assert policy.plan(capacity=4096, used=0).is_noop
