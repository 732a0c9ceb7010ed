"""Tests for the hot-data identification policies."""

import random

import pytest

from repro.core.hotness import (
    EpochDecayPolicy,
    LfuPolicy,
    LruPolicy,
    NeverCachePolicy,
    PlacementPlan,
    RandomPolicy,
)

KIB = 1024


def make_policy(**kw):
    defaults = dict(decay=0.5, promote_threshold=4.0)
    defaults.update(kw)
    return EpochDecayPolicy(**defaults)


def test_plan_empty_is_noop():
    policy = make_policy()
    plan = policy.plan(capacity=1024, used=0)
    assert plan.is_noop


def test_hot_object_promoted():
    policy = make_policy()
    policy.track(gaddr=1, size=256)
    policy.record(1, reads=10, writes=0)
    plan = policy.plan(capacity=1024, used=0)
    assert plan.promotions == (1,)
    assert plan.demotions == ()


def test_cold_object_not_promoted():
    policy = make_policy()
    policy.track(1, 256)
    policy.record(1, reads=2, writes=0)  # below the threshold of 4
    assert policy.plan(capacity=1024, used=0).is_noop


def test_writes_count_toward_hotness():
    policy = make_policy()
    policy.track(1, 256)
    policy.record(1, reads=0, writes=6)
    assert policy.plan(capacity=1024, used=0).promotions == (1,)


def test_promotions_ranked_hottest_first_within_capacity():
    policy = make_policy()
    for g, hits in [(1, 5), (2, 50), (3, 20)]:
        policy.track(g, 512)
        policy.record(g, reads=hits, writes=0)
    plan = policy.plan(capacity=1024, used=0)
    assert plan.promotions == (2, 3)  # hottest two fill the 1 KiB


def test_score_decays_and_triggers_demotion():
    """The planner takes an object out of DRAM only to make room: a cooled
    object in a cache with room stays cached, and the first strictly hotter
    candidate that cannot fit beside it evicts it."""
    policy = make_policy(decay=0.25, promote_threshold=4.0)
    policy.track(1, 256)
    policy.record(1, reads=16, writes=0)
    assert policy.plan(capacity=1024, used=0).promotions == (1,)
    policy.on_promoted(1)
    # Silent epochs: 16 -> 4 -> 1 -> 0.25 -> ... with 768 B free throughout.
    for _ in range(5):
        assert policy.plan(capacity=1024, used=256).is_noop
    assert policy.stats_for(1).cached
    # A hot candidate that fits beside it takes free space, not its slot.
    policy.track(2, 512)
    policy.record(2, reads=5, writes=0)
    plan = policy.plan(capacity=1024, used=256)
    assert (plan.promotions, plan.demotions) == ((2,), ())
    policy.on_promoted(2)
    # One that needs its room evicts it (object 2, warmer, stays).
    policy.track(3, 512)
    policy.record(3, reads=5, writes=0)
    plan = policy.plan(capacity=1024, used=768)
    assert (plan.promotions, plan.demotions) == ((3,), (1,))


def test_hysteresis_keeps_warm_objects_cached():
    """Below the promote threshold nothing moves: a cached object that cools
    under it stays cached, and a warm uncached one stays out."""
    policy = make_policy(decay=0.5, promote_threshold=10.0)
    policy.track(1, 256)
    policy.track(2, 256)
    policy.record(1, reads=12, writes=0)
    policy.record(2, reads=5, writes=0)
    plan = policy.plan(capacity=1024, used=0)
    assert plan.promotions == (1,)  # object 2's score 5 is below promote
    policy.on_promoted(1)
    # Next epoch: scores 6 and 2.5, both below promote, 768 B free.
    plan = policy.plan(capacity=1024, used=256)
    assert plan.is_noop
    assert policy.stats_for(1).cached and not policy.stats_for(2).cached


def test_eviction_replaces_colder_cached_object():
    policy = make_policy(decay=1.0)
    policy.track(1, 512)
    policy.record(1, reads=5, writes=0)
    plan = policy.plan(capacity=512, used=0)
    assert plan.promotions == (1,)
    policy.on_promoted(1)
    # A much hotter object appears; capacity only fits one.
    policy.track(2, 512)
    policy.record(2, reads=50, writes=0)
    plan = policy.plan(capacity=512, used=512)
    assert plan.demotions == (1,)
    assert plan.promotions == (2,)


def test_no_churn_on_equal_scores():
    policy = make_policy(decay=1.0)
    policy.track(1, 512)
    policy.record(1, reads=5, writes=0)
    policy.on_promoted(policy.plan(capacity=512, used=0).promotions[0])
    policy.track(2, 512)
    policy.record(2, reads=5, writes=0)  # equal heat after this epoch? No:
    # object 1's score decays to 5 (decay=1.0), object 2 reaches 5 too.
    plan = policy.plan(capacity=512, used=512)
    assert plan.is_noop  # equal scores: do not churn


def test_oversized_object_never_promoted():
    policy = make_policy()
    policy.track(1, 4096)
    policy.record(1, reads=100, writes=0)
    assert policy.plan(capacity=1024, used=0).is_noop


def test_freed_object_dropped():
    policy = make_policy()
    policy.track(1, 256)
    policy.record(1, reads=100, writes=0)
    policy.on_freed(1)
    assert policy.plan(capacity=1024, used=0).is_noop
    policy.record(1, reads=5, writes=0)  # stale report: ignored
    assert policy.plan(capacity=1024, used=0).is_noop


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        EpochDecayPolicy(decay=1.5)


def test_stats_accumulate_reads_writes():
    policy = make_policy()
    policy.track(1, 64)
    policy.record(1, reads=3, writes=2)
    policy.plan(capacity=0, used=0)
    assert policy.stats_for(1).score == 5.0
    policy.record(1, reads=1, writes=0)
    policy.record(1, reads=0, writes=1)
    policy.plan(capacity=0, used=0)
    assert policy.stats_for(1).score == 5.0 * 0.5 + 2


# ---------------------------------------------------------------------------
# Comparator policies (E8)
# ---------------------------------------------------------------------------
def test_lru_promotes_recent_evicts_stale():
    lru = LruPolicy()
    for g in (1, 2, 3):
        lru.track(g, 512)
    lru.record(1, 1, 0)
    lru.record(2, 1, 0)
    plan = lru.plan(capacity=1024, used=0)
    assert set(plan.promotions) == {1, 2}
    for g in plan.promotions:
        lru.on_promoted(g)
    lru.record(3, 1, 0)  # 3 is now most recent; 1 is the LRU victim
    plan = lru.plan(capacity=1024, used=1024)
    assert 3 in plan.promotions
    assert 1 in plan.demotions


def test_lfu_promotes_by_count():
    lfu = LfuPolicy(promote_threshold=2)
    for g, n in [(1, 10), (2, 1), (3, 5)]:
        lfu.track(g, 256)
        lfu.record(g, n, 0)
    plan = lfu.plan(capacity=512, used=0)
    assert plan.promotions == (1, 3)


def test_random_policy_respects_capacity():
    rp = RandomPolicy(random.Random(1), churn=10)
    for g in range(10):
        rp.track(g, 256)
        rp.record(g, 1, 0)
    plan = rp.plan(capacity=512, used=0)
    assert len(plan.promotions) <= 2


def test_never_cache_policy_is_inert():
    ncp = NeverCachePolicy()
    ncp.track(1, 10)
    ncp.record(1, 100, 100)
    assert ncp.plan(capacity=10_000, used=0).is_noop


def test_placement_plan_noop_flag():
    assert PlacementPlan((), ()).is_noop
    assert not PlacementPlan((1,), ()).is_noop


def test_lru_considers_later_candidates_after_unplaceable_one():
    """Regression: a candidate that cannot evict its way in must not abort
    the whole plan.

    The old victim loop popped candidates' victims before checking recency
    and, worse, broke out of the candidate loop entirely the first time an
    object could not be placed — silently pinning the cache and starving
    smaller, still-placeable candidates later in the recency order.  Here
    the most recent uncached object (size 2) cannot fit without evicting a
    *more recent* cached victim, but the next candidate (size 1) fits in
    the free space as-is: the fixed planner promotes it, the old one
    returned an empty plan.
    """
    lru = LruPolicy()
    for g, size in [(0x10, 1), (0xA0, 2), (0xB0, 1)]:
        lru.track(g, size)
    lru.record(0xB0, 1, 0)  # touch 1 (oldest)
    lru.record(0xA0, 1, 0)  # touch 2
    lru.record(0x10, 1, 0)  # touch 3 (most recent, cached)
    lru.on_promoted(0x10)

    plan = lru.plan(capacity=2, used=1)
    assert plan.demotions == ()  # the recent victim stays put
    assert plan.promotions == (0xB0,)  # old code: () — plan aborted


def test_lru_oversized_candidate_skipped_not_fatal():
    """An object larger than the whole cache is skipped, and planning
    continues with the remaining candidates."""
    lru = LruPolicy()
    lru.track(1, 100)
    lru.track(2, 8)
    lru.record(1, 1, 0)
    lru.record(2, 1, 0)
    plan = lru.plan(capacity=16, used=0)
    assert plan.promotions == (2,)


def test_lru_victim_survives_check_failure():
    """A victim spared by the recency check must stay in the working list
    (the old code popped it *before* checking, so one spared victim was
    silently dropped from consideration for the rest of the plan)."""
    lru = LruPolicy()
    for g in (1, 2, 3):
        lru.track(g, 1)
    lru.record(3, 1, 0)  # touch 1: uncached, oldest
    lru.record(1, 1, 0)  # touch 2: cached victim
    lru.record(2, 1, 0)  # touch 3: uncached, most recent
    lru.on_promoted(1)
    # Candidate 2 (touch 3) may evict victim 1 (touch 2); candidate 3
    # (touch 1) may not have evicted it.  Full plan: demote 1, promote 2.
    plan = lru.plan(capacity=1, used=1)
    assert plan.demotions == (1,)
    assert plan.promotions == (2,)
