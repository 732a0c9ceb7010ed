"""Property tests: invariants every placement policy must uphold.

Whatever the access pattern, a policy's plans must be *executable*: no
promotion of something already cached, no demotion of something not cached,
no overlap between the two lists, and the post-plan cache footprint must fit
the advertised capacity.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hotness import EpochDecayPolicy, LfuPolicy, LruPolicy, RandomPolicy

_SIZES = (128, 512, 2048)

_event = st.one_of(
    st.tuples(st.just("track"), st.integers(0, 30), st.integers(0, 2)),
    st.tuples(st.just("record"), st.integers(0, 30), st.integers(1, 40)),
    st.tuples(st.just("free"), st.integers(0, 30)),
    st.tuples(st.just("plan"), st.integers(0, 0)),
)


def _drive(policy, events, capacity, check=None):
    """Apply an event stream, executing plans faithfully; check invariants
    (and ``check(plan)`` on every plan, when given)."""
    tracked = {}
    cached = {}
    for ev in events:
        kind = ev[0]
        if kind == "track":
            gaddr, size_idx = ev[1], ev[2]
            size = _SIZES[size_idx]
            if gaddr not in tracked:
                tracked[gaddr] = size
                policy.track(gaddr, size)
        elif kind == "record":
            policy.record(ev[1], reads=ev[2], writes=0)
        elif kind == "free":
            gaddr = ev[1]
            if gaddr in tracked:
                policy.on_freed(gaddr)
                tracked.pop(gaddr)
                cached.pop(gaddr, None)
        else:  # plan
            used = sum(cached.values())
            plan = policy.plan(capacity=capacity, used=used)
            # --- invariants -------------------------------------------
            assert len(set(plan.promotions)) == len(plan.promotions)
            assert len(set(plan.demotions)) == len(plan.demotions)
            assert not set(plan.promotions) & set(plan.demotions)
            for gaddr in plan.promotions:
                assert gaddr in tracked, "promoted an unknown object"
                assert gaddr not in cached, "promoted an already-cached object"
            for gaddr in plan.demotions:
                assert gaddr in cached, "demoted a non-cached object"
            if check is not None:
                check(plan)
            # Execute the plan as the master would.
            for gaddr in plan.demotions:
                policy.on_demoted(gaddr)
                cached.pop(gaddr)
            for gaddr in plan.promotions:
                policy.on_promoted(gaddr)
                cached[gaddr] = tracked[gaddr]
            assert sum(cached.values()) <= capacity, "cache overcommitted"
    return cached


@given(events=st.lists(_event, min_size=1, max_size=60),
       capacity=st.sampled_from((512, 2048, 8192)))
@settings(max_examples=80, deadline=None)
def test_epoch_decay_plans_are_executable(events, capacity):
    policy = EpochDecayPolicy(decay=0.5, promote_threshold=1.0)
    _drive(policy, events + [("plan", 0)], capacity)


@given(events=st.lists(_event, min_size=1, max_size=60),
       capacity=st.sampled_from((512, 2048, 8192)))
@settings(max_examples=80, deadline=None)
def test_epoch_decay_demotes_only_for_a_hotter_promotion(events, capacity):
    """A plan with no promotions has no demotions, and every demoted object
    is colder than some object promoted in the same plan."""
    policy = EpochDecayPolicy(decay=0.5, promote_threshold=1.0)

    def check(plan):
        if not plan.promotions:
            assert plan.demotions == (), "demoted with nothing to promote"
        hottest = max((policy.stats_for(g).score for g in plan.promotions),
                      default=0.0)
        for gaddr in plan.demotions:
            assert policy.stats_for(gaddr).score < hottest, "evicted for a colder one"

    _drive(policy, events + [("plan", 0)] * 8, capacity, check)


@given(events=st.lists(_event, min_size=1, max_size=60),
       capacity=st.sampled_from((512, 2048, 8192)))
@settings(max_examples=60, deadline=None)
def test_lru_plans_are_executable(events, capacity):
    _drive(LruPolicy(), events + [("plan", 0)], capacity)


@given(events=st.lists(_event, min_size=1, max_size=60),
       capacity=st.sampled_from((512, 2048, 8192)))
@settings(max_examples=60, deadline=None)
def test_lfu_plans_are_executable(events, capacity):
    _drive(LfuPolicy(promote_threshold=1.0), events + [("plan", 0)], capacity)


@given(events=st.lists(_event, min_size=1, max_size=60),
       capacity=st.sampled_from((512, 2048, 8192)),
       seed=st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_random_plans_are_executable(events, capacity, seed):
    policy = RandomPolicy(random.Random(seed), churn=4)
    _drive(policy, events + [("plan", 0)], capacity)


@given(hits=st.lists(st.integers(1, 100), min_size=2, max_size=10))
@settings(max_examples=60, deadline=None)
def test_epoch_decay_promotes_hottest_first_under_pressure(hits):
    """With room for exactly one object, the single hottest one wins."""
    policy = EpochDecayPolicy(decay=1.0, promote_threshold=0.5)
    for gaddr, count in enumerate(hits):
        policy.track(gaddr, 256)
        policy.record(gaddr, reads=count, writes=0)
    plan = policy.plan(capacity=256, used=0)
    assert len(plan.promotions) == 1
    winner = plan.promotions[0]
    assert hits[winner] == max(hits)
