"""Validation and algebra of declarative fault plans."""

import pytest

from repro.faults import (
    ClientCrash,
    ClientRecover,
    FaultPlan,
    FaultPlanError,
    LatencySpike,
    LinkFlap,
    LossyLink,
    MasterCrash,
    MasterRecover,
    Partition,
    RingStall,
    ServerCrash,
    ServerRecover,
)


def test_of_and_len():
    plan = FaultPlan.of(ServerCrash(at_ns=10, server_id=0))
    assert len(plan) == 1
    assert len(FaultPlan()) == 0


def test_timed_actions_sort_by_time():
    plan = FaultPlan.of(
        ServerRecover(at_ns=300, server_id=0),
        ServerCrash(at_ns=100, server_id=0),
        RingStall(at_ns=200, duration_ns=50, server_id=0),
    )
    assert [f.at_ns for f in plan.timed] == [100, 200, 300]


def test_windows_and_timed_are_partitioned():
    lossy = LossyLink(start_ns=0, end_ns=10, drop_prob=0.5)
    flap = LinkFlap(start_ns=5, end_ns=15, node="server0")
    crash = ServerCrash(at_ns=5, server_id=0)
    plan = FaultPlan.of(lossy, crash, flap)
    assert plan.windows == (lossy, flap)
    assert plan.timed == (crash,)


def test_horizon_covers_the_stall_tail():
    plan = FaultPlan.of(
        RingStall(at_ns=100, duration_ns=500, server_id=0),
        LossyLink(start_ns=0, end_ns=550, drop_prob=0.1),
        ServerCrash(at_ns=590, server_id=0),
    )
    assert plan.horizon_ns == 600  # stall runs until 100 + 500


def test_shifted_moves_every_fault_and_preserves_the_original():
    plan = FaultPlan.of(
        ServerCrash(at_ns=10, server_id=1),
        LossyLink(start_ns=20, end_ns=30, drop_prob=0.5, src="a"),
        Partition(start_ns=40, end_ns=50, group_a=("a",), group_b=("b",)),
    )
    moved = plan.shifted(1_000)
    assert moved.timed[0].at_ns == 1_010
    assert moved.windows[0].start_ns == 1_020
    assert moved.windows[0].end_ns == 1_030
    assert moved.windows[0].src == "a"  # non-time fields ride along
    assert moved.windows[1].group_a == ("a",)
    assert plan.timed[0].at_ns == 10  # plans are immutable


def test_shifted_moves_the_times_of_all_eleven_fault_types():
    """Every absolute time moves by the delta; every other field — a
    stall's relative ``duration_ns`` included — is carried over as is."""
    faults = (
        ServerCrash(at_ns=1, server_id=2),
        ServerRecover(at_ns=2, server_id=2, reconcile=False),
        MasterCrash(at_ns=3, shard=1),
        MasterRecover(at_ns=4, shard=1),
        ClientCrash(at_ns=5, client="client0", tear_inflight=True),
        ClientRecover(at_ns=6, client="client0"),
        RingStall(at_ns=7, duration_ns=70, server_id=1),
        LossyLink(start_ns=8, end_ns=80, drop_prob=0.5, src="a", dst="b"),
        LatencySpike(start_ns=9, end_ns=90, extra_ns=900, src="a"),
        LinkFlap(start_ns=10, end_ns=100, node="server0"),
        Partition(start_ns=11, end_ns=110, group_a=("a",), group_b=("b",)),
    )
    assert len({type(f) for f in faults}) == 11
    moved = FaultPlan.of(*faults).shifted(1_000)
    for before, after in zip(faults, moved.faults):
        assert type(after) is type(before)
        for name, value in vars(before).items():
            if name in ("at_ns", "start_ns", "end_ns"):
                assert getattr(after, name) == value + 1_000, (before, name)
            else:
                assert getattr(after, name) == value, (before, name)


def test_plans_compare_by_value():
    a = FaultPlan.of(ServerCrash(at_ns=1, server_id=0))
    b = FaultPlan.of(ServerCrash(at_ns=1, server_id=0))
    assert a == b


def test_master_and_client_faults_sort_with_the_rest():
    plan = FaultPlan.of(
        ClientRecover(at_ns=400, client="client0"),
        MasterRecover(at_ns=300),
        ClientCrash(at_ns=100, client="client0", tear_inflight=True),
        MasterCrash(at_ns=200),
    )
    assert [f.at_ns for f in plan.timed] == [100, 200, 300, 400]
    moved = plan.shifted(50)
    assert [f.at_ns for f in moved.timed] == [150, 250, 350, 450]
    assert moved.timed[0].client == "client0"  # non-time fields ride along
    assert moved.timed[0].tear_inflight is True
    assert moved.timed[2].shard == 0  # the default


@pytest.mark.parametrize("bad", [
    ServerCrash(at_ns=-1, server_id=0),
    MasterCrash(at_ns=-1),
    MasterRecover(at_ns=-1),
    ClientCrash(at_ns=10, client=""),      # client fault needs a name
    ClientRecover(at_ns=10, client=""),
    ServerRecover(at_ns=-5, server_id=0),
    RingStall(at_ns=0, duration_ns=0, server_id=0),
    LossyLink(start_ns=10, end_ns=10, drop_prob=0.5),  # empty window
    LossyLink(start_ns=10, end_ns=5, drop_prob=0.5),   # backwards window
    LossyLink(start_ns=0, end_ns=10, drop_prob=0.0),   # dropless lossy link
    LossyLink(start_ns=0, end_ns=10, drop_prob=1.5),
    LatencySpike(start_ns=0, end_ns=10, extra_ns=0),
    Partition(start_ns=0, end_ns=10, group_a=(), group_b=("b",)),
    Partition(start_ns=0, end_ns=10, group_a=("a",), group_b=("a", "b")),
])
def test_rejects_ill_formed_faults(bad):
    with pytest.raises(FaultPlanError):
        FaultPlan.of(bad)


def test_rejects_objects_that_are_not_faults():
    with pytest.raises(FaultPlanError):
        FaultPlan.of("crash please")
