"""The client's scratch region, lent by the byte: random lends and returns
never overlap, stay inside the region, coalesce back to one free run, and
serve waiters in arrival order."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reads import SCRATCH_LINE, Scratch
from repro.sim import Simulator

SIZE = 8 * 1024  # small enough that takers wait

ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(0, SIZE)),
        st.tuples(st.just("free"), st.integers(0, 1 << 16)),
    ),
    max_size=80,
)


def _line_span(offset, nbytes):
    lines = max(1, -(-nbytes // SCRATCH_LINE))
    return offset, offset + lines * SCRATCH_LINE


def _check(scratch, live):
    spans = sorted(_line_span(off, n) for off, n in live)
    for lo, hi in spans:
        assert 0 <= lo < hi <= SIZE
    for (_lo, hi), (lo, _hi) in zip(spans, spans[1:]):
        assert hi <= lo, f"lent spans overlap: {spans}"
    runs = scratch._runs
    for (_lo, hi), (lo, _hi) in zip(runs, runs[1:]):
        assert hi < lo, f"free runs overlap or were not coalesced: {runs}"
    lent = sum(hi - lo for lo, hi in spans)
    assert lent + sum(hi - lo for lo, hi in runs) == SIZE


@settings(max_examples=200, deadline=None)
@given(ops)
def test_lends_never_overlap_and_waiters_are_served_in_order(script):
    scratch = Scratch(Simulator(seed=1), SIZE)
    live = []  # (offset, nbytes) of every lent span
    waiting = []  # (nbytes, event), oldest first
    for op, arg in script:
        if op == "alloc":
            offset = scratch.try_alloc(arg)
            if offset is None:
                waiting.append((arg, scratch.wait(arg)))
            else:
                assert not waiting, "try_alloc jumped the queue"
                live.append((offset, arg))
        elif live:
            scratch.free(*live.pop(arg % len(live)))
            while waiting and waiting[0][1].triggered:
                nbytes, event = waiting.pop(0)
                live.append((event.value, nbytes))
            assert not any(ev.triggered for _n, ev in waiting), (
                "a later waiter was served before an earlier one")
        _check(scratch, live)
    while live:
        scratch.free(*live.pop())
        while waiting and waiting[0][1].triggered:
            nbytes, event = waiting.pop(0)
            live.append((event.value, nbytes))
        _check(scratch, live)
    assert not waiting and scratch.idle
