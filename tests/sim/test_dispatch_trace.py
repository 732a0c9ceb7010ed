"""Permanent same-seed determinism pins for the kernel.

All three replay the seeded YCSB-B + chaos scenario from
``dispatch_scenario.py``.

**Resumption order** (``tests/data/resumption_order_golden.json``): the
``(time, process)`` sequence of every generator resume, logged by a
test-side wrapper.  This is what the simulation *is* — every virtual time,
RNG draw and metric follows from it — so no kernel change may move it.  The
golden was captured on PR 11's commit, under the kernel that dispatched
every wake-up, and PR 12 (zero-delay event elision) had to reproduce it
byte for byte.

RE-CAPTURED ONCE, WHEN THE CONFIG LEFT THE ATTACH REPLY — a protocol change,
not a kernel one.  The master's attach reply stopped pickling the whole
``GengarConfig`` (clients are built with the pool's config), so each reply
is 777 bytes shorter, the bootstrap ends earlier, and the fault plan's
absolute windows land on other operations: 13,291 resumptions became 13,255
and ``final_time_ns`` 287,477 became 289,206.  Proven before re-pinning:
with the reply padded back to its old pickled length, both goldens,
``BENCH_perf.json`` and all eleven chaos rows reproduced the previous capture
byte for byte; only the padding was then dropped.

**Pair-form resumption order** (``tests/data/pair_resumption_golden.json``):
the same log with no yield rewritten, so a timed hold, ``yield (resource,
ns)``, is the one resume the kernel makes at the end of the hold.  The pin
above cannot see how the kernel orders a hold — its stand-in hands the
kernel a bare slot wait and a bare delay instead — and this one can.  It
was captured on a1dde4b, the last kernel that granted a timed hold by a
grant entry and woke a joined process by ``Event._dispatch``, before the
kernel change that dropped both: 7,533 resumptions, ``final_time_ns``
259,443, reproduced byte for byte after it.

**Dispatch trace** (``tests/data/dispatch_trace_golden.json``): the
``(time, callback)`` sequence seen by ``sim.dispatch_hook``.  It pins how
the kernel *delivers* those resumptions and catches a queue that no longer
runs entries in (time, seq) order.  RE-CAPTURED ONCE, IN PR 12: 16,832
dispatches became 9,374 because a wait that is already over (free
``Resource`` slot, ``Store`` item present, accepted ``put``, an event fired
with no waiter) no longer costs a pass-through ``Event._dispatch``.  The
scenario did not change (``SCENARIO_VERSION`` stays 1), ``final_time_ns``
did not change (287,477), and the resumption pin above is the proof that
nothing else did; the golden's own ``recaptured`` block records the old
count and hash.

RE-CAPTURED A SECOND TIME, IN PR 13 (bare-delay waits), AND NOT A SECOND
CONTRACT CHANGE: the trace hashes callback *names*, and the names of the
wake-ups changed.  4,858 of the 4,859 ``Timeout._fire`` entries are now the
sleeping process's own ``Process._resume``, queued at the same position of
the same bucket; the 702 ``Process._step`` first steps are ``Process._resume``
too, and since the first step now obeys PR 12's tail rule like every other
resume, 311 follow-on ``Event._dispatch`` entries are gone (9,374 → 9,063).
Every surviving entry is dispatched at the instant it was before,
``final_time_ns`` is 287,477, ``SCENARIO_VERSION`` stays 1, and the resumption
pin is reproduced byte for byte.  Old count, hash and reason are appended to
the golden's ``recaptured`` list.

RE-CAPTURED A THIRD TIME, IN PR 16 (kernel-native slot waits), NAMES ONLY
AGAIN: 9,063 dispatches before and after.  A slot granted away from the tail
of its instant, or handed over by a releasing holder, used to be delivered
by the ``Request`` event's ``Event._dispatch``; it is now the waiting
process's own entry, ``Process._resume``, appended at the same position of
the same bucket.  The argument is per instant, and was checked by capturing
the full trace on the parent commit and on this one: the two have the same
length, the same ``final_time_ns`` (287,477) and — compared position by
position — the same instant at every index, hence the same number of
dispatches in every instant; the 2,062 positions whose name differs all read
``Event._dispatch`` before and ``Process._resume`` after (1,075 of them are
grants of a timed hold, ``yield (resource, ns)``; 987 are bare grants).  The
resumption pin is reproduced byte for byte from an unedited golden: its
logging stand-in spells a timed hold out as yield-the-resource, yield-``ns``,
release (``dispatch_scenario._LoggedGenerator``), because the pair form
resumes its generator once where acquire-then-delay resumed it twice.  The
dispatch pin runs without the stand-in and sees the pair form itself.

RE-CAPTURED A FOURTH TIME, IN PR 19 (event-free store hand-offs), NAMES ONLY
ONCE MORE: 9,063 dispatches before and after.  An item handed to a parked
process by ``Store.put``, or taken from a non-empty store away from the tail
of its instant, used to be delivered by the get event's ``Event._dispatch``;
it is now the taking process's own entry, ``Process._resume``, appended at
the same position of the same bucket.  Checked as in PR 16, full trace
against full trace: same length, same ``final_time_ns`` (287,477), the same
instant at every index; the 572 positions whose name differs all read
``Event._dispatch`` before and ``Process._resume`` after.  A work request's
completion now fires from its verb process instead of a ``done`` event beside
it — an ``Event._dispatch`` either way, in the same place — and the read
mux's consumer still waits on a two-callback event, so none of its entries
moved either.  The resumption pin is reproduced byte for byte, unedited.

RE-CAPTURED A FIFTH TIME together with the resumption pin, when the config
left the attach reply (above): 9,063 dispatches became 9,104 and
``final_time_ns`` 289,206.

RE-CAPTURED A SIXTH TIME, WHEN THE READ MUX BECAME A ``Store``: 9,104
dispatches became 9,074.  A completed read puts ``(tag, event)`` into the
mux's store, and the batch's consumer yields the store instead of a fresh
two-callback ``mux.next`` event per read.  Of the 199 ``Event._dispatch``
entries that delivered such an event, 169 are the parked consumer's own
``Process._resume``, appended at the same position, and 30 are gone — a
pair already waiting is taken inline at the tail of its instant.  30
instants hold one dispatch fewer, every other instant as many as before,
``final_time_ns`` is 289,206 and the resumption pin is reproduced byte for
byte, unedited.

RE-CAPTURED A SEVENTH TIME, WHEN THE LAST CONTROL-PLANE TIMERS IN ``core/``
AND ``txn/`` BECAME BARE DELAYS, NAMES ONLY: 9,074 dispatches before and
after.  Eleven waits (planner, aggregation, lease sweep, recovery grace,
fencing, heartbeat, lock and txn backoffs) yield their delay where they
yielded ``sim.timeout(n)``; the wake-up is the sleeping process's own
``Process._resume`` at the bucket position of the ``Timeout._fire`` it
replaces.  In this scenario one of them fires, the master's planner epoch.
Full trace against full trace: the same length, ``final_time_ns`` and
instant at every index; the one differing position reads ``Timeout._fire``
before and ``Process._resume`` after.  The resumption pin is reproduced
byte for byte, unedited.

RE-CAPTURED AN EIGHTH TIME, WHEN THE KERNEL STOPPED QUEUING ENTRIES THAT
RESUME NOTHING: 7,267 dispatches became 5,914.  A timed hold's end is queued
when its slot is taken — free, at the tail of its instant or not, or handed
over by a releasing holder — where a grant entry used to run first only to
queue it.  A process that finishes while its dispatch is the last entry of
its instant, with one waiter, wakes that waiter in place instead of queuing
the ``Event._dispatch`` that would have run next.  Same-instant ties among
hold ends may order differently; in this scenario neither resumption pin
moved, and ``final_time_ns`` is 259,443.

RE-CAPTURED A NINTH TIME, ALL THREE AT ONCE, WHEN THE RPC SERVE LOOP WENT:
5,914 dispatches became 5,731, 10,610 resumptions 10,345 and 7,533 pair
resumptions 7,268.  A request is consumed in the step that delivers its
receive completion (the CQ's consumer copies it out, re-posts the QP's one
receive and spawns the handler there), and a handler takes a free reply
slot without a yield.  So every ``<node>.rpc.loop`` resume is gone, each
handler's first step is queued at the delivering step instead of behind
the loop's wake-up, and the reply slot's store entry is gone.  This is a
change to the modelled control plane's process structure, not to the
kernel; no hardware stage moved, and ``final_time_ns`` stays 259,443.

Each re-capture since the attach reply was written by
``python -m tests.sim.dispatch_scenario --recapture "REASON"``, which
appends the old count, hash, ``final_time_ns`` and the reason to the
``recaptured`` list of every golden that moved.

A mismatch in any of them is a kernel bug (or a deliberate contract change that
must be called out as loudly as this one), never something to silence by
editing the scenario.
"""

import json

from tests.sim.dispatch_scenario import (
    DISPATCH_GOLDEN,
    PAIR_GOLDEN,
    RESUMPTION_GOLDEN,
    SCENARIO_SEED,
    SCENARIO_VERSION,
    capture_dispatches,
    capture_pair_resumptions,
    capture_resumptions,
    fingerprint,
    run_scenario,
)


def test_resumption_order_matches_the_always_dispatch_kernel():
    _check_resumptions(RESUMPTION_GOLDEN, capture_resumptions)


def test_pair_form_resumption_order_matches_golden():
    _check_resumptions(PAIR_GOLDEN, capture_pair_resumptions)


def _check_resumptions(path, capture):
    golden = json.loads(path.read_text())
    assert golden["version"] == SCENARIO_VERSION
    assert golden["seed"] == SCENARIO_SEED

    log, end = capture()

    for idx, when, label in golden["checkpoints"]:
        assert idx < len(log), f"log too short: {len(log)} <= {idx}"
        assert log[idx] == (when, label), (
            f"resumption #{idx} diverged: got {log[idx]}, golden ({when}, {label!r})"
        )
    got = fingerprint(log)
    assert got["dispatches"] == golden["resumptions"]
    assert end == golden["final_time_ns"]
    assert got["sha256"] == golden["sha256"]


def test_dispatch_order_matches_golden():
    golden = json.loads(DISPATCH_GOLDEN.read_text())
    assert golden["version"] == SCENARIO_VERSION
    assert golden["seed"] == SCENARIO_SEED

    trace = capture_dispatches()
    got = fingerprint(trace)

    # Checkpoints first: on mismatch they localize the first divergence far
    # better than a hash inequality.
    for idx, when, name in golden["checkpoints"]:
        assert idx < len(trace), (
            f"trace too short: {len(trace)} < checkpoint index {idx} "
            f"(golden has {golden['dispatches']} dispatches)"
        )
        assert trace[idx] == (when, name), (
            f"dispatch #{idx} diverged: got {trace[idx]}, golden ({when}, {name!r})"
        )

    assert got["dispatches"] == golden["dispatches"]
    assert got["final_time_ns"] == golden["final_time_ns"]
    assert got["sha256"] == golden["sha256"]


def test_dispatch_hook_does_not_change_the_run():
    """The instrumented run loops must be semantically identical to the hot
    ones: same final virtual time, same dispatch count."""
    plain = run_scenario()

    count = [0]

    def install(sim):
        sim.dispatch_hook = lambda when, fn: count.__setitem__(0, count[0] + 1)

    hooked = run_scenario(install_hook=install)
    assert hooked.now == plain.now
    assert hooked.total_dispatched == plain.total_dispatched
    assert count[0] == hooked.total_dispatched
