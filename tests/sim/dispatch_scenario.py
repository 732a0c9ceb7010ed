"""The shared scenario behind the same-seed kernel pins.

A seeded YCSB-B run over the full Gengar pool with a chaos mix layered on
top (ring stalls on both servers, a lossy-link window with retransmits, and
a latency spike).  The kernel determinism contract says such a run is a pure
function of the seed: processes resume in one well-defined order, and every
dispatch happens at a well-defined (time, seq) position, regardless of how
the event queue is implemented internally.

``tests/sim/test_dispatch_trace.py`` replays this scenario against three
committed fingerprints: the resumption order with every timed hold spelled
out (``logged_resumptions`` below; captured under the always-dispatch
kernel, moved only by a deliberate change to the modelled protocol), the
resumption order of the pair form as the kernel runs it
(``capture_pair_resumptions``), and the per-dispatch (time, callback) trace
seen by ``sim.dispatch_hook``.

A change that moves any of them on purpose re-captures all three with::

    PYTHONPATH=src python -m tests.sim.dispatch_scenario --recapture "REASON"

which rewrites each golden that moved and appends its old count, hash and
``final_time_ns`` and the reason to that golden's ``recaptured`` list.
"""

from __future__ import annotations

import argparse
import json
from contextlib import contextmanager
from hashlib import sha256
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

SCENARIO_SEED = 1234

#: Bump only when the *scenario itself* changes (workload shape, fault plan),
#: never to paper over a kernel ordering change.
SCENARIO_VERSION = 1

DATA = Path(__file__).resolve().parents[1] / "data"
DISPATCH_GOLDEN = DATA / "dispatch_trace_golden.json"
RESUMPTION_GOLDEN = DATA / "resumption_order_golden.json"
PAIR_GOLDEN = DATA / "pair_resumption_golden.json"


def run_scenario(install_hook: Optional[Callable] = None):
    """Build the pool, arm the chaos mix, run YCSB-B; returns the simulator.

    ``install_hook(sim)`` is called right after the simulator is created and
    before anything is scheduled, so a dispatch hook can observe the whole
    run including the bootstrap handshake.
    """
    from repro.baselines.common import build_system
    from repro.bench.runner import YcsbRunner
    from repro.faults import FaultPlan, LatencySpike, LossyLink, RingStall
    from repro.sim.kernel import Simulator
    from repro.workloads.ycsb import WORKLOAD_B

    sim = Simulator(seed=SCENARIO_SEED)
    if install_hook is not None:
        install_hook(sim)
    system = build_system("gengar", sim, num_servers=2, num_clients=2)
    plan = FaultPlan.of(
        RingStall(at_ns=60_000, duration_ns=40_000, server_id=0),
        LossyLink(start_ns=90_000, end_ns=160_000, drop_prob=0.2),
        LatencySpike(start_ns=170_000, end_ns=230_000, extra_ns=2_500),
        RingStall(at_ns=240_000, duration_ns=50_000, server_id=1),
    )
    system.pool.inject_faults(plan, rng_name="faults.pin")
    spec = WORKLOAD_B.scaled(record_count=48, value_size=96)
    runner = YcsbRunner(system, spec, num_workers=3, ops_per_worker=90)
    runner.load()
    runner.run()
    return sim


def fingerprint(trace: List[Tuple[int, str]]) -> dict:
    """Stable digest of a dispatch trace.

    The full trace is tens of thousands of entries, so the golden stores a
    hash over the whole (time, callback) sequence plus sparse checkpoints
    for debuggability on mismatch.
    """
    h = sha256()
    for when, name in trace:
        h.update(b"%d:%s;" % (when, name.encode()))
    return {
        "version": SCENARIO_VERSION,
        "seed": SCENARIO_SEED,
        "dispatches": len(trace),
        "sha256": h.hexdigest(),
        "final_time_ns": trace[-1][0] if trace else 0,
        "checkpoints": [
            [i, trace[i][0], trace[i][1]] for i in range(0, len(trace), 2500)
        ],
    }


def callback_name(fn) -> str:
    """A refactor-stable label for a scheduled callback."""
    return getattr(fn, "__qualname__", None) or type(fn).__name__


class _LoggedGenerator:
    """Stands in for a process generator and logs every resume.

    A timed hold, ``yield (resource, ns)``, resumes its generator once where
    acquire-then-delay resumed it twice, so the stand-in spells the hold out:
    it yields the resource, is resumed (logged) with the slot, yields ``ns``,
    is resumed (logged) again, releases the slot and only then resumes the
    generator.  The log is then the one ``resumption_order_golden.json`` was
    captured with.
    """

    def __init__(self, generator, sim, label: str, log: list):
        self._generator = generator
        self._sim = sim
        self._label = label
        self._log = log
        self._hold = None   # (resource, ns): waiting for the slot
        self._held = None   # resource: slot delivered, inside the delay
        self.__name__ = getattr(generator, "__name__", "process")
        self.close = generator.close

    def _expand(self, target):
        if type(target) is tuple:
            self._hold = target
            return target[0]
        return target

    def _end_hold(self):
        held, self._held = self._held, None
        if held is not None:
            held.release()

    def send(self, value):
        self._log.append((self._sim.now, self._label))
        if self._hold is not None:
            (self._held, ns), self._hold = self._hold, None
            return ns
        self._end_hold()
        return self._expand(self._generator.send(value))

    def throw(self, exc):
        self._log.append((self._sim.now, self._label))
        self._hold = None  # the kernel withdrew the wait or returned the slot
        self._end_hold()
        return self._expand(self._generator.throw(exc))


class _PairLoggedGenerator(_LoggedGenerator):
    """Logs every resume and hands every yield to the kernel as it is, so a
    timed hold is the one resume the pair form makes."""

    def _expand(self, target):
        return target


@contextmanager
def logged_resumptions(log: List[Tuple[int, str]],
                       stand_in=_LoggedGenerator) -> Iterator[None]:
    """Append ``(sim.now, "<process name>#<spawn index>")`` to ``log`` at
    every generator resume (``send`` or ``throw``) of every process spawned
    inside the block.  The default stand-in spells each timed hold out;
    ``_PairLoggedGenerator`` leaves it a pair.

    Entirely test-side: ``Process.__init__`` is wrapped so the generator it
    receives is a logging stand-in; the kernel has no hook for this.  The
    resumption sequence is what the simulation *is* — every virtual time, RNG
    draw and metric follows from it — so unlike the dispatch trace it must
    survive any change to how the kernel delivers wake-ups.
    """
    from repro.sim.kernel import Process

    original = Process.__init__
    spawned = [0]

    def init(self, sim, generator, name: str = ""):
        if hasattr(generator, "send"):
            name = name or getattr(generator, "__name__", "process")
            generator = stand_in(
                generator, sim, "%s#%d" % (name, spawned[0]), log)
            spawned[0] += 1
        original(self, sim, generator, name=name)

    Process.__init__ = init
    try:
        yield
    finally:
        Process.__init__ = original


def capture_dispatches() -> List[Tuple[int, str]]:
    """The scenario's ``(time, callback)`` dispatch trace."""
    trace: List[Tuple[int, str]] = []

    def install(sim):
        sim.dispatch_hook = lambda when, fn: trace.append((when, callback_name(fn)))

    run_scenario(install_hook=install)
    return trace


def capture_resumptions(stand_in=_LoggedGenerator) -> Tuple[List[Tuple[int, str]], int]:
    """The scenario's ``(time, process)`` resumption log, as ``stand_in``
    logs it (every timed hold spelled out by default), and its end time."""
    log: List[Tuple[int, str]] = []
    with logged_resumptions(log, stand_in):
        sim = run_scenario()
    return log, sim.now


def capture_pair_resumptions() -> Tuple[List[Tuple[int, str]], int]:
    """The scenario's resumption log with no yield rewritten: a timed hold
    is one resume, at the end of the hold, as the kernel runs it."""
    return capture_resumptions(_PairLoggedGenerator)


def _resumption_fingerprint(capture) -> dict:
    log, end = capture()
    resumed = fingerprint(log)
    resumed["final_time_ns"] = end
    return resumed


def recapture(reason: str) -> None:
    """Rewrite all three goldens from this tree.  A golden whose fingerprint
    moved keeps a record of what it was, and why it moved."""
    for path, count, new in (
            (DISPATCH_GOLDEN, "dispatches", fingerprint(capture_dispatches())),
            (RESUMPTION_GOLDEN, "resumptions",
             _resumption_fingerprint(capture_resumptions)),
            (PAIR_GOLDEN, "resumptions",
             _resumption_fingerprint(capture_pair_resumptions))):
        golden = json.loads(path.read_text())
        new[count] = new.pop("dispatches")  # fingerprint()'s name for length
        if all(golden[k] == new[k] for k in (count, "sha256", "final_time_ns")):
            print(f"{path.name}: unchanged")
            continue
        history = golden.pop("recaptured", []) + [{
            f"{count}_before": golden[count],
            f"{count}_after": new[count],
            "sha256_before": golden["sha256"],
            "final_time_ns_before": golden["final_time_ns"],
            "reason": reason,
        }]
        # Key order as committed: identity, provenance, history, fingerprint.
        rewritten = {k: v for k, v in golden.items() if k not in new}
        rewritten = {"version": new["version"], "seed": new["seed"],
                     **rewritten, "recaptured": history,
                     **{k: new[k] for k in (count, "sha256", "final_time_ns",
                                            "checkpoints")}}
        path.write_text(json.dumps(rewritten, indent=1) + "\n")
        print(f"{path.name}: {count} {golden[count]} -> {new[count]}, "
              f"final_time_ns {golden['final_time_ns']} -> {new['final_time_ns']}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Re-capture the dispatch and both resumption goldens")
    parser.add_argument("--recapture", metavar="REASON", required=True,
                        help="why the pinned order moved, kept in the golden")
    recapture(parser.parse_args().recapture)
