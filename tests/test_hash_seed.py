"""Virtual time is a function of (seed, config) and nothing else.

Each scenario runs in a fresh interpreter under ``PYTHONHASHSEED=0`` and
``=1``; what it reports — virtual end time, the whole metric registry, the
chaos report — must not differ.  ``str`` hashes do differ between the two,
so anything routed, ordered or sized by ``hash()`` (or by iterating a set of
strings on the way to a ``yield``) shows up here.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _wordcount():
    from repro import obs
    from repro.apps.mapreduce import MapReduceEngine, wordcount_job
    from repro.baselines.common import build_system
    from repro.sim import Simulator
    from repro.workloads.corpus import CorpusGenerator

    sim = Simulator(seed=710)
    system = build_system("gengar", sim, num_servers=2, num_clients=2)
    chunks = CorpusGenerator(vocab_size=200, rng=random.Random(710)).chunks(
        4, 8 * 1024)
    engine = MapReduceEngine(system.clients)
    out = {}

    def job(sim):
        addrs = yield from engine.ingest(system.clients[0], chunks)
        out["result"] = yield from engine.run(
            wordcount_job(num_reducers=4), addrs, [len(c) for c in chunks])

    system.run(job(sim))
    return {"now": sim.now, "shuffle_bytes": out["result"].shuffle_bytes,
            "metrics": obs.registry_snapshot(sim.metrics)}


def _ycsb_small():
    from repro import obs
    from repro.baselines.common import build_system
    from repro.bench.runner import YcsbRunner
    from repro.sim import Simulator
    from repro.workloads.ycsb import WORKLOAD_B

    sim = Simulator(seed=42)
    system = build_system("gengar", sim, num_servers=2, num_clients=2)
    spec = WORKLOAD_B.scaled(record_count=64, value_size=128)
    runner = YcsbRunner(system, spec, num_workers=2, ops_per_worker=50)
    runner.load()
    runner.run()
    return {"now": sim.now, "metrics": obs.registry_snapshot(sim.metrics)}


def _chaos():
    from repro import obs
    from repro.bench.chaos import ChaosSoak

    soak = ChaosSoak(seed=7, smoke=True)
    report = soak.run()
    return {"now": soak.sim.now, "report": report,
            "metrics": obs.registry_snapshot(soak.sim.metrics)}


SCENARIOS = {"wordcount": _wordcount, "ycsb_small": _ycsb_small,
             "chaos": _chaos}


def _run_under(hash_seed: int, scenario: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(
                   [str(REPO_ROOT / "src"), str(REPO_ROOT)]))
    proc = subprocess.run(
        [sys.executable, "-m", "tests.test_hash_seed", scenario],
        env=env, cwd=REPO_ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_virtual_results_do_not_follow_the_hash_seed(scenario):
    a = _run_under(0, scenario)
    b = _run_under(1, scenario)
    assert a["str_hash"] != b["str_hash"], "the two runs must really differ"
    assert a["now"] == b["now"]
    assert a["out"] == b["out"]


if __name__ == "__main__":
    result = SCENARIOS[sys.argv[1]]()
    json.dump({"str_hash": hash("gengar"), "now": result.pop("now"),
               "out": result}, sys.stdout, sort_keys=True)
