"""Checks of the ledger itself.  Run explicitly (tier-1 ``testpaths`` is
``tests/``)::

    python -m pytest benchmarks/ledger/test_ledger.py -q
"""

import json
import os
import random
import re
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import run as ledger  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def manifest():
    return ledger.load_manifest()


def test_manifest_meets_the_contract(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert manifest["command"][-1].startswith(manifest["paths"][0] + "/")
    assert 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = []
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    assert set(ledger.SEPARATION) == {w["name"] for w in manifest["workloads"]}


def test_streams_depend_on_the_seed_and_nothing_else():
    shape = loadgen.YcsbShape(records=50, value_size=32, read_share=0.5,
                              distribution="zipfian", workers=2,
                              warmup_ops=20, segment_ops=20)
    one = loadgen.YcsbStream("w", shape, 7)
    assert one.digest(2) == loadgen.YcsbStream("w", shape, 7).digest(2)
    assert one.digest(2) != loadgen.YcsbStream("w", shape, 8).digest(2)
    # Segment k is the same ops however many segments follow it.
    assert one.phase_ops(1) == loadgen.YcsbStream("w", shape, 7).phase_ops(1)
    code = ("import sys; sys.path.insert(0, %r); import loadgen; "
            "print(loadgen.ChurnStream('c', loadgen.ChurnShape(4, 16, 16, 16), 3)"
            ".digest(2))" % HERE)
    digests = {
        subprocess.run([sys.executable, "-c", code], text=True, check=True,
                       capture_output=True,
                       env=dict(os.environ, PYTHONHASHSEED=hs)).stdout
        for hs in ("1", "2")}
    assert len(digests) == 1


def test_zipfian_is_skewed_and_uniform_is_not():
    def hottest_share(distribution):
        shape = loadgen.YcsbShape(records=100, value_size=8, read_share=1.0,
                                  distribution=distribution, workers=1,
                                  warmup_ops=4000, segment_ops=8)
        keys = [k for _, k, _ in loadgen.YcsbStream("w", shape, 1).phase_ops(0)[0]]
        assert min(keys) >= 0 and max(keys) < 100
        return max(keys.count(k) for k in set(keys)) / len(keys)

    assert hottest_share("zipfian") > 0.1
    assert hottest_share("uniform") < 0.03


def test_grouped_quantile_is_the_stdlib_grouped_median():
    rng = random.Random(5)
    for _ in range(200):
        data = sorted(rng.choice([3962] * 8 + [2399, 3963, 4793, 4999])
                      for _ in range(rng.randrange(1, 60)))
        assert loadgen.grouped_quantile(data, 0.5) == pytest.approx(
            statistics.median_grouped(data, 1))
    assert loadgen.grouped_quantile([], 0.99) == 0.0
    assert 99 <= loadgen.grouped_quantile(list(range(1, 101)), 0.99) <= 100


def test_verdict_applies_direction_bound_and_spread():
    lower = {"value": 100.0, "better": "lower"}
    assert ledger.verdict(lower, dict(lower, value=105.0), 0.10) == "same"
    assert ledger.verdict(lower, dict(lower, value=120.0), 0.10) == "worse"
    assert ledger.verdict(lower, dict(lower, value=80.0), 0.10) == "better"
    higher = dict(lower, better="higher")
    assert ledger.verdict(higher, dict(higher, value=80.0), 0.10) == "worse"
    noisy = dict(lower, q1=60.0, q3=140.0, samples=16)
    assert ledger.verdict(noisy, dict(noisy, value=112.0), 0.10) == "unresolved"
    assert ledger.verdict(noisy, dict(noisy, value=150.0), 0.10) == "worse"
    fails = {"value": 0.0, "better": "lower"}
    assert ledger.verdict(fails, dict(fails, value=0.0), 0.0) == "same"
    assert ledger.verdict(fails, dict(fails, value=0.001), 0.0) == "worse"


def test_smoke_run_schema_and_self_compare(tmp_path, manifest):
    out = tmp_path / "smoke.json"
    run_py = os.path.join(HERE, "run.py")
    proc = subprocess.run([sys.executable, run_py, "--smoke", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert report["schema"] == ledger.SCHEMA and report["smoke"] is True
    assert sorted(report["workloads"]) == sorted(
        w["name"] for w in manifest["workloads"])
    e2e_names = [m["name"] for m in manifest["end_to_end"]] + ["fail_ratio"]
    layer_names = [m["name"] for m in manifest["per_layer"]]
    for name, record in report["workloads"].items():
        assert re.fullmatch(r"[0-9a-f]{64}", record["ops_sha256"])
        assert record["failed"] == 0, record["failures"]
        assert sorted(record["end_to_end"]) == sorted(e2e_names)
        assert sorted(record["per_layer"]) == sorted(layer_names)
        for cell in list(record["end_to_end"].values()) + list(
                record["per_layer"].values()):
            assert isinstance(cell["value"], (int, float))
            assert UNIT.match(cell["unit"]) and cell["better"] in ("higher", "lower")
        for metric in e2e_names[:-1]:
            assert record["end_to_end"][metric]["value"] > 0, (name, metric)
        share = sum(c["value"] for m, c in record["per_layer"].items()
                    if m.endswith(".host_share"))
        assert abs(share - 1.0) <= 0.01
        assert os.path.exists(record["trace_file"])
    cold = report["workloads"]["ycsb_c_cold"]["per_layer"]
    assert cold["hardware.nvm.write_bytes_per_op"]["value"] == 0
    assert cold["core.server.drained_bytes_per_op"]["value"] == 0

    same = subprocess.run([sys.executable, run_py, "--compare", str(out), str(out)],
                          capture_output=True, text=True)
    assert same.returncode == 0, same.stdout
    rows = [line for line in same.stdout.splitlines()[1:] if line.strip()]
    assert len(rows) == len(report["workloads"]) * len(e2e_names)
    assert all(row.endswith("same") for row in rows)

    # A different op stream is not comparable.
    other = json.loads(out.read_text())
    other["workloads"]["meta_churn"]["ops_sha256"] = "0" * 64
    changed = tmp_path / "other.json"
    changed.write_text(json.dumps(other))
    differ = subprocess.run(
        [sys.executable, run_py, "--compare", str(out), str(changed)],
        capture_output=True, text=True)
    assert differ.returncode != 0 and "ops_sha256 differs" in differ.stdout
