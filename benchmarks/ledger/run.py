#!/usr/bin/env python3
"""The performance ledger: four workloads, two clocks, a traced run per layer.

    python benchmarks/ledger/run.py --seed 42 [--workload NAME] [--out FILE]
    python benchmarks/ledger/run.py --smoke
    python benchmarks/ledger/run.py --compare A.json B.json
    python benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

The last form is the benchmark contract of ``BENCHMARK.json``: it prints one
JSON object as the last line of standard output, with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  ``--seconds S``
measures ``S`` segments of a fixed op count, each sized to take about a
second of host time here: run length follows ``--seconds`` while every
virtual-clock number still repeats exactly for a given seed.

Each workload's passes run one after another in single-threaded
subprocesses with ``PYTHONHASHSEED=0``; see README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from typing import List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(_HERE, os.pardir, os.pardir))
sys.path.insert(0, _HERE)

import metrics  # noqa: E402

#: Segments the traced passes repeat (the first ones of the untraced run).
TRACED_SEGMENTS = 3
SMOKE_SEGMENTS = 2
SMOKE_SCALE = 0.1
WORKER_TIMEOUT_S = 170
SCHEMA = 1

#: Workload-separation checks on published counters of the untraced run:
#: each workload must load the layers it exists for and bypass the others.
SEPARATION = {
    "ycsb_b_hot": (("core.client.cache_hit_ratio", ">=", 0.4),
                   ("rdma.rpc.calls_per_op", "<=", 0.15)),
    "ycsb_a_write": (),
    "ycsb_c_cold": (("core.client.cache_hit_ratio", "<=", 0.15),
                    ("hardware.nvm.write_bytes_per_op", "<=", 0.0)),
    "meta_churn": (("rdma.rpc.calls_per_op", ">=", 0.5),),
}


class LedgerError(Exception):
    """The benchmark could not produce a trustworthy result."""


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Running the passes
# ----------------------------------------------------------------------
def run_worker(kind: str, workload: str, seed: int, segments: int,
               scale: float, trace_out: str = "") -> dict:
    cmd = [sys.executable, os.path.join(_HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--kind", kind,
           "--segments", str(segments), "--scale", str(scale)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    # subprocess.run kills and reaps the child on timeout.
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise LedgerError(f"{kind} pass of {workload} exited "
                          f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, segments: int, scale: float,
            layers: bool, trace_out: str = "") -> dict:
    """All passes of one workload, checked against each other."""
    traced = min(TRACED_SEGMENTS, segments)
    untraced = run_worker("untraced", workload, seed, segments, scale)
    profile = run_worker("profile", workload, seed, traced, scale)
    third = run_worker("span" if layers else "setup", workload, seed, traced,
                       scale, trace_out)

    errors = metrics.determinism_errors(untraced, profile)
    if layers:
        errors += metrics.determinism_errors(untraced, third)
    if errors:
        raise LedgerError(f"{workload}: a traced pass did not reproduce the "
                          "untraced run:\n  " + "\n  ".join(errors))

    attempted, failed = untraced["attempted"], untraced["failed"]
    failures = list(untraced["failures"])
    if scale == 1.0:
        ratios = metrics.published_ratios(untraced)
        for name, op, limit in SEPARATION[workload]:
            attempted += 1
            value = ratios[name]
            if not (value >= limit if op == ">=" else value <= limit):
                failed += 1
                failures.append(f"separation: {name} = {value:.4g}, "
                                f"must be {op} {limit}")
    untraced = dict(untraced, attempted=attempted, failed=failed)
    record = {
        "ops_sha256": untraced["ops_sha256"],
        "segments": segments,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": metrics.end_to_end(
            untraced, profile,
            [untraced["setup_s"], profile["setup_s"], third["setup_s"]]),
    }
    if layers:
        record["per_layer"] = metrics.per_layer(untraced, profile, third)
        share = sum(v for k, v in record["per_layer"].items()
                    if k.endswith(".host_share"))
        if abs(share - 1.0) > 0.01:
            raise LedgerError(f"{workload}: host_share sums to {share}")
        if "trace_file" in third:
            record["trace_file"] = third["trace_file"]
    return record


# ----------------------------------------------------------------------
# The contract form: one workload, one result line
# ----------------------------------------------------------------------
def contract_run(args, manifest: dict) -> int:
    layers = args.trace == 1
    segments = TRACED_SEGMENTS if layers else max(TRACED_SEGMENTS, args.seconds)
    record = measure(args.workload, args.seed, segments, 1.0, layers)
    if layers:
        values = record["per_layer"]
        wanted = manifest["per_layer"]
    else:
        values = {k: v["value"] for k, v in record["end_to_end"].items()}
        wanted = manifest["end_to_end"]
    for line in record["failures"]:
        print(f"FAILED {args.workload}: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


# ----------------------------------------------------------------------
# The ledger form: every workload, every metric, one JSON file
# ----------------------------------------------------------------------
def _annotate(values: dict, specs: List[dict]) -> dict:
    out = {}
    for spec in specs:
        cell = values[spec["name"]]
        cell = dict(cell) if isinstance(cell, dict) else {"value": cell}
        cell.update({k: spec[k] for k in ("unit", "better", "bound")
                     if k in spec})
        out[spec["name"]] = cell
    return out


def ledger_run(args, manifest: dict) -> int:
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload:
        if args.workload not in names:
            raise LedgerError(f"unknown workload {args.workload!r}")
        names = [args.workload]
    scale = SMOKE_SCALE if args.smoke else 1.0
    segments = SMOKE_SEGMENTS if args.smoke else max(
        TRACED_SEGMENTS, args.seconds or manifest["run_seconds"])
    out_path = os.path.abspath(args.out or os.path.join(
        _HERE, "out", "smoke.json" if args.smoke else f"ledger-seed{args.seed}.json"))
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    e2e_specs = manifest["end_to_end"] + [
        {"name": "fail_ratio", "unit": "ratio", "better": "lower", "bound": 0.0}]
    report = {"schema": SCHEMA, "seed": args.seed, "smoke": args.smoke,
              "segments": segments, "workloads": {}}
    failed = 0
    for name in names:
        trace_out = f"{os.path.splitext(out_path)[0]}.{name}.trace.json"
        record = measure(name, args.seed, segments, scale, True, trace_out)
        record["end_to_end"] = _annotate(record["end_to_end"], e2e_specs)
        record["per_layer"] = _annotate(record["per_layer"], manifest["per_layer"])
        report["workloads"][name] = record
        failed += record["failed"]
        print_record(name, record)
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"\nwrote {out_path}")
    return 1 if failed else 0


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:,.4g}" if abs(value) < 1000 else f"{value:,.1f}"


def print_record(name: str, record: dict) -> None:
    print(f"\n== {name}  ops_sha256={record['ops_sha256'][:16]}…  "
          f"segments={record['segments']}  attempted={record['attempted']}  "
          f"failed={record['failed']}")
    for line in record["failures"]:
        print(f"   FAILED: {line}")
    print(f"   {'end-to-end metric':<24}{'value':>14}  {'unit':<9}"
          f"{'better':<7}{'bound':>6}  spread")
    for metric, cell in record["end_to_end"].items():
        spread = ""
        if "q1" in cell:
            spread = (f"q1 {_fmt(cell['q1'])}  q3 {_fmt(cell['q3'])}  "
                      f"n={cell['samples']}")
        elif "samples" in cell:
            spread = f"n={cell['samples']}"
        print(f"   {metric:<24}{_fmt(cell['value']):>14}  {cell['unit']:<9}"
              f"{cell['better']:<7}{cell['bound']:>6.0%}  {spread}")
    print(f"   {'per-layer metric':<48}{'value':>14}  unit")
    for metric, cell in record["per_layer"].items():
        print(f"   {metric:<48}{_fmt(cell['value']):>14}  {cell['unit']}")
    if "trace_file" in record:
        print(f"   trace: {record['trace_file']}")


# ----------------------------------------------------------------------
# Comparing two ledgers
# ----------------------------------------------------------------------
def _spread(cell: dict) -> float:
    """How far a median of ``samples`` noisy values can be trusted, as a
    share of it: IQR / sqrt(samples), the scale of its standard error."""
    if "q1" not in cell or not cell["value"]:
        return 0.0
    return ((cell["q3"] - cell["q1"]) / abs(cell["value"])
            / math.sqrt(cell["samples"]))


def verdict(a: dict, b: dict, bound: float) -> str:
    """``b`` against ``a`` under the metric's direction and ``bound``."""
    if a["value"] == b["value"]:
        return "same"
    if not a["value"]:  # fail_ratio: from zero, any move is out of bound
        return "worse" if (b["value"] > 0) == (a["better"] == "lower") else "better"
    change = (b["value"] - a["value"]) / abs(a["value"])
    worse_by = change if a["better"] == "lower" else -change
    spread = max(_spread(a), _spread(b))
    if spread > bound and abs(worse_by) <= spread:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "same"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    bad = 0
    print(f"{'workload':<14}{'metric':<22}{'A':>14}{'B':>14}{'change':>9}"
          f"{'bound':>7}  verdict")
    for name, rec_a in a["workloads"].items():
        rec_b = b["workloads"].get(name)
        if rec_b is None:
            print(f"{name:<14}missing from {path_b}")
            bad += 1
            continue
        if rec_a["ops_sha256"] != rec_b["ops_sha256"]:
            print(f"{name:<14}ops_sha256 differs: the two runs did not "
                  "execute the same ops and cannot be compared")
            bad += 1
            continue
        for metric, cell_a in rec_a["end_to_end"].items():
            cell_b = rec_b["end_to_end"][metric]
            bound = metrics.SAME_SEED_BOUND.get(metric, cell_a["bound"])
            result = verdict(cell_a, cell_b, bound)
            change = ((cell_b["value"] - cell_a["value"]) / abs(cell_a["value"])
                      if cell_a["value"] else 0.0)
            print(f"{name:<14}{metric:<22}{_fmt(cell_a['value']):>14}"
                  f"{_fmt(cell_b['value']):>14}{change:>+9.2%}"
                  f"{bound:>7.0%}  {result}")
            bad += result == "worse"
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=0,
                        help="measured segments (about a second each)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract form: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--out", default="")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        manifest = load_manifest()
        if args.trace is not None:
            if not args.workload or args.seconds < 1:
                parser.error("--trace needs --workload and --seconds")
            return contract_run(args, manifest)
        return ledger_run(args, manifest)
    except (LedgerError, subprocess.TimeoutExpired) as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
