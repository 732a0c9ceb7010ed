#!/usr/bin/env python3
"""The acceptance check of the benchmark contract, run by hand.

    python benchmarks/ledger/spread.py [--runs 10] [--first-seed 1] [--out FILE]

Runs ``BENCHMARK.json``'s command ``--runs`` times on each workload, each time
with another ``--seed``, and prints for each end-to-end metric the distance
between the first and third quartile of its values as a share of their
median, next to the metric's bound.  README.md's noise floor comes from here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import ROOT, load_manifest  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    manifest = load_manifest()
    report = {}
    over = 0
    for workload in manifest["workloads"]:
        name = workload["name"]
        if args.workload and name != args.workload:
            continue
        samples = {m["name"]: [] for m in manifest["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                manifest["command"] + [
                    "--workload", name, "--seed", str(seed), "--seconds",
                    str(manifest["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed",
                      file=sys.stderr)
                over += 1
            for metric, cell in result["metrics"].items():
                samples[metric].append(cell["value"])
        report[name] = samples
        print(f"\n{name}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<22}{'median':>12}{'IQR/median':>12}{'bound':>8}"
              f"{'bound/3':>9}")
        for spec in manifest["end_to_end"]:
            values = samples[spec["name"]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = ""
            if spec["name"] != "setup_s" and spread > spec["bound"]:
                flag = "  OVER BOUND"
                over += 1
            elif spread > spec["bound"] / 3:
                flag = "  over a third"
            if len(set(values)) == 1:
                flag += "  CONSTANT"
            print(f"  {spec['name']:<22}{median:>12.5g}{spread:>12.2%}"
                  f"{spec['bound']:>8.0%}{spec['bound'] / 3:>9.1%}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
