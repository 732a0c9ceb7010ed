"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info`` — version, systems, experiment ids.
* ``demo`` — the quickstart walkthrough (same as examples/quickstart.py).
* ``experiments [IDS...]`` — regenerate reconstructed tables/figures
  (``python -m repro experiments > docs/RESULTS.txt`` with no ids).
* ``ycsb --workload A --system gengar`` — one YCSB run with knobs.
* ``trace --out trace.json`` — instrumented YCSB run, exported as Chrome
  ``trace_event`` JSON (load in Perfetto / ``chrome://tracing``).
* ``metrics --format prom`` — one YCSB run, metric registry rendered as
  Prometheus text (or a versioned JSON snapshot).
* ``check HISTORY.jsonl`` — audit a recorded op history (see
  ``bench/chaos.py --history-out``) for atomicity, strict
  serializability (per-key linearizability where no transaction is
  involved) and lock-model violations.  Exits non-zero with a minimal
  counterexample on failure.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.check.linearize import DEFAULT_MAX_STATES


def _cmd_info(_args: argparse.Namespace) -> int:
    from repro.baselines.common import SYSTEM_NAMES
    from repro.bench.experiments import ALL_EXPERIMENTS
    from repro.workloads.ycsb import WORKLOADS

    print(f"gengar reproduction v{__version__}")
    print(f"systems:     {', '.join(SYSTEM_NAMES)}")
    print(f"workloads:   YCSB {', '.join(sorted(WORKLOADS))}")
    print(f"experiments: {', '.join(ALL_EXPERIMENTS)}")
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.core import GengarPool
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    pool = GengarPool.build(sim, num_servers=2, num_clients=1)
    client = pool.clients[0]

    def app(sim):
        gaddr = yield from client.gmalloc(1024)
        yield from client.gwrite(gaddr, b"demo payload" + bytes(1012))
        data = yield from client.gread(gaddr, length=12)
        yield from client.gsync()
        return gaddr, data

    ((gaddr, data),) = pool.run(app(sim))
    print(f"allocated {gaddr:#x}, wrote+read back: {data!r}")
    print(f"virtual time elapsed: {sim.now / 1000:.1f} us")
    for key, value in pool.metrics_snapshot().items():
        print(f"  {key:24s} {value}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    import time

    from repro.bench.experiments import ALL_EXPERIMENTS

    wanted = [a.upper() for a in args.ids] or list(ALL_EXPERIMENTS)
    unknown = [w for w in wanted if w not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; have {list(ALL_EXPERIMENTS)}")
        return 2
    # stdout is a function of the code alone (docs/RESULTS.txt is this
    # command's stdout, pinned by tests/bench/test_results_pin.py); the
    # wall-clock note goes to stderr.
    for exp_id in wanted:
        start = time.time()
        result = ALL_EXPERIMENTS[exp_id]()
        print(result.render())
        print()
        print(f"[{exp_id} regenerated in {time.time() - start:.1f}s wall]",
              file=sys.stderr)
    return 0


def _cmd_ycsb(args: argparse.Namespace) -> int:
    from repro.bench.experiments import bench_config, boot
    from repro.bench.runner import YcsbRunner
    from repro.workloads.ycsb import WORKLOADS

    spec = WORKLOADS[args.workload.upper()].scaled(
        record_count=args.records, value_size=args.value_size)
    system = boot(args.system, seed=args.seed, num_servers=args.servers,
                  num_clients=args.clients, config_overrides=bench_config())
    runner = YcsbRunner(system, spec, num_workers=args.clients,
                        ops_per_worker=args.ops)
    runner.load()
    result = runner.run()
    print(f"system={result.system} workload=YCSB-{result.workload}")
    print(f"throughput: {result.throughput_ops_s / 1000:.1f} kops/s "
          f"({result.total_ops} ops in {result.elapsed_ns / 1e6:.2f} ms virtual)")
    print(f"cache hit ratio: {result.cache_hit_ratio:.3f}")
    for kind, snap in sorted(result.latency_ns.items()):
        print(f"  {kind:8s} mean {snap['mean'] / 1000:7.2f} us   "
              f"p99 {snap['p99'] / 1000:7.2f} us   n={snap['count']}")
    return 0


def _instrumented_ycsb(args: argparse.Namespace):
    """Boot one system, attach a span recorder, run a YCSB pass.

    Returns ``(system, runner_result, recorder)``.
    """
    from repro import obs
    from repro.bench.experiments import bench_config, boot
    from repro.bench.runner import YcsbRunner
    from repro.workloads.ycsb import WORKLOADS

    spec = WORKLOADS[args.workload.upper()].scaled(
        record_count=args.records, value_size=args.value_size)
    system = boot(args.system, seed=args.seed, num_servers=args.servers,
                  num_clients=args.clients, config_overrides=bench_config())
    recorder = obs.install(system.sim)
    runner = YcsbRunner(system, spec, num_workers=args.clients,
                        ops_per_worker=args.ops)
    runner.load()
    result = runner.run()
    return system, result, recorder


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro import obs

    system, result, recorder = _instrumented_ycsb(args)
    with open(args.out, "w") as fh:
        json.dump(obs.chrome_trace(recorder), fh)
    print(f"wrote {args.out}: {len(recorder)} spans "
          f"({recorder.dropped} dropped) over {len(recorder.tracks())} tracks "
          f"from {result.total_ops} YCSB-{result.workload} ops")
    if args.spans:
        with open(args.spans, "w") as fh:
            fh.write(obs.spans_jsonl(recorder))
        print(f"wrote {args.spans}: one JSON object per span")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro import obs

    system, _result, _recorder = _instrumented_ycsb(args)
    if args.format == "prom":
        sys.stdout.write(obs.prometheus_text(system.sim.metrics))
    else:
        json.dump(obs.registry_snapshot(system.sim.metrics), sys.stdout,
                  indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import check_history, load_history

    result = check_history(load_history(args.history),
                           max_states=args.max_states)
    stats = result.stats
    print(f"{args.history}: {stats['ops']} ops, "
          f"{stats['components']} key components, "
          f"{stats['lock_keys']} lock keys, {stats['txns']} transactions "
          f"({stats['committed']} committed, {stats['aborted']} aborted, "
          f"{stats['indeterminate']} indeterminate)")
    if stats["undecided"]:
        print(f"undecided (state cap): "
              f"{[hex(k) for k in stats['undecided']]}", file=sys.stderr)
    if result.ok:
        print("history is linearizable and strictly serializable "
              "(atomicity + lock audits pass)")
        return 0
    for v in result.violations:
        print(f"FAIL: {v}", file=sys.stderr)
    if args.counterexample:
        n = result.dump_counterexample(args.counterexample)
        print(f"wrote minimal counterexample ({n} ops) to "
              f"{args.counterexample}", file=sys.stderr)
    return 1


def _add_ycsb_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", default="A", choices=list("ABCDEFabcdef"))
    p.add_argument("--system", default="gengar")
    p.add_argument("--records", type=int, default=300)
    p.add_argument("--value-size", type=int, default=1024)
    p.add_argument("--servers", type=int, default=2)
    p.add_argument("--clients", type=int, default=2)
    p.add_argument("--ops", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="versions, systems, experiment ids")
    sub.add_parser("demo", help="30-second pool walkthrough")

    p_exp = sub.add_parser("experiments", help="regenerate tables/figures")
    p_exp.add_argument("ids", nargs="*", help="experiment ids (default: all)")

    p_ycsb = sub.add_parser("ycsb", help="one YCSB run")
    _add_ycsb_knobs(p_ycsb)

    p_trace = sub.add_parser(
        "trace", help="instrumented YCSB run -> Chrome trace JSON")
    _add_ycsb_knobs(p_trace)
    p_trace.add_argument("--out", default="trace.json",
                         help="Chrome trace_event output path")
    p_trace.add_argument("--spans", default=None,
                         help="also dump the raw span log as JSONL here")

    p_metrics = sub.add_parser(
        "metrics", help="one YCSB run -> metric registry dump")
    _add_ycsb_knobs(p_metrics)
    p_metrics.add_argument("--format", default="prom",
                           choices=["prom", "json"])

    p_check = sub.add_parser(
        "check", help="audit a recorded op history for linearizability "
                      "and txn serializability")
    p_check.add_argument("history", help="JSONL history file "
                         "(bench/chaos.py --history-out, or any recorder dump)")
    p_check.add_argument("--counterexample", default=None,
                         help="write the minimal failing op set here (JSONL)")
    p_check.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES,
                         help="per-component search state cap before "
                              "'undecided'")

    args = parser.parse_args(argv)
    handler = {
        "info": _cmd_info,
        "demo": _cmd_demo,
        "experiments": _cmd_experiments,
        "ycsb": _cmd_ycsb,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "check": _cmd_check,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
