#!/usr/bin/env python3
"""The repository benchmark: campaign throughput, serve latency and a
per-layer seed budget over dense-month, quickstart-journal, fleet-mixed and
serve-mixed.

    python3 perfbench/run.py --workload dense-month --seed 1 --seconds 45 --trace 0

Builds the CLI and perfbench_probe from this checkout into .bench_build/,
runs the workload for --seconds, checks the outputs (see the gates in
batch.py and serve.py) and prints a readable report followed, as the last
stdout line, by one JSON object {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics from untraced runs;
--trace 1 makes a separate traced run and reports the per-layer metrics
plus the "where a seed goes" table. spec.py documents every metric.
"""

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import batch  # noqa: E402
import common  # noqa: E402
import layers  # noqa: E402
import serve  # noqa: E402
import spec  # noqa: E402


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def print_report(title, rows):
    print(title)
    for name, value, unit in rows:
        text = "%.6g" % value if isinstance(value, (int, float)) else str(value)
        print("  %-34s %14s %-8s %s" % (name, text, unit, spec.NOTES.get(name, "")))


def main():
    args = parse_args()
    if not common.sources_present():
        print("perfbench: no byterobust sources next to perfbench/ (need CMakeLists.txt, "
              "src/, tools/)", file=sys.stderr)
        return 2
    mismatch = spec.check_benchmark_json(os.path.join(common.ROOT, "BENCHMARK.json"))
    if mismatch:
        print("perfbench: BENCHMARK.json disagrees with spec.py: " + mismatch, file=sys.stderr)
        return 2
    # Run the documented configuration: no BYTEROBUST_* knob from the caller's
    # environment (BYTEROBUST_TRACE would trace the untraced runs).
    for name in [n for n in os.environ if n.startswith("BYTEROBUST_")]:
        del os.environ[name]
    common.build()

    w = spec.WORKLOADS[args.workload]
    tmp = os.path.join(common.BUILD, "tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        if args.trace:
            metrics, report, gate = layers.measure(args.workload, w, tmp, args.seed,
                                                   args.seconds)
            units = {name: unit for name, unit, _ in spec.PER_LAYER}
        else:
            run = batch.measure if w["kind"] == "batch" else serve.measure
            metrics, report, gate = run(w, tmp, args.seed, args.seconds)
            units = {m[0]: m[1] for m in spec.END_TO_END}
            if any(name.endswith("trace.json") for name in os.listdir(tmp)):
                gate.problems.append("an end-to-end run wrote a trace")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    title = "perfbench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed,
                                                          args.seconds, args.trace)
    print_report(title, [(k, v, units[k]) for k, v in metrics.items()])
    print_report("  -- also measured", [(k, v, "") for k, v in report.items()])
    for failure in gate.failures:
        print("  FAILED OPERATION: " + failure)
    for problem in gate.problems:
        print("  WRONG OUTPUT: " + problem)
    result = {
        "correct": not gate.problems,
        "attempted": max(1, gate.attempted),
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except common.BenchError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        sys.exit(1)
