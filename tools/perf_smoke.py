#!/usr/bin/env python3
"""Perf-smoke gate: fail when hot-path microbenchmarks or memory regress.

Compares a fresh google-benchmark JSON report against the checked-in
baseline (bench/perf_baseline.json) and fails when any selected benchmark's
real_time exceeds the baseline by more than --max-ratio. Absolute numbers
vary across machines, so the gate is a coarse regression tripwire (default
2x), not a precise budget.

    perf_smoke.py current.json baseline.json [--max-ratio 2.0] [name ...]
    perf_smoke.py current.json baseline.json --tight BM_DenseCampaignSeed=1.5
    perf_smoke.py current.json baseline.json --cli build/tools/byterobust

--tight NAME=RATIO (repeatable) overrides --max-ratio for one benchmark:
use it where the coarse 2x tripwire is too loose — e.g. the disabled-path
observability overhead budget on the campaign hot loop, which must stay
within 1.5x of the pre-instrumentation baseline.

Benchmark selection, in priority order: names given on the command line; the
baseline's "gated" list (so the set of gated benchmarks is versioned next to
the numbers themselves); otherwise every benchmark present in both files.

With --cli, the baseline's RSS gates are also enforced: the given byterobust
binary runs each recorded streaming-campaign command ("rss_gates" list, or
the legacy single "rss_gate" object) and its peak RSS must stay under that
gate's max_rss_mb. This is what keeps campaign memory O(window) — an
accidental return to O(steps) metric growth or O(seeds) run buffering trips
it just like a speed regression. Each command runs under rss_spawn, the
native spawner built beside the CLI (tools/rss_spawn.cc), which reports that
one child's ru_maxrss: a child forked from this interpreter would inherit
the interpreter's resident pages into its peak.

Stdlib-only, like every Python tool in CI — tools/ci_python_requirements.txt
is the shared (deliberately package-free) requirements file CI installs for
this script, the determinism lint, and the clang-tidy runner.
"""

import argparse
import json
import os
import subprocess
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_report(path):
    """Returns ({name: real_time_ns}, full_json)."""
    with open(path) as f:
        data = json.load(f)
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate rows (mean/median/stddev)
        unit = _UNIT_NS.get(bench.get("time_unit", "ns"))
        if unit is None:
            raise SystemExit(f"{path}: unknown time_unit in {bench['name']}")
        times[bench["name"]] = bench["real_time"] * unit
    return times, data


def check_rss_gate(spawner, cli, gate):
    """Runs the gated campaign command under rss_spawn and checks its peak RSS."""
    cmd = [cli] + gate["args"]
    limit_mb = gate["max_rss_mb"]
    # ru_maxrss is KiB on Linux but bytes on macOS.
    rss_per_mb = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    proc = subprocess.run([spawner] + cmd, stdout=subprocess.PIPE, text=True)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2:
        print(f"rss gate: {spawner} could not run {' '.join(cmd)}", file=sys.stderr)
        return False
    if fields[1] != "0":
        print(f"rss gate: {' '.join(cmd)} exited {fields[1]}", file=sys.stderr)
        return False
    peak_mb = int(fields[0]) / rss_per_mb
    verdict = "OK" if peak_mb <= limit_mb else "REGRESSION"
    print(f"rss gate ({' '.join(gate['args'])}): peak {peak_mb:.1f} MB, "
          f"limit {limit_mb:.1f} MB [{verdict}]")
    return peak_mb <= limit_mb


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("names", nargs="*")
    parser.add_argument("--max-ratio", type=float, default=2.0)
    parser.add_argument("--tight", action="append", default=[], metavar="NAME=RATIO",
                        help="per-benchmark ratio tighter than --max-ratio (repeatable)")
    parser.add_argument("--cli", help="byterobust binary; enables the baseline's rss_gate")
    args = parser.parse_intermixed_args()

    tight = {}
    for spec in args.tight:
        name, sep, ratio = spec.rpartition("=")
        if not sep or not name:
            raise SystemExit(f"error: --tight expects NAME=RATIO, got {spec!r}")
        try:
            tight[name] = float(ratio)
        except ValueError:
            raise SystemExit(f"error: --tight ratio is not a number in {spec!r}")

    current, _ = load_report(args.current)
    baseline, baseline_data = load_report(args.baseline)
    gated = baseline_data.get("gated")
    names = args.names or gated or sorted(current.keys() & baseline.keys())

    failures = []
    for name in names:
        if name not in baseline:
            raise SystemExit(f"error: {name} missing from baseline {args.baseline}")
        if name not in current:
            raise SystemExit(f"error: {name} missing from current run {args.current}")
        ratio = current[name] / baseline[name]
        limit = tight.get(name, args.max_ratio)
        verdict = "OK" if ratio <= limit else "REGRESSION"
        print(f"{name}: baseline {baseline[name] / 1e6:.3f} ms, "
              f"current {current[name] / 1e6:.3f} ms, ratio {ratio:.2f}x "
              f"(limit {limit:.2f}x) [{verdict}]")
        if ratio > limit:
            failures.append(name)

    rss_gates = list(baseline_data.get("rss_gates") or [])
    legacy_gate = baseline_data.get("rss_gate")
    if legacy_gate:
        rss_gates.append(legacy_gate)
    if args.cli:
        spawner = os.path.join(os.path.dirname(args.cli), "rss_spawn")
        if not os.access(spawner, os.X_OK):
            raise SystemExit(f"error: {spawner} not found (build the rss_spawn target)")
        for i, gate in enumerate(rss_gates):
            if not check_rss_gate(spawner, args.cli, gate):
                failures.append(f"rss_gate[{i}]")

    if failures:
        print(f"perf smoke FAILED: {', '.join(failures)} regressed more than "
              f"the gated budget", file=sys.stderr)
        return 1
    print(f"perf smoke passed ({len(names)} benchmarks within {args.max_ratio:.1f}x"
          + (f", {len(rss_gates)} rss gate(s) ok" if args.cli and rss_gates else "") + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
