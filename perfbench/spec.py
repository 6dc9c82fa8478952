"""What the benchmark measures: workloads, metrics, and which layer metric
should move which end-to-end metric on which workload.

BENCHMARK.json at the repository root lists the same names; run.py refuses to
start when the two disagree, so this table and that file cannot drift apart.
"""

import json

# Serve latency limit: a rate "meets the limit" when p90 latency (timed from
# each request's due time) is at most this, nothing fails or is shed, the
# backlog does not grow and the generator itself was on time.
LATENCY_LIMIT_MS = 2.0

WORKLOADS = {
    "dense-month": {
        "kind": "batch",
        "command": "campaign",
        "scenario": "dense-month",
        "days": 30.0,
        "seeds": 4,           # seeds per invocation: a few long seeds, one per worker
        "journal": False,
        "why": "9,600-GPU 30-day seeds: model layers (hang analysis, step loop) carry the "
               "load; engine, harness and serve do almost none. Only workload with a paper "
               "reference (97% ETTR).",
    },
    "fleet-mixed": {
        "kind": "batch",
        "command": "fleet",
        "scenario": "fleet-mixed",
        "days": 0.5,
        "seeds": 64,          # many short seeds
        "journal": True,
        "why": "Many short three-job seeds on one simulator and spare pool: event core, "
               "cluster views, arbiter and the per-seed harness path (attempt, journal "
               "commit, spill/merge) carry the load.",
    },
    "quickstart-journal": {
        "kind": "batch",
        "command": "campaign",
        "scenario": "quickstart",
        "days": 0.5,
        "seeds": 256,         # many short seeds
        "journal": True,
        "why": "Many short journaled seeds of the 16-machine quickstart job (the serve "
               "requests' scenario): event core, step loop and the per-seed harness path "
               "(attempt, journal commit, spill/merge) carry the load.",
    },
    "serve-mixed": {
        "kind": "serve",
        "scenario": "quickstart",
        "days": 0.02,
        "pool": 32,           # distinct campaign requests
        "rates": (1000, 3000),
        "why": "Open loop on `serve --workers 2 --jobs 1`: 90% one-seed quickstart "
               "campaigns, 10% status; the per-request path (connection, admission, "
               "engine) dominates.",
    },
}

# The workloads BENCHMARK.json gates on: workloads on which no operation
# fails. fleet-mixed runs and reports like the others, but about 1 in 7,000
# of its seeds fails every attempt ("replacement machine already in
# service", src/cluster/cluster.cc) and is quarantined, so its runs count
# failed operations; it stays runnable, and its traced run is where the
# fleet layer is measured. quickstart-journal carries the per-seed harness
# path in its place. serve-mixed runs and reports like the others, but on a
# shared 4-vCPU VM its throughput moved by 13-40% (interquartile range over
# median, five seeds) with the neighbours' load, too close to any usable
# bound; its serve layer is still measured on the batch workloads' traced
# runs.
GATED = ("dense-month", "quickstart-journal")

# End-to-end metrics. BENCHMARK.json reports every one of them on every
# workload, so each is defined for batch and serve alike.
END_TO_END = [
    ("seeds_per_s", "seeds/s", "higher", 0.25,
     "batch: seeds completed per host second at --jobs 4 (per invocation, over the "
     "median invocation wall); serve: one-seed campaigns completed per second of "
     "daemon CPU time at the fixed offered rates"),
    ("setup_s", "s", "lower", 0.25,
     "fixed cost of one invocation: batch, the same command at one seed and "
     "--days 0.001 after every invocation (median); serve, daemon launch to first "
     "status reply (median of several)"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak RSS of the CLI process (median over "
     "invocations) or of the daemon"),
]

# Per-layer metrics, grouped by the src/ modules they measure: (layers,
# end-to-end metrics they should move, workload where they should, workload
# where they should not, [(name, unit, better)]). Counts are per seed
# (serve.shed: per request). Every workload reports every metric: where a
# workload bypasses a layer in its timed path, the traced run still measures
# it at that workload's sizes (probes, and a short serve run of the
# workload's own seeds), and the prediction there is "no change".
LAYERS = [
    ("sim", "seeds_per_s", "fleet-mixed,quickstart-journal", "serve-mixed", [
        ("sim.events", "count", "lower"),
        ("sim.ns_per_event", "ns", "lower"),
        ("sim.bare_event_ns", "ns", "lower"),
    ]),
    ("training,metrics", "seeds_per_s", "dense-month,quickstart-journal", "serve-mixed", [
        ("training.steps", "count", "lower"),
        ("training.ns_per_healthy_step", "ns", "lower"),
    ]),
    ("tracer,analyzer", "seeds_per_s", "dense-month", "fleet-mixed,quickstart-journal", [
        ("hang.episodes", "count", "lower"),
        ("hang.analyze_ms", "ms", "lower"),
        ("hang.evict_yield", "ratio", "higher"),
    ]),
    ("monitor", "seeds_per_s", "dense-month", "serve-mixed", [
        ("monitor.reports", "count", "lower"),
    ]),
    ("controller,recovery,diagnoser,replay", "seeds_per_s", "dense-month", "serve-mixed", [
        ("controller.resolutions", "count", "lower"),
        ("controller.evictions", "count", "lower"),
        ("replay.locate_ms", "ms", "lower"),
    ]),
    ("faults,ckpt", "seeds_per_s", "dense-month", "serve-mixed", [
        ("faults.incidents", "count", "lower"),
        ("ckpt.saves", "count", "lower"),
    ]),
    ("core,topology,cluster", "setup_s", "dense-month", "serve-mixed", [
        ("setup.ctor_cold_ms", "ms", "lower"),
        ("setup.ctor_warm_ms", "ms", "lower"),
    ]),
    ("fleet", "seeds_per_s", "fleet-mixed", "dense-month", [
        ("seed.inproc_ms", "ms", "lower"),
        ("fleet.preemptions", "count", "lower"),
        ("fleet.queued_claims", "count", "lower"),
    ]),
    ("campaign", "seeds_per_s,req_p50_ms.*", "quickstart-journal,fleet-mixed,serve-mixed",
     "dense-month", [
        ("campaign.seed_ms.p50", "ms", "lower"),
        ("campaign.seed_ms.p90", "ms", "lower"),
        ("campaign.parallel_eff", "ratio", "higher"),
        ("campaign.render_us", "us", "lower"),
    ]),
    ("harness", "seeds_per_s,fail_ratio", "quickstart-journal,fleet-mixed", "dense-month", [
        ("harness.attempts_per_seed", "ratio", "lower"),
        ("harness.retries", "count", "lower"),
        ("harness.quarantines", "count", "lower"),
        ("harness.journal_commit_us", "us", "lower"),
    ]),
    ("serve", "req_p50_ms.*,req_p90_ms.*,max_rps", "serve-mixed",
     "dense-month,quickstart-journal,fleet-mixed", [
        ("serve.admit_us", "us", "lower"),
        ("serve.queue_wait_ms", "ms", "lower"),
        ("serve.execute_ms", "ms", "lower"),
        ("serve.respond_us", "us", "lower"),
        ("serve.transport_ms", "ms", "lower"),
        ("serve.shed", "count", "lower"),
        ("serve.req_p99_ms", "ms", "lower"),
    ]),
    ("obs", "none (a validity check)", "all", "all", [
        ("obs.trace_overhead", "ratio", "lower"),
    ]),
]

PER_LAYER = [metric for group in LAYERS for metric in group[4]]

# What each printed metric means (end-to-end) or should move (per layer).
NOTES = {m[0]: m[4] for m in END_TO_END}
NOTES.update({name: "moves %s on %s; not on %s" % (moves, on, not_on)
              for _, moves, on, not_on, metrics in LAYERS for name, _, _ in metrics})


def check_benchmark_json(path):
    """Returns an error string when BENCHMARK.json disagrees with this module."""
    with open(path) as f:
        doc = json.load(f)
    if [w["name"] for w in doc["workloads"]] != list(GATED):
        return "workloads differ"
    if [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] != \
            [m[:4] for m in END_TO_END]:
        return "end_to_end metrics differ"
    if [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] != \
            PER_LAYER:
        return "per_layer metrics differ"
    return None
