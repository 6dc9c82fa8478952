"""The traced run (--trace 1): per-layer metrics and the seed-budget table.

Harness, campaign and serve numbers come from the spans and counters that
`--trace` emits; model-layer numbers come from perfbench_probe, which calls
each module's public API at the workload's sizes. Traced and untraced runs
of the same inputs are paired, so the tracing overhead is measured, and no
end-to-end number is ever taken from a traced process.
"""

import json
import os
import time

import batch
import serve
from common import PROBE, Daemon, Gate, mean, median, quantile, run_json

CTOR_REPS = 5
ETTR_TOLERANCE = 2e-6  # the CLI prints ETTR with 6 significant digits


class Trace:
    """Spans (name -> [(start_us, end_us, arg)]), instants and footer counters."""

    def __init__(self, path):
        with open(path) as f:
            events = json.load(f)
        self.spans = {}
        self.instants = {}
        self.counters = {}
        open_spans = {}
        for e in events:
            ph, name, arg = e["ph"], e["name"], e.get("args", {}).get("v")
            if ph == "B":
                open_spans.setdefault(e["tid"], []).append((name, e["ts"], arg))
            elif ph == "E":
                begin_name, start, begin_arg = open_spans[e["tid"]].pop()
                assert begin_name == name, "unbalanced trace spans"
                self.spans.setdefault(name, []).append((start, e["ts"], begin_arg, e["tid"]))
            elif ph == "X":
                self.spans.setdefault(name, []).append((e["ts"], e["ts"] + e["dur"], arg,
                                                        e["tid"]))
            elif ph == "i":
                self.instants.setdefault(name, []).append((e["ts"], arg, e["tid"]))
            elif ph == "C":
                self.counters[name] = arg

    def durations_ms(self, name):
        return [(end - start) / 1e3 for start, end, _, _ in self.spans.get(name, [])]


class Accumulator:
    """Span durations and counters summed over several trace files."""

    def __init__(self):
        self.durations = {}
        self.counters = {}

    def add(self, trace):
        for name in trace.spans:
            self.durations.setdefault(name, []).extend(trace.durations_ms(name))
        for name, value in trace.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value


def serve_layer(trace, client):
    """serve.* from a daemon trace plus the generator's view of the same run."""
    requests = {}  # admit ordinal -> {req_b, req_e, admit, exec_e}
    spans_by_tid = {}
    for start, end, _, tid in trace.spans.get("request", []):
        spans_by_tid.setdefault(tid, []).append((start, end))
    for ts, ordinal, tid in trace.instants.get("request_admit", []):
        for start, end in spans_by_tid.get(tid, []):
            if start <= ts <= end:
                requests[ordinal] = {"req_b": start, "req_e": end, "admit": ts}
    for start, end, ordinal, _ in trace.spans.get("execute", []):
        if ordinal in requests:
            requests[ordinal]["exec_e"] = end
    complete = [r for r in requests.values() if "exec_e" in r]
    in_daemon_ms = mean([(r["req_e"] - r["req_b"]) / 1e3 for r in complete])
    sheds = len(trace.instants.get("request_shed", []))
    return {
        "serve.admit_us": mean([r["admit"] - r["req_b"] for r in complete]),
        "serve.queue_wait_ms": mean(trace.durations_ms("queue_wait")),
        "serve.execute_ms": mean(trace.durations_ms("execute")),
        "serve.respond_us": mean([r["req_e"] - r["exec_e"] for r in complete]),
        "serve.transport_ms": client["campaign_rtt_mean_ms"] - in_daemon_ms,
        "serve.shed": sheds / max(1, client["sent_total"]),
        "serve.req_p99_ms": client["p99_ms"],
    }


def traced_daemon_run(w, tmp, seed, seconds, gate, rate, **extra):
    """One traced daemon under the generator; returns (generator, Trace)."""
    path = os.path.join(tmp, "serve.trace.json")
    daemon = Daemon(tmp, "traced.sock", trace_path=path)
    try:
        daemon.wait_ready()
        client = serve.loadgen(w, tmp, daemon, rate, seconds, seed, **extra)
    finally:
        gate.check_daemon_exit(daemon)
    serve.add(gate, client, "traced serve run")
    return client, Trace(path)


def probe_layers(workload, w, tmp, base, seeds, element_bytes, gate):
    """The probe's in-process replay of seeds base..base+seeds-1. A seed whose
    run throws is quarantined there as in the CLI: a failed operation."""
    probe = run_json([PROBE, "layers", "--workload", workload, "--base-seed", str(base),
                      "--seeds", str(seeds), "--days", str(w["days"]),
                      "--element-bytes", str(int(element_bytes)), "--dir", tmp], tmp)
    quarantined = probe["quarantined"]
    gate.record(seeds, len(quarantined), "probe replay quarantined " + "; ".join(
        "seed %d (%s)" % (q["seed"], q["error"]) for q in quarantined) if quarantined else None)
    return probe


def probe_ctor(workload, w, tmp, base):
    runs = [run_json([PROBE, "ctor", "--workload", workload, "--base-seed", str(base + k),
                      "--days", str(w["days"])], tmp) for k in range(CTOR_REPS)]
    return median([r["cold_ms"] for r in runs]), median([r["warm_ms"] for r in runs])


def cli_runs(doc):
    """(seed, steps, evictions, ettr) per job of a campaign or fleet document."""
    for run in doc["runs"]:
        for job in run.get("jobs", [run]):
            yield job["seed"], job["steps"], job["evictions"], job["ettr"]["cumulative"]


def check_fidelity(probe, docs, gate):
    """The in-process replay must model exactly what the CLI ran."""
    expected = {}
    for doc in docs:
        for seed, steps, evictions, ettr in cli_runs(doc):
            expected[seed] = (steps, evictions, ettr)
    checked = 0
    for run in probe["runs"]:
        if run["seed"] not in expected:
            continue
        steps, evictions, ettr = expected[run["seed"]]
        checked += 1
        if (run["steps"], run["evictions"]) != (steps, evictions) or \
                abs(run["ettr"] - ettr) > ETTR_TOLERANCE:
            gate.record(0, 1, "probe replay of seed %d differs from the CLI" % run["seed"],
                        wrong=True)
    if checked == 0:
        gate.record(0, 1, "probe replay matched no CLI seed", wrong=True)


def layer_metrics(probe, ctor, spans, serve_metrics, overhead, seeds, slots, wall_s):
    counts, times = probe["counts"], probe["times"]
    episodes = counts["hang.episodes"]
    # Supervised seed attempts: the one per-seed span on every engine path
    # (the CLI's worker pool and the daemon's single-worker requests).
    seed_ms = spans.durations.get("seed_attempt", [])
    m = {
        "sim.events": counts["sim.events"],
        "sim.ns_per_event": times["seed.inproc_ms"] * 1e6 / max(1.0, counts["sim.events"]),
        "sim.bare_event_ns": times["sim.bare_event_ns"],
        "training.steps": counts["training.steps"],
        "training.ns_per_healthy_step": times["training.ns_per_healthy_step"],
        "hang.episodes": episodes,
        "hang.analyze_ms": times["hang.analyze_ms"],
        "hang.evict_yield": counts["analyzer_er"] / episodes if episodes else 0.0,
        "monitor.reports": counts["monitor.reports"],
        "controller.resolutions": counts["controller.resolutions"],
        "controller.evictions": counts["controller.evictions"],
        "replay.locate_ms": times["replay.locate_ms"],
        "faults.incidents": counts["faults.incidents"],
        "ckpt.saves": counts["ckpt.saves"],
        "setup.ctor_cold_ms": ctor[0],
        "setup.ctor_warm_ms": ctor[1],
        "seed.inproc_ms": times["seed.inproc_ms"],
        "fleet.preemptions": counts["fleet.preemptions"],
        "fleet.queued_claims": counts["fleet.queued_claims"],
        "campaign.seed_ms.p50": quantile(seed_ms, 0.5),
        "campaign.seed_ms.p90": quantile(seed_ms, 0.9),
        "campaign.parallel_eff": sum(seed_ms) / (slots * 1e3 * wall_s),
        "campaign.render_us": times["campaign.render_us"],
        "harness.attempts_per_seed": spans.counters.get("harness.attempts", 0) / seeds,
        "harness.retries": spans.counters.get("harness.retries", 0) / seeds,
        "harness.quarantines": spans.counters.get("harness.quarantines", 0) / seeds,
        "harness.journal_commit_us": times["harness.journal_commit_us"],
    }
    m.update(serve_metrics)
    m["obs.trace_overhead"] = overhead
    return m


def seed_budget(probe, ctor_warm_ms, journals):
    """Where a seed goes: count x probe time per call, against the
    uncontended host time of one CLI seed (in-process run + render +
    journal commit). The residual is whatever the probes do not explain."""
    c, t = probe["counts"], probe["times"]
    rows = [
        ("event core", "sim", c["sim.events"], t["sim.bare_event_ns"] / 1e6),
        ("healthy step loop", "training,metrics,monitor", c["training.steps"],
         t["training.ns_per_healthy_step"] / 1e6),
        ("hang analysis", "tracer,analyzer", c["hang.episodes"], t["hang.analyze_ms"]),
        ("dual-phase replay", "replay", c["replays"], t["replay.locate_ms"]),
        ("set-up (warm ctor)", "core,topology,cluster", 1, ctor_warm_ms),
        ("render", "campaign", c["runs_rendered"], t["campaign.render_us"] / 1e3),
        ("journal commit", "harness", 1 if journals else 0,
         t["harness.journal_commit_us"] / 1e3),
    ]
    total = t["seed.inproc_ms"] + rows[5][2] * rows[5][3] + rows[6][2] * rows[6][3]
    out = [(label, layer, n, per, n * per, n * per / total) for label, layer, n, per in rows]
    rest = total - sum(r[4] for r in out)
    out.append(("unattributed", "-", "", "", rest, rest / total))
    return total, out


def print_budget(workload, total, rows, cli_seed_ms):
    print("where a %s seed goes (uncontended host time %.4g ms per seed)" % (workload, total))
    print("  %-20s %-26s %12s %14s %12s %8s" % ("component", "layers", "count/seed",
                                               "ms/call", "ms/seed", "share"))
    for label, layer, n, per, ms, share in rows:
        n_text = "%.6g" % n if n != "" else ""
        per_text = "%.6g" % per if per != "" else ""
        print("  %-20s %-26s %12s %14s %12.4g %7.1f%%" % (label, layer, n_text, per_text, ms,
                                                         100 * share))
    print("  seed_attempt span in the traced CLI or daemon, under load: p50 %.4g ms"
          % cli_seed_ms)


def measure_batch(workload, w, tmp, seed, seconds):
    gate = Gate()
    spans = Accumulator()
    traced_wall = untraced_wall = 0.0
    first = None
    start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - start < 0.5 * seconds:
        base = batch.base_seed(seed, k, w)
        path = os.path.join(tmp, "cli.trace.json")
        order = (True, False) if k % 2 == 0 else (False, True)  # alternate the first side
        runs = {traced: batch.invoke(w, tmp, base, trace=path if traced else None)
                for traced in order}
        traced, untraced = runs[True], runs[False]
        batch.add(gate, untraced, w["seeds"], "untraced invocation %d" % k)
        batch.expect_same(gate, traced, untraced, w["seeds"], "traced invocation %d" % k)
        spans.add(Trace(path))
        traced_wall += traced.wall_s
        untraced_wall += untraced.wall_s
        first = first or untraced
        k += 1
    batch.expect_same(gate, batch.invoke(w, tmp, batch.base_seed(seed, 0, w), jobs=1), first,
                      w["seeds"], "rerun at --jobs 1")

    base0 = batch.base_seed(seed, 0, w)
    element_bytes = len(json.dumps(first.doc["runs"][0], indent=2)) if first.doc else 1024
    probe = probe_layers(workload, w, tmp, base0, w["seeds"], element_bytes, gate)
    check_fidelity(probe, [first.doc] if first.doc else [], gate)
    ctor = probe_ctor(workload, w, tmp, base0)

    # The serve layer at this workload's request shape: its own seeds, one
    # request at a time, through a traced daemon.
    client, trace = traced_daemon_run(w, tmp, seed, max(1.0, 0.15 * seconds), gate, 0,
                                      threads=1, status_pct=0, op=w["command"],
                                      scenario=w["scenario"], pool=8)
    metrics = layer_metrics(probe, ctor, spans, serve_layer(trace, client),
                            traced_wall / untraced_wall - 1.0, k * w["seeds"], batch.JOBS,
                            traced_wall)
    total, rows = seed_budget(probe, ctor[1], w["journal"])
    report = {
        "pairs": k,
        "campaign.merge_ms": mean(spans.durations.get("spill_merge", [])),
        "harness.journal_commit_us (span)":
            1e3 * mean(spans.durations.get("journal_commit", [])),
        "budget.unattributed_share": rows[-1][5],
    }
    return metrics, report, gate, (total, rows, metrics["campaign.seed_ms.p50"])


def measure_serve(workload, w, tmp, seed, seconds):
    gate = Gate()
    daemon = Daemon(tmp, "plain.sock")
    try:
        daemon.wait_ready()
        plain = serve.loadgen(w, tmp, daemon, 3000, 0.35 * seconds, seed)
    finally:
        gate.check_daemon_exit(daemon)
    serve.add(gate, plain, "untraced 3000 req/s")
    client, trace = traced_daemon_run(w, tmp, seed, 0.35 * seconds, gate, 3000)
    docs = serve.check_bodies(gate, w, tmp)

    base = serve.pool_base(seed, w["pool"])
    element_bytes = mean([len(json.dumps(d["runs"][0], indent=2)) for d in docs]) or 1024
    probe = probe_layers(workload, w, tmp, base, w["pool"], element_bytes, gate)
    check_fidelity(probe, docs, gate)
    ctor = probe_ctor(workload, w, tmp, base)

    spans = Accumulator()
    spans.add(trace)
    serve_metrics = serve_layer(trace, client)
    serve_metrics["serve.req_p99_ms"] = plain["p99_ms"]
    seeds = len(trace.spans.get("execute", [])) or 1
    slots = 2  # serve --workers 2 --jobs 1
    metrics = layer_metrics(probe, ctor, spans, serve_metrics,
                            client["p50_ms"] / plain["p50_ms"] - 1.0, seeds, slots,
                            0.35 * seconds)
    total, rows = seed_budget(probe, ctor[1], False)
    report = {
        "budget.unattributed_share": rows[-1][5],
        "traced p50 ms": client["p50_ms"],
        "untraced p50 ms": plain["p50_ms"],
    }
    return metrics, report, gate, (total, rows, metrics["campaign.seed_ms.p50"])


def measure(workload, w, tmp, seed, seconds):
    run = measure_batch if w["kind"] == "batch" else measure_serve
    metrics, report, gate, budget = run(workload, w, tmp, seed, seconds)
    print_budget(workload, *budget)
    return metrics, report, gate
