"""The serve-mixed workload: an open loop against `byterobust serve`."""

import json

from common import CLI, PROBE, Daemon, Gate, fnv1a64, median, run_json, run_timed
from spec import LATENCY_LIMIT_MS

SETUP_REPS = 7
# A trial "ran late" when the generator, not the daemon, delayed sends by
# more than this at p90; such a trial says nothing about the daemon.
GEN_LATE_LIMIT_MS = 0.25 * LATENCY_LIMIT_MS
SEARCH_START = 3000.0
SEARCH_STEP = 1.25
SEARCH_BISECTIONS = 3
ROUNDS = 6


def add(gate, phase, what):
    failed = phase["failed_total"]
    gate.record(phase["sent_total"], failed,
                "%s: %d requests failed or were shed" % (what, failed) if failed else None)
    for key in phase["keys"]:
        gate.digests.setdefault(key["base_seed"], set()).update(key["digests"])


def check_bodies(gate, w, tmp):
    """Each distinct campaign's body equals the CLI's --stream document.
    Returns the CLI documents that matched."""
    docs = []
    for base, digests in sorted(gate.digests.items()):
        ref = run_timed([CLI, "campaign", "--scenario", w["scenario"], "--seeds", "1",
                         "--days", str(w["days"]), "--base-seed", str(base), "--stream"], tmp)
        if ref.code != 0 or digests != {fnv1a64(ref.out)}:
            gate.record(1, 1, "campaign base_seed %d: served body differs from the CLI "
                              "document" % base, wrong=True)
        else:
            gate.record(1, 0)
            docs.append(json.loads(ref.out))
    return docs


def pool_base(seed, pool):
    """Lowest campaign base_seed of the mix (MakeMix in probe/loadgen.cc)."""
    return 1000 + (seed % 1000000) * pool


def loadgen(w, tmp, daemon, rate, seconds, seed, **extra):
    """One generator run; `extra` overrides loadgen flags (threads, op, ...)."""
    flags = {"pool": w.get("pool", 32), "days": w["days"]}
    flags.update(extra)
    argv = [PROBE, "loadgen", "--socket", daemon.socket, "--rate", "%g" % rate,
            "--seconds", "%g" % seconds, "--seed", str(seed)]
    for flag, value in flags.items():
        argv += ["--" + flag.replace("_", "-"), str(value)]
    return run_json(argv, tmp, timeout=seconds + 60.0)


def meets_limit(phase):
    return (phase["failed"] == 0 and phase["p90_ms"] <= LATENCY_LIMIT_MS and
            phase["lag_ms"] <= LATENCY_LIMIT_MS and
            phase["gen_late_p90_ms"] <= GEN_LATE_LIMIT_MS)


def search_max_rate(w, tmp, daemon, seed, budget_s, gate):
    """Highest offered rate meeting the limit: geometric steps up from 3000
    req/s until a trial misses, then bisection between the last pass and the
    first miss. Returns 0 when even the lowest rate tried misses."""
    trials = 6 + SEARCH_BISECTIONS
    trial_s = max(0.5, budget_s / trials)
    passed, missed = None, None
    rate = SEARCH_START
    for _ in range(trials):
        phase = loadgen(w, tmp, daemon, rate, trial_s, seed)
        add(gate, phase, "max-rate trial at %g req/s" % rate)
        if meets_limit(phase):
            passed = rate
        else:
            missed = rate
        if missed is None:
            rate *= SEARCH_STEP
        elif passed is None:
            rate /= SEARCH_STEP
        else:
            rate = (passed * missed) ** 0.5
    return passed or 0.0


def setup_seconds(tmp):
    samples = []
    for k in range(SETUP_REPS):
        daemon = Daemon(tmp, "setup%d.sock" % k)
        try:
            samples.append(daemon.wait_ready())
        finally:
            daemon.stop()
    return median(samples)


def measure(w, tmp, seed, seconds):
    """The untraced run: set-up, then ROUNDS rounds of the two fixed rates and
    a closed-loop capacity segment, then the max-rate search. Latency figures
    are medians over every 0.25 s slice of their segments: interleaving the
    segments spreads each over the host's slower and quieter moments instead
    of sampling one stretch. Throughput is counted against the daemon's CPU
    time over the fixed-rate segments: closed-loop capacity on a shared
    4-vCPU host swings by a third from run to run with the neighbours' load,
    while CPU time per campaign does not. Capacity is still reported."""
    gate = Gate()
    setup_s = setup_seconds(tmp)
    daemon = Daemon(tmp, "serve.sock")
    slices = {}  # (rate, key) -> pooled per-slice values
    capacity = []
    late = {}
    campaigns, cpu_s = 0, 0.0
    try:
        daemon.wait_ready()
        segment_s = 0.85 * seconds / (ROUNDS * (len(w["rates"]) + 1))
        for _ in range(ROUNDS):
            for rate in list(w["rates"]) + [0]:
                cpu_before = daemon.cpu_s()
                phase = loadgen(w, tmp, daemon, rate, segment_s, seed)
                if rate:
                    campaigns += phase["campaigns_total"]
                    cpu_s += daemon.cpu_s() - cpu_before
                add(gate, phase, "%d req/s" % rate if rate else "closed loop")
                for key in ("slice_p50_ms", "slice_p90_ms"):
                    slices.setdefault((rate, key), []).extend(phase[key])
                if rate == 0:
                    capacity.append(phase["campaigns_per_s"])
                late.setdefault(rate, []).append((phase["gen_late_p50_ms"],
                                                  phase["gen_late_p90_ms"]))
        max_rps = search_max_rate(w, tmp, daemon, seed, 0.15 * seconds, gate)
    finally:
        gate.check_daemon_exit(daemon)
    check_bodies(gate, w, tmp)
    metrics = {
        "seeds_per_s": campaigns / cpu_s,
        "setup_s": setup_s,
        "peak_rss_mb": daemon.rss_mb,
    }
    report = {"fail_ratio": gate.failed / max(1, gate.attempted), "max_rps": max_rps,
              "capacity (closed loop, best segment), campaigns/s": max(capacity)}
    for rate in w["rates"]:
        report["req_p50_ms.r%d" % rate] = median(slices[(rate, "slice_p50_ms")])
        report["req_p90_ms.r%d" % rate] = median(slices[(rate, "slice_p90_ms")])
        worst_p90 = max(p90 for _, p90 in late[rate])
        report["gen_late_ms.p50.r%d" % rate] = median([p50 for p50, _ in late[rate]])
        report["gen_late_ms.p90.r%d" % rate] = worst_p90
        report["slices.r%d" % rate] = len(slices[(rate, "slice_p50_ms")])
        if worst_p90 > GEN_LATE_LIMIT_MS:
            report["generator_late.r%d" % rate] = True
    return metrics, report, gate
