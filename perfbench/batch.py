"""The batch workloads (dense-month, quickstart-journal, fleet-mixed): repeated CLI campaigns."""

import hashlib
import json
import os
import time

from common import CLI, BenchError, Gate, mean, median, quantile, run_timed

JOBS = 4
MIN_INVOCATIONS = 8  # ettr_gap_pp reads the first 8 x 4 dense-month seeds


def base_seed(seed, k, w):
    """Base seed of invocation k: disjoint seed ranges, a pure function of --seed."""
    return 1 + (seed % 10 ** 9) * 10 ** 6 + k * w["seeds"]


def argv_for(w, tmp, base, seeds, jobs, days=None, trace=None):
    argv = [CLI, w["command"], "--scenario", w["scenario"], "--seeds", str(seeds),
            "--base-seed", str(base), "--jobs", str(jobs)]
    if days is not None:
        argv += ["--days", str(days)]
    if w["journal"]:
        argv += ["--journal", os.path.join(tmp, "seeds.journal")]
    if trace:
        argv += ["--trace", trace]
    return argv


class Invocation:
    """One finished CLI campaign and what the correctness gate saw in it.
    A quarantined seed (exit 20, listed in failed_runs) is a failed seed;
    anything else short of a complete document is a wrong output."""

    def __init__(self, timed, seeds):
        self.wall_s = timed.wall_s
        self.rss_mb = timed.rss_mb
        self.digest = hashlib.sha256(timed.out).hexdigest()
        self.doc = None
        self.failed = seeds
        self.error = None
        self.wrong = True
        try:
            doc = json.loads(timed.out) if timed.code in (0, 20) else None
        except ValueError:
            doc = None
        if doc is None:
            self.error = "exit %d without a campaign document" % timed.code
            return
        quarantined = doc.get("failed_runs", [])
        if doc.get("seeds") != seeds or len(doc.get("runs", [])) + len(quarantined) != seeds \
                or (timed.code == 20) != bool(quarantined):
            self.error = "document does not account for its %d seeds" % seeds
            return
        self.doc = doc
        self.failed = len(quarantined)
        self.wrong = False
        if quarantined:
            self.error = "quarantined " + "; ".join(
                "seed %d (%s)" % (q["seed"], q.get("error", "?")) for q in quarantined)


def invoke(w, tmp, base, jobs=JOBS, trace=None):
    return Invocation(run_timed(argv_for(w, tmp, base, w["seeds"], jobs, trace=trace), tmp),
                      w["seeds"])


def setup_sample(w, tmp, base):
    """Wall time of the same command at one seed and --days 0.001."""
    done = run_timed(argv_for(w, tmp, base, 1, JOBS, days=0.001), tmp)
    if done.code != 0:
        raise BenchError("set-up invocation exited %d" % done.code)
    return done.wall_s


def add(gate, inv, seeds, what):
    gate.record(seeds, inv.failed, "%s: %s" % (what, inv.error) if inv.error else None,
                wrong=inv.wrong)


def expect_same(gate, inv, ref, seeds, what):
    """A rerun must render the reference's document byte for byte."""
    add(gate, inv, seeds, what)
    if not inv.wrong and inv.digest != ref.digest:
        gate.record(0, seeds, what + ": document differs from the reference", wrong=True)


def reference_checks(w, tmp, seed, first, gate):
    """Invocation 0 again at --jobs 4 and at --jobs 1: same bytes both times."""
    base = base_seed(seed, 0, w)
    expect_same(gate, invoke(w, tmp, base), first, w["seeds"], "repeat at --jobs 4")
    expect_same(gate, invoke(w, tmp, base, jobs=1), first, w["seeds"], "rerun at --jobs 1")


def ettr_gap_pp(invocations, w):
    """|seed-mean cumulative ETTR - 97%| over the first 8 invocations' seeds."""
    ettrs = [run["ettr"]["cumulative"] for inv in invocations[:MIN_INVOCATIONS] if inv.doc
             for run in inv.doc["runs"] if "ettr" in run]
    return abs(100.0 * mean(ettrs) - 97.0) if ettrs else None


def measure(w, tmp, seed, seconds):
    """The untraced run: campaigns back to back for `seconds`, each followed
    by one set-up sample. Interleaving spreads the set-up samples over the
    whole run, so their median sees the same host as the campaigns do."""
    gate = Gate()
    invocations = []
    setup = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(invocations) < MIN_INVOCATIONS:
        base = base_seed(seed, len(invocations), w)
        inv = invoke(w, tmp, base)
        setup.append(setup_sample(w, tmp, base))
        add(gate, inv, w["seeds"], "invocation %d" % len(invocations))
        if len(invocations) >= MIN_INVOCATIONS:
            inv.doc = None  # only the first few documents are read again
        invocations.append(inv)
    reference_checks(w, tmp, seed, invocations[0], gate)

    # Throughput of the typical invocation: a neighbour's burst on a shared
    # host stalls a few invocations, which a sum of walls would charge to
    # the program. Quarantined seeds do not count as completed.
    walls = [inv.wall_s for inv in invocations]
    per_invocation = sum(w["seeds"] - inv.failed for inv in invocations) / len(invocations)
    metrics = {
        "seeds_per_s": per_invocation / median(walls),
        "setup_s": median(setup),
        "peak_rss_mb": median([inv.rss_mb for inv in invocations]),
    }
    report = {
        "invocations": len(invocations),
        "seeds_per_invocation": w["seeds"],
        "fail_ratio": gate.failed / gate.attempted,
        "p90_ms": 1e3 * quantile(walls, 0.9),
        "peak_rss_mb.max": max(inv.rss_mb for inv in invocations),
    }
    if w["scenario"] == "dense-month":
        report["ettr_gap_pp"] = ettr_gap_pp(invocations, w)
    return metrics, report, gate
