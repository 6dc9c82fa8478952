// Campaign engine: the seed-parallel worker pool shared by the `campaign` and
// `fleet` CLI subcommands and by the `serve` daemon. It is generic over the
// per-seed runner (one RunResult per seed, or a whole multi-job fleet per
// seed) and over the output target (stdout/--out for the CLI, an in-memory
// capture string for serve responses). One engine body runs every request;
// the only choice is where finished runs wait before they are written: an
// ordered store that writes the ready prefix as it completes (--stream and
// every serve request), a spill tmpfile read back in seed order (the
// default), or memory (knobs.spill_store = false, the CLI's
// BYTEROBUST_STREAM_CAMPAIGN=0: the byte-identity reference). Output is
// byte-identical for the same request across --jobs values, across the spill
// and memory stores, and across an interrupt + journal resume.
//
// Campaigns run under the src/harness fault-tolerance layer: every seed is
// supervised (watchdog + deterministic retry/backoff; the spec's knobs pin
// the watchdog and inject faults), persistently failing seeds are
// quarantined into a "failed_runs" block instead of aborting the
// campaign, journal/resume give crash-safe restartability, and a cooperative
// stop (signal, serve deadline or client disconnect) drains in-flight seeds
// before exiting with kExitInterrupted.

#ifndef SRC_CAMPAIGN_ENGINE_H_
#define SRC_CAMPAIGN_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/campaign/json_writer.h"
#include "src/campaign/knobs.h"
#include "src/harness/journal.h"

namespace byterobust {

// What one seed contributes to the document: its rendered "runs" array
// element (depth 2, byte-identical to the same element written inline by a
// full-document writer) and the numbers the aggregate block consumes, in a
// fixed per-command order.
struct SeedOutcome {
  std::string element;
  std::vector<double> summary;
  bool failed = false;  // quarantined: no element, no summary slot
};

struct CampaignEngineSpec {
  int seeds = 0;
  int jobs = 1;
  bool stream = false;
  std::string out_path;
  std::string label;           // "campaign:dense" etc — exception context
  CampaignIdentity identity;   // what --journal records / --resume verifies
  std::string journal_path;    // --journal: record committed seeds here
  std::string resume_path;     // --resume: skip seeds already journaled here
  int retries_override = -1;   // --retries; < 0 keeps the supervisor default
  bool journal_sync = false;   // --journal-sync: fdatasync per committed record
  // Run store and harness settings: spill_store, seed_timeout_s and
  // harness_faults are read here; the model knobs were already applied to
  // run_seed's configs by BuildCampaignEngineSpec.
  RuntimeKnobs knobs;
  // Cooperative stop flag (the CLI's signal flag, or a serve request's cancel
  // flag): when it flips, workers stop claiming seeds, in-flight seeds drain,
  // and the engine exits kExitInterrupted. May be null (never stops).
  std::atomic<bool>* external_stop = nullptr;
  // When set, the document is appended here instead of being written to
  // stdout (serve responses). --out still works alongside.
  std::string* capture = nullptr;
  // Optional progress gauge: incremented once per seed processed (resumed,
  // committed or quarantined). Serve uses it for in-flight accounting and the
  // partial-response seed count.
  std::atomic<int>* seeds_done = nullptr;
  // Runs seed index i (workers call this concurrently; every run must bind
  // only thread-local / run-local state).
  std::function<SeedOutcome(int)> run_seed;
  std::function<void(JsonWriter*)> header_fields;
  std::function<void(JsonWriter*, const std::vector<std::vector<double>>&)> aggregates;
};

// A setup-stage problem (unreadable or mismatched journal):
// reported before any worker spawns, exit code kExitUsage.
class EngineSetupError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// One quarantined seed, rendered into the document's "failed_runs" block.
struct FailedRun {
  int index = 0;
  std::uint64_t seed = 0;
  int attempts = 0;
  bool timed_out = false;
  std::string error;
};

struct Aggregate {
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
};

void WriteAggregate(JsonWriter* w, const std::string& key, const Aggregate& a);

// Seed-order fold over one summary slot: the aggregate callbacks of every
// command fold through it, whichever store held the runs, so byte-identity
// cannot drift.
Aggregate FoldAggregateAt(const std::vector<std::vector<double>>& summaries, std::size_t slot);

// Runs the campaign and returns the process exit code (src/harness/
// exit_codes.h). A setup-stage failure returns kExitUsage: the message goes
// to *setup_error when non-null, to stderr otherwise. Worker exceptions
// (already wrapped with campaign/seed/worker context) propagate to the
// caller.
int RunCampaignEngine(const CampaignEngineSpec& spec, std::string* setup_error = nullptr);

}  // namespace byterobust

#endif  // SRC_CAMPAIGN_ENGINE_H_
