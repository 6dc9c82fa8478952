#include "src/campaign/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "src/common/sync.h"
#include "src/common/thread_annotations.h"
#include "src/harness/exit_codes.h"
#include "src/harness/supervisor.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace byterobust {

void WriteAggregate(JsonWriter* w, const std::string& key, const Aggregate& a) {
  w->Key(key);
  w->BeginObject();
  w->Field("mean", a.mean);
  w->Field("min", a.min);
  w->Field("max", a.max);
  w->EndObject();
}

Aggregate FoldAggregateAt(const std::vector<std::vector<double>>& summaries, std::size_t slot) {
  Aggregate a;
  if (summaries.empty()) {
    return a;
  }
  a.min = a.max = summaries.front().at(slot);
  for (const std::vector<double>& s : summaries) {
    const double v = s.at(slot);
    a.mean += v;
    a.min = std::min(a.min, v);
    a.max = std::max(a.max, v);
  }
  a.mean /= static_cast<double>(summaries.size());
  return a;
}

namespace {

// Rendered as a primed depth-1 block so it splices after the closed "runs"
// array; emitted only when non-empty, so clean campaigns keep their exact
// byte layout.
std::string RenderFailedRuns(const std::vector<FailedRun>& failures) {
  JsonWriter w(/*depth=*/1, /*need_comma=*/true);
  w.Key("failed_runs");
  w.BeginArray();
  for (const FailedRun& f : failures) {
    w.BeginObject();
    w.Field("index", f.index);
    w.Field("seed", f.seed);
    w.Field("attempts", f.attempts);
    w.Field("timed_out", f.timed_out);
    w.Field("error", f.error);
    w.EndObject();
  }
  w.EndArray();
  return w.Take();
}

// ---------------------------------------------------------------------------
// Worker-pool plumbing. All cross-thread mutable state lives in the small
// classes below with BR_GUARDED_BY-annotated members, so the clang
// `-Wthread-safety` CI job statically proves every access holds the right
// lock. (Annotations only attach to members and globals — lambda-captured
// locals are invisible to the analysis — which is why this state is hoisted
// out of the engine body.) Per-seed slots such as a store's summaries are
// written by exactly one worker each (disjoint indices of pre-sized vectors)
// and read only after the pool joins; they need no lock.
// ---------------------------------------------------------------------------

// First-failure latch for a worker pool: the first captured exception wins,
// and failed() flips so the other workers stop claiming seeds.
class FailureLatch {
 public:
  // Records an exception (usually std::current_exception(), or one re-wrapped
  // with seed/worker context); the first capture wins.
  void Capture(std::exception_ptr error) {
    failed_.store(true, std::memory_order_relaxed);
    const MutexLock lock(&mu_);
    if (!first_error_) {
      first_error_ = std::move(error);
    }
  }

  bool failed() const { return failed_.load(std::memory_order_relaxed); }

  // Rethrows the first captured exception, if any. Call after the pool joined.
  void RethrowIfFailed() {
    std::exception_ptr error;
    {
      const MutexLock lock(&mu_);
      error = first_error_;
    }
    if (error) {
      std::rethrow_exception(error);
    }
  }

 private:
  Mutex mu_;
  std::atomic<bool> failed_{false};
  std::exception_ptr first_error_ BR_GUARDED_BY(mu_);
};

// Incremental output: everything goes to stdout — or the spec's capture
// string — and (optionally) to --out, written as produced instead of
// accumulated in one string. Construct — and check ok() — BEFORE spawning
// workers, so an unwritable --out fails fast instead of after minutes of
// simulation.
class OutputSink {
 public:
  OutputSink(const std::string& out_path, std::string* capture)
      : path_(out_path), capture_(capture) {
    if (!path_.empty()) {
      file_ = std::fopen(path_.c_str(), "wb");
      if (file_ == nullptr) {
        ok_ = false;
      }
    }
  }
  ~OutputSink() {
    if (file_ != nullptr) {
      std::fclose(file_);
    }
  }
  OutputSink(const OutputSink&) = delete;
  OutputSink& operator=(const OutputSink&) = delete;

  // False when --out could not be opened; Finish() reports it.
  bool ok() const { return ok_; }

  void Write(const std::string& text) {
    if (capture_ != nullptr) {
      capture_->append(text);
    } else if (std::fwrite(text.data(), 1, text.size(), stdout) != text.size()) {
      // SIGPIPE is ignored, so a reader hanging up surfaces as a short write
      // here instead of killing the process mid-campaign.
      stdout_ok_ = false;
    }
    if (file_ != nullptr && std::fwrite(text.data(), 1, text.size(), file_) != text.size()) {
      ok_ = false;
    }
  }

  // Appends one element of the open "runs" array.
  void WriteRun(const std::string& element) {
    if (runs_written_++ > 0) {
      Write(",");
    }
    Write(element);
  }

  // kExitOk on success, mirroring the CLI Emit() contract.
  int Finish() {
    if (capture_ == nullptr && (std::fflush(stdout) != 0 || std::ferror(stdout) != 0)) {
      stdout_ok_ = false;
    }
    if (!stdout_ok_) {
      std::fprintf(stderr, "error: short write on stdout\n");
      return kExitIoError;
    }
    if (!ok_) {
      std::fprintf(stderr, "error: could not write %s\n", path_.c_str());
      return kExitIoError;
    }
    return kExitOk;
  }

 private:
  std::string path_;
  std::string* capture_ = nullptr;
  std::FILE* file_ = nullptr;
  bool ok_ = true;
  bool stdout_ok_ = true;
  int runs_written_ = 0;
};

// ---------------------------------------------------------------------------
// CampaignHarness: the per-seed fault-tolerance wrapper every worker runs
// seeds through. RunSeed(i) short-circuits seeds already committed in a
// --resume journal, runs fresh seeds under the SeedSupervisor (watchdog,
// deterministic retry/backoff, self-fault-injection), journals each success,
// and converts persistent failures into quarantine outcomes instead of
// exceptions. Workers are the supervisor's runners (RunWorkers) and call
// RunSeed concurrently.
// ---------------------------------------------------------------------------
class CampaignHarness {
 public:
  explicit CampaignHarness(const CampaignEngineSpec& spec) : spec_(spec) {
    SupervisorConfig config;
    config.seed = spec.identity.base_seed;
    if (spec.retries_override >= 0) {
      config.max_attempts = 1 + spec.retries_override;
    }
    config.timeout_override_s = spec.knobs.seed_timeout_s;
    config.faults = spec.knobs.harness_faults;
    config.external_stop = spec.external_stop;
    supervisor_.emplace(config);
    std::string error;
    if (!spec.resume_path.empty()) {
      if (!journal_.OpenForResume(spec.resume_path, spec.identity, &resumed_, &error,
                                  spec.journal_sync)) {
        throw EngineSetupError(error);
      }
    } else if (!spec.journal_path.empty()) {
      if (!journal_.Create(spec.journal_path, spec.identity, &error, spec.journal_sync)) {
        throw EngineSetupError(error);
      }
    }
  }

  SeedOutcome RunSeed(int i) {
    // resumed_ is read-only after construction — safe without a lock.
    const auto it = resumed_.find(i);
    if (it != resumed_.end()) {
      NoteSeedDone();
      return SeedOutcome{it->second.element, it->second.summary, false};
    }
    SeedOutcome outcome;
    SeedFailure failure;
    const std::function<SeedOutcome(const CancelToken&)> attempt =
        [this, i](const CancelToken&) { return spec_.run_seed(i); };
    if (supervisor_->Supervise<SeedOutcome>(i, attempt, &outcome, &failure)) {
      if (journal_.open()) {
        static obs::Counter* const commit_counter =
            obs::GlobalMetrics().GetCounter("harness.journal_commits");
        commit_counter->Add();
        const obs::ScopedSpan commit_span("journal_commit", "harness", i);
        if (!journal_.Append({i, outcome.summary, outcome.element})) {
          throw std::runtime_error("journal append failed for seed index " +
                                   std::to_string(i));
        }
      }
      supervisor_->NoteCommitted();
      NoteSeedDone();
      return outcome;
    }
    return Quarantine(failure);
  }

  // Runs body(w) for w in [0, workers) on the supervisor's watched runner
  // threads and returns once all are done. A seed whose runner the watchdog
  // abandons is quarantined and handed to `settle` on this thread, and a
  // fresh runner calls body(w) again.
  void RunWorkers(int workers, const std::function<void(int)>& body,
                  const std::function<void(int, SeedOutcome)>& settle) {
    supervisor_->RunWorkers(
        workers, body,
        [&](const SeedFailure& failure) { settle(failure.index, Quarantine(failure)); },
        /*restart=*/true);
  }

  bool stop_requested() const { return supervisor_->stop_requested(); }

  // Quarantined seeds in index order. Call after the pool joins.
  std::vector<FailedRun> failures() const {
    const MutexLock lock(&mu_);
    std::vector<FailedRun> sorted = failures_;
    std::sort(sorted.begin(), sorted.end(),
              [](const FailedRun& a, const FailedRun& b) { return a.index < b.index; });
    return sorted;
  }

  // Where to point the user when a run was interrupted mid-campaign.
  std::string ResumeHint() const {
    const std::string& path =
        spec_.resume_path.empty() ? spec_.journal_path : spec_.resume_path;
    if (path.empty()) {
      return "; rerun with --journal FILE to make campaigns resumable";
    }
    return "; resume with --resume " + path;
  }

 private:
  SeedOutcome Quarantine(const SeedFailure& failure) {
    {
      const MutexLock lock(&mu_);
      failures_.push_back({failure.index,
                           spec_.identity.base_seed + static_cast<std::uint64_t>(failure.index),
                           failure.attempts, failure.timed_out, failure.error});
    }
    NoteSeedDone();
    SeedOutcome outcome;
    outcome.failed = true;
    return outcome;
  }

  void NoteSeedDone() {
    if (spec_.seeds_done != nullptr) {
      spec_.seeds_done->fetch_add(1, std::memory_order_relaxed);
    }
  }

  const CampaignEngineSpec& spec_;
  std::optional<SeedSupervisor> supervisor_;
  CampaignJournal journal_;
  std::map<int, JournalEntry> resumed_;
  mutable Mutex mu_;
  std::vector<FailedRun> failures_ BR_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Run stores: where a finished run waits between its worker and the document
// — the one thing the output paths differ in. Workers Put() concurrently; the
// base keeps each seed's summary and quarantine flag for the aggregate fold.
//   - OrderedStore (--stream, every serve request): the worker that finishes
//     the next-in-order seed writes the contiguous ready prefix to the sink,
//     so only the out-of-order tail is ever resident.
//   - SpillStore (default): elements are appended to one shared tmpfile as
//     seeds finish and read back in seed order; one rendered element per
//     worker is resident.
//   - MemoryStore (knobs.spill_store = false): every element held by index,
//     the reference the spill store is byte-compared against.
// ---------------------------------------------------------------------------
class RunStore {
 public:
  explicit RunStore(int seeds)
      : summaries_(static_cast<std::size_t>(seeds)),
        failed_(static_cast<std::size_t>(seeds), 0) {}
  virtual ~RunStore() = default;
  RunStore(const RunStore&) = delete;
  RunStore& operator=(const RunStore&) = delete;

  // Called by the worker that ran seed `index`.
  void Put(int index, SeedOutcome outcome) {
    const auto i = static_cast<std::size_t>(index);
    failed_[i] = outcome.failed ? 1 : 0;
    summaries_[i] = std::move(outcome.summary);
    Keep(index, outcome.failed, std::move(outcome.element));
    processed_.fetch_add(1, std::memory_order_relaxed);
  }

  // Seeds the document covers once the pool has joined: every processed seed
  // (a complete campaign processed them all).
  virtual int Settled() { return processed_.load(std::memory_order_relaxed); }

  // Writes the kept elements into the open "runs" array in seed order. False
  // (reported on stderr) when they cannot be read back.
  virtual bool WriteRuns(OutputSink* sink) = 0;

  // The surviving seeds' summaries in [0, prefix), in seed order: exactly
  // what the aggregate block folds. Call once, after the pool joins.
  std::vector<std::vector<double>> TakeSummaries(int prefix) {
    std::vector<std::vector<double>> taken;
    taken.reserve(static_cast<std::size_t>(prefix));
    for (int i = 0; i < prefix; ++i) {
      if (!failed(i)) {
        taken.push_back(std::move(summaries_[static_cast<std::size_t>(i)]));
      }
    }
    return taken;
  }

 protected:
  // Holds (or writes) one finished element; a quarantined seed has none.
  virtual void Keep(int index, bool failed, std::string element) = 0;

  bool failed(int index) const { return failed_[static_cast<std::size_t>(index)] != 0; }
  int seeds() const { return static_cast<int>(failed_.size()); }

 private:
  std::vector<std::vector<double>> summaries_;
  std::vector<unsigned char> failed_;
  std::atomic<int> processed_{0};
};

class OrderedStore : public RunStore {
 public:
  OrderedStore(int seeds, OutputSink* sink) : RunStore(seeds), sink_(sink) {}

  // The committed prefix: a graceful stop can leave seeds after a gap.
  int Settled() override {
    const MutexLock lock(&mu_);
    return next_;
  }

  bool WriteRuns(OutputSink* /*sink*/) override { return true; }  // written on commit

 protected:
  void Keep(int index, bool failed, std::string element) override {
    const MutexLock lock(&mu_);
    ready_.emplace(index, failed ? std::nullopt : std::make_optional(std::move(element)));
    // Every index below next_ is gone, so the ready prefix sits at begin().
    auto it = ready_.begin();
    while (it != ready_.end() && it->first == next_) {
      if (it->second) {
        sink_->WriteRun(*it->second);
      }
      it = ready_.erase(it);
      ++next_;
    }
  }

 private:
  Mutex mu_;
  OutputSink* const sink_ BR_PT_GUARDED_BY(mu_);
  int next_ BR_GUARDED_BY(mu_) = 0;  // first seed not yet written
  std::map<int, std::optional<std::string>> ready_ BR_GUARDED_BY(mu_);
};

class SpillStore : public RunStore {
 public:
  explicit SpillStore(int seeds)
      : RunStore(seeds), file_(std::tmpfile()), where_(static_cast<std::size_t>(seeds)) {}
  ~SpillStore() override {
    if (file_ != nullptr) {
      std::fclose(file_);
    }
  }

  bool ok() const { return file_ != nullptr; }

  bool WriteRuns(OutputSink* sink) override {
    // The sequential re-read/concatenate pass over the spill.
    const obs::ScopedSpan merge_span("spill_merge", "campaign");
    const MutexLock lock(&mu_);
    std::string element;
    for (int i = 0; i < seeds(); ++i) {
      if (failed(i)) {
        continue;
      }
      const auto [offset, length] = where_[static_cast<std::size_t>(i)];
      element.resize(length);
      if (std::fseek(file_, offset, SEEK_SET) != 0 ||
          std::fread(element.data(), 1, length, file_) != length) {
        std::fprintf(stderr, "error: campaign spill read failed\n");
        return false;
      }
      sink->WriteRun(element);
    }
    return true;
  }

 protected:
  void Keep(int index, bool failed, std::string element) override {
    if (failed) {
      return;
    }
    const MutexLock lock(&mu_);
    if (std::fwrite(element.data(), 1, element.size(), file_) != element.size()) {
      throw std::runtime_error("campaign spill write failed");
    }
    where_[static_cast<std::size_t>(index)] = {end_, element.size()};
    end_ += static_cast<long>(element.size());
  }

 private:
  Mutex mu_;
  std::FILE* const file_ BR_PT_GUARDED_BY(mu_);
  long end_ BR_GUARDED_BY(mu_) = 0;
  // (offset, length) of each seed's element inside the spill.
  std::vector<std::pair<long, std::size_t>> where_ BR_GUARDED_BY(mu_);
};

class MemoryStore : public RunStore {
 public:
  explicit MemoryStore(int seeds) : RunStore(seeds), elements_(static_cast<std::size_t>(seeds)) {}

  bool WriteRuns(OutputSink* sink) override {
    for (int i = 0; i < seeds(); ++i) {
      if (!failed(i)) {
        sink->WriteRun(elements_[static_cast<std::size_t>(i)]);
      }
    }
    return true;
  }

 protected:
  void Keep(int index, bool /*failed*/, std::string element) override {
    elements_[static_cast<std::size_t>(index)] = std::move(element);
  }

 private:
  std::vector<std::string> elements_;  // disjoint per-seed slots
};

// One worker's loop: claims seed indices off the shared ticket until they run
// out, a worker has failed, or the harness asks for a graceful drain
// (in-flight seeds finish, no new claims). Each claim runs under the harness
// and lands in the store; the first exception is latched, wrapped with
// campaign/seed/worker context.
void DrainSeeds(const CampaignEngineSpec& spec, int worker, std::atomic<int>* next_seed,
                FailureLatch* latch, CampaignHarness* harness, RunStore* store) {
  for (int i = next_seed->fetch_add(1); i < spec.seeds && !latch->failed();
       i = next_seed->fetch_add(1)) {
    if (harness->stop_requested()) {
      return;
    }
    try {
      // Worker-occupancy span: one "seed" interval per claim on this
      // worker's trace track, so idle gaps between seeds are visible.
      const obs::ScopedSpan seed_span("seed", "campaign", i);
      store->Put(i, harness->RunSeed(i));
    } catch (const RunnerAbandoned&) {
      throw;  // this runner was given up on; its seed is settled elsewhere
    } catch (const std::exception& e) {
      latch->Capture(std::make_exception_ptr(std::runtime_error(
          spec.label + ", seed index " + std::to_string(i) + ", worker " +
          std::to_string(worker) + ": " + e.what())));
      return;
    } catch (...) {
      latch->Capture(std::current_exception());
      return;
    }
  }
}

// The document up to the open "runs" array. The aggregate block goes here
// when every summary is known before the runs are written (spill and memory
// stores); --stream passes null and appends it after the runs instead.
std::string DocumentHead(const CampaignEngineSpec& spec,
                         const std::vector<std::vector<double>>* summaries) {
  JsonWriter head;
  head.BeginObject();
  spec.header_fields(&head);
  if (summaries != nullptr) {
    spec.aggregates(&head, *summaries);
  }
  head.Key("runs");
  head.BeginArray();
  return head.Take();
}

// Reports a graceful interrupt: a stderr note and kExitInterrupted.
int FinishInterrupted(const CampaignHarness& harness, int settled, int seeds) {
  std::fprintf(stderr, "note: campaign interrupted after %d of %d seeds%s\n", settled, seeds,
               harness.ResumeHint().c_str());
  return kExitInterrupted;
}

int RunEngine(const CampaignEngineSpec& spec) {
  const int seeds = spec.seeds;
  CampaignHarness harness(spec);
  OutputSink sink(spec.out_path, spec.capture);
  if (!sink.ok()) {
    return sink.Finish();  // fail fast: --out unwritable, nothing simulated
  }
  std::unique_ptr<RunStore> store;
  if (spec.stream) {
    store = std::make_unique<OrderedStore>(seeds, &sink);
    sink.Write(DocumentHead(spec, nullptr));
  } else if (spec.knobs.spill_store) {
    auto spill = std::make_unique<SpillStore>(seeds);
    if (!spill->ok()) {
      std::fprintf(stderr, "error: could not create campaign spill file\n");
      return kExitIoError;
    }
    store = std::move(spill);
  } else {
    store = std::make_unique<MemoryStore>(seeds);
  }

  std::atomic<int> next{0};
  FailureLatch latch;
  harness.RunWorkers(
      std::max(1, std::min(spec.jobs, seeds)),
      [&](int worker) { DrainSeeds(spec, worker, &next, &latch, &harness, store.get()); },
      [&](int i, SeedOutcome outcome) {
        try {
          store->Put(i, std::move(outcome));
        } catch (...) {
          latch.Capture(std::current_exception());
        }
      });
  latch.RethrowIfFailed();

  const int settled = store->Settled();
  const bool interrupted = harness.stop_requested() && settled < seeds;
  if (interrupted && !spec.stream) {
    // Nothing merged: the journal (not a half-document) is the restart
    // artifact. --stream instead closes a valid partial document below.
    return FinishInterrupted(harness, settled, seeds);
  }
  const std::vector<std::vector<double>> summaries = store->TakeSummaries(settled);
  if (!spec.stream) {
    sink.Write(DocumentHead(spec, &summaries));
    if (!store->WriteRuns(&sink)) {
      return kExitIoError;
    }
  }
  sink.Write("\n  ]");
  const std::vector<FailedRun> failures = harness.failures();
  if (!failures.empty()) {
    sink.Write(RenderFailedRuns(failures));
  }
  if (spec.stream) {
    // The aggregate block needs every seed, so --stream writes it last; its
    // values are identical to the default layout's.
    JsonWriter tail(/*depth=*/1, /*need_comma=*/true);
    spec.aggregates(&tail, summaries);
    sink.Write(tail.Take());
  }
  sink.Write("\n}\n");
  const int io = sink.Finish();
  if (interrupted) {
    return FinishInterrupted(harness, settled, seeds);
  }
  if (io != kExitOk) {
    return io;
  }
  // Quarantined seeds map to the distinct completed-with-failures code.
  return failures.empty() ? kExitOk : kExitQuarantine;
}

}  // namespace

int RunCampaignEngine(const CampaignEngineSpec& spec, std::string* setup_error) {
  try {
    return RunEngine(spec);
  } catch (const EngineSetupError& e) {
    if (setup_error != nullptr) {
      *setup_error = e.what();
    } else {
      std::fprintf(stderr, "error: %s\n", e.what());
    }
    return kExitUsage;
  }
}

}  // namespace byterobust
