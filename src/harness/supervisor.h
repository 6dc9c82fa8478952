// Seed supervisor: runs each campaign seed under a wall-clock watchdog with
// bounded, deterministically-jittered retries, and quarantines seeds that
// keep failing instead of aborting the campaign.
//
// Supervision model: seeds run on runner threads started by RunWorkers(),
// and each attempt runs inline on its runner with a cooperative CancelToken;
// the thread that called RunWorkers() is the watchdog for all of them, so a
// healthy seed costs no thread start and no hand-off between threads. When
// an attempt's deadline passes, the watchdog cancels its token and grants a
// short grace period; an attempt that yields (throws SeedCancelledError) is a
// transient timeout and is retried, while a runner that never yields is
// abandoned via detach() and the seed is quarantined immediately, because a
// deterministic hang would only hang again. Should the abandoned attempt ever
// return, its runner unwinds with RunnerAbandoned and touches nothing else;
// a fresh runner takes over the rest of its work. A seed that completes
// successfully after cancellation is accepted: timing must never change
// output bytes.
//
// The watchdog deadline is a trailing EWMA of successful seed durations
// scaled by 10, floored at `timeout_floor_s`, or pinned by
// `timeout_override_s` (the CLI's BYTEROBUST_SEED_TIMEOUT_S). Timing only
// steers scheduling (when to cancel, how long to sleep between retries); it
// never reaches campaign output.
//
// Self-fault-injection (`faults`, the CLI's BYTEROBUST_HARNESS_FAULTS)
// strikes these worker threads before the real seed function runs, with
// decisions drawn from an Rng keyed on (campaign seed, seed index, attempt,
// fault kind) — identical across --jobs values, so a faulted campaign that
// completes is byte-identical to a clean one.

#ifndef SRC_HARNESS_SUPERVISOR_H_
#define SRC_HARNESS_SUPERVISOR_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/common/sync.h"
#include "src/common/thread_annotations.h"
#include "src/harness/backoff.h"
#include "src/harness/wallclock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace byterobust {

// Cooperative cancellation handle passed to every supervised attempt. The
// flag lives on the heap (shared_ptr) so an abandoned attempt may keep
// polling it safely after the supervisor has moved on.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}
  explicit CancelToken(std::shared_ptr<std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

// Thrown by a cancelled worker that noticed its token — a cooperative
// timeout, classified transient (retried).
class SeedCancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Thrown out of Supervise() on a runner the watchdog has abandoned, once its
// attempt finally returns: the seed is already quarantined, so the thread
// unwinds and exits. Not a std::exception, and code between RunWorkers() and
// Supervise() must let it pass (the campaign engine's worker loop rethrows it).
struct RunnerAbandoned {};

// Thrown by the self-fault-injection layer.
class InjectedFaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Parsed harness fault spec (the CLI's BYTEROBUST_HARNESS_FAULTS). Grammar:
// comma-separated `kind:value` pairs — `crash:P`, `hang:P`, `throw:P`
// (probabilities in [0,1], independently re-drawn per attempt),
// `crash_seed:IDX` (that seed index fails every attempt — the
// persistent-failure/quarantine case), and `stop_after:K` (request campaign
// stop once K seeds have committed — the deterministic stand-in for SIGINT).
struct HarnessFaultSpec {
  double crash_p = 0.0;
  double hang_p = 0.0;
  double throw_p = 0.0;
  int crash_seed = -1;
  int stop_after = -1;

  bool any() const {
    return crash_p > 0.0 || hang_p > 0.0 || throw_p > 0.0 || crash_seed >= 0 ||
           stop_after >= 0;
  }

  static bool Parse(const std::string& text, HarnessFaultSpec* spec,
                    std::string* error);
};

struct SupervisorConfig {
  int max_attempts = 3;            // 1 initial try + (max_attempts - 1) retries
  BackoffConfig backoff;           // pacing between retries
  double timeout_override_s = 0.0; // > 0 pins the watchdog deadline
  // Minimum deadline, and the deadline before any duration estimate exists.
  // Deliberately generous: a spurious cancellation of a slow-but-healthy
  // seed would change campaign output, while a true hang only costs these
  // minutes once. Tests pin timeout_override_s instead.
  double timeout_floor_s = 300.0;
  double cancel_grace_s = 0.5;     // wait after cancel before abandoning
  std::uint64_t seed = 0;          // campaign base seed; keys backoff jitter + faults
  HarnessFaultSpec faults;
  std::atomic<bool>* external_stop = nullptr;  // shared with the signal handler
};

// Why a seed was quarantined.
struct SeedFailure {
  int index = -1;
  int attempts = 0;
  bool timed_out = false;
  std::string error;
};

namespace harness_internal {

enum class AttemptOutcome { kOk, kCancelled, kError };

// True on a thread started by SeedSupervisor::RunWorkers().
bool OnWatchedRunner();
// Registers the attempt about to run on this runner with the watchdog and
// returns its token; *start receives the attempt's start time.
CancelToken BeginAttempt(int index, int attempt, double deadline_s, double* start);
// Ends the attempt; false when the watchdog abandoned this runner meanwhile.
bool EndAttempt();

}  // namespace harness_internal

// Deterministically decides whether this (seed index, attempt) draws an
// injected fault, and delivers it: crash/throw raise InjectedFaultError,
// hang spins on the token until the watchdog cancels it.
void InjectHarnessFault(const HarnessFaultSpec& faults, std::uint64_t seed,
                        int index, int attempt, const CancelToken& token);

class SeedSupervisor {
 public:
  explicit SeedSupervisor(const SupervisorConfig& config) : config_(config) {}
  SeedSupervisor(const SeedSupervisor&) = delete;
  SeedSupervisor& operator=(const SeedSupervisor&) = delete;

  // Runs body(w) for w in [0, workers) on one runner thread each and watches
  // every attempt their Supervise() calls make, until all bodies return.
  // When the watchdog abandons a runner, `on_abandon` receives the
  // quarantined seed on this thread, and with `restart` a fresh runner calls
  // body(w) again (a body that claims work from a shared queue carries on).
  void RunWorkers(int workers, const std::function<void(int)>& body,
                  const std::function<void(const SeedFailure&)>& on_abandon, bool restart);

  // Runs `fn` for seed `index` under watchdog + retry. True: *result holds
  // the successful attempt's value. False: the seed is quarantined and
  // *failure says why. Safe to call from many runners at once; called from
  // any other thread, it runs the seed on a runner of its own.
  template <typename Result>
  bool Supervise(int index, std::function<Result(const CancelToken&)> fn,
                 Result* result, SeedFailure* failure);

  // Stop plumbing, shared with the CLI's signal handler through
  // config_.external_stop. NoteCommitted also honours the stop_after fault.
  void RequestStop();
  bool stop_requested() const;
  void NoteCommitted();
  int committed() const { return committed_.load(std::memory_order_acquire); }

  // Current watchdog deadline in seconds (exposed for tests).
  double AttemptTimeoutS() const;

 private:
  void NoteDuration(double seconds);
  void BackoffSleep(int index, int retry) const;
  static std::string WatchdogMessage(double deadline_s);

  const SupervisorConfig config_;
  mutable Mutex mu_;
  double ewma_seconds_ BR_GUARDED_BY(mu_) = 0.0;
  bool have_estimate_ BR_GUARDED_BY(mu_) = false;
  std::atomic<int> committed_{0};
};

template <typename Result>
bool SeedSupervisor::Supervise(int index,
                               std::function<Result(const CancelToken&)> fn,
                               Result* result, SeedFailure* failure) {
  using harness_internal::AttemptOutcome;
  if (!harness_internal::OnWatchedRunner()) {
    bool ok = false;
    RunWorkers(
        1, [&](int) { ok = Supervise(index, std::move(fn), result, failure); },
        [failure](const SeedFailure& abandoned) { *failure = abandoned; }, /*restart=*/false);
    return ok;
  }
  // Observability side channel (src/obs): counters + trace spans for every
  // supervision event. Disabled-path cost is one relaxed load per site;
  // nothing here reaches campaign output bytes.
  static obs::Counter* const attempts_counter =
      obs::GlobalMetrics().GetCounter("harness.attempts");
  static obs::Counter* const retries_counter =
      obs::GlobalMetrics().GetCounter("harness.retries");
  static obs::Counter* const quarantine_counter =
      obs::GlobalMetrics().GetCounter("harness.quarantines");
  const int max_attempts = std::max(1, config_.max_attempts);
  std::string last_error;
  bool last_timed_out = false;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      retries_counter->Add();
      obs::TraceInstantArg("seed_retry", "harness", index);
      const obs::ScopedSpan backoff_span("retry_backoff", "harness", index);
      BackoffSleep(index, attempt - 1);
    }
    attempts_counter->Add();
    const obs::ScopedSpan attempt_span("seed_attempt", "harness", index);
    double start = 0.0;
    const CancelToken token =
        harness_internal::BeginAttempt(index, attempt, AttemptTimeoutS(), &start);
    Result value{};
    AttemptOutcome outcome = AttemptOutcome::kOk;
    std::string error;
    try {
      InjectHarnessFault(config_.faults, config_.seed, index, attempt, token);
      value = fn(token);
    } catch (const SeedCancelledError& e) {
      outcome = AttemptOutcome::kCancelled;
      error = e.what();
    } catch (const std::exception& e) {
      outcome = AttemptOutcome::kError;
      error = e.what();
    } catch (...) {
      outcome = AttemptOutcome::kError;
      error = "unknown exception";
    }
    if (!harness_internal::EndAttempt()) {
      throw RunnerAbandoned();  // the watchdog has quarantined this seed
    }
    if (outcome == AttemptOutcome::kOk) {
      NoteDuration(WallSeconds() - start);
      *result = std::move(value);
      return true;
    }
    last_timed_out = outcome == AttemptOutcome::kCancelled;
    last_error = std::move(error);
  }
  quarantine_counter->Add();
  obs::TraceInstantArg("seed_quarantine", "harness", index);
  failure->index = index;
  failure->attempts = max_attempts;
  failure->timed_out = last_timed_out;
  failure->error = last_error;
  return false;
}

}  // namespace byterobust

#endif  // SRC_HARNESS_SUPERVISOR_H_
