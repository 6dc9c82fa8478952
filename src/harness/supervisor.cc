#include "src/harness/supervisor.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>
#include <vector>

#include "src/common/rng.h"

namespace byterobust {
namespace {

constexpr double kSeedTimeoutFactor = 10.0;  // deadline / trailing seed duration

bool ParseProbability(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && *out >= 0.0 && *out <= 1.0;
}

bool ParseNonNegativeInt(const std::string& text, int* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size() || value < 0 ||
      value > 1'000'000'000L) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

// Per-decision salts: each (index, attempt, kind) triple gets its own Rng so
// fault draws are independent of each other and of --jobs scheduling.
constexpr std::uint64_t kCrashSalt = 0x6372617368ULL;  // "crash"
constexpr std::uint64_t kThrowSalt = 0x7468726f77ULL;  // "throw"
constexpr std::uint64_t kHangSalt = 0x68616e67ULL;     // "hang"

bool FaultStrikes(std::uint64_t seed, int index, int attempt, std::uint64_t salt,
                  double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  Rng rng(HarnessMix(seed ^ HarnessMix(static_cast<std::uint64_t>(index) * 0x9E3779B9ULL ^
                                       static_cast<std::uint64_t>(attempt) * 0x85EBCA6BULL ^
                                       salt)));
  return rng.Bernoulli(p);
}

}  // namespace

bool HarnessFaultSpec::Parse(const std::string& text, HarnessFaultSpec* spec,
                             std::string* error) {
  *spec = HarnessFaultSpec();
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = std::min(text.find(',', pos), text.size());
    const std::string part = text.substr(pos, end - pos);
    pos = end + 1;
    if (part.empty()) {
      continue;
    }
    const std::size_t colon = part.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= part.size()) {
      *error = "harness fault spec entry '" + part + "' is not kind:value";
      return false;
    }
    const std::string kind = part.substr(0, colon);
    const std::string value = part.substr(colon + 1);
    bool ok;
    if (kind == "crash") {
      ok = ParseProbability(value, &spec->crash_p);
    } else if (kind == "hang") {
      ok = ParseProbability(value, &spec->hang_p);
    } else if (kind == "throw") {
      ok = ParseProbability(value, &spec->throw_p);
    } else if (kind == "crash_seed") {
      ok = ParseNonNegativeInt(value, &spec->crash_seed);
    } else if (kind == "stop_after") {
      ok = ParseNonNegativeInt(value, &spec->stop_after);
    } else {
      *error = "unknown harness fault kind '" + kind +
               "' (expected crash, hang, throw, crash_seed, or stop_after)";
      return false;
    }
    if (!ok) {
      *error = "harness fault '" + kind + "' has invalid value '" + value + "'";
      return false;
    }
  }
  return true;
}

void InjectHarnessFault(const HarnessFaultSpec& faults, std::uint64_t seed,
                        int index, int attempt, const CancelToken& token) {
  if (!faults.any()) {
    return;
  }
  if (faults.crash_seed == index) {
    throw InjectedFaultError("injected persistent crash on seed index " +
                             std::to_string(index) + " (attempt " +
                             std::to_string(attempt) + ")");
  }
  if (FaultStrikes(seed, index, attempt, kCrashSalt, faults.crash_p)) {
    throw InjectedFaultError("injected crash fault on seed index " +
                             std::to_string(index) + " (attempt " +
                             std::to_string(attempt) + ")");
  }
  if (FaultStrikes(seed, index, attempt, kThrowSalt, faults.throw_p)) {
    throw InjectedFaultError("injected throw fault on seed index " +
                             std::to_string(index) + " (attempt " +
                             std::to_string(attempt) + ")");
  }
  if (FaultStrikes(seed, index, attempt, kHangSalt, faults.hang_p)) {
    // Cooperative hang: spin on the token so the watchdog's cancel converts
    // this into a retryable timeout instead of an abandoned thread.
    while (!token.cancelled()) {
      SleepMs(2.0);
    }
    throw SeedCancelledError("injected hang on seed index " + std::to_string(index) +
                             " (attempt " + std::to_string(attempt) +
                             ") cancelled by watchdog");
  }
}

namespace harness_internal {
namespace {

// What the watchdog knows about one runner thread.
struct RunnerSlot {
  int worker = 0;
  int index = -1;  // seed of the attempt in flight; -1 between attempts
  int attempt = 0;
  double start = 0.0;  // WallSeconds() when the attempt began
  double deadline_s = 0.0;
  std::shared_ptr<std::atomic<bool>> cancel;
  bool cancelled = false;
  bool abandoned = false;
  bool finished = false;  // the runner's body returned
};

// Shared by the watchdog and its runners; heap-allocated so an abandoned
// runner never touches a dead frame.
struct WatchState {
  Mutex mu;
  CondVar cv;  // wakes the watchdog
  std::vector<RunnerSlot> slots BR_GUARDED_BY(mu);
  double wake_at BR_GUARDED_BY(mu) = 0.0;  // when the watchdog next wakes by itself
};

// The watchdog and slot of the runner on this thread; empty elsewhere.
struct RunnerContext {
  WatchState* watch = nullptr;
  std::size_t slot = 0;
};
thread_local RunnerContext t_runner;

// A runner's whole life. Its std::thread holds a reference to the watch
// state, so an abandoned runner that unwinds late still exits through live
// memory.
void RunnerMain(const std::shared_ptr<WatchState>& watch, std::size_t slot,
                const std::function<void(int)>* body, int worker) {
  t_runner = RunnerContext{watch.get(), slot};
  try {
    (*body)(worker);
  } catch (const RunnerAbandoned&) {
    return;  // the watchdog has settled this runner's seed and moved on
  }
  const MutexLock lock(&watch->mu);
  watch->slots[slot].finished = true;
  watch->cv.NotifyOne();
}

}  // namespace

bool OnWatchedRunner() { return t_runner.watch != nullptr; }

CancelToken BeginAttempt(int index, int attempt, double deadline_s, double* start) {
  auto cancel = std::make_shared<std::atomic<bool>>(false);
  WatchState* watch = t_runner.watch;
  const MutexLock lock(&watch->mu);
  RunnerSlot& slot = watch->slots[t_runner.slot];
  slot.index = index;
  slot.attempt = attempt;
  slot.start = *start = WallSeconds();
  slot.deadline_s = deadline_s;
  slot.cancel = cancel;
  slot.cancelled = false;
  if (slot.start + deadline_s < watch->wake_at) {
    watch->cv.NotifyOne();  // due before the watchdog would next look
  }
  return CancelToken(std::move(cancel));
}

bool EndAttempt() {
  WatchState* watch = t_runner.watch;
  const MutexLock lock(&watch->mu);
  RunnerSlot& slot = watch->slots[t_runner.slot];
  if (slot.abandoned) {
    return false;
  }
  slot.index = -1;
  slot.cancel.reset();
  return true;
}

}  // namespace harness_internal

void SeedSupervisor::RunWorkers(int workers, const std::function<void(int)>& body,
                                const std::function<void(const SeedFailure&)>& on_abandon,
                                bool restart) {
  using harness_internal::RunnerSlot;
  using harness_internal::WatchState;
  static obs::Counter* const watchdog_counter =
      obs::GlobalMetrics().GetCounter("harness.watchdog_fires");
  static obs::Counter* const quarantine_counter =
      obs::GlobalMetrics().GetCounter("harness.quarantines");
  const auto watch = std::make_shared<WatchState>();
  std::vector<std::thread> runners;  // runners[s] serves watch->slots[s]
  const auto launch = [&](int worker) {
    std::size_t slot = 0;
    {
      const MutexLock lock(&watch->mu);
      slot = watch->slots.size();
      watch->slots.push_back(RunnerSlot{});
      watch->slots.back().worker = worker;
    }
    runners.emplace_back(harness_internal::RunnerMain, watch, slot, &body, worker);
  };
  for (int w = 0; w < workers; ++w) {
    launch(w);
  }

  for (;;) {
    std::vector<RunnerSlot> abandoned;
    {
      const MutexLock lock(&watch->mu);
      const double now = WallSeconds();
      double wake_at = std::numeric_limits<double>::infinity();
      bool running = false;
      for (std::size_t s = 0; s < watch->slots.size(); ++s) {
        RunnerSlot& slot = watch->slots[s];
        if (slot.finished || slot.abandoned) {
          continue;
        }
        running = true;
        if (slot.index < 0) {
          continue;
        }
        const double cancel_at = slot.start + slot.deadline_s;
        if (!slot.cancelled) {
          if (now < cancel_at) {
            wake_at = std::min(wake_at, cancel_at);
            continue;
          }
          slot.cancelled = true;
          slot.cancel->store(true, std::memory_order_relaxed);
          watchdog_counter->Add();
          obs::TraceInstantArg("watchdog_fire", "harness", slot.index);
        }
        const double abandon_at = cancel_at + config_.cancel_grace_s;
        if (now < abandon_at) {
          wake_at = std::min(wake_at, abandon_at);
          continue;
        }
        slot.abandoned = true;
        runners[s].detach();
        abandoned.push_back(slot);
      }
      if (!running) {
        break;
      }
      if (abandoned.empty()) {
        watch->wake_at = wake_at;
        if (wake_at == std::numeric_limits<double>::infinity()) {
          watch->cv.Wait(&watch->mu);
        } else {
          watch->cv.WaitFor(&watch->mu, wake_at - now);
        }
        continue;
      }
    }
    // Non-cooperative hang: quarantine without retrying — a deterministic
    // hang would only hang again.
    for (const RunnerSlot& slot : abandoned) {
      quarantine_counter->Add();
      obs::TraceInstantArg("seed_quarantine", "harness", slot.index);
      SeedFailure failure;
      failure.index = slot.index;
      failure.attempts = slot.attempt;
      failure.timed_out = true;
      failure.error = WatchdogMessage(slot.deadline_s);
      on_abandon(failure);
      if (restart) {
        launch(slot.worker);
      }
    }
  }
  for (std::thread& runner : runners) {
    if (runner.joinable()) {
      runner.join();
    }
  }
}

void SeedSupervisor::RequestStop() {
  if (config_.external_stop != nullptr) {
    config_.external_stop->store(true, std::memory_order_release);
  }
}

bool SeedSupervisor::stop_requested() const {
  return config_.external_stop != nullptr &&
         config_.external_stop->load(std::memory_order_acquire);
}

void SeedSupervisor::NoteCommitted() {
  const int n = committed_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (config_.faults.stop_after >= 0 && n >= config_.faults.stop_after) {
    RequestStop();
  }
}

double SeedSupervisor::AttemptTimeoutS() const {
  if (config_.timeout_override_s > 0.0) {
    return config_.timeout_override_s;
  }
  const double floor_s = std::max(config_.timeout_floor_s, 0.001);
  const MutexLock lock(&mu_);
  if (!have_estimate_) {
    return floor_s;
  }
  return std::max(floor_s, kSeedTimeoutFactor * ewma_seconds_);
}

void SeedSupervisor::NoteDuration(double seconds) {
  const MutexLock lock(&mu_);
  ewma_seconds_ = have_estimate_ ? 0.7 * ewma_seconds_ + 0.3 * seconds : seconds;
  have_estimate_ = true;
}

void SeedSupervisor::BackoffSleep(int index, int retry) const {
  const BackoffPolicy policy(
      config_.backoff,
      HarnessMix(config_.seed ^ static_cast<std::uint64_t>(index) * 0xC2B2AE35ULL));
  SleepMs(policy.DelayMs(retry));
}

std::string SeedSupervisor::WatchdogMessage(double deadline_s) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "seed watchdog fired after %.3fs and the worker did not yield",
                deadline_s);
  return buf;
}

}  // namespace byterobust
