// Campaign-engine oracle: drives RunCampaignEngine with a synthetic per-seed
// runner whose seeds finish out of order, and compares the captured document
// with one this file builds itself from JsonWriter/WriteAggregate — no engine
// code is shared with the expectation. Covers every run store (--stream's
// ordered store, the default spill store, the BYTEROBUST_STREAM_CAMPAIGN=0
// memory store) at --jobs 1/2/4/8, a quarantined seed, a seed that ignores
// the watchdog, and interrupts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/campaign/engine.h"
#include "src/campaign/json_writer.h"
#include "src/harness/exit_codes.h"

namespace byterobust {
namespace {

constexpr int kSeeds = 12;
constexpr std::uint64_t kBaseSeed = 500;
const int kJobs[] = {1, 2, 4, 8};

enum class Store { kOrdered, kSpill, kMemory };
const Store kStores[] = {Store::kOrdered, Store::kSpill, Store::kMemory};

const char* StoreName(Store store) {
  switch (store) {
    case Store::kOrdered:
      return "ordered";
    case Store::kSpill:
      return "spill";
    case Store::kMemory:
      return "memory";
  }
  return "?";
}

double ValueOf(int index) { return 1.0 + 0.25 * index; }

void WriteElementFields(JsonWriter* w, int index) {
  w->BeginObject();
  w->Field("index", index);
  w->Field("value", ValueOf(index));
  w->EndObject();
}

// What a worker hands the engine for seed `index`. Per-index delays make
// later seeds of each group of four finish first, so multi-worker pools
// complete seeds out of order.
SeedOutcome SyntheticSeed(int index) {
  std::this_thread::sleep_for(std::chrono::milliseconds((3 - index % 4) * 2));
  JsonWriter w(/*depth=*/2, /*need_comma=*/false);
  WriteElementFields(&w, index);
  return SeedOutcome{w.Take(), {ValueOf(index), static_cast<double>(index)}, false};
}

void WriteHeader(JsonWriter* w) {
  w->Field("tool", "campaign_engine_test");
  w->Field("base_seed", kBaseSeed);
}

// The aggregate block over summaries {value, index}: the value fold plus
// the indices in the order the engine handed them over, so a wrong prefix or
// order shows up as a byte difference.
void WriteAggregates(JsonWriter* w, const std::vector<std::vector<double>>& summaries) {
  Aggregate a;
  std::vector<int> order;
  for (const std::vector<double>& s : summaries) {
    a.mean += s[0];
    a.min = order.empty() ? s[0] : std::min(a.min, s[0]);
    a.max = order.empty() ? s[0] : std::max(a.max, s[0]);
    order.push_back(static_cast<int>(s[1]));
  }
  if (!order.empty()) {
    a.mean /= static_cast<double>(order.size());
  }
  w->Key("aggregate");
  w->BeginObject();
  WriteAggregate(w, "value", a);
  w->Key("folded");
  w->BeginArray();
  for (int i : order) {
    w->Value(i);
  }
  w->EndArray();
  w->EndObject();
}

// The document the engine must produce for `runs` (seed indices, in order)
// and `failed`, written in one pass by a full-document writer.
std::string ExpectedDocument(const std::vector<int>& runs, const std::vector<FailedRun>& failed,
                             bool stream) {
  std::vector<std::vector<double>> summaries;
  for (int i : runs) {
    summaries.push_back({ValueOf(i), static_cast<double>(i)});
  }
  JsonWriter w;
  w.BeginObject();
  WriteHeader(&w);
  if (!stream) {
    WriteAggregates(&w, summaries);
  }
  w.Key("runs");
  w.BeginArray();
  for (int i : runs) {
    WriteElementFields(&w, i);
  }
  w.EndArray();
  if (!failed.empty()) {
    w.Key("failed_runs");
    w.BeginArray();
    for (const FailedRun& f : failed) {
      w.BeginObject();
      w.Field("index", f.index);
      w.Field("seed", f.seed);
      w.Field("attempts", f.attempts);
      w.Field("timed_out", f.timed_out);
      w.Field("error", f.error);
      w.EndObject();
    }
    w.EndArray();
  }
  if (stream) {
    WriteAggregates(&w, summaries);
  }
  w.EndObject();
  return w.Take() + "\n";
}

std::vector<int> Range(int begin, int end) {
  std::vector<int> v;
  for (int i = begin; i < end; ++i) {
    v.push_back(i);
  }
  return v;
}

struct EngineRun {
  int code = -1;
  std::string document;
};

// Runs the engine on `store` at `jobs`; `configure` may adjust the spec.
template <typename Configure>
EngineRun RunEngine(Store store, int jobs, int seeds, Configure configure) {
  EngineRun run;
  CampaignEngineSpec spec;
  spec.seeds = seeds;
  spec.jobs = jobs;
  spec.stream = store == Store::kOrdered;
  spec.label = "campaign:synthetic";
  spec.identity.base_seed = kBaseSeed;
  spec.capture = &run.document;
  spec.run_seed = SyntheticSeed;
  spec.header_fields = WriteHeader;
  spec.aggregates = WriteAggregates;
  configure(&spec);
  // The memory store is selected by the environment; no engine thread is
  // alive while it is set or cleared.
  if (store == Store::kMemory) {
    setenv("BYTEROBUST_STREAM_CAMPAIGN", "0", 1);
  }
  run.code = RunCampaignEngine(spec);
  unsetenv("BYTEROBUST_STREAM_CAMPAIGN");
  return run;
}

int CountRuns(const std::string& document) {
  int n = 0;
  for (std::size_t at = document.find("\"index\": "); at != std::string::npos;
       at = document.find("\"index\": ", at + 1)) {
    ++n;
  }
  return n;
}

TEST(CampaignEngineTest, DocumentMatchesOracleOnEveryStoreAndJobs) {
  for (Store store : kStores) {
    const std::string expected =
        ExpectedDocument(Range(0, kSeeds), {}, store == Store::kOrdered);
    for (int jobs : kJobs) {
      SCOPED_TRACE(std::string(StoreName(store)) + " --jobs " + std::to_string(jobs));
      const EngineRun run = RunEngine(store, jobs, kSeeds, [](CampaignEngineSpec*) {});
      EXPECT_EQ(run.code, kExitOk);
      EXPECT_EQ(run.document, expected);
    }
  }
}

TEST(CampaignEngineTest, SeedFailingEveryAttemptIsQuarantined) {
  constexpr int kBad = 5;
  const std::string error = "synthetic failure on seed index 5";
  std::vector<int> survivors = Range(0, kSeeds);
  survivors.erase(survivors.begin() + kBad);
  const std::vector<FailedRun> failed = {
      {kBad, kBaseSeed + kBad, /*attempts=*/1, /*timed_out=*/false, error}};
  for (Store store : kStores) {
    const std::string expected = ExpectedDocument(survivors, failed, store == Store::kOrdered);
    for (int jobs : kJobs) {
      SCOPED_TRACE(std::string(StoreName(store)) + " --jobs " + std::to_string(jobs));
      const EngineRun run = RunEngine(store, jobs, kSeeds, [&](CampaignEngineSpec* spec) {
        spec->retries_override = 0;
        spec->run_seed = [&](int i) {
          if (i == kBad) {
            throw std::runtime_error(error);
          }
          return SyntheticSeed(i);
        };
      });
      EXPECT_EQ(run.code, kExitQuarantine);
      EXPECT_EQ(run.document, expected);
    }
  }
}

// A seed that ignores the watchdog: it never looks at its token and returns
// only when released, after its campaign (and spec) are gone, so it reads
// nothing but these globals.
constexpr int kHung = 2;
std::atomic<bool> g_release_hung{false};
std::atomic<bool> g_hung_returned{false};

SeedOutcome SeedHungUntilReleased(int index) {
  if (index == kHung) {
    while (!g_release_hung.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    g_hung_returned.store(true);
  }
  return SyntheticSeed(index);
}

TEST(CampaignEngineTest, SeedIgnoringWatchdogIsQuarantinedAndOthersCarryOn) {
  std::vector<int> survivors = Range(0, kSeeds);
  survivors.erase(survivors.begin() + kHung);
  const std::vector<FailedRun> failed = {
      {kHung, kBaseSeed + kHung, /*attempts=*/1, /*timed_out=*/true,
       "seed watchdog fired after 0.050s and the worker did not yield"}};
  setenv("BYTEROBUST_SEED_TIMEOUT_S", "0.05", 1);
  for (Store store : kStores) {
    const std::string expected = ExpectedDocument(survivors, failed, store == Store::kOrdered);
    for (int jobs : {1, 4}) {
      SCOPED_TRACE(std::string(StoreName(store)) + " --jobs " + std::to_string(jobs));
      g_release_hung.store(false);
      g_hung_returned.store(false);
      const EngineRun run = RunEngine(store, jobs, kSeeds, [](CampaignEngineSpec* spec) {
        spec->retries_override = 2;  // a hang is not retried
        spec->run_seed = SeedHungUntilReleased;
      });
      EXPECT_EQ(run.code, kExitQuarantine);
      EXPECT_EQ(run.document, expected);
      g_release_hung.store(true);
      while (!g_hung_returned.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  unsetenv("BYTEROBUST_SEED_TIMEOUT_S");
}

// Flips the spec's external stop once `after` seeds are done, from inside the
// next seed to start; that seed still drains.
struct StopAfter {
  int after;
  std::atomic<bool> stop{false};
  std::atomic<int> done{0};

  void Configure(CampaignEngineSpec* spec) {
    spec->external_stop = &stop;
    spec->seeds_done = &done;
    spec->run_seed = [this](int i) {
      if (done.load() >= after) {
        stop.store(true);
      }
      return SyntheticSeed(i);
    };
  }
};

// Enough seeds that a stop after two leaves some unclaimed even at --jobs 8.
constexpr int kInterruptSeeds = 32;

TEST(CampaignEngineTest, InterruptedOrderedStoreClosesPartialDocument) {
  for (int jobs : kJobs) {
    SCOPED_TRACE("--jobs " + std::to_string(jobs));
    StopAfter stop{2};
    const EngineRun run = RunEngine(Store::kOrdered, jobs, kInterruptSeeds,
                                    [&](CampaignEngineSpec* spec) { stop.Configure(spec); });
    EXPECT_EQ(run.code, kExitInterrupted);
    const int committed = CountRuns(run.document);
    EXPECT_LT(committed, kInterruptSeeds);
    if (jobs == 1) {
      EXPECT_EQ(committed, 3);  // seeds 0 and 1, then the seed that saw the stop
    }
    // The committed prefix, with aggregates over exactly those seeds.
    EXPECT_EQ(run.document, ExpectedDocument(Range(0, committed), {}, /*stream=*/true));
  }
}

TEST(CampaignEngineTest, InterruptedSpillAndMemoryStoresWriteNoDocument) {
  for (Store store : {Store::kSpill, Store::kMemory}) {
    for (int jobs : kJobs) {
      SCOPED_TRACE(std::string(StoreName(store)) + " --jobs " + std::to_string(jobs));
      StopAfter stop{2};
      const EngineRun run = RunEngine(store, jobs, kInterruptSeeds,
                                      [&](CampaignEngineSpec* spec) { stop.Configure(spec); });
      EXPECT_EQ(run.code, kExitInterrupted);
      EXPECT_EQ(run.document, "");
    }
  }
}

}  // namespace
}  // namespace byterobust
