// Harness fault-tolerance suite: deterministic backoff jitter, the resumable
// campaign journal's round-trip / truncation / corruption contracts, the seed
// supervisor's watchdog + retry + quarantine state machine, the binary
// fingerprint (computed only when a journal is created or resumed), and the
// BYTEROBUST_HARNESS_FAULTS self-fault-injection grammar.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/campaign/scenarios.h"
#include "src/harness/backoff.h"
#include "src/harness/exit_codes.h"
#include "src/harness/journal.h"
#include "src/harness/supervisor.h"
#include "src/harness/wallclock.h"

namespace byterobust {
namespace {

// --------------------------------------------------------------------------
// Backoff
// --------------------------------------------------------------------------
TEST(BackoffTest, SameSeedAndAttemptYieldSameDelay) {
  const BackoffConfig config;
  const BackoffPolicy a(config, 1234);
  const BackoffPolicy b(config, 1234);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(a.DelayMs(attempt), b.DelayMs(attempt)) << "attempt " << attempt;
  }
}

TEST(BackoffTest, DifferentSeedsDecorrelate) {
  const BackoffConfig config;
  const BackoffPolicy a(config, 1);
  const BackoffPolicy b(config, 2);
  bool any_differs = false;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    any_differs = any_differs || a.DelayMs(attempt) != b.DelayMs(attempt);
  }
  EXPECT_TRUE(any_differs);
}

TEST(BackoffTest, GrowsGeometricallyAndCapsWithoutJitter) {
  BackoffConfig config;
  config.base_ms = 4.0;
  config.multiplier = 2.0;
  config.max_ms = 20.0;
  config.jitter = 0.0;
  const BackoffPolicy policy(config, 7);
  EXPECT_DOUBLE_EQ(policy.DelayMs(1), 4.0);
  EXPECT_DOUBLE_EQ(policy.DelayMs(2), 8.0);
  EXPECT_DOUBLE_EQ(policy.DelayMs(3), 16.0);
  EXPECT_DOUBLE_EQ(policy.DelayMs(4), 20.0);  // capped
  EXPECT_DOUBLE_EQ(policy.DelayMs(9), 20.0);
}

TEST(BackoffTest, JitterStaysInsideBand) {
  BackoffConfig config;
  config.base_ms = 10.0;
  config.multiplier = 1.0;
  config.max_ms = 10.0;
  config.jitter = 0.5;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const BackoffPolicy policy(config, seed);
    const double d = policy.DelayMs(1);
    EXPECT_GE(d, 5.0);
    EXPECT_LE(d, 15.0);
  }
}

TEST(BackoffTest, NoDelayBeforeFirstRetry) {
  const BackoffPolicy policy(BackoffConfig{}, 3);
  EXPECT_DOUBLE_EQ(policy.DelayMs(0), 0.0);
}

// --------------------------------------------------------------------------
// Journal
// --------------------------------------------------------------------------
class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/harness_journal_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static CampaignIdentity Identity() {
    CampaignIdentity id;
    id.command = "campaign";
    id.scenario = "dense";
    id.seeds = 8;
    id.base_seed = 42;
    id.days = 0.4;
    id.fingerprint = "fnv1a:00000000deadbeef";
    return id;
  }

  std::string path_;
};

TEST_F(JournalTest, RoundTripPreservesElementsAndSummaryBits) {
  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Create(path_, Identity(), &error)) << error;

  JournalEntry a;
  a.index = 3;
  a.summary = {0.1, -0.0, 1e-308, 12345.6789};  // bit-exact, not %g-rounded
  a.element = "\n    {\n      \"seed\": 45,\n      \"note\": \"quote \\\" pipe | ok\"\n    }";
  JournalEntry b;
  b.index = 0;
  b.summary = {};
  b.element = "";
  ASSERT_TRUE(journal.Append(a));
  ASSERT_TRUE(journal.Append(b));
  journal.Close();

  CampaignIdentity loaded;
  std::map<int, JournalEntry> completed;
  long valid_end = 0;
  ASSERT_TRUE(CampaignJournal::Load(path_, &loaded, &completed, &valid_end, &error))
      << error;
  std::string why;
  EXPECT_TRUE(loaded.Matches(Identity(), &why)) << why;
  ASSERT_EQ(completed.size(), 2u);
  EXPECT_EQ(completed.at(3).element, a.element);
  ASSERT_EQ(completed.at(3).summary.size(), a.summary.size());
  for (std::size_t i = 0; i < a.summary.size(); ++i) {
    EXPECT_EQ(completed.at(3).summary[i], a.summary[i]) << "slot " << i;
    EXPECT_EQ(std::signbit(completed.at(3).summary[i]), std::signbit(a.summary[i]));
  }
  EXPECT_TRUE(completed.at(0).summary.empty());
  EXPECT_TRUE(completed.at(0).element.empty());
}

TEST_F(JournalTest, TruncatedTrailingRecordIsDroppedAndResumable) {
  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Create(path_, Identity(), &error)) << error;
  ASSERT_TRUE(journal.Append({0, {1.0}, "first element"}));
  journal.Close();

  long complete_size = 0;
  {
    CampaignIdentity id;
    std::map<int, JournalEntry> completed;
    ASSERT_TRUE(CampaignJournal::Load(path_, &id, &completed, &complete_size, &error));
  }
  // Simulate a crash mid-append: a second record whose payload never fully
  // landed.
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::string partial =
        "seed|index=1|summary=-|bytes=500|digest=fnv1a:0000000000000000\npart";
    std::fwrite(partial.data(), 1, partial.size(), f);
    std::fclose(f);
  }
  CampaignIdentity id;
  std::map<int, JournalEntry> completed;
  long valid_end = 0;
  ASSERT_TRUE(CampaignJournal::Load(path_, &id, &completed, &valid_end, &error)) << error;
  EXPECT_EQ(completed.size(), 1u);
  EXPECT_EQ(valid_end, complete_size);

  // OpenForResume truncates the tail and appends cleanly after it.
  CampaignJournal resumed;
  std::map<int, JournalEntry> prior;
  ASSERT_TRUE(resumed.OpenForResume(path_, Identity(), &prior, &error)) << error;
  EXPECT_EQ(prior.size(), 1u);
  ASSERT_TRUE(resumed.Append({1, {2.0}, "second element"}));
  resumed.Close();
  ASSERT_TRUE(CampaignJournal::Load(path_, &id, &completed, &valid_end, &error)) << error;
  EXPECT_EQ(completed.size(), 2u);
  EXPECT_EQ(completed.at(1).element, "second element");
}

TEST_F(JournalTest, SyncModeSurvivesTornTailAndResumesSynced) {
  // --journal-sync path: every committed record is fdatasync'd, but the
  // torn-tail contract is unchanged — a partial record after the last synced
  // one is dropped on load and truncated away by a (still-synced) resume.
  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Create(path_, Identity(), &error, /*sync=*/true)) << error;
  ASSERT_TRUE(journal.Append({0, {1.0}, "synced element"}));
  journal.Close();

  long complete_size = 0;
  {
    CampaignIdentity id;
    std::map<int, JournalEntry> completed;
    ASSERT_TRUE(CampaignJournal::Load(path_, &id, &completed, &complete_size, &error));
  }
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::string partial =
        "seed|index=1|summary=-|bytes=500|digest=fnv1a:0000000000000000\ntorn";
    std::fwrite(partial.data(), 1, partial.size(), f);
    std::fclose(f);
  }
  CampaignIdentity id;
  std::map<int, JournalEntry> completed;
  long valid_end = 0;
  ASSERT_TRUE(CampaignJournal::Load(path_, &id, &completed, &valid_end, &error)) << error;
  EXPECT_EQ(completed.size(), 1u);
  EXPECT_EQ(valid_end, complete_size);

  CampaignJournal resumed;
  std::map<int, JournalEntry> prior;
  ASSERT_TRUE(resumed.OpenForResume(path_, Identity(), &prior, &error, /*sync=*/true))
      << error;
  EXPECT_EQ(prior.size(), 1u);
  ASSERT_TRUE(resumed.Append({1, {2.0}, "second synced element"}));
  resumed.Close();
  ASSERT_TRUE(CampaignJournal::Load(path_, &id, &completed, &valid_end, &error)) << error;
  EXPECT_EQ(completed.size(), 2u);
  EXPECT_EQ(completed.at(1).element, "second synced element");
}

TEST_F(JournalTest, CorruptedElementIsRejected) {
  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Create(path_, Identity(), &error)) << error;
  ASSERT_TRUE(journal.Append({0, {1.0}, "payload-that-will-be-corrupted"}));
  journal.Close();
  {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -4, SEEK_END);  // inside the element payload
    std::fputc('X', f);
    std::fclose(f);
  }
  CampaignIdentity id;
  std::map<int, JournalEntry> completed;
  long valid_end = 0;
  EXPECT_FALSE(CampaignJournal::Load(path_, &id, &completed, &valid_end, &error));
  EXPECT_NE(error.find("digest"), std::string::npos) << error;
}

TEST_F(JournalTest, MalformedHeaderAndDuplicateIndexAreRejected) {
  std::string error;
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a journal\n", f);
    std::fclose(f);
  }
  CampaignIdentity id;
  std::map<int, JournalEntry> completed;
  long valid_end = 0;
  EXPECT_FALSE(CampaignJournal::Load(path_, &id, &completed, &valid_end, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  CampaignJournal journal;
  ASSERT_TRUE(journal.Create(path_, Identity(), &error)) << error;
  ASSERT_TRUE(journal.Append({2, {}, "one"}));
  ASSERT_TRUE(journal.Append({2, {}, "two"}));
  journal.Close();
  EXPECT_FALSE(CampaignJournal::Load(path_, &id, &completed, &valid_end, &error));
  EXPECT_NE(error.find("twice"), std::string::npos) << error;
}

TEST_F(JournalTest, IdentityAndFingerprintMismatchRejectResume) {
  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Create(path_, Identity(), &error)) << error;
  journal.Close();

  CampaignIdentity other = Identity();
  other.seeds = 16;
  CampaignJournal resumed;
  std::map<int, JournalEntry> completed;
  EXPECT_FALSE(resumed.OpenForResume(path_, other, &completed, &error));
  EXPECT_NE(error.find("seeds"), std::string::npos) << error;

  other = Identity();
  other.fingerprint = "fnv1a:1111111111111111";
  EXPECT_FALSE(resumed.OpenForResume(path_, other, &completed, &error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;

  // "unknown" on either side disables the fingerprint check only.
  other.fingerprint = "unknown";
  EXPECT_TRUE(resumed.OpenForResume(path_, other, &completed, &error)) << error;
  resumed.Close();
}

// A campaign identity leaves the fingerprint empty; creating or resuming a
// journal fills in this binary's, so a journal from another build is refused.
TEST_F(JournalTest, EmptyFingerprintMeansThisBinary) {
  CampaignIdentity foreign = Identity();
  CampaignJournal journal;
  std::string error;
  ASSERT_TRUE(journal.Create(path_, foreign, &error)) << error;
  journal.Close();
  CampaignIdentity here = Identity();
  here.fingerprint.clear();
  CampaignJournal resumed;
  std::map<int, JournalEntry> completed;
  EXPECT_FALSE(resumed.OpenForResume(path_, here, &completed, &error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;

  ASSERT_TRUE(journal.Create(path_, here, &error)) << error;
  journal.Close();
  CampaignIdentity loaded;
  long valid_end = 0;
  ASSERT_TRUE(CampaignJournal::Load(path_, &loaded, &completed, &valid_end, &error)) << error;
  EXPECT_EQ(loaded.fingerprint, BinaryFingerprint());
  EXPECT_EQ(loaded.fingerprint.rfind("fnv1a64x4:", 0), 0u) << loaded.fingerprint;
  EXPECT_TRUE(resumed.OpenForResume(path_, here, &completed, &error)) << error;
  resumed.Close();
}

// Bytes this process has read through read(2) and friends ("rchar" in
// /proc/self/io); -1 where the kernel does not expose it.
long long BytesReadByProcess() {
  std::FILE* f = std::fopen("/proc/self/io", "r");
  if (f == nullptr) {
    return -1;
  }
  long long rchar = -1;
  if (std::fscanf(f, "rchar: %lld", &rchar) != 1) {
    rchar = -1;
  }
  std::fclose(f);
  return rchar;
}

// Builds and runs a 2-seed quickstart campaign, journaled when
// `journal_path` is set, capturing its document; returns the bytes the
// process read meanwhile, or -1 on failure.
long long BytesReadByCampaign(const std::string& journal_path,
                              CampaignIdentity* identity = nullptr) {
  CampaignRequest req;
  req.command = "campaign";
  req.scenario = "quickstart";
  req.seeds = 2;
  req.days = 0.05;
  req.journal_path = journal_path;
  CampaignEngineSpec spec;
  std::string error;
  if (!BuildCampaignEngineSpec(req, &spec, &error)) {
    return -1;
  }
  if (identity != nullptr) {
    *identity = spec.identity;
  }
  std::string document;
  spec.capture = &document;
  const long long before = BytesReadByProcess();
  if (RunCampaignEngine(spec) != kExitOk) {
    return -1;
  }
  return BytesReadByProcess() - before;
}

// Hashing the executable reads all of it, so a campaign that reads fewer
// bytes than the image holds never fingerprinted it. The fingerprint is
// computed once per process, so the check runs in a fresh one (the
// threadsafe death-test style re-executes this binary for the child), where
// the journaled campaign afterwards proves the measurement sees the hash.
TEST(BinaryFingerprintTest, OnlyAJournaledCampaignReadsTheExecutable) {
  struct stat exe;
  ASSERT_EQ(stat("/proc/self/exe", &exe), 0);
  if (BytesReadByProcess() < 0) {
    GTEST_SKIP() << "/proc/self/io is not available";
  }
  CampaignIdentity identity;
  ASSERT_GE(BytesReadByCampaign("", &identity), 0);
  EXPECT_TRUE(identity.fingerprint.empty());

  const std::string journal = ::testing::TempDir() + "/harness_fingerprint.journal";
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const long long plain = BytesReadByCampaign("");
        const long long journaled = BytesReadByCampaign(journal);
        std::fprintf(stderr, "read %lld bytes without a journal, %lld with one, image %lld\n",
                     plain, journaled, static_cast<long long>(exe.st_size));
        std::exit(plain >= 0 && plain < exe.st_size && journaled >= exe.st_size ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  std::remove(journal.c_str());
}

// --------------------------------------------------------------------------
// Fault spec grammar
// --------------------------------------------------------------------------
TEST(HarnessFaultSpecTest, ParsesFullGrammar) {
  HarnessFaultSpec spec;
  std::string error;
  ASSERT_TRUE(HarnessFaultSpec::Parse("crash:0.25,hang:0.1,throw:0.5,crash_seed:3,stop_after:2",
                                      &spec, &error))
      << error;
  EXPECT_DOUBLE_EQ(spec.crash_p, 0.25);
  EXPECT_DOUBLE_EQ(spec.hang_p, 0.1);
  EXPECT_DOUBLE_EQ(spec.throw_p, 0.5);
  EXPECT_EQ(spec.crash_seed, 3);
  EXPECT_EQ(spec.stop_after, 2);
  EXPECT_TRUE(spec.any());

  ASSERT_TRUE(HarnessFaultSpec::Parse("", &spec, &error));
  EXPECT_FALSE(spec.any());
}

TEST(HarnessFaultSpecTest, RejectsMalformedSpecs) {
  HarnessFaultSpec spec;
  std::string error;
  EXPECT_FALSE(HarnessFaultSpec::Parse("explode:0.5", &spec, &error));
  EXPECT_FALSE(HarnessFaultSpec::Parse("crash", &spec, &error));
  EXPECT_FALSE(HarnessFaultSpec::Parse("crash:1.5", &spec, &error));
  EXPECT_FALSE(HarnessFaultSpec::Parse("crash:-0.1", &spec, &error));
  EXPECT_FALSE(HarnessFaultSpec::Parse("crash_seed:x", &spec, &error));
}

TEST(HarnessFaultSpecTest, InjectionIsDeterministicPerIndexAttemptKind) {
  HarnessFaultSpec spec;
  spec.crash_p = 0.5;
  const CancelToken token;
  for (int index = 0; index < 16; ++index) {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      bool first = false;
      bool second = false;
      try {
        InjectHarnessFault(spec, 42, index, attempt, token);
      } catch (const InjectedFaultError&) {
        first = true;
      }
      try {
        InjectHarnessFault(spec, 42, index, attempt, token);
      } catch (const InjectedFaultError&) {
        second = true;
      }
      EXPECT_EQ(first, second) << "index " << index << " attempt " << attempt;
    }
  }
}

// --------------------------------------------------------------------------
// Supervisor
// --------------------------------------------------------------------------
SupervisorConfig FastConfig() {
  SupervisorConfig config;
  config.max_attempts = 3;
  config.backoff.base_ms = 1.0;
  config.backoff.max_ms = 2.0;
  config.timeout_override_s = 5.0;  // generous: tests below never hit it
  config.cancel_grace_s = 0.5;
  config.seed = 42;
  return config;
}

TEST(SeedSupervisorTest, SuccessPassesResultThrough) {
  SeedSupervisor supervisor(FastConfig());
  std::string result;
  SeedFailure failure;
  const bool ok = supervisor.Supervise<std::string>(
      0, [](const CancelToken&) { return std::string("seed-output"); }, &result, &failure);
  ASSERT_TRUE(ok) << failure.error;
  EXPECT_EQ(result, "seed-output");
}

TEST(SeedSupervisorTest, TransientFailureIsRetriedToSuccess) {
  SeedSupervisor supervisor(FastConfig());
  auto attempts = std::make_shared<std::atomic<int>>(0);
  std::string result;
  SeedFailure failure;
  const bool ok = supervisor.Supervise<std::string>(
      5,
      [attempts](const CancelToken&) {
        if (attempts->fetch_add(1) < 2) {
          throw std::runtime_error("transient worker death");
        }
        return std::string("recovered");
      },
      &result, &failure);
  ASSERT_TRUE(ok) << failure.error;
  EXPECT_EQ(result, "recovered");
  EXPECT_EQ(attempts->load(), 3);
}

TEST(SeedSupervisorTest, PersistentFailureQuarantinesWithAttemptCount) {
  SeedSupervisor supervisor(FastConfig());
  std::string result;
  SeedFailure failure;
  const bool ok = supervisor.Supervise<std::string>(
      7,
      [](const CancelToken&) -> std::string { throw std::runtime_error("always broken"); },
      &result, &failure);
  EXPECT_FALSE(ok);
  EXPECT_EQ(failure.index, 7);
  EXPECT_EQ(failure.attempts, 3);
  EXPECT_FALSE(failure.timed_out);
  EXPECT_NE(failure.error.find("always broken"), std::string::npos);
}

TEST(SeedSupervisorTest, WatchdogFiresOnlyPastDeadline) {
  SupervisorConfig config = FastConfig();
  config.max_attempts = 1;
  config.timeout_override_s = 0.15;
  SeedSupervisor supervisor(config);
  EXPECT_DOUBLE_EQ(supervisor.AttemptTimeoutS(), 0.15);

  // A cooperative hang: never finishes on its own, yields when cancelled.
  std::string result;
  SeedFailure failure;
  const double start = WallSeconds();
  const bool ok = supervisor.Supervise<std::string>(
      0,
      [](const CancelToken& token) -> std::string {
        while (!token.cancelled()) {
          SleepMs(1.0);
        }
        throw SeedCancelledError("yielded to watchdog");
      },
      &result, &failure);
  const double elapsed = WallSeconds() - start;
  EXPECT_FALSE(ok);
  EXPECT_TRUE(failure.timed_out);
  EXPECT_GE(elapsed, 0.15);  // never fires before the deadline

  // A fast seed under the same deadline is never cancelled.
  auto cancelled_seen = std::make_shared<std::atomic<bool>>(false);
  const bool fast_ok = supervisor.Supervise<std::string>(
      1,
      [cancelled_seen](const CancelToken& token) {
        cancelled_seen->store(token.cancelled());
        return std::string("fast");
      },
      &result, &failure);
  ASSERT_TRUE(fast_ok) << failure.error;
  EXPECT_FALSE(cancelled_seen->load());
}

TEST(SeedSupervisorTest, NonYieldingAttemptIsAbandonedWithoutRetry) {
  SupervisorConfig config = FastConfig();
  config.timeout_override_s = 0.05;
  config.cancel_grace_s = 0.05;
  SeedSupervisor supervisor(config);

  // Ignores its token until the test releases it, long after the supervisor
  // gave up on it.
  auto release = std::make_shared<std::atomic<bool>>(false);
  auto returned = std::make_shared<std::atomic<bool>>(false);
  std::string result;
  SeedFailure failure;
  const double start = WallSeconds();
  const bool ok = supervisor.Supervise<std::string>(
      3,
      [release, returned](const CancelToken&) {
        while (!release->load()) {
          SleepMs(1.0);
        }
        returned->store(true);
        return std::string("too late");
      },
      &result, &failure);
  const double elapsed = WallSeconds() - start;
  EXPECT_FALSE(ok);
  EXPECT_EQ(failure.index, 3);
  EXPECT_EQ(failure.attempts, 1);
  EXPECT_TRUE(failure.timed_out);
  EXPECT_EQ(failure.error, "seed watchdog fired after 0.050s and the worker did not yield");
  EXPECT_GE(elapsed, 0.1);  // deadline plus grace
  EXPECT_EQ(result, "");

  // The abandoned attempt's late return changes nothing, and the supervisor
  // keeps working.
  release->store(true);
  while (!returned->load()) {
    SleepMs(1.0);
  }
  EXPECT_EQ(result, "");
  ASSERT_TRUE(supervisor.Supervise<std::string>(
      4, [](const CancelToken&) { return std::string("fine"); }, &result, &failure));
  EXPECT_EQ(result, "fine");
}

TEST(SeedSupervisorTest, TrailingEstimateScalesDeadline) {
  SupervisorConfig config = FastConfig();
  config.timeout_override_s = 0.0;
  config.timeout_floor_s = 0.001;
  SeedSupervisor supervisor(config);
  std::string result;
  SeedFailure failure;
  ASSERT_TRUE(supervisor.Supervise<std::string>(
      0,
      [](const CancelToken&) {
        SleepMs(20.0);
        return std::string("slow");
      },
      &result, &failure));
  // EWMA seeded at ~20ms; deadline = 10 * estimate >= 100ms.
  EXPECT_GE(supervisor.AttemptTimeoutS(), 0.1);
  EXPECT_LE(supervisor.AttemptTimeoutS(), 10.0);
}

TEST(SeedSupervisorTest, StopAfterFaultRequestsExternalStop) {
  std::atomic<bool> stop{false};
  SupervisorConfig config = FastConfig();
  config.faults.stop_after = 2;
  config.external_stop = &stop;
  SeedSupervisor supervisor(config);
  EXPECT_FALSE(supervisor.stop_requested());
  supervisor.NoteCommitted();
  EXPECT_FALSE(supervisor.stop_requested());
  supervisor.NoteCommitted();
  EXPECT_TRUE(supervisor.stop_requested());
  EXPECT_TRUE(stop.load());
  EXPECT_EQ(supervisor.committed(), 2);
}

TEST(SeedSupervisorTest, CrashSeedFaultQuarantinesThatSeedOnly) {
  SupervisorConfig config = FastConfig();
  config.faults.crash_seed = 2;
  SeedSupervisor supervisor(config);
  std::string result;
  SeedFailure failure;
  EXPECT_TRUE(supervisor.Supervise<std::string>(
      1, [](const CancelToken&) { return std::string("ok"); }, &result, &failure));
  EXPECT_FALSE(supervisor.Supervise<std::string>(
      2, [](const CancelToken&) { return std::string("never"); }, &result, &failure));
  EXPECT_EQ(failure.attempts, config.max_attempts);
  EXPECT_NE(failure.error.find("persistent crash"), std::string::npos);
}

}  // namespace
}  // namespace byterobust
