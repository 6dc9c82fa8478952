// Unit tests for the data-plane monitor: inspections (Table 3), metric rules
// and the hang/crash watchdogs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/monitor/monitor.h"
#include "tests/step_run_util.h"

namespace byterobust {
namespace {

JobConfig SmallJob() {
  JobConfig cfg;
  cfg.parallelism.tp = 2;
  cfg.parallelism.pp = 2;
  cfg.parallelism.dp = 2;
  cfg.parallelism.gpus_per_machine = 2;
  cfg.base_step_time = Seconds(10);
  return cfg;
}

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest()
      : cluster_(4, 2, 1), job_(SmallJob(), &sim_, &cluster_, 1), monitor_(MakeConfig(), &sim_,
                                                                           &cluster_, &job_) {
    monitor_.SetAnomalyHandler([this](const AnomalyReport& r) { reports_.push_back(r); });
    job_.SetQuietPrefix([this](const StepRun& run) { return monitor_.QuietPrefix(run); });
    job_.AddRunObserver([this](const StepRun& run) { monitor_.OnRun(run); });
  }

  static MonitorConfig MakeConfig() {
    MonitorConfig cfg;
    cfg.hang_grace = Minutes(10);
    return cfg;
  }

  Simulator sim_;
  Cluster cluster_;
  TrainJob job_;
  Monitor monitor_;
  std::vector<AnomalyReport> reports_;
};

TEST_F(MonitorTest, GpuUnavailableDetectedWithinGpuInterval) {
  monitor_.Start();
  job_.Start();
  sim_.RunUntil(Seconds(5));
  cluster_.machine(2).gpu(1).available = false;
  sim_.RunUntil(Seconds(25));
  ASSERT_FALSE(reports_.empty());
  const AnomalyReport& r = reports_.front();
  EXPECT_EQ(r.source, AnomalySource::kInspection);
  EXPECT_EQ(r.symptom_hint, IncidentSymptom::kGpuUnavailable);
  EXPECT_TRUE(r.high_confidence);
  EXPECT_EQ(r.machines, (std::vector<MachineId>{2}));
  // Detection within one 10 s GPU inspection interval of the fault (Table 3).
  EXPECT_LE(r.detect_time - Seconds(5), Seconds(10));
}

TEST_F(MonitorTest, KernelPanicDetectedWithinHostInterval) {
  monitor_.Start();
  sim_.RunUntil(Seconds(3));
  cluster_.machine(0).host().os_kernel_ok = false;
  sim_.RunUntil(Seconds(6));
  ASSERT_FALSE(reports_.empty());
  EXPECT_EQ(reports_.front().symptom_hint, IncidentSymptom::kOsKernelPanic);
  // Host items are polled every 2 s (Table 3).
  EXPECT_LE(reports_.front().detect_time - Seconds(3), Seconds(2) + 1);
}

TEST_F(MonitorTest, NicCrashDetectedWithinNetworkInterval) {
  monitor_.Start();
  cluster_.machine(1).host().nic_up = false;
  sim_.RunUntil(Seconds(31));
  ASSERT_FALSE(reports_.empty());
  EXPECT_EQ(reports_.front().symptom_hint, IncidentSymptom::kInfinibandError);
  EXPECT_LE(reports_.front().detect_time, Seconds(30) + 1);
}

TEST_F(MonitorTest, SwitchDownNeedsTwoConsecutiveEvents) {
  monitor_.Start();
  cluster_.machine(1).host().switch_reachable = false;
  sim_.RunUntil(Seconds(31));
  EXPECT_TRUE(reports_.empty()) << "first switch event must not alert";
  sim_.RunUntil(Seconds(61));
  ASSERT_FALSE(reports_.empty());
  EXPECT_EQ(reports_.front().symptom_hint, IncidentSymptom::kInfinibandError);
}

TEST_F(MonitorTest, FindingsAreDedupedPerRun) {
  monitor_.Start();
  cluster_.machine(2).gpu(0).available = false;
  sim_.RunUntil(Minutes(5));
  EXPECT_EQ(reports_.size(), 1u);
  monitor_.OnJobRestart();  // new run: the outstanding set clears
  sim_.RunUntil(Minutes(6));
  EXPECT_EQ(reports_.size(), 2u);
}

TEST_F(MonitorTest, HighTemperatureFlagsMfuDecline) {
  monitor_.Start();
  cluster_.machine(3).gpu(1).temperature_c = 93.0;
  sim_.RunUntil(Seconds(11));
  ASSERT_FALSE(reports_.empty());
  EXPECT_EQ(reports_.front().symptom_hint, IncidentSymptom::kMfuDecline);
  EXPECT_FALSE(reports_.front().high_confidence);
}

TEST_F(MonitorTest, SdcAndCommDefectAreInvisibleToInspection) {
  monitor_.Start();
  cluster_.machine(0).gpu(0).sdc = true;
  cluster_.machine(1).gpu(1).comm_defect = true;
  sim_.RunUntil(Minutes(3));
  EXPECT_TRUE(reports_.empty());
}

TEST_F(MonitorTest, CrashDetectedViaLogScrape) {
  monitor_.Start();
  job_.Start();
  sim_.RunUntil(Seconds(15));
  job_.Crash();
  sim_.RunUntil(Seconds(15) + Minutes(3));
  ASSERT_FALSE(reports_.empty());
  EXPECT_EQ(reports_.front().source, AnomalySource::kCrashLog);
  // Watchdog tick (30 s) + log scrape latency (60 s).
  EXPECT_LE(reports_.front().detect_time - Seconds(15), Seconds(95));
}

TEST_F(MonitorTest, HangDetectedAfterGracePeriod) {
  monitor_.Start();
  job_.Start();
  sim_.RunUntil(Seconds(25));
  job_.Hang(0);
  sim_.RunUntil(Seconds(25) + Minutes(11));
  ASSERT_FALSE(reports_.empty());
  EXPECT_EQ(reports_.front().source, AnomalySource::kHangSuspect);
  EXPECT_EQ(reports_.front().symptom_hint, IncidentSymptom::kJobHang);
  // Not before the 10-minute grace.
  EXPECT_GE(reports_.front().detect_time - Seconds(20), Minutes(10));
}

TEST_F(MonitorTest, NanLossReportedImmediately) {
  monitor_.Start();
  job_.Start();
  sim_.RunUntil(Seconds(15));
  job_.SetNanLoss(true);
  sim_.RunUntil(Seconds(26));
  ASSERT_FALSE(reports_.empty());
  EXPECT_EQ(reports_.front().source, AnomalySource::kMetricNan);
  EXPECT_EQ(reports_.front().symptom_hint, IncidentSymptom::kNanValue);
}

TEST_F(MonitorTest, MfuDeclineRuleFiresAfterSustainedDrop) {
  monitor_.Start();
  job_.Start();
  sim_.RunUntil(Minutes(2));  // establish the high-water mark
  cluster_.machine(0).gpu(0).clock_ratio = 0.55;  // silent downclock
  sim_.RunUntil(Minutes(2) + Seconds(10 / 0.55 * 7));
  ASSERT_FALSE(reports_.empty());
  EXPECT_EQ(reports_.front().source, AnomalySource::kMfuDecline);
}

// The rules fed one step at a time, with each step's loss set in a table
// curve: step i runs over [10 s * i, 10 s * (i + 1)).
class OneStepFeed {
 public:
  explicit OneStepFeed(const MetricsRulesConfig& config) : rules_(config, &curve_) {}

  std::optional<AnomalyReport> Feed(double loss, double mfu = 0.3, bool is_nan = false) {
    curve_.Set(next_, loss);
    const StepRun step = OneStep(next_, Seconds(10) * next_, Seconds(10) * (next_ + 1), mfu,
                                 /*run_id=*/0, /*recompute=*/false, is_nan);
    ++next_;
    std::vector<AnomalyReport> reports = rules_.OnRun(step);
    EXPECT_LE(reports.size(), 1u);
    if (reports.empty()) {
      return std::nullopt;
    }
    return reports.front();
  }

  MetricsRules& rules() { return rules_; }

 private:
  TableLossCurve curve_;
  MetricsRules rules_;
  std::int64_t next_ = 0;
};

TEST(MetricsRulesTest, SpikeRuleNeedsHistory) {
  OneStepFeed feed(MetricsRulesConfig{});
  // Below half the trailing window: no spike detection yet.
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(feed.Feed(2.0).has_value());
  }
  const auto report = feed.Feed(11.0);  // > 5x the median of 2.0
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->source, AnomalySource::kMetricSpike);
}

TEST(MetricsRulesTest, ResetClearsBaselines) {
  OneStepFeed feed(MetricsRulesConfig{});
  for (int i = 0; i < 20; ++i) {
    feed.Feed(2.0);
  }
  feed.rules().Reset();
  EXPECT_FALSE(feed.Feed(11.0).has_value());  // no history anymore: not a spike
}

TEST(MetricsRulesTest, NanWinsOverEverything) {
  OneStepFeed feed(MetricsRulesConfig{});
  const auto report = feed.Feed(std::nan(""), 0.3, /*is_nan=*/true);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->source, AnomalySource::kMetricNan);
}

TEST(MetricsRulesTest, SpikeDetailNamesTheConfiguredFactor) {
  MetricsRulesConfig cfg;
  cfg.spike_factor = 2.5;
  cfg.trailing_window = 2;
  OneStepFeed feed(cfg);
  EXPECT_FALSE(feed.Feed(2.0).has_value());
  const auto report = feed.Feed(5.5);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->detail, "loss spike > 2.5x trailing median");
}

// The sorted-window rules the ring + lower-bound window replaced, kept as the
// oracle: a deque in insertion order plus the same values in a sorted vector,
// the spike rule reading the upper median sorted[size / 2].
class SortedWindowRules {
 public:
  explicit SortedWindowRules(const MetricsRulesConfig& config) : config_(config) {}

  std::optional<AnomalyReport> OnStep(double loss, double mfu, bool is_nan, SimTime end) {
    AnomalyReport report;
    report.detect_time = end;
    if (is_nan || std::isnan(loss)) {
      report.source = AnomalySource::kMetricNan;
      report.symptom_hint = IncidentSymptom::kNanValue;
      return report;
    }
    if (static_cast<int>(recent_loss_.size()) >= config_.trailing_window / 2) {
      const double median = sorted_loss_.empty() ? 0.0 : sorted_loss_[sorted_loss_.size() / 2];
      if (median > 0.0 && loss > config_.spike_factor * median) {
        report.source = AnomalySource::kMetricSpike;
        report.symptom_hint = IncidentSymptom::kNanValue;
        recent_loss_.clear();
        sorted_loss_.clear();
        return report;
      }
    }
    recent_loss_.push_back(loss);
    sorted_loss_.insert(
        std::upper_bound(sorted_loss_.begin(), sorted_loss_.end(), loss), loss);
    while (static_cast<int>(recent_loss_.size()) > config_.trailing_window) {
      sorted_loss_.erase(
          std::lower_bound(sorted_loss_.begin(), sorted_loss_.end(), recent_loss_.front()));
      recent_loss_.pop_front();
    }
    mfu_high_water_ = std::max(mfu_high_water_, mfu);
    if (mfu_high_water_ > 0.0 && mfu < config_.decline_ratio * mfu_high_water_) {
      ++decline_run_;
      if (decline_run_ >= config_.decline_steps) {
        decline_run_ = 0;
        report.source = AnomalySource::kMfuDecline;
        report.symptom_hint = IncidentSymptom::kMfuDecline;
        return report;
      }
    } else {
      decline_run_ = 0;
    }
    return std::nullopt;
  }

  void Reset() {
    recent_loss_.clear();
    sorted_loss_.clear();
    mfu_high_water_ = 0.0;
    decline_run_ = 0;
  }

 private:
  MetricsRulesConfig config_;
  std::deque<double> recent_loss_;
  std::vector<double> sorted_loss_;
  double mfu_high_water_ = 0.0;
  int decline_run_ = 0;
};

enum class LossShape { kDecaying, kRising, kConstant };

// Drives both implementations with one randomized stream and checks them
// step for step. Returns how many reports fired, so callers can tell the
// stream actually exercised the rules.
int ExpectSameVerdicts(const MetricsRulesConfig& cfg, LossShape shape, std::uint64_t seed) {
  OneStepFeed feed(cfg);
  SortedWindowRules oracle(cfg);
  Rng rng(seed);
  int fired = 0;
  std::int64_t curve_step = 0;
  for (int i = 0; i < 3000; ++i) {
    if (rng.Bernoulli(0.01)) {
      feed.rules().Reset();
      oracle.Reset();
    }
    const double mfu = rng.Bernoulli(0.05) ? 0.2 : 0.4;
    const double noise = 1.0 + 0.05 * rng.Uniform(-1.0, 1.0);
    double loss = 0.0;
    switch (shape) {
      case LossShape::kDecaying:
        loss = 1.5 + 4.0 * std::pow(1.0 + i / 100.0, -0.5) * noise;
        break;
      case LossShape::kRising:
        // Rollback-like: the curve rewinds to an earlier, higher-loss step.
        curve_step = rng.Bernoulli(0.02) ? curve_step / 4 : curve_step + 1;
        loss = 1.5 + 4.0 * std::pow(1.0 + curve_step / 50.0, -0.5) * noise;
        break;
      case LossShape::kConstant:
        loss = 2.0;
        break;
    }
    if (rng.Bernoulli(0.03)) {
      loss *= rng.Uniform(5.0, 60.0);  // injected spike
    }
    bool is_nan = false;
    if (rng.Bernoulli(0.01)) {
      is_nan = true;
      loss = std::nan("");
    }
    const auto expected = oracle.OnStep(loss, mfu, is_nan, Seconds(10) * (i + 1));
    const auto actual = feed.Feed(loss, mfu, is_nan);
    EXPECT_EQ(actual.has_value(), expected.has_value())
        << "step " << i << " window " << cfg.trailing_window << " factor " << cfg.spike_factor;
    if (actual.has_value() && expected.has_value()) {
      ++fired;
      EXPECT_EQ(actual->source, expected->source) << "step " << i;
      EXPECT_EQ(actual->detect_time, expected->detect_time) << "step " << i;
    }
  }
  return fired;
}

TEST(MetricsRulesDifferentialTest, MatchesSortedWindowOracle) {
  std::uint64_t seed = 1;
  for (const int window : {0, 1, 2, 7, 32, 33}) {
    for (const double factor : {0.5, 1.0, 1.5, 5.0, 10.0}) {
      for (const LossShape shape : {LossShape::kDecaying, LossShape::kRising,
                                    LossShape::kConstant}) {
        MetricsRulesConfig cfg;
        cfg.trailing_window = window;
        cfg.spike_factor = factor;
        EXPECT_GT(ExpectSameVerdicts(cfg, shape, seed++), 0);
      }
    }
  }
}

// loss > spike_factor * lower but <= spike_factor * median: the lower-bound
// test cannot rule the spike out, and the exact median must clear it.
TEST(MetricsRulesDifferentialTest, ExactMedianFallbackDoesNotFire) {
  MetricsRulesConfig cfg;
  cfg.trailing_window = 7;
  OneStepFeed feed(cfg);
  SortedWindowRules oracle(cfg);
  SimTime end = 0;
  const auto step = [&](double loss) {
    end += Seconds(10);
    const auto expected = oracle.OnStep(loss, 0.3, false, end);
    const auto actual = feed.Feed(loss);
    EXPECT_EQ(actual.has_value(), expected.has_value()) << "loss " << loss;
    return actual.has_value();
  };
  EXPECT_FALSE(step(1.0));  // lower = 1
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(step(10.0));  // window {1, 10 x 6}: upper median 10
  }
  EXPECT_FALSE(step(20.0));  // 20 > 5 * 1 but 20 <= 5 * 10
  EXPECT_TRUE(step(51.0));   // 51 > 5 * 10
}

}  // namespace
}  // namespace byterobust
