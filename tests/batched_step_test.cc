// Batched-stepping equivalence suite: the inline batched step loop
// (JobConfig::batched_stepping, the default) must be observationally
// indistinguishable from the per-step reference path — identical per-step
// streams, identical anomaly detect times, identical campaign metrics — while
// dispatching strictly fewer simulator events. Also covers the epoch-keyed
// perf-model cache and the lazy-tail sliding median against their full-scan
// references.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/core/scenario.h"
#include "src/monitor/metrics_rules.h"
#include "src/training/train_job.h"
#include "tests/step_run_util.h"

namespace byterobust {
namespace {

JobConfig SmallJob(bool batched) {
  JobConfig cfg;
  cfg.name = "batch-test";
  cfg.parallelism.tp = 2;
  cfg.parallelism.pp = 2;
  cfg.parallelism.dp = 2;
  cfg.parallelism.gpus_per_machine = 2;
  cfg.base_step_time = Seconds(10);
  cfg.batched_stepping = batched;
  return cfg;
}

struct StepStreamRun {
  std::vector<StepView> records;
  std::size_t runs = 0;
  std::uint64_t dispatched = 0;
};

// A job alone with a periodic interfering event: batches must split exactly at
// the event boundaries and the records must not care.
StepStreamRun RunStepStream(bool batched) {
  Simulator sim;
  Cluster cluster(4, 2, 2);
  TrainJob job(SmallJob(batched), &sim, &cluster, 42);
  StepStreamRun out;
  job.AddRunObserver([&out, &job](const StepRun& run) {
    AppendSteps(run, job.loss_model(), &out.records);
    ++out.runs;
  });
  // Interfering events at a cadence coprime with the 10 s step time, one of
  // which degrades a machine mid-run (stretching later steps through the
  // epoch-invalidated perf cache) and one of which heals it.
  for (int i = 1; i <= 20; ++i) {
    sim.ScheduleAt(Seconds(37) * i, [] {});
  }
  sim.ScheduleAt(Seconds(205), [&cluster] {
    cluster.machine(1).gpu(0).clock_ratio = 0.5;
  });
  sim.ScheduleAt(Seconds(505), [&cluster] {
    cluster.machine(1).ResetHealth();
  });
  job.Start();
  sim.RunUntil(Seconds(700));
  out.dispatched = sim.events_dispatched();
  return out;
}

TEST(BatchedStepTest, StepStreamMatchesPerStepReference) {
  const StepStreamRun batched = RunStepStream(true);
  const StepStreamRun reference = RunStepStream(false);
  ASSERT_EQ(batched.records.size(), reference.records.size());
  ASSERT_FALSE(batched.records.empty());
  for (std::size_t i = 0; i < batched.records.size(); ++i) {
    EXPECT_TRUE(batched.records[i] == reference.records[i]) << "step " << i;
  }
  // The whole point: batching elides step-completion events and delivers
  // steps in runs; the reference path delivers runs of one.
  EXPECT_LT(batched.dispatched, reference.dispatched);
  EXPECT_LT(batched.runs, batched.records.size());
  EXPECT_EQ(reference.runs, reference.records.size());
}

TEST(BatchedStepTest, MidRunDegradeStretchesStepsIdentically) {
  const StepStreamRun batched = RunStepStream(true);
  // The 0.5x downclock at t=205 doubles step time until the heal at t=505.
  bool saw_slow = false;
  for (const StepView& r : batched.records) {
    if (r.start >= Seconds(205) && r.end <= Seconds(505)) {
      EXPECT_EQ(r.end - r.start, Seconds(20));
      saw_slow = true;
    }
  }
  EXPECT_TRUE(saw_slow);
}

ScenarioConfig CampaignConfig(std::uint64_t seed, bool batched, SimDuration retention) {
  ScenarioConfig cfg;
  cfg.system.job.name = "batch-equivalence-7B";
  cfg.system.job.model_params_b = 7.0;
  cfg.system.job.parallelism.tp = 2;
  cfg.system.job.parallelism.pp = 4;
  cfg.system.job.parallelism.dp = 4;
  cfg.system.job.parallelism.gpus_per_machine = 2;
  cfg.system.job.base_step_time = Seconds(10);
  cfg.system.job.batched_stepping = batched;
  cfg.system.seed = seed;
  cfg.system.spare_machines = 4;
  cfg.system.metrics_retention = retention;
  cfg.duration = Days(0.5);
  cfg.injector.reference_mtbf = Hours(1.0);
  cfg.injector.reference_machines = 64;
  cfg.planned_updates = 2;
  return cfg;
}

struct CampaignObservables {
  int incidents = 0;
  int refails = 0;
  std::int64_t steps = 0;
  int runs = 0;
  int evictions = 0;
  double ettr = 0.0;
  SimDuration productive = 0;
  std::vector<SimDuration> detect_times;
  std::vector<SimDuration> total_times;

  bool operator==(const CampaignObservables&) const = default;
};

CampaignObservables RunCampaign(std::uint64_t seed, bool batched, SimDuration retention) {
  Scenario scenario(CampaignConfig(seed, batched, retention));
  scenario.Run();
  ByteRobustSystem& sys = scenario.system();
  CampaignObservables obs;
  obs.incidents = scenario.stats().incidents_injected;
  obs.refails = scenario.stats().refails;
  obs.steps = sys.job().max_step_reached();
  obs.runs = sys.job().run_count();
  obs.evictions = sys.controller().evictions_total();
  obs.ettr = sys.ettr().CumulativeEttr(sys.sim().Now());
  obs.productive = sys.ettr().productive_time();
  for (const IncidentResolution& res : sys.controller().log().entries()) {
    obs.detect_times.push_back(res.DetectionTime());
    obs.total_times.push_back(res.TotalUnproductive());
  }
  return obs;
}

// Full control-plane campaign (fault mix, monitor, diagnoser, restarts):
// every campaign metric — including per-incident anomaly detect times — must
// be identical with batching on and off, and with the CLI's two-hour metric
// retention window as with unbounded retention (0).
TEST(BatchedStepTest, CampaignObservablesMatchPerStepReference) {
  for (const std::uint64_t seed : {2024ull, 7ull}) {
    const CampaignObservables reference = RunCampaign(seed, false, 0);
    EXPECT_GT(reference.incidents, 0) << "campaign too quiet to be a meaningful check";
    EXPECT_FALSE(reference.detect_times.empty());
    for (const bool batched : {false, true}) {
      for (const SimDuration retention : {SimDuration{0}, Hours(2)}) {
        EXPECT_EQ(RunCampaign(seed, batched, retention), reference)
            << "seed " << seed << " batched " << batched << " retention "
            << ToSeconds(retention) << " s";
      }
    }
  }
}

TEST(PerfModelCacheTest, CachedQueriesTrackHealthEpoch) {
  Cluster cluster(4, 2);
  const PerfModel model(SmallJob(true));
  EXPECT_EQ(model.StepTime(1.0, cluster), Seconds(10));
  // Cached call returns the same without a rescan (same epoch).
  EXPECT_EQ(model.StepTime(1.0, cluster), Seconds(10));
  cluster.machine(2).gpu(1).clock_ratio = 0.5;  // bumps the health epoch
  EXPECT_EQ(model.StepTime(1.0, cluster), Seconds(20));
  EXPECT_DOUBLE_EQ(model.Mfu(1.0, cluster), model.config().base_mfu * 0.5);
  // Efficiency changes re-key the derived cache without a cluster mutation.
  EXPECT_EQ(model.StepTime(2.0, cluster), Seconds(10));
  cluster.machine(2).ResetHealth();
  EXPECT_EQ(model.StepTime(2.0, cluster), Seconds(5));
  EXPECT_DOUBLE_EQ(model.Mfu(1.0, cluster), model.config().base_mfu);
}

// The metric rules' sliding median must reproduce the copy-and-sort reference
// rule decision-for-decision on a noisy loss stream with spikes and NaNs.
TEST(MetricsRulesMedianTest, MatchesCopySortReference) {
  const MetricsRulesConfig cfg;
  TableLossCurve curve;
  MetricsRules rules(cfg, &curve);

  // Reference: the pre-optimization implementation, verbatim semantics.
  std::deque<double> window;
  const auto reference_on_step = [&](double loss, bool is_nan) -> std::optional<AnomalySource> {
    if (is_nan || std::isnan(loss)) {
      return AnomalySource::kMetricNan;
    }
    if (static_cast<int>(window.size()) >= cfg.trailing_window / 2) {
      std::vector<double> v(window.begin(), window.end());
      std::sort(v.begin(), v.end());
      const double median = v.empty() ? 0.0 : v[v.size() / 2];
      if (median > 0.0 && loss > cfg.spike_factor * median) {
        window.clear();
        return AnomalySource::kMetricSpike;
      }
    }
    window.push_back(loss);
    while (static_cast<int>(window.size()) > cfg.trailing_window) {
      window.pop_front();
    }
    return std::nullopt;
  };

  Rng rng(99);
  for (int i = 0; i < 4000; ++i) {
    double loss = 2.0 + rng.Uniform() * 0.5;
    if (i % 97 == 0) {
      loss *= 50.0;  // spike
    }
    const bool is_nan = i % 531 == 0 && i > 0;
    curve.Set(i, is_nan ? std::nan("") : loss);
    // MFU constant: keep the MFU rule quiet.
    const StepRun step = OneStep(i, Seconds(10) * (i - 1), Seconds(10) * i, 0.3, 0, false, is_nan);
    const auto expected = reference_on_step(curve.LossAt(i), is_nan);
    const auto actual = rules.OnRun(step);
    ASSERT_EQ(!actual.empty(), expected.has_value()) << "step " << i;
    if (!actual.empty()) {
      EXPECT_EQ(actual.front().source, *expected) << "step " << i;
      EXPECT_EQ(actual.front().detect_time, step.end());
    }
  }
}

}  // namespace
}  // namespace byterobust
