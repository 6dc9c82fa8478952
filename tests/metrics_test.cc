// Unit tests for ETTR accounting, MFU series and the resolution log.

#include <gtest/gtest.h>

#include "src/metrics/ettr.h"
#include "src/metrics/resolution.h"
#include "tests/step_run_util.h"

namespace byterobust {
namespace {

StepRun MakeStep(std::int64_t step, SimTime start, SimTime end, bool recompute = false,
                 double mfu = 0.3) {
  return OneStep(step, start, end, mfu, /*run_id=*/0, recompute);
}

TEST(EttrTrackerTest, CumulativeEttrIsProductiveOverWall) {
  EttrTracker tracker(0);
  tracker.OnRun(MakeStep(0, 0, Seconds(10)));
  tracker.OnRun(MakeStep(1, Seconds(10), Seconds(20)));
  // 20 s productive over 40 s wall.
  EXPECT_DOUBLE_EQ(tracker.CumulativeEttr(Seconds(40)), 0.5);
  EXPECT_EQ(tracker.productive_time(), Seconds(20));
  EXPECT_EQ(tracker.productive_steps(), 2);
}

TEST(EttrTrackerTest, RecomputeIsNotProductive) {
  EttrTracker tracker(0);
  tracker.OnRun(MakeStep(0, 0, Seconds(10)));
  tracker.OnRun(MakeStep(0, Seconds(20), Seconds(30), /*recompute=*/true));
  EXPECT_EQ(tracker.productive_time(), Seconds(10));
  EXPECT_EQ(tracker.recompute_time(), Seconds(10));
  EXPECT_EQ(tracker.productive_steps(), 1);
}

TEST(EttrTrackerTest, SlidingWindowClipsSpans) {
  EttrTracker tracker(0);
  tracker.OnRun(MakeStep(0, 0, Minutes(30)));
  // Window [30m, 90m): only half the step's span falls inside... none, the
  // step ended exactly at the window start.
  EXPECT_DOUBLE_EQ(tracker.SlidingEttr(Minutes(90), Hours(1)), 0.0);
  tracker.OnRun(MakeStep(1, Minutes(30), Minutes(75)));
  // [30m, 90m) window at t=90m: step 1 contributes 45 of 60 minutes.
  EXPECT_NEAR(tracker.SlidingEttr(Minutes(90), Hours(1)), 0.75, 1e-9);
}

TEST(EttrTrackerTest, PerfectTrainingGivesEttrOne) {
  EttrTracker tracker(0);
  for (int i = 0; i < 100; ++i) {
    tracker.OnRun(MakeStep(i, Seconds(i * 10), Seconds((i + 1) * 10)));
  }
  EXPECT_DOUBLE_EQ(tracker.CumulativeEttr(Seconds(1000)), 1.0);
  EXPECT_DOUBLE_EQ(tracker.SlidingEttr(Seconds(1000), Seconds(500)), 1.0);
}

TEST(EttrTrackerTest, ZeroWallClockIsSafe) {
  EttrTracker tracker(0);
  EXPECT_DOUBLE_EQ(tracker.CumulativeEttr(0), 1.0);
}

TEST(MfuSeriesTest, RelativeMfuIsRatioToMinimum) {
  MfuSeries series;
  series.OnRun(MakeStep(0, 0, Seconds(10), false, 0.2));
  series.OnRun(MakeStep(1, Seconds(10), Seconds(20), false, 0.3));
  series.OnRun(MakeStep(2, Seconds(20), Seconds(30), false, 0.25));
  EXPECT_DOUBLE_EQ(series.MinMfu(), 0.2);
  EXPECT_DOUBLE_EQ(series.MaxMfu(), 0.3);
  const auto rel = series.RelativeMfu();
  ASSERT_EQ(rel.size(), 3u);
  EXPECT_DOUBLE_EQ(rel[0], 1.0);
  EXPECT_DOUBLE_EQ(rel[1], 1.5);
}

TEST(MfuSeriesTest, RecomputeStepsAreExcluded) {
  MfuSeries series;
  series.OnRun(MakeStep(0, 0, Seconds(10), true, 0.1));
  EXPECT_TRUE(series.Samples().empty());
  EXPECT_TRUE(series.RelativeMfu().empty());
}

// Deterministic jittered step stream across several runs, with restarts
// (gaps + recompute) sprinkled in — the shape campaigns feed the trackers.
template <typename Fn>
void FeedSyntheticCampaign(Fn&& feed) {
  SimTime t = 0;
  std::int64_t step = 0;
  int run = 1;
  for (int i = 0; i < 3000; ++i) {
    const SimDuration dur = Seconds(8 + (i * 7) % 9);
    if (i % 500 == 499) {
      t += Minutes(7);  // incident: unproductive gap, then a new run
      ++run;
      step -= 20;  // rollback: the next 20 steps are recompute
    }
    StepRun rec = MakeStep(step, t, t + dur, /*recompute=*/false,
                              /*mfu=*/0.25 + 0.1 * ((i * 13) % 50) / 50.0);
    rec.recompute = i % 500 >= 480;
    rec.run_id = run;
    feed(rec);
    t += dur;
    ++step;
  }
}

TEST(EttrTrackerTest, WindowedCompactionIsBitIdenticalAtTheLiveEdge) {
  EttrTracker unbounded(0);
  EttrTracker windowed(0, Hours(2));
  FeedSyntheticCampaign([&](const StepRun& rec) {
    unbounded.OnRun(rec);
    windowed.OnRun(rec);
    // Sliding queries at the live edge with window <= retention must be
    // bit-identical (the folded steps all end before the window).
    EXPECT_EQ(unbounded.SlidingEttr(rec.end(), Hours(1)),
              windowed.SlidingEttr(rec.end(), Hours(1)));
    EXPECT_EQ(unbounded.SlidingEttr(rec.end(), Hours(2)),
              windowed.SlidingEttr(rec.end(), Hours(2)));
  });
  EXPECT_EQ(unbounded.productive_time(), windowed.productive_time());
  EXPECT_EQ(unbounded.recompute_time(), windowed.recompute_time());
  EXPECT_EQ(unbounded.productive_steps(), windowed.productive_steps());
  EXPECT_EQ(unbounded.CumulativeEttr(Hours(11)), windowed.CumulativeEttr(Hours(11)));
  EXPECT_EQ(unbounded.productive_by_run(), windowed.productive_by_run());
  // Memory actually stayed bounded: the 2 h window holds at most ~900 steps
  // of >= 8 s; everything older was folded into the running aggregates.
  EXPECT_GT(windowed.steps_folded(), 0);
  EXPECT_LT(windowed.retained_steps(), 1000);
  EXPECT_EQ(windowed.retained_steps() + windowed.steps_folded(), unbounded.retained_steps());
  EXPECT_GT(windowed.folded_productive(), 0);
  EXPECT_LE(windowed.folded_productive(), windowed.productive_time());
}

TEST(MfuSeriesTest, WindowedCompactionKeepsRunningAggregatesExact) {
  MfuSeries unbounded;
  MfuSeries windowed(/*loss=*/nullptr, Hours(2));
  FeedSyntheticCampaign([&](const StepRun& rec) {
    unbounded.OnRun(rec);
    windowed.OnRun(rec);
  });
  EXPECT_EQ(unbounded.MinMfu(), windowed.MinMfu());
  EXPECT_EQ(unbounded.MaxMfu(), windowed.MaxMfu());
  EXPECT_EQ(unbounded.total_samples(), windowed.total_samples());
  EXPECT_GT(windowed.samples_folded(), 0);
  const std::vector<MfuSample> all = unbounded.Samples();
  const std::vector<MfuSample> tail = windowed.Samples();
  EXPECT_LT(tail.size(), 1000u);
  EXPECT_EQ(tail.size() + static_cast<std::size_t>(windowed.samples_folded()), all.size());
  // The retained tail is the suffix of the unbounded series.
  const std::size_t offset = all.size() - tail.size();
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(all[offset + i].time, tail[i].time);
    EXPECT_EQ(all[offset + i].mfu, tail[i].mfu);
  }
}

IncidentResolution MakeResolution(IncidentSymptom symptom, ResolutionMechanism mech,
                                  SimTime inject, SimDuration detect, SimDuration localize,
                                  SimDuration failover) {
  IncidentResolution r;
  r.incident.symptom = symptom;
  r.mechanism = mech;
  r.inject_time = inject;
  r.detect_time = inject + detect;
  r.localize_done_time = r.detect_time + localize;
  r.restart_done_time = r.localize_done_time + failover;
  r.resolved = true;
  return r;
}

TEST(ResolutionLogTest, CountsByMechanismAndCategory) {
  ResolutionLog log;
  log.Add(MakeResolution(IncidentSymptom::kCudaError, ResolutionMechanism::kAutoFtEvictRestart,
                         0, Seconds(60), Minutes(5), Seconds(90)));
  log.Add(MakeResolution(IncidentSymptom::kJobHang, ResolutionMechanism::kAnalyzerEvictRestart,
                         Hours(1), Minutes(10), Minutes(2), Seconds(120)));
  log.Add(MakeResolution(IncidentSymptom::kCodeDataAdjustment,
                         ResolutionMechanism::kAutoFtHotUpdate, Hours(2), 0, 0, Seconds(50)));
  EXPECT_EQ(log.CountBy(ResolutionMechanism::kAutoFtEvictRestart), 1);
  EXPECT_EQ(log.CountBy(ResolutionMechanism::kAnalyzerEvictRestart,
                        IncidentCategory::kImplicit),
            1);
  EXPECT_EQ(log.CountBy(ResolutionMechanism::kAnalyzerEvictRestart,
                        IncidentCategory::kExplicit),
            0);
  EXPECT_EQ(log.CountBy(IncidentCategory::kManualRestart), 1);
  EXPECT_EQ(log.size(), 3u);
}

TEST(ResolutionLogTest, BreakdownArithmetic) {
  const auto r = MakeResolution(IncidentSymptom::kCudaError,
                                ResolutionMechanism::kAutoFtEvictRestart, Hours(1), Seconds(60),
                                Minutes(5), Seconds(90));
  EXPECT_EQ(r.DetectionTime(), Seconds(60));
  EXPECT_EQ(r.LocalizationTime(), Minutes(5));
  EXPECT_EQ(r.FailoverTime(), Seconds(90));
  EXPECT_EQ(r.TotalUnproductive(), Seconds(60) + Minutes(5) + Seconds(90));
}

TEST(ResolutionLogTest, MeanMaxResolutionPerSymptom) {
  ResolutionLog log;
  log.Add(MakeResolution(IncidentSymptom::kCudaError, ResolutionMechanism::kAutoFtEvictRestart,
                         0, 0, 0, Seconds(60)));
  log.Add(MakeResolution(IncidentSymptom::kCudaError, ResolutionMechanism::kAutoFtEvictRestart,
                         0, 0, 0, Seconds(120)));
  const auto [mean, max] = log.MeanMaxResolution(IncidentSymptom::kCudaError);
  EXPECT_EQ(mean, Seconds(90));
  EXPECT_EQ(max, Seconds(120));
  const auto [mean0, max0] = log.MeanMaxResolution(IncidentSymptom::kDiskFault);
  EXPECT_EQ(mean0, 0);
  EXPECT_EQ(max0, 0);
}

TEST(ResolutionLogTest, MechanismNames) {
  EXPECT_STREQ(MechanismName(ResolutionMechanism::kAutoFtEvictRestart), "AutoFT-ER");
  EXPECT_STREQ(MechanismName(ResolutionMechanism::kAutoFtHotUpdate), "AutoFT-HU");
  EXPECT_STREQ(MechanismName(ResolutionMechanism::kAnalyzerEvictRestart), "Analyzer-ER");
  EXPECT_STREQ(MechanismName(ResolutionMechanism::kRollback), "Rollback");
}

}  // namespace
}  // namespace byterobust
