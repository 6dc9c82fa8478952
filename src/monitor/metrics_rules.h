// Training-metric anomaly rules (paper Sec. 4.1 "Metrics collection"):
// NaN values, 5x loss spikes, sustained MFU decline, and the hang watchdog
// over progress events (zero RDMA traffic proxy).
//
// The rules read runs of steps (StepRun) and never compute a loss per step.
// The trailing window is a lazy tail of step indices; losses are read from
// the job's LossCurve only when the exact median is needed. A whole run is
// proven spike-free in O(1) from the curve's range bounds, the MFU-decline
// count is closed form (MFU is constant within a run), and a NaN run fires at
// its first step.

#ifndef SRC_MONITOR_METRICS_RULES_H_
#define SRC_MONITOR_METRICS_RULES_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/sim_time.h"
#include "src/monitor/anomaly.h"
#include "src/training/loss_model.h"
#include "src/training/train_job.h"

namespace byterobust {

struct MetricsRulesConfig {
  // Spike rule: alert when the loss exceeds `spike_factor` times the
  // trailing-window median.
  double spike_factor = 5.0;
  int trailing_window = 32;

  // MFU-decline rule: alert when MFU stays below `decline_ratio` x the
  // trailing high-water mark for `decline_steps` consecutive steps.
  double decline_ratio = 0.8;
  int decline_steps = 5;
};

class MetricsRules {
 public:
  // `loss` supplies every step's loss and must outlive the rules.
  MetricsRules(const MetricsRulesConfig& config, const LossCurve* loss);

  // Number of leading steps of `run` on which no rule fires given the current
  // state (run.count when none fires). Does not change the state.
  std::int64_t QuietPrefix(const StepRun& run) const;

  // Feeds `run` step by step: returns one report per step on which a rule
  // fires, in step order (empty for a quiet run).
  std::vector<AnomalyReport> OnRun(const StepRun& run);

  // Clears history (after a restart or rollback the baselines reset).
  void Reset();

 private:
  // Steps first .. first + count - 1 of the trailing window.
  struct Segment {
    std::int64_t first;
    std::int64_t count;
  };

  // Index within `run` of its first spike or NaN loss, run.count if none.
  std::int64_t FirstSpike(const StepRun& run) const;
  // Index within `run` of its first MFU-decline alert, run.count if none.
  std::int64_t FirstDecline(const StepRun& run) const;
  // The exact rule on `loss`, the loss of run step `j`, with steps [0, j) of
  // `run` appended to the window and `lower` bounding every window entry.
  bool IsSpike(double loss, double lower, const StepRun& run, std::int64_t j) const;
  // Folds a run on which no rule fires.
  void FoldQuiet(const StepRun& run);
  // The per-step rules on a one-step run.
  std::optional<AnomalyReport> OnStep(const StepRun& step);
  // Bounds of the run's losses, memoized for the last run asked about (the
  // job's quiet-prefix query and the fan-out ask about the same run).
  LossBounds RunBounds(const StepRun& run) const;

  void PushWindow(std::int64_t first, std::int64_t count);
  void ClearWindow();
  const Segment& SegmentAt(std::size_t i) const {
    return segments_[(head_ + i) % segments_.size()];
  }
  Segment& SegmentAt(std::size_t i) { return segments_[(head_ + i) % segments_.size()]; }

  MetricsRulesConfig config_;
  const LossCurve* loss_;
  // The last `trailing_window` step indices as a ring of segments (at most
  // one per step, so trailing_window slots suffice), oldest first.
  std::vector<Segment> segments_;
  std::size_t head_ = 0;
  std::size_t num_segments_ = 0;
  std::int64_t size_ = 0;  // steps in the window
  // Lower bound on every loss pushed since the last clear, hence on every
  // window entry and on the median. While loss <= spike_factor * lower_ (and
  // lower_ > 0) no spike is possible, so the median is only taken when that
  // cheap test fails.
  double lower_ = 0.0;
  double mfu_high_water_ = 0.0;
  int decline_run_ = 0;
  mutable std::vector<double> scratch_;  // materialized window for the exact median
  mutable StepRun bounds_run_;
  mutable LossBounds bounds_;
};

}  // namespace byterobust

#endif  // SRC_MONITOR_METRICS_RULES_H_
