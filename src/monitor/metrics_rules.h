// Training-metric anomaly rules (paper Sec. 4.1 "Metrics collection"):
// NaN values, 5x loss spikes, sustained MFU decline, and the hang watchdog
// over progress events (zero RDMA traffic proxy).

#ifndef SRC_MONITOR_METRICS_RULES_H_
#define SRC_MONITOR_METRICS_RULES_H_

#include <optional>
#include <vector>

#include "src/common/sim_time.h"
#include "src/monitor/anomaly.h"
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
  explicit MetricsRules(const MetricsRulesConfig& config);

  // Feeds one completed step; returns an anomaly if a rule fires.
  std::optional<AnomalyReport> OnStep(const StepRecord& record);

  // Clears history (after a restart or rollback the baselines reset).
  void Reset();

 private:
  // True when `loss` exceeds spike_factor x the upper median of the window
  // (the value a sort of the window would put at index size() / 2).
  bool IsSpike(double loss);
  void ClearWindow();

  MetricsRulesConfig config_;
  // The last `trailing_window` losses, oldest overwritten first.
  std::vector<double> ring_;
  std::vector<double> scratch_;  // nth_element workspace for the exact median
  std::size_t size_ = 0;
  std::size_t next_ = 0;
  // Minimum loss pushed since the last clear: a lower bound on every window
  // entry, hence on the median. While loss <= spike_factor * lower_ (and
  // lower_ > 0) no spike is possible, so the median is only taken when that
  // cheap test fails.
  double lower_ = 0.0;
  double mfu_high_water_ = 0.0;
  int decline_run_ = 0;
};

}  // namespace byterobust

#endif  // SRC_MONITOR_METRICS_RULES_H_
