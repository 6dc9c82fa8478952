#include "src/monitor/metrics_rules.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

namespace byterobust {

namespace {

AnomalyReport MetricReport(AnomalySource source, IncidentSymptom hint, SimTime detect_time,
                           std::string detail) {
  AnomalyReport report;
  report.source = source;
  report.symptom_hint = hint;
  report.detect_time = detect_time;
  report.detail = std::move(detail);
  return report;
}

}  // namespace

MetricsRules::MetricsRules(const MetricsRulesConfig& config)
    : config_(config), ring_(static_cast<std::size_t>(std::max(config.trailing_window, 0))) {
  scratch_.reserve(ring_.size());
  ClearWindow();
}

std::optional<AnomalyReport> MetricsRules::OnStep(const StepRecord& record) {
  if (record.is_nan || std::isnan(record.loss)) {
    return MetricReport(AnomalySource::kMetricNan, IncidentSymptom::kNanValue, record.end,
                        "NaN loss");
  }

  // Spike detection against the trailing median.
  if (static_cast<int>(size_) >= config_.trailing_window / 2 && IsSpike(record.loss)) {
    ClearWindow();
    char detail[64];
    std::snprintf(detail, sizeof(detail), "loss spike > %gx trailing median",
                  config_.spike_factor);
    // A spike carries the NaN symptom hint: both are loss anomalies.
    return MetricReport(AnomalySource::kMetricSpike, IncidentSymptom::kNanValue, record.end,
                        detail);
  }
  if (!ring_.empty()) {
    ring_[next_] = record.loss;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    size_ = std::min(size_ + 1, ring_.size());
  }
  lower_ = std::min(lower_, record.loss);

  // MFU decline: compare to the high-water mark of this run.
  mfu_high_water_ = std::max(mfu_high_water_, record.mfu);
  if (mfu_high_water_ > 0.0 && record.mfu < config_.decline_ratio * mfu_high_water_) {
    ++decline_run_;
    if (decline_run_ >= config_.decline_steps) {
      decline_run_ = 0;
      return MetricReport(AnomalySource::kMfuDecline, IncidentSymptom::kMfuDecline, record.end,
                          "sustained MFU decline");
    }
  } else {
    decline_run_ = 0;
  }
  return std::nullopt;
}

void MetricsRules::Reset() {
  ClearWindow();
  mfu_high_water_ = 0.0;
  decline_run_ = 0;
}

bool MetricsRules::IsSpike(double loss) {
  // Every window entry is >= lower_, so 0 < lower_ <= median; multiplying by
  // spike_factor > 0 is monotone in IEEE arithmetic, so passing this test
  // implies loss <= spike_factor * median.
  if (config_.spike_factor > 0.0 && lower_ > 0.0 && loss <= config_.spike_factor * lower_) {
    return false;
  }
  if (size_ == 0) {
    return false;  // median of an empty window is 0: never a spike
  }
  scratch_.assign(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(size_));
  const auto mid = scratch_.begin() + static_cast<std::ptrdiff_t>(size_ / 2);
  std::nth_element(scratch_.begin(), mid, scratch_.end());
  return *mid > 0.0 && loss > config_.spike_factor * *mid;
}

void MetricsRules::ClearWindow() {
  size_ = 0;
  next_ = 0;
  lower_ = std::numeric_limits<double>::infinity();
}

}  // namespace byterobust
