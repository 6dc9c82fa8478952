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

MetricsRules::MetricsRules(const MetricsRulesConfig& config, const LossCurve* loss)
    : config_(config),
      loss_(loss),
      segments_(static_cast<std::size_t>(std::max(config.trailing_window, 0))) {
  scratch_.reserve(segments_.size());
  ClearWindow();
}

std::int64_t MetricsRules::QuietPrefix(const StepRun& run) const {
  if (run.is_nan) {
    return 0;
  }
  // A spike step skips the MFU rule, and a decline step leaves the window as
  // a quiet step would, so the first firing step is the earlier of the two.
  const std::int64_t decline = FirstDecline(run);
  return decline == 0 ? 0 : FirstSpike(run.Slice(0, decline));
}

std::int64_t MetricsRules::FirstDecline(const StepRun& run) const {
  const double high_water = std::max(mfu_high_water_, run.mfu);
  if (!(high_water > 0.0 && run.mfu < config_.decline_ratio * high_water)) {
    return run.count;
  }
  // Step j of the run brings the consecutive-decline count to
  // decline_run_ + j + 1.
  const std::int64_t fire =
      std::max<std::int64_t>(0, static_cast<std::int64_t>(config_.decline_steps) -
                                    decline_run_ - 1);
  return std::min(fire, run.count);
}

std::int64_t MetricsRules::FirstSpike(const StepRun& run) const {
  const std::int64_t window = static_cast<std::int64_t>(segments_.size());
  const LossBounds bounds = RunBounds(run);
  if (std::isfinite(bounds.lo)) {
    // Finite bounds also rule out NaN losses. An empty window (or one that
    // never reaches the history threshold within the run) cannot spike.
    if (window == 0 || size_ + run.count - 1 < window / 2) {
      return run.count;
    }
    // Every window entry during the run is >= lower, so bounds.hi <=
    // spike_factor * lower <= spike_factor * median clears every step.
    const double lower = std::min(lower_, bounds.lo);
    if (config_.spike_factor > 0.0 && lower > 0.0 && bounds.hi <= config_.spike_factor * lower) {
      return run.count;
    }
  }
  // Exact walk: the bounds could not clear the run.
  double lower = lower_;
  for (std::int64_t j = 0; j < run.count; ++j) {
    const double loss = loss_->LossAt(run.first + j);
    if (std::isnan(loss)) {
      return j;
    }
    if (std::min(size_ + j, window) >= window / 2 && IsSpike(loss, lower, run, j)) {
      return j;
    }
    lower = std::min(lower, loss);
  }
  return run.count;
}

bool MetricsRules::IsSpike(double loss, double lower, const StepRun& run, std::int64_t j) const {
  // 0 < lower <= median; multiplying by spike_factor > 0 is monotone in IEEE
  // arithmetic, so passing this test implies loss <= spike_factor * median.
  if (config_.spike_factor > 0.0 && lower > 0.0 && loss <= config_.spike_factor * lower) {
    return false;
  }
  const std::int64_t window = static_cast<std::int64_t>(segments_.size());
  const std::int64_t size = std::min(size_ + j, window);
  if (size == 0) {
    return false;  // median of an empty window is 0: never a spike
  }
  // The window at step j: the newest `size` of (window entries, run steps
  // [0, j)). Only the multiset matters for the median.
  scratch_.clear();
  const std::int64_t from_run = std::min(j, size);
  for (std::int64_t i = j - from_run; i < j; ++i) {
    scratch_.push_back(loss_->LossAt(run.first + i));
  }
  std::int64_t need = size - from_run;
  for (std::size_t k = num_segments_; k > 0 && need > 0; --k) {
    const Segment& seg = SegmentAt(k - 1);
    const std::int64_t take = std::min(need, seg.count);
    for (std::int64_t step = seg.first + seg.count - take; step < seg.first + seg.count; ++step) {
      scratch_.push_back(loss_->LossAt(step));
    }
    need -= take;
  }
  const auto mid = scratch_.begin() + static_cast<std::ptrdiff_t>(size / 2);
  std::nth_element(scratch_.begin(), mid, scratch_.end());
  return *mid > 0.0 && loss > config_.spike_factor * *mid;
}

std::vector<AnomalyReport> MetricsRules::OnRun(const StepRun& run) {
  std::vector<AnomalyReport> reports;
  StepRun rest = run;
  while (rest.count > 0) {
    const std::int64_t quiet = QuietPrefix(rest);
    if (quiet > 0) {
      FoldQuiet(rest.Slice(0, quiet));
    }
    if (quiet == rest.count) {
      break;
    }
    if (auto report = OnStep(rest.Slice(quiet, 1))) {
      reports.push_back(std::move(*report));
    }
    rest = rest.Slice(quiet + 1, rest.count - quiet - 1);
  }
  return reports;
}

void MetricsRules::FoldQuiet(const StepRun& run) {
  PushWindow(run.first, run.count);
  lower_ = std::min(lower_, RunBounds(run).lo);
  mfu_high_water_ = std::max(mfu_high_water_, run.mfu);
  if (mfu_high_water_ > 0.0 && run.mfu < config_.decline_ratio * mfu_high_water_) {
    decline_run_ += static_cast<int>(run.count);  // stays below decline_steps: quiet
  } else {
    decline_run_ = 0;
  }
}

std::optional<AnomalyReport> MetricsRules::OnStep(const StepRun& step) {
  const double loss = step.is_nan ? std::nan("") : loss_->LossAt(step.first);
  if (std::isnan(loss)) {
    return MetricReport(AnomalySource::kMetricNan, IncidentSymptom::kNanValue, step.end(),
                        "NaN loss");
  }

  // Spike detection against the trailing median.
  const std::int64_t window = static_cast<std::int64_t>(segments_.size());
  if (size_ >= window / 2 && IsSpike(loss, lower_, step, 0)) {
    ClearWindow();
    char detail[64];
    std::snprintf(detail, sizeof(detail), "loss spike > %gx trailing median",
                  config_.spike_factor);
    // A spike carries the NaN symptom hint: both are loss anomalies.
    return MetricReport(AnomalySource::kMetricSpike, IncidentSymptom::kNanValue, step.end(),
                        detail);
  }
  PushWindow(step.first, 1);
  lower_ = std::min(lower_, loss);

  // MFU decline: compare to the high-water mark of this run.
  mfu_high_water_ = std::max(mfu_high_water_, step.mfu);
  if (mfu_high_water_ > 0.0 && step.mfu < config_.decline_ratio * mfu_high_water_) {
    ++decline_run_;
    if (decline_run_ >= config_.decline_steps) {
      decline_run_ = 0;
      return MetricReport(AnomalySource::kMfuDecline, IncidentSymptom::kMfuDecline, step.end(),
                          "sustained MFU decline");
    }
  } else {
    decline_run_ = 0;
  }
  return std::nullopt;
}

LossBounds MetricsRules::RunBounds(const StepRun& run) const {
  if (run.first != bounds_run_.first || run.count != bounds_run_.count) {
    bounds_run_ = run;
    bounds_ = loss_->Bounds(run.first, run.count);
  }
  return bounds_;
}

void MetricsRules::Reset() {
  ClearWindow();
  mfu_high_water_ = 0.0;
  decline_run_ = 0;
}

void MetricsRules::PushWindow(std::int64_t first, std::int64_t count) {
  const std::int64_t window = static_cast<std::int64_t>(segments_.size());
  if (window == 0) {
    return;
  }
  if (count >= window) {
    first += count - window;
    count = window;
    num_segments_ = 0;
    size_ = 0;
  }
  // Trim the oldest entries so the new ones fit.
  for (std::int64_t excess = size_ + count - window; excess > 0;) {
    Segment& front = SegmentAt(0);
    const std::int64_t drop = std::min(excess, front.count);
    front.first += drop;
    front.count -= drop;
    size_ -= drop;
    excess -= drop;
    if (front.count == 0) {
      head_ = (head_ + 1) % segments_.size();
      --num_segments_;
    }
  }
  if (num_segments_ > 0) {
    Segment& back = SegmentAt(num_segments_ - 1);
    if (back.first + back.count == first) {
      back.count += count;
      size_ += count;
      return;
    }
  }
  SegmentAt(num_segments_) = {first, count};
  ++num_segments_;
  size_ += count;
}

void MetricsRules::ClearWindow() {
  head_ = 0;
  num_segments_ = 0;
  size_ = 0;
  lower_ = std::numeric_limits<double>::infinity();
}

}  // namespace byterobust
