#include "src/metrics/ettr.h"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace byterobust {

void EttrTracker::OnRun(const StepRun& run) {
  const SimDuration span = run.count * run.step_time;
  if (run.recompute) {
    recompute_ += span;
    return;
  }
  productive_ += span;
  productive_steps_ += run.count;
  productive_by_run_[run.run_id] += span;
  if (!productive_spans_.empty() && productive_spans_.back().end() == run.start &&
      productive_spans_.back().step_time == run.step_time) {
    productive_spans_.back().count += run.count;
  } else {
    productive_spans_.push_back({run.start, run.step_time, run.count});
  }
  if (retention_ <= 0) {
    return;
  }
  // Fold steps that closed before the retained window. A sliding query at the
  // live edge walks backwards and stops at the first span with end <= lo, so
  // dropping exactly those steps leaves the walked set unchanged: identical
  // results, O(window) memory. A span straddling the horizon loses the steps
  // that end at or before it.
  const SimTime horizon = run.end() - retention_;
  while (!productive_spans_.empty()) {
    Span& front = productive_spans_.front();
    const std::int64_t closed =
        front.end() <= horizon ? front.count
                               : std::max<SimDuration>(0, horizon - front.start) / front.step_time;
    if (closed == 0) {
      break;
    }
    folded_productive_ += closed * front.step_time;
    steps_folded_ += closed;
    if (closed == front.count) {
      productive_spans_.pop_front();
      continue;
    }
    front.start += closed * front.step_time;
    front.count -= closed;
    break;
  }
}

double EttrTracker::CumulativeEttr(SimTime now) const {
  const SimDuration wall = now - origin_;
  if (wall <= 0) {
    return 1.0;
  }
  return static_cast<double>(productive_) / static_cast<double>(wall);
}

double EttrTracker::SlidingEttr(SimTime now, SimDuration window) const {
  const SimTime lo = now - window;
  SimDuration in_window = 0;
  // Spans are appended in completion order; walk backwards until fully
  // before the window.
  for (auto it = productive_spans_.rbegin(); it != productive_spans_.rend(); ++it) {
    const SimTime end = it->end();
    if (end <= lo) {
      break;
    }
    const SimTime s = std::max(it->start, lo);
    const SimTime e = std::min(end, now);
    if (e > s) {
      in_window += e - s;
    }
  }
  return static_cast<double>(in_window) / static_cast<double>(window);
}

void MfuSeries::OnRun(const StepRun& run) {
  if (run.recompute) {
    return;
  }
  if (total_samples_ == 0 || run.mfu < min_mfu_) {
    min_mfu_ = run.mfu;
  }
  max_mfu_ = std::max(max_mfu_, run.mfu);
  total_samples_ += run.count;
  const SimTime first_time = run.StepEnd(0);
  Run* back = runs_.empty() ? nullptr : &runs_.back();
  if (back != nullptr && back->mfu == run.mfu && back->run_id == run.run_id &&
      back->is_nan == run.is_nan && back->step_time == run.step_time &&
      back->first + back->count == run.first &&
      back->first_time + back->count * back->step_time == first_time) {
    back->count += run.count;
  } else {
    runs_.push_back({run.first, run.count, first_time, run.step_time, run.mfu, run.run_id,
                     run.is_nan});
  }
  if (retention_ <= 0) {
    return;
  }
  // Fold every sample at or before the horizon, trimming a straddling run
  // from its front.
  const SimTime horizon = run.end() - retention_;
  while (!runs_.empty()) {
    Run& front = runs_.front();
    if (front.first_time + (front.count - 1) * front.step_time <= horizon) {
      samples_folded_ += front.count;
      runs_.pop_front();
      continue;
    }
    if (front.first_time <= horizon) {
      const std::int64_t k = (horizon - front.first_time) / front.step_time + 1;
      front.first += k;
      front.count -= k;
      front.first_time += k * front.step_time;
      samples_folded_ += k;
    }
    break;
  }
}

std::vector<MfuSample> MfuSeries::Samples() const {
  std::vector<MfuSample> out;
  out.reserve(static_cast<std::size_t>(retained_samples()));
  for (const Run& r : runs_) {
    for (std::int64_t i = 0; i < r.count; ++i) {
      const std::int64_t step = r.first + i;
      const double loss = r.is_nan || loss_ == nullptr ? std::nan("") : loss_->LossAt(step);
      out.push_back({r.first_time + i * r.step_time, step, r.mfu, loss, r.run_id});
    }
  }
  return out;
}

double MfuSeries::MfuAt(SimTime t) const {
  const auto it = std::upper_bound(runs_.begin(), runs_.end(), t,
                                   [](SimTime lhs, const Run& r) { return lhs < r.first_time; });
  return it == runs_.begin() ? 0.0 : std::prev(it)->mfu;
}

double MfuSeries::MinMfu() const { return total_samples_ == 0 ? 0.0 : min_mfu_; }

double MfuSeries::MaxMfu() const { return std::max(max_mfu_, 0.0); }

std::vector<double> MfuSeries::RelativeMfu() const {
  std::vector<double> out;
  const double min = MinMfu();
  if (min <= 0.0) {
    return out;
  }
  out.reserve(static_cast<std::size_t>(retained_samples()));
  for (const Run& r : runs_) {
    out.insert(out.end(), static_cast<std::size_t>(r.count), r.mfu / min);
  }
  return out;
}

}  // namespace byterobust
