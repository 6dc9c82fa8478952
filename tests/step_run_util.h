// Test helpers for the run-level step stream: one-step runs, an arbitrary
// table-driven loss curve, and the per-step view of a run stream.

#ifndef TESTS_STEP_RUN_UTIL_H_
#define TESTS_STEP_RUN_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/training/loss_model.h"
#include "src/training/train_job.h"

namespace byterobust {

// One step over [start, end).
inline StepRun OneStep(std::int64_t step, SimTime start, SimTime end, double mfu = 0.3,
                       int run_id = 0, bool recompute = false, bool is_nan = false) {
  StepRun run;
  run.first = step;
  run.count = 1;
  run.start = start;
  run.step_time = end - start;
  run.mfu = mfu;
  run.run_id = run_id;
  run.recompute = recompute;
  run.is_nan = is_nan;
  return run;
}

// A loss curve read from a table (steps never set read 0). Bounds scan the
// range: exact, and unbounded when it holds a NaN.
class TableLossCurve : public LossCurve {
 public:
  void Set(std::int64_t step, double loss) {
    if (step >= static_cast<std::int64_t>(losses_.size())) {
      losses_.resize(static_cast<std::size_t>(step) + 1, 0.0);
    }
    losses_[static_cast<std::size_t>(step)] = loss;
  }

  double LossAt(std::int64_t step) const override {
    return step < static_cast<std::int64_t>(losses_.size())
               ? losses_[static_cast<std::size_t>(step)]
               : 0.0;
  }

  LossBounds Bounds(std::int64_t first, std::int64_t count) const override {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    LossBounds b{kInf, -kInf};
    for (std::int64_t s = first; s < first + count; ++s) {
      const double loss = LossAt(s);
      if (std::isnan(loss)) {
        return {-kInf, kInf};
      }
      b.lo = std::min(b.lo, loss);
      b.hi = std::max(b.hi, loss);
    }
    return b;
  }

 private:
  std::vector<double> losses_;
};

// One step of a run stream, as a per-step observer would have seen it.
struct StepView {
  std::int64_t step = 0;
  SimTime start = 0;
  SimTime end = 0;
  double mfu = 0.0;
  double loss = 0.0;
  bool is_nan = false;
  bool recompute = false;
  int run_id = 0;

  bool operator==(const StepView& o) const {
    const bool same_loss = (std::isnan(loss) && std::isnan(o.loss)) || loss == o.loss;
    return step == o.step && start == o.start && end == o.end && mfu == o.mfu && same_loss &&
           is_nan == o.is_nan && recompute == o.recompute && run_id == o.run_id;
  }
};

inline void AppendSteps(const StepRun& run, const LossCurve& loss, std::vector<StepView>* out) {
  for (std::int64_t i = 0; i < run.count; ++i) {
    StepView v;
    v.step = run.first + i;
    v.start = run.start + i * run.step_time;
    v.end = run.StepEnd(i);
    v.mfu = run.mfu;
    v.is_nan = run.is_nan;
    v.loss = run.is_nan ? std::nan("") : loss.LossAt(v.step);
    v.recompute = run.recompute;
    v.run_id = run.run_id;
    out->push_back(v);
  }
}

}  // namespace byterobust

#endif  // TESTS_STEP_RUN_UTIL_H_
