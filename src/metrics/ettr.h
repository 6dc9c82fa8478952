// ETTR accounting (paper Sec. 8.1.3): cumulative ETTR is productive training
// time over wall-clock time; sliding-window ETTR is the same ratio over a
// one-hour window, exposing the temporal dynamics of failure handling.
// Recomputed steps (work lost to restarts) are *not* productive.
//
// Windowed compaction: with a nonzero retention, closed spans/samples older
// than the trailing window are folded into running aggregates (sum, count,
// min/max, per-run totals) as runs arrive, so memory stays O(window) for
// month-scale campaigns while cumulative metrics and any sliding query at the
// live edge with window <= retention remain bit-identical to the unbounded
// tracker. Historical sliding queries (ETTR curves for plots) need the
// default retention of 0 (unbounded).

#ifndef SRC_METRICS_ETTR_H_
#define SRC_METRICS_ETTR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "src/common/sim_time.h"
#include "src/training/loss_model.h"
#include "src/training/train_job.h"

namespace byterobust {

class EttrTracker {
 public:
  // `origin` is the campaign's wall-clock start. `retention` > 0 bounds the
  // retained span window (see the file comment); 0 keeps every span.
  explicit EttrTracker(SimTime origin = 0, SimDuration retention = 0)
      : origin_(origin), retention_(retention) {}

  // Feed every completed run (subscribe to TrainJob). A productive run adds
  // count x step_time; its steps are kept as one span (extending the newest
  // span when the run continues it at the same step time), and compaction
  // folds whole steps, exactly as step-by-step delivery would. Durations are
  // integers, so every ETTR is exact.
  void OnRun(const StepRun& run);

  // Cumulative ETTR at time `now`.
  double CumulativeEttr(SimTime now) const;

  // ETTR over the trailing `window` ending at `now` (default one hour). With
  // a nonzero retention, exact only for `now` at/after the newest span and
  // `window` <= retention.
  double SlidingEttr(SimTime now, SimDuration window = Hours(1)) const;

  SimDuration productive_time() const { return productive_; }
  SimDuration recompute_time() const { return recompute_; }
  std::int64_t productive_steps() const { return productive_steps_; }

  // Productive time per run id (running aggregate, unaffected by compaction).
  const std::map<int, SimDuration>& productive_by_run() const { return productive_by_run_; }

  // Compaction statistics, in productive steps.
  SimDuration retention() const { return retention_; }
  std::int64_t retained_steps() const { return productive_steps_ - steps_folded_; }
  std::int64_t steps_folded() const { return steps_folded_; }
  SimDuration folded_productive() const { return folded_productive_; }

 private:
  // `count` back-to-back productive steps of `step_time` from `start`.
  struct Span {
    SimTime start;
    SimDuration step_time;
    std::int64_t count;
    SimTime end() const { return start + count * step_time; }
  };

  SimTime origin_;
  SimDuration retention_;
  SimDuration productive_ = 0;
  SimDuration recompute_ = 0;
  std::int64_t productive_steps_ = 0;
  std::map<int, SimDuration> productive_by_run_;
  std::int64_t steps_folded_ = 0;
  SimDuration folded_productive_ = 0;
  std::deque<Span> productive_spans_;  // sorted by end time (append order)
};

// One productive step's point of the MFU series (Figs. 2 and 11), at the
// step's end time.
struct MfuSample {
  SimTime time = 0;
  std::int64_t step = 0;
  double mfu = 0.0;
  double loss = 0.0;
  int run_id = 0;
};

// The MFU series, stored run-length: one entry per run of productive steps
// that share an MFU (adjacent runs that continue one another merge), so the
// series costs O(1) per run and its memory tracks runs, not steps. The
// per-step view is materialized on read.
class MfuSeries {
 public:
  // `loss` (may be null: losses then read NaN) supplies the samples' losses
  // and must outlive the series. A nonzero `retention` keeps only the samples
  // inside the trailing window; older ones are folded into the running
  // aggregates below as runs arrive. 0 (default) keeps all.
  explicit MfuSeries(const LossCurve* loss = nullptr, SimDuration retention = 0)
      : loss_(loss), retention_(retention) {}

  void OnRun(const StepRun& run);

  // The retained samples, one per productive step, oldest first. O(samples):
  // for exports and figures, not hot paths.
  std::vector<MfuSample> Samples() const;

  // MFU of the newest retained sample at or before `t` (0 if there is none).
  double MfuAt(SimTime t) const;

  // Relative MFU: ratio of each *retained* sample to the series minimum
  // (paper Fig. 11). Covers the full series when retention is 0.
  std::vector<double> RelativeMfu() const;
  // Min/max over *every* sample ever observed (running aggregates, so they
  // are exact regardless of compaction).
  double MinMfu() const;
  double MaxMfu() const;

  std::int64_t total_samples() const { return total_samples_; }
  std::int64_t samples_folded() const { return samples_folded_; }
  std::int64_t retained_samples() const { return total_samples_ - samples_folded_; }

 private:
  struct Run {
    std::int64_t first;    // step of the first sample
    std::int64_t count;    // samples
    SimTime first_time;    // time of the first sample
    SimDuration step_time; // sample i is at first_time + i * step_time
    double mfu;
    int run_id;
    bool is_nan;
  };

  const LossCurve* loss_;
  SimDuration retention_;
  std::deque<Run> runs_;
  std::int64_t total_samples_ = 0;
  std::int64_t samples_folded_ = 0;
  double min_mfu_ = 0.0;
  double max_mfu_ = 0.0;
};

}  // namespace byterobust

#endif  // SRC_METRICS_ETTR_H_
