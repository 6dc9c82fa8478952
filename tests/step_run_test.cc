// Partition invariance of the run-level step path: the ETTR tracker, MFU
// series, checkpoint manager and metric rules must end in the same state and
// produce the same outputs whether a step sequence arrives as one run per
// homogeneous stretch, as runs of one step (the per-step reference path) or
// split at random points. The ETTR tracker and the metric rules are also
// checked against per-step oracles (the implementations they replaced).
// Also: LossModel::Bounds holds every loss of the range, and TrainJob
// delivers a firing step on its own at its end time.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <optional>
#include <vector>

#include "src/ckpt/ckpt_manager.h"
#include "src/common/rng.h"
#include "src/metrics/ettr.h"
#include "src/monitor/metrics_rules.h"
#include "src/training/loss_model.h"
#include "src/training/train_job.h"
#include "tests/step_run_util.h"

namespace byterobust {
namespace {

// One homogeneous stretch of steps as a job emits it, plus whether the
// metric rules reset before it (most restarts).
struct Stretch {
  StepRun run;
  bool reset = false;
};

// A seeded step sequence with restarts (time gaps, rollbacks and the
// recompute stretches they cause), step-time and MFU changes (including MFU
// drops that trip the decline rule) and NaN stretches.
std::vector<Stretch> MakeSequence(std::uint64_t seed, SimDuration base_step, int stretches) {
  Rng rng(seed);
  std::vector<Stretch> out;
  SimTime t = Minutes(3);
  std::int64_t step = 0;
  std::int64_t max_step = 0;
  int run_id = 1;
  const double mfus[] = {0.30, 0.30, 0.36, 0.20};
  for (int i = 0; i < stretches; ++i) {
    Stretch s;
    if (i > 0 && rng.Bernoulli(0.15)) {
      // A restart without a reset leaves a rolled-back window behind.
      s.reset = rng.Bernoulli(0.7);
      t += Minutes(static_cast<double>(rng.UniformInt(1, 20)));
      ++run_id;
      step = std::max<std::int64_t>(0, step - rng.UniformInt(0, 60));
    }
    StepRun& run = s.run;
    run.first = step;
    run.count = rng.UniformInt(1, 400);
    run.start = t;
    run.step_time = base_step * rng.UniformInt(4, 6) / 5;
    run.mfu = mfus[rng.UniformInt(0, 3)];
    run.run_id = run_id;
    run.recompute = step < max_step;
    run.is_nan = rng.Bernoulli(0.04);
    if (run.recompute) {
      run.count = std::min(run.count, max_step - step);
    }
    t = run.end();
    step += run.count;
    max_step = std::max(max_step, step);
    out.push_back(s);
  }
  return out;
}

enum class Partition { kWhole, kSingles, kRandom };

// Splits every stretch per the partition; `feed` gets the pieces in order,
// `reset` runs before each resetting stretch and `after` after each one.
void Feed(const std::vector<Stretch>& seq, Partition partition, std::uint64_t split_seed,
          const std::function<void(const StepRun&)>& feed,
          const std::function<void()>& reset = [] {},
          const std::function<void(const StepRun&)>& after = [](const StepRun&) {}) {
  Rng rng(split_seed);
  for (const Stretch& s : seq) {
    if (s.reset) {
      reset();
    }
    std::int64_t done = 0;
    while (done < s.run.count) {
      std::int64_t n = s.run.count - done;
      if (partition == Partition::kSingles) {
        n = 1;
      } else if (partition == Partition::kRandom) {
        n = std::min(n, rng.UniformInt(1, 40));
      }
      feed(s.run.Slice(done, n));
      done += n;
    }
    after(s.run);
  }
}

const Partition kPartitions[] = {Partition::kWhole, Partition::kSingles, Partition::kRandom};

// ---- ETTR --------------------------------------------------------------------

struct EttrView {
  SimDuration productive = 0;
  SimDuration recompute = 0;
  std::int64_t productive_steps = 0;
  std::map<int, SimDuration> by_run;
  std::int64_t retained = 0;
  std::int64_t folded = 0;
  SimDuration folded_productive = 0;
  std::vector<double> queries;

  bool operator==(const EttrView&) const = default;
};

// The per-step ETTR tracker the run-level one replaced, kept as the oracle:
// one span per productive step, folded when it ends at or before the
// horizon.
class ReferenceEttr {
 public:
  ReferenceEttr(SimTime origin, SimDuration retention) : origin_(origin), retention_(retention) {}

  void OnRun(const StepRun& run) {
    for (std::int64_t i = 0; i < run.count; ++i) {
      const SimTime start = run.start + i * run.step_time;
      const SimTime end = run.StepEnd(i);
      if (run.recompute) {
        recompute_ += end - start;
        continue;
      }
      productive_ += end - start;
      ++productive_steps_;
      by_run_[run.run_id] += end - start;
      spans_.push_back({start, end});
      while (retention_ > 0 && !spans_.empty() && spans_.front().second <= end - retention_) {
        folded_productive_ += spans_.front().second - spans_.front().first;
        ++steps_folded_;
        spans_.pop_front();
      }
    }
  }
  double CumulativeEttr(SimTime now) const {
    return static_cast<double>(productive_) / static_cast<double>(now - origin_);
  }
  double SlidingEttr(SimTime now, SimDuration window) const {
    const SimTime lo = now - window;
    SimDuration in_window = 0;
    for (auto it = spans_.rbegin(); it != spans_.rend() && it->second > lo; ++it) {
      in_window += std::max<SimDuration>(0, std::min(it->second, now) - std::max(it->first, lo));
    }
    return static_cast<double>(in_window) / static_cast<double>(window);
  }
  SimDuration productive_time() const { return productive_; }
  SimDuration recompute_time() const { return recompute_; }
  std::int64_t productive_steps() const { return productive_steps_; }
  const std::map<int, SimDuration>& productive_by_run() const { return by_run_; }
  std::int64_t retained_steps() const { return static_cast<std::int64_t>(spans_.size()); }
  std::int64_t steps_folded() const { return steps_folded_; }
  SimDuration folded_productive() const { return folded_productive_; }

 private:
  SimTime origin_;
  SimDuration retention_;
  SimDuration productive_ = 0;
  SimDuration recompute_ = 0;
  std::int64_t productive_steps_ = 0;
  std::map<int, SimDuration> by_run_;
  std::int64_t steps_folded_ = 0;
  SimDuration folded_productive_ = 0;
  std::deque<std::pair<SimTime, SimTime>> spans_;
};

template <typename Tracker>
EttrView RunEttr(const std::vector<Stretch>& seq, Partition partition, SimDuration retention) {
  Tracker tracker(0, retention);
  EttrView view;
  Feed(seq, partition, 11, [&](const StepRun& run) { tracker.OnRun(run); }, [] {},
       [&](const StepRun& stretch) {
         // Live-edge queries, exact for any retention >= window.
         const SimTime now = stretch.end();
         view.queries.push_back(tracker.CumulativeEttr(now));
         view.queries.push_back(tracker.SlidingEttr(now, Hours(1)));
         view.queries.push_back(tracker.SlidingEttr(now, Minutes(7)));
       });
  // Historical queries, mid-step included: over the whole campaign when
  // nothing is folded, else across the retained window as the dashboard
  // samples it (its windows reach back past the fold horizon).
  const SimTime end = seq.back().run.end();
  const SimTime from = retention == 0 ? 0 : end - retention;
  for (int i = 1; i <= 97; ++i) {
    const SimTime t = from + (end - from) / 97 * i + Seconds(3);
    view.queries.push_back(tracker.SlidingEttr(t, t));
    view.queries.push_back(tracker.SlidingEttr(t, Hours(1)));
  }
  view.productive = tracker.productive_time();
  view.recompute = tracker.recompute_time();
  view.productive_steps = tracker.productive_steps();
  view.by_run = tracker.productive_by_run();
  view.retained = tracker.retained_steps();
  view.folded = tracker.steps_folded();
  view.folded_productive = tracker.folded_productive();
  return view;
}

TEST(StepRunPartitionTest, EttrTrackerIsPartitionInvariant) {
  for (const SimDuration retention : {SimDuration{0}, Hours(2)}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const std::vector<Stretch> seq = MakeSequence(seed, Seconds(10), 120);
      const EttrView reference = RunEttr<ReferenceEttr>(seq, Partition::kSingles, retention);
      EXPECT_GT(reference.productive_steps, 0);
      EXPECT_GT(reference.recompute, 0);
      if (retention > 0) {
        EXPECT_GT(reference.folded, 0);
      }
      for (const Partition p : kPartitions) {
        EXPECT_TRUE(RunEttr<EttrTracker>(seq, p, retention) == reference)
            << "seed " << seed << " partition " << static_cast<int>(p) << " retention "
            << retention;
      }
    }
  }
}

// ---- MFU series --------------------------------------------------------------

struct MfuView {
  std::vector<StepView> samples;
  std::vector<double> relative;
  std::vector<double> mfu_at;
  double min = 0.0;
  double max = 0.0;
  std::int64_t total = 0;
  std::int64_t folded = 0;

  bool operator==(const MfuView&) const = default;
};

// The per-step MFU series the run-length one replaced, kept as the oracle.
class ReferenceMfu {
 public:
  ReferenceMfu(const LossCurve* loss, SimDuration retention) : loss_(loss), retention_(retention) {}

  void OnRun(const StepRun& run) {
    for (std::int64_t i = 0; run.recompute == false && i < run.count; ++i) {
      if (total_ == 0 || run.mfu < min_) {
        min_ = run.mfu;
      }
      max_ = std::max(max_, run.mfu);
      ++total_;
      const std::int64_t step = run.first + i;
      samples_.push_back({run.StepEnd(i), step, run.mfu,
                          run.is_nan ? std::nan("") : loss_->LossAt(step), run.run_id});
      while (retention_ > 0 && samples_.front().time <= run.StepEnd(i) - retention_) {
        ++folded_;
        samples_.pop_front();
      }
    }
  }
  std::vector<MfuSample> Samples() const { return {samples_.begin(), samples_.end()}; }
  double MfuAt(SimTime t) const {
    double mfu = 0.0;
    for (const MfuSample& s : samples_) {
      if (s.time <= t) {
        mfu = s.mfu;
      }
    }
    return mfu;
  }
  std::vector<double> RelativeMfu() const {
    std::vector<double> out;
    for (const MfuSample& s : samples_) {
      out.push_back(s.mfu / min_);
    }
    return out;
  }
  double MinMfu() const { return min_; }
  double MaxMfu() const { return max_; }
  std::int64_t total_samples() const { return total_; }
  std::int64_t samples_folded() const { return folded_; }

 private:
  const LossCurve* loss_;
  SimDuration retention_;
  std::deque<MfuSample> samples_;
  double min_ = 0.0;
  double max_ = 0.0;
  std::int64_t total_ = 0;
  std::int64_t folded_ = 0;
};

template <typename Series>
MfuView RunMfu(const std::vector<Stretch>& seq, Partition partition, SimDuration retention,
               const LossCurve& loss) {
  Series series(&loss, retention);
  Feed(seq, partition, 23, [&](const StepRun& run) { series.OnRun(run); });
  MfuView view;
  for (const MfuSample& s : series.Samples()) {
    StepView v;
    v.step = s.step;
    v.end = s.time;
    v.mfu = s.mfu;
    v.loss = s.loss;
    v.run_id = s.run_id;
    view.samples.push_back(v);
  }
  view.relative = series.RelativeMfu();
  const SimTime end = seq.back().run.end();
  for (int i = 0; i <= 50; ++i) {
    view.mfu_at.push_back(series.MfuAt(end - Hours(3) + Hours(3) * i / 50));
  }
  view.min = series.MinMfu();
  view.max = series.MaxMfu();
  view.total = series.total_samples();
  view.folded = series.samples_folded();
  return view;
}

TEST(StepRunPartitionTest, MfuSeriesIsPartitionInvariant) {
  JobConfig cfg;
  const LossModel loss(cfg, 5);
  for (const SimDuration retention : {SimDuration{0}, Hours(2)}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const std::vector<Stretch> seq = MakeSequence(seed, Seconds(10), 120);
      const MfuView reference = RunMfu<ReferenceMfu>(seq, Partition::kSingles, retention, loss);
      EXPECT_FALSE(reference.samples.empty());
      if (retention > 0) {
        EXPECT_GT(reference.folded, 0);
      }
      for (const Partition p : kPartitions) {
        EXPECT_TRUE(RunMfu<MfuSeries>(seq, p, retention, loss) == reference)
            << "seed " << seed << " partition " << static_cast<int>(p);
      }
    }
  }
}

// ---- Checkpoint manager ------------------------------------------------------

struct CkptView {
  std::vector<std::int64_t> states;  // (started, completed, durable, in flight) per stretch

  bool operator==(const CkptView&) const = default;
};

JobConfig CkptJob() {
  JobConfig cfg;
  cfg.parallelism.tp = 2;
  cfg.parallelism.pp = 2;
  cfg.parallelism.dp = 2;
  cfg.parallelism.gpus_per_machine = 2;
  cfg.model_params_b = 0.7;
  return cfg;
}

CkptView RunCkpt(const std::vector<Stretch>& seq, Partition partition, int every) {
  Simulator sim;
  Cluster cluster(4, 2, 1);
  TrainJob job(CkptJob(), &sim, &cluster, 1);
  CkptManagerConfig cfg;
  cfg.save_every_steps = every;
  CheckpointManager mgr(cfg, &sim, &job);
  CkptView view;
  Feed(seq, partition, 37, [&](const StepRun& run) { mgr.OnRun(run); }, [] {},
       [&](const StepRun& stretch) {
         // Query where the job would: at the stretch's end, and once more
         // just past the save latency.
         sim.RunUntil(stretch.end());
         view.states.push_back(mgr.saves_started());
         view.states.push_back(mgr.saves_completed());
         view.states.push_back(mgr.durable_step());
         view.states.push_back(mgr.in_flight());
       });
  sim.RunUntil(sim.Now() + mgr.SaveLatency());
  view.states.push_back(mgr.saves_completed());
  view.states.push_back(mgr.durable_step());
  return view;
}

TEST(StepRunPartitionTest, CheckpointManagerIsPartitionInvariant) {
  Simulator sim;
  Cluster cluster(4, 2, 1);
  TrainJob job(CkptJob(), &sim, &cluster, 1);
  const SimDuration latency = CheckpointManager(CkptManagerConfig{}, &sim, &job).SaveLatency();
  ASSERT_GT(latency, 0);
  for (const int every : {1, 3}) {
    // Latency below the cadence period (closed form) and above it (walk).
    for (const SimDuration step : {latency * 2, latency / 4}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const std::vector<Stretch> seq = MakeSequence(seed, step, 60);
        const CkptView whole = RunCkpt(seq, Partition::kWhole, every);
        EXPECT_GT(whole.states[whole.states.size() - 6], 0);  // saves started
        for (const Partition p : kPartitions) {
          EXPECT_TRUE(RunCkpt(seq, p, every) == whole)
              << "every " << every << " step " << step << " seed " << seed << " partition "
              << static_cast<int>(p);
        }
      }
    }
  }
}

// ---- Metric rules ------------------------------------------------------------

// The per-step rules the run-level ones replaced, kept as the oracle: every
// loss computed, the window a deque, the upper median taken by sorting a copy.
class ReferenceRules {
 public:
  ReferenceRules(const MetricsRulesConfig& config, const LossCurve* loss)
      : config_(config), loss_(loss) {}

  std::int64_t QuietPrefix(const StepRun& run) const {
    ReferenceRules probe = *this;
    for (std::int64_t i = 0; i < run.count; ++i) {
      if (probe.Step(run, i)) {
        return i;
      }
    }
    return run.count;
  }

  std::vector<AnomalyReport> OnRun(const StepRun& run) {
    std::vector<AnomalyReport> reports;
    for (std::int64_t i = 0; i < run.count; ++i) {
      if (const std::optional<AnomalySource> source = Step(run, i)) {
        AnomalyReport report;
        report.source = *source;
        report.detect_time = run.StepEnd(i);
        reports.push_back(report);
      }
    }
    return reports;
  }

  void Reset() {
    window_.clear();
    mfu_high_water_ = 0.0;
    decline_run_ = 0;
  }

 private:
  std::optional<AnomalySource> Step(const StepRun& run, std::int64_t i) {
    const double loss = run.is_nan ? std::nan("") : loss_->LossAt(run.first + i);
    if (std::isnan(loss)) {
      return AnomalySource::kMetricNan;
    }
    if (static_cast<int>(window_.size()) >= config_.trailing_window / 2) {
      std::vector<double> sorted(window_.begin(), window_.end());
      std::sort(sorted.begin(), sorted.end());
      const double median = sorted.empty() ? 0.0 : sorted[sorted.size() / 2];
      if (median > 0.0 && loss > config_.spike_factor * median) {
        window_.clear();
        return AnomalySource::kMetricSpike;
      }
    }
    window_.push_back(loss);
    while (static_cast<int>(window_.size()) > std::max(config_.trailing_window, 0)) {
      window_.pop_front();
    }
    mfu_high_water_ = std::max(mfu_high_water_, run.mfu);
    if (mfu_high_water_ > 0.0 && run.mfu < config_.decline_ratio * mfu_high_water_) {
      if (++decline_run_ >= config_.decline_steps) {
        decline_run_ = 0;
        return AnomalySource::kMfuDecline;
      }
    } else {
      decline_run_ = 0;
    }
    return std::nullopt;
  }

  MetricsRulesConfig config_;
  const LossCurve* loss_;
  std::deque<double> window_;
  double mfu_high_water_ = 0.0;
  int decline_run_ = 0;
};

struct RulesView {
  std::vector<int> sources;
  std::vector<SimTime> detect_times;
  std::vector<std::int64_t> quiet;  // quiet prefix of each stretch before it is fed

  bool operator==(const RulesView&) const = default;
};

template <typename Rules>
RulesView RunRules(const std::vector<Stretch>& seq, Partition partition,
                   const MetricsRulesConfig& cfg, const LossCurve& loss) {
  Rules rules(cfg, &loss);
  RulesView view;
  std::int64_t fed = 0;
  std::size_t next = 0;
  Feed(seq, partition, 41,
       [&](const StepRun& run) {
         if (fed == 0) {
           view.quiet.push_back(rules.QuietPrefix(seq[next].run));
         }
         fed += run.count;
         for (const AnomalyReport& r : rules.OnRun(run)) {
           view.sources.push_back(static_cast<int>(r.source));
           view.detect_times.push_back(r.detect_time);
         }
       },
       [&] { rules.Reset(); },
       [&](const StepRun&) {
         fed = 0;
         ++next;
       });
  return view;
}

// The job's loss curve with spikes of seeded size injected at seeded steps.
class SpikyCurve : public LossCurve {
 public:
  SpikyCurve(const LossModel& base, std::uint64_t seed) : base_(base) {
    Rng rng(seed);
    for (int i = 0; i < 60; ++i) {
      spikes_.push_back({rng.UniformInt(0, 20000), rng.Uniform(2.0, 40.0)});
    }
  }
  double LossAt(std::int64_t step) const override {
    double loss = base_.LossAt(step);
    for (const auto& [at, factor] : spikes_) {
      if (at == step) {
        loss *= factor;
      }
    }
    return loss;
  }
  LossBounds Bounds(std::int64_t first, std::int64_t count) const override {
    LossBounds b = base_.Bounds(first, count);
    for (const auto& [at, factor] : spikes_) {
      if (at >= first && at < first + count) {
        b.hi *= factor;
      }
    }
    return b;
  }

 private:
  const LossModel& base_;
  std::vector<std::pair<std::int64_t, double>> spikes_;
};

// A noisy table curve with spikes and dips: a dip drags the window minimum
// far below the median, so the bound test fails and the exact median decides.
TableLossCurve NoisyCurve(std::uint64_t seed, std::int64_t steps) {
  Rng rng(seed);
  TableLossCurve curve;
  for (std::int64_t s = 0; s < steps; ++s) {
    double loss = 1.5 + 4.0 * std::pow(1.0 + s / 100.0, -0.5) * rng.Uniform(0.95, 1.05);
    if (rng.Bernoulli(0.03)) {
      loss *= rng.Uniform(2.0, 60.0);
    } else if (rng.Bernoulli(0.03)) {
      loss *= rng.Uniform(0.05, 0.3);
    }
    curve.Set(s, loss);
  }
  return curve;
}

TEST(StepRunPartitionTest, MetricRulesMatchTheStepwiseRulesOnEveryPartition) {
  JobConfig job;
  job.loss_decay_steps = 200.0;  // steep early curve: the spike bounds must work
  const LossModel model(job, 3);
  int fired[3] = {0, 0, 0};
  for (const int window : {0, 1, 7, 32}) {
    MetricsRulesConfig cfg;
    cfg.trailing_window = window;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const std::vector<Stretch> seq = MakeSequence(seed, Seconds(10), 120);
      const SpikyCurve spiky(model, seed);
      const TableLossCurve noisy = NoisyCurve(seed, 60000);
      for (const LossCurve* curve : {static_cast<const LossCurve*>(&spiky),
                                     static_cast<const LossCurve*>(&noisy)}) {
        const RulesView reference =
            RunRules<ReferenceRules>(seq, Partition::kSingles, cfg, *curve);
        for (const int source : reference.sources) {
          if (source == static_cast<int>(AnomalySource::kMetricNan)) {
            ++fired[0];
          } else if (source == static_cast<int>(AnomalySource::kMetricSpike)) {
            ++fired[1];
          } else if (source == static_cast<int>(AnomalySource::kMfuDecline)) {
            ++fired[2];
          }
        }
        for (const Partition p : kPartitions) {
          EXPECT_TRUE(RunRules<MetricsRules>(seq, p, cfg, *curve) == reference)
              << "window " << window << " seed " << seed << " partition "
              << static_cast<int>(p) << " curve " << (curve == &spiky ? "spiky" : "noisy");
        }
      }
    }
  }
  EXPECT_GT(fired[0], 0) << "no NaN alert: the sequence does not exercise the rule";
  EXPECT_GT(fired[1], 0) << "no spike alert";
  EXPECT_GT(fired[2], 0) << "no MFU-decline alert";
}

// NaN steps never enter the window, so the steps after them start a new
// segment of the lazy tail: the window must not claim the skipped steps.
TEST(StepRunPartitionTest, WindowSkipsStepsThatWereNotPushed) {
  TableLossCurve curve;
  const double losses[] = {2.0, 0.1, 0.1, 10.0, 10.0, 40.0};
  for (int s = 0; s < 6; ++s) {
    curve.Set(s, losses[s]);
  }
  MetricsRulesConfig cfg;
  cfg.trailing_window = 3;
  for (const bool singles : {false, true}) {
    MetricsRules rules(cfg, &curve);
    std::vector<AnomalySource> sources;
    const auto feed = [&](std::int64_t first, std::int64_t count, bool is_nan) {
      StepRun run = OneStep(first, Seconds(10) * first, Seconds(10) * (first + 1));
      run.count = count;
      run.is_nan = is_nan;
      for (std::int64_t i = 0; i < count; i += singles ? 1 : count) {
        for (const AnomalyReport& r : rules.OnRun(run.Slice(i, singles ? 1 : count))) {
          sources.push_back(r.source);
        }
      }
    };
    feed(0, 1, false);
    feed(1, 2, true);  // NaN: alerts, not pushed
    feed(3, 2, false);
    // The window is {2, 10, 10}: 40 clears 5 x the median 10. Counting the
    // NaN steps' table losses (0.1) would make it a spike.
    feed(5, 1, false);
    EXPECT_EQ(sources, std::vector<AnomalySource>(2, AnomalySource::kMetricNan))
        << (singles ? "runs of one" : "runs");
  }
}

// ---- Loss bounds -------------------------------------------------------------

TEST(LossBoundsTest, EveryLossLiesInsideTheRangeBounds) {
  Rng rng(2024);
  int checked = 0;
  for (int c = 0; c < 24; ++c) {
    JobConfig cfg;
    cfg.loss_initial = rng.Uniform(0.5, 12.0);
    cfg.loss_floor = rng.Uniform(0.1, 3.0);  // may exceed the initial loss
    cfg.loss_decay_steps = rng.Uniform(10.0, 5000.0);
    // Non-monotone shapes included: alpha <= 0 makes the curve rise or stay.
    cfg.loss_decay_alpha = c % 3 == 0 ? -rng.Uniform(0.0, 0.5) : rng.Uniform(0.0, 0.8);
    cfg.loss_noise_stddev = c % 4 == 0 ? 0.0 : rng.Uniform(0.0, 0.05);
    const LossModel model(cfg, rng.UniformInt(0, 1 << 30));
    for (int r = 0; r < 40; ++r) {
      const std::int64_t first = rng.Bernoulli(0.3) ? rng.UniformInt(0, 50)
                                                    : rng.UniformInt(0, 2000000);
      const std::int64_t count = rng.UniformInt(1, 500);
      const LossBounds b = model.Bounds(first, count);
      ASSERT_TRUE(std::isfinite(b.lo) && std::isfinite(b.hi)) << "config " << c;
      ASSERT_LE(b.lo, b.hi);
      for (std::int64_t s = first; s < first + count; ++s) {
        const double loss = model.LossAt(s);
        ASSERT_GE(loss, b.lo) << "config " << c << " step " << s;
        ASSERT_LE(loss, b.hi) << "config " << c << " step " << s;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100000);
}

TEST(LossBoundsTest, DegenerateCurvesAreUnbounded) {
  JobConfig cfg;
  cfg.loss_decay_steps = -100.0;  // the pow base turns negative past step 100
  const LossModel model(cfg, 1);
  const LossBounds b = model.Bounds(50, 100);
  EXPECT_TRUE(std::isinf(b.lo) && b.lo < 0);
  EXPECT_TRUE(std::isinf(b.hi) && b.hi > 0);
  // Below step 100 the base stays positive: bounded again.
  EXPECT_TRUE(std::isfinite(model.Bounds(0, 50).lo));
}

// ---- TrainJob run splitting --------------------------------------------------

TEST(TrainJobRunTest, FiringStepIsDeliveredAloneAtItsEnd) {
  Simulator sim;
  Cluster cluster(4, 2, 1);
  TrainJob job(CkptJob(), &sim, &cluster, 1);
  constexpr std::int64_t kFires = 123;
  job.SetQuietPrefix([](const StepRun& run) {
    return run.first <= kFires && kFires < run.first + run.count ? kFires - run.first
                                                                 : run.count;
  });
  std::vector<StepRun> runs;
  job.AddRunObserver([&](const StepRun& run) {
    EXPECT_EQ(sim.Now(), run.end());
    runs.push_back(run);
  });
  job.Start();
  sim.RunUntil(Hours(1));
  // Nothing else is scheduled: the scheduled first step extends to the run
  // horizon, split into the quiet prefix, the firing step alone, and the
  // rest.
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].first, 0);
  EXPECT_EQ(runs[0].count, kFires);
  EXPECT_EQ(runs[1].first, kFires);
  EXPECT_EQ(runs[1].count, 1);
  EXPECT_EQ(runs[2].first, kFires + 1);
  EXPECT_EQ(runs[2].end(), Hours(1));
  EXPECT_EQ(runs[2].first + runs[2].count, job.steps_completed());
}

}  // namespace
}  // namespace byterobust
