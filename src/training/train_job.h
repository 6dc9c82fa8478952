// Training-job runtime: drives the step loop on the simulator and exposes the
// state that ByteRobust's data plane observes (steps, loss, MFU, hang state).
//
// Steps are delivered to observers in runs (StepRun): consecutive steps that
// share one step time, MFU, run id, recompute flag and NaN flag. Between two
// simulator events nothing can change those inputs, so with batched stepping
// (the default) a completing step extends into a run of every whole step that
// ends strictly before the next pending event, and the clock advances once
// per run instead of once per step. Observers fold a run in O(1): the ETTR
// and checkpoint ledgers in closed form, the metric rules through the loss
// curve's range bounds (losses are never computed per step; see LossCurve).
//
// A run must not hide a metric-rule verdict: an anomaly report is raised at
// its step's end time, with the clock there, before the job's state can
// change. The owner installs a quiet-prefix function (the monitor's rules);
// the job delivers a candidate run's quiet prefix as one run and the step
// that fires as a run of its own at its end time, then re-reads its state
// and the next event time exactly as a per-step loop would. With
// JobConfig::batched_stepping off every run is one step long, the per-step
// reference path the equivalence gates compare against.

#ifndef SRC_TRAINING_TRAIN_JOB_H_
#define SRC_TRAINING_TRAIN_JOB_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/sim/simulator.h"
#include "src/training/code_version.h"
#include "src/training/job_config.h"
#include "src/training/loss_model.h"
#include "src/training/perf_model.h"

namespace byterobust {

enum class JobRunState {
  kStopped,  // not running (pre-start, or stopped by the controller)
  kRunning,  // stepping normally
  kHung,     // silently stopped making progress (implicit failure)
  kCrashed,  // fail-stop: processes exited
};

const char* JobRunStateName(JobRunState state);

// `count` consecutive completed steps, first .. first + count - 1, back to
// back: step first + i runs over [start + i * step_time, start + (i + 1) *
// step_time). Every step shares the MFU, run id and flags. A step's loss is
// NaN when is_nan, else the job's LossCurve at its index.
struct StepRun {
  std::int64_t first = 0;
  std::int64_t count = 0;
  SimTime start = 0;
  SimDuration step_time = 0;
  double mfu = 0.0;
  int run_id = 0;
  bool recompute = false;  // re-doing work lost to an unsaved-progress restart
  bool is_nan = false;     // loss is NaN (SDC / bad data / code bug)

  SimTime end() const { return start + count * step_time; }
  // End time of step first + i.
  SimTime StepEnd(std::int64_t i) const { return start + (i + 1) * step_time; }
  // Steps first + offset .. first + offset + n - 1 as a run of their own.
  StepRun Slice(std::int64_t offset, std::int64_t n) const {
    StepRun out = *this;
    out.first = first + offset;
    out.count = n;
    out.start = start + offset * step_time;
    return out;
  }
};

class TrainJob {
 public:
  TrainJob(const JobConfig& config, Simulator* sim, Cluster* cluster, std::uint64_t seed);

  TrainJob(const TrainJob&) = delete;
  TrainJob& operator=(const TrainJob&) = delete;

  // Observer invoked on each completed run of steps, with the clock at the
  // run's end. ByteRobustSystem installs one that fans out to monitor,
  // checkpoints, ETTR and MFU; tests and benches attach their own.
  using RunObserver = std::function<void(const StepRun&)>;
  void AddRunObserver(RunObserver observer) { observers_.push_back(std::move(observer)); }

  // How many leading steps of a candidate run complete without a metric rule
  // firing (run.count when none fires). The job splits runs there; see the
  // file comment. Without one, every candidate run is delivered whole.
  using QuietPrefixFn = std::function<std::int64_t(const StepRun&)>;
  void SetQuietPrefix(QuietPrefixFn quiet_prefix) { quiet_prefix_ = std::move(quiet_prefix); }

  // Observer invoked after every run-state transition (Start/Stop/Crash/Hang)
  // and whenever the running job schedules a step longer than the limit set
  // by NotifyStepsLongerThan. The quiescent monitor uses it to re-arm its
  // watchdog on demand instead of polling the state on a fixed cadence.
  using StateObserver = std::function<void(JobRunState)>;
  void AddStateObserver(StateObserver observer) {
    state_observers_.push_back(std::move(observer));
  }
  // Sets the long-step limit above (no step notifies by default).
  void NotifyStepsLongerThan(SimDuration limit) { long_step_limit_ = limit; }

  // -- control ---------------------------------------------------------------

  // Begins (or resumes) stepping from `resume_step()`. Increments run_count.
  void Start();

  // Controller-initiated stop: cancels the in-flight step.
  void Stop();

  // Fail-stop failure: processes die; the in-flight step is lost.
  void Crash();

  // Silent hang: progress stops but processes stay alive. `culprit` is the
  // rank whose stuck operation seeded the hang (for stack-trace synthesis).
  void Hang(Rank culprit);

  // Loss turns NaN (SDC / bad data / code bug); stepping continues.
  void SetNanLoss(bool nan) { nan_loss_ = nan; }
  bool nan_loss() const { return nan_loss_; }

  // Sets the step to resume from (checkpoint restore). Must be <= the max
  // step reached; steps in (resume, max] will be flagged as recompute.
  void RollbackToStep(std::int64_t step);

  // -- code versions (hot-update / rollback support) --------------------------

  void ApplyCodeVersion(const CodeVersion& version);
  // Reverts to the previous version; returns false if already at the base.
  bool RollbackCodeVersion();
  const CodeVersion& current_version() const { return versions_.back(); }
  int version_depth() const { return static_cast<int>(versions_.size()); }
  // True if a version with this id is currently applied (anywhere on the
  // version stack).
  bool HasVersion(int id) const;

  // -- observable state --------------------------------------------------------

  JobRunState state() const { return state_; }
  std::int64_t resume_step() const { return resume_step_; }
  std::int64_t steps_completed() const { return steps_completed_; }
  std::int64_t max_step_reached() const { return max_step_reached_; }
  int run_count() const { return run_count_; }
  Rank hang_culprit() const { return hang_culprit_; }
  SimTime last_progress_time() const { return last_progress_time_; }
  // True while a step longer than the NotifyStepsLongerThan limit is in
  // flight.
  bool LongStepInFlight() const {
    return pending_step_ != kInvalidEventId && in_flight_step_time_ > long_step_limit_;
  }

  double CurrentMfu() const;
  SimDuration CurrentStepTime() const;

  // The loss curve the job's steps follow (readers materialize losses from
  // step indices through it).
  const LossModel& loss_model() const { return loss_; }

  const JobConfig& config() const { return config_; }
  const Topology& topology() const { return topology_; }
  Cluster* cluster() { return cluster_; }

 private:
  void ScheduleNextStep();
  void CompleteStep();
  // The run starting at resume_step_ and `start`: `elapsed` steps of
  // `step_time` that have already ended, extended (batched stepping, current
  // step time) by every whole step that ends within the run horizon and
  // strictly before the next pending event, and cut where the recompute flag
  // would flip.
  StepRun NextRun(SimTime start, SimDuration step_time, std::int64_t elapsed);
  // Splits `run` at its quiet prefix and delivers the prefix and the firing
  // step, if any.
  void Advance(const StepRun& run);
  // Advances the clock to the run's end, books its steps and fans it out.
  void Deliver(const StepRun& run);
  void NotifyStateObservers();

  JobConfig config_;
  Simulator* sim_;
  Cluster* cluster_;
  Topology topology_;
  PerfModel perf_;
  LossModel loss_;

  JobRunState state_ = JobRunState::kStopped;
  std::vector<CodeVersion> versions_;
  std::vector<RunObserver> observers_;
  QuietPrefixFn quiet_prefix_;
  std::vector<StateObserver> state_observers_;

  std::int64_t resume_step_ = 0;       // next step index to execute
  std::int64_t steps_completed_ = 0;   // total completions incl. recompute
  std::int64_t max_step_reached_ = 0;  // high-water mark of progress
  int run_count_ = 0;
  bool nan_loss_ = false;
  Rank hang_culprit_ = -1;
  SimTime last_progress_time_ = 0;
  SimTime step_start_ = 0;
  SimDuration in_flight_step_time_ = 0;
  SimDuration long_step_limit_ = std::numeric_limits<SimDuration>::max();
  EventId pending_step_ = kInvalidEventId;
};

}  // namespace byterobust

#endif  // SRC_TRAINING_TRAIN_JOB_H_
