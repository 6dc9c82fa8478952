#include "src/training/train_job.h"

#include <algorithm>
#include <stdexcept>

#include "src/common/log.h"

namespace byterobust {

const char* JobRunStateName(JobRunState state) {
  switch (state) {
    case JobRunState::kStopped:
      return "stopped";
    case JobRunState::kRunning:
      return "running";
    case JobRunState::kHung:
      return "hung";
    case JobRunState::kCrashed:
      return "crashed";
  }
  return "unknown";
}

TrainJob::TrainJob(const JobConfig& config, Simulator* sim, Cluster* cluster, std::uint64_t seed)
    : config_(config),
      sim_(sim),
      cluster_(cluster),
      topology_(config.parallelism),
      perf_(config),
      loss_(config, seed) {
  if (cluster_->num_training_slots() < config.parallelism.num_machines()) {
    throw std::invalid_argument("cluster smaller than the job's machine demand");
  }
  versions_.push_back(CodeVersion{0, 1.0, false, 0, false, "initial naive version"});
}

void TrainJob::Start() {
  if (state_ == JobRunState::kRunning) {
    return;
  }
  state_ = JobRunState::kRunning;
  ++run_count_;
  nan_loss_ = false;  // a restart clears transient NaN inputs
  hang_culprit_ = -1;
  last_progress_time_ = sim_->Now();
  BR_LOG_INFO("job", "%s run #%d starting at step %lld (code v%d, eff=%.2f)",
              config_.name.c_str(), run_count_, static_cast<long long>(resume_step_),
              current_version().id, current_version().efficiency);
  ScheduleNextStep();
  NotifyStateObservers();
}

void TrainJob::Stop() {
  if (pending_step_ != kInvalidEventId) {
    sim_->Cancel(pending_step_);
    pending_step_ = kInvalidEventId;
  }
  state_ = JobRunState::kStopped;
  NotifyStateObservers();
}

void TrainJob::Crash() {
  if (pending_step_ != kInvalidEventId) {
    sim_->Cancel(pending_step_);
    pending_step_ = kInvalidEventId;
  }
  state_ = JobRunState::kCrashed;
  NotifyStateObservers();
}

void TrainJob::Hang(Rank culprit) {
  if (pending_step_ != kInvalidEventId) {
    sim_->Cancel(pending_step_);
    pending_step_ = kInvalidEventId;
  }
  state_ = JobRunState::kHung;
  hang_culprit_ = culprit;
  NotifyStateObservers();
}

void TrainJob::NotifyStateObservers() {
  for (const auto& obs : state_observers_) {
    obs(state_);
  }
}

void TrainJob::RollbackToStep(std::int64_t step) {
  if (step < 0 || step > max_step_reached_) {
    throw std::invalid_argument("rollback step outside [0, max_step_reached]");
  }
  resume_step_ = step;
}

void TrainJob::ApplyCodeVersion(const CodeVersion& version) { versions_.push_back(version); }

bool TrainJob::HasVersion(int id) const {
  for (const CodeVersion& v : versions_) {
    if (v.id == id) {
      return true;
    }
  }
  return false;
}

bool TrainJob::RollbackCodeVersion() {
  if (versions_.size() <= 1) {
    return false;
  }
  versions_.pop_back();
  return true;
}

double TrainJob::CurrentMfu() const {
  return perf_.Mfu(current_version().efficiency, *cluster_);
}

SimDuration TrainJob::CurrentStepTime() const {
  return perf_.StepTime(current_version().efficiency, *cluster_);
}

void TrainJob::ScheduleNextStep() {
  step_start_ = sim_->Now();
  in_flight_step_time_ = CurrentStepTime();
  pending_step_ = sim_->Schedule(in_flight_step_time_, [this] { CompleteStep(); });
}

void TrainJob::CompleteStep() {
  pending_step_ = kInvalidEventId;
  if (state_ != JobRunState::kRunning) {
    return;
  }
  // The step scheduled at step_start_ has just ended. Batched stepping folds
  // it into a run with the whole steps that follow before the next pending
  // event (strict inequality: a step ending *at* the next event's timestamp
  // goes through the scheduler, so (time, schedule order) ties resolve as on
  // the per-step path). After each delivery the loop re-reads the state, the
  // stop flag and the next event time: a firing step's anomaly handler may
  // stop the job or schedule something earlier.
  StepRun run = NextRun(step_start_, sim_->Now() - step_start_, 1);
  for (;;) {
    Advance(run);
    if (!config_.batched_stepping || state_ != JobRunState::kRunning ||
        sim_->stop_requested()) {
      break;
    }
    run = NextRun(sim_->Now(), CurrentStepTime(), 0);
    if (run.count == 0) {
      break;
    }
  }
  if (state_ == JobRunState::kRunning) {
    ScheduleNextStep();
    if (LongStepInFlight()) {
      NotifyStateObservers();  // Start() notifies after its own first step
    }
  }
}

StepRun TrainJob::NextRun(SimTime start, SimDuration step_time, std::int64_t elapsed) {
  StepRun run;
  run.first = resume_step_;
  run.count = elapsed;
  run.start = start;
  run.step_time = step_time;
  run.mfu = CurrentMfu();
  run.run_id = run_count_;
  run.recompute = resume_step_ < max_step_reached_;
  run.is_nan = nan_loss_;
  if (config_.batched_stepping && !sim_->stop_requested() && step_time > 0 &&
      step_time == CurrentStepTime()) {
    // Nothing changes the step inputs before the next event, so every step
    // ending at or before min(horizon, next event - 1) runs alike.
    const SimTime now = run.end();
    const SimTime limit = std::min(sim_->horizon(), sim_->NextEventTime() - 1);
    if (limit > now) {
      run.count += (limit - now) / step_time;
    }
  }
  if (run.recompute) {
    run.count = std::min(run.count, max_step_reached_ - resume_step_);
  }
  return run;
}

void TrainJob::Advance(const StepRun& run) {
  const std::int64_t quiet =
      quiet_prefix_ ? std::min(quiet_prefix_(run), run.count) : run.count;
  if (quiet > 0) {
    Deliver(run.Slice(0, quiet));
  }
  if (quiet < run.count && state_ == JobRunState::kRunning && !sim_->stop_requested()) {
    Deliver(run.Slice(quiet, 1));
  }
}

void TrainJob::Deliver(const StepRun& run) {
  sim_->AdvanceTo(run.end());
  resume_step_ += run.count;
  steps_completed_ += run.count;
  max_step_reached_ = std::max(max_step_reached_, resume_step_);
  last_progress_time_ = run.end();
  for (const auto& obs : observers_) {
    obs(run);
  }
}

}  // namespace byterobust
