#include "src/ckpt/ckpt_manager.h"

#include <algorithm>

#include "src/ckpt/size_model.h"

namespace byterobust {

namespace {
constexpr double kGb = 1e9;
}

CheckpointManager::CheckpointManager(const CkptManagerConfig& config, Simulator* sim,
                                     TrainJob* job)
    : config_(config), sim_(sim), job_(job) {
  save_latency_ = SaveLatency();  // pure function of the (fixed) job config
}

SimDuration CheckpointManager::SaveLatency() const {
  const double bytes = CheckpointSizeModel::TotalBytesPerRank(job_->config());
  const double d2h_s = bytes / (config_.bandwidths.pcie_gbps * kGb);
  const double ser_s = bytes / (config_.serialize_async_gbps * kGb);
  // D2H, serialization and backup send are pipelined across the dual buffer
  // (Sec. 7), so durability lags by roughly the slower of the two stages plus
  // the D2H itself rather than their strict sum.
  return Seconds(d2h_s + std::max(ser_s, d2h_s));
}

void CheckpointManager::OnRun(const StepRun& run) {
  const std::int64_t every = config_.save_every_steps;
  if (every <= 0) {
    return;
  }
  const std::int64_t first_save = (run.first + every - 1) / every * every;  // steps are >= 0
  const std::int64_t last = run.first + run.count - 1;
  if (first_save > last) {
    return;
  }
  const std::int64_t saves = (last - first_save) / every + 1;
  const SimDuration period = every * run.step_time;
  for (std::int64_t i = 0; i < saves; ++i) {
    const std::int64_t step = first_save + i * every;
    const SimTime end = run.StepEnd(step - run.first);
    DrainUntil(end);
    if (in_flight_.empty() && save_latency_ <= period) {
      // Steady state: each save is durable by the next cadence step's end,
      // which drains it and starts its own. The remaining saves all start,
      // all but the last complete, and the last stays in flight.
      const std::int64_t rest = saves - i;
      const std::int64_t last_save = first_save + (saves - 1) * every;
      saves_started_ += rest;
      saves_completed_ += rest - 1;
      if (rest > 1) {
        durable_step_ = std::max(durable_step_, last_save - every);
      }
      in_flight_.push_back({last_save, run.StepEnd(last_save - run.first) + save_latency_});
      return;
    }
    // Dual buffer: with two saves already in flight this step's save is
    // skipped; saves complete in FIFO order with fixed latency, so the next
    // one catches up.
    if (in_flight_.size() >= 2) {
      continue;
    }
    ++saves_started_;
    in_flight_.push_back({step, end + save_latency_});
  }
}

void CheckpointManager::DrainUntil(SimTime now) const {
  while (!in_flight_.empty() && in_flight_.front().complete_time <= now) {
    durable_step_ = std::max(durable_step_, in_flight_.front().step);
    ++saves_completed_;
    in_flight_.pop_front();
  }
}

SimDuration CheckpointManager::LoadTime(bool from_remote) const {
  if (from_remote) {
    const double job_bytes = CheckpointSizeModel::TotalJobBytes(job_->config());
    const double s = job_bytes / (config_.remote_load_aggregate_gbps * kGb);
    return config_.remote_load_overhead + Seconds(s);
  }
  const double rank_bytes = CheckpointSizeModel::TotalBytesPerRank(job_->config());
  const double s = rank_bytes / (config_.local_load_gbps_per_rank * kGb);
  return config_.local_load_overhead + Seconds(s);
}

const BackupPlan& CheckpointManager::backup_plan() const {
  if (!backup_plan_) {
    backup_plan_.emplace(job_->topology());
  }
  return *backup_plan_;
}

bool CheckpointManager::CanRestoreAfterEviction(const std::vector<MachineId>& machines) const {
  return backup_plan().SurvivesEviction(job_->topology(), machines);
}

}  // namespace byterobust
