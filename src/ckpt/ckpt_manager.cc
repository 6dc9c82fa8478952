#include "src/ckpt/ckpt_manager.h"

#include <algorithm>

#include "src/ckpt/size_model.h"

namespace byterobust {

namespace {
constexpr double kGb = 1e9;
}

CheckpointManager::CheckpointManager(const CkptManagerConfig& config, Simulator* sim,
                                     TrainJob* job)
    : config_(config), sim_(sim), job_(job), backup_plan_(SharedBackupPlan(job->topology())) {
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

void CheckpointManager::OnStep(const StepRecord& record) {
  if (config_.save_every_steps <= 0 || record.step % config_.save_every_steps != 0) {
    return;
  }
  DrainCompletedSaves();
  // Dual buffer: with two saves already in flight the new one replaces the
  // pending slot only after the oldest completes. Saves complete in FIFO
  // order with fixed latency, so simply cap the queue.
  if (in_flight_.size() >= 2) {
    return;  // skip this step's save; the next one will catch up
  }
  ++saves_started_;
  in_flight_.push_back({record.step, sim_->Now() + save_latency_});
}

void CheckpointManager::DrainCompletedSaves() const {
  const SimTime now = sim_->Now();
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

bool CheckpointManager::CanRestoreAfterEviction(const std::vector<MachineId>& machines) const {
  return backup_plan_->SurvivesEviction(job_->topology(), machines);
}

}  // namespace byterobust
