#include "src/controller/robust_controller.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/common/log.h"

namespace byterobust {

namespace {

// Largest divisor of z no greater than sqrt(z), preferring multiples of
// `preferred` (the per-pipeline machine count) per Alg. 1's recommendation.
int PickReplayGroupSize(int z, int preferred) {
  int best = 1;
  for (int m = 1; m * m <= z; ++m) {
    if (z % m != 0) {
      continue;
    }
    const bool best_pref = preferred > 0 && best % preferred == 0;
    const bool m_pref = preferred > 0 && m % preferred == 0;
    if ((m_pref && !best_pref) || (m_pref == best_pref && m > best)) {
      best = m;
    }
  }
  return best;
}

}  // namespace

RobustController::RobustController(const ControllerConfig& config, Simulator* sim,
                                   Cluster* cluster, TrainJob* job, Monitor* monitor,
                                   Diagnoser* diagnoser, SparePool* standby_pool,
                                   HotUpdateManager* hot_updates, CheckpointManager* ckpt,
                                   Rng rng)
    : config_(config),
      sim_(sim),
      cluster_(cluster),
      job_(job),
      monitor_(monitor),
      diagnoser_(diagnoser),
      standby_pool_(standby_pool),
      hot_updates_(hot_updates),
      ckpt_(ckpt),
      rng_(rng) {}

void RobustController::Start() {
  monitor_->SetAnomalyHandler([this](const AnomalyReport& report) { OnAnomaly(report); });
  hot_updates_->SetRestartRequester([this] { RequestHotUpdateRestart(); });
  monitor_->Start();
  standby_pool_->Replenish(standby_pool_->TargetSize(cluster_->num_training_slots()));
}

void RobustController::NotifyIncidentInjected(const Incident& incident) {
  pending_incidents_.push_back(incident);
}

Incident RobustController::TakeGroundTruth(const AnomalyReport& report) {
  // Prefer the pending incident whose symptom class matches the anomaly: a
  // NaN metric alert belongs to a NaN incident, a hang suspect to a hang, and
  // log/inspection signals to explicit failures. This keeps attribution sane
  // when multiple incidents overlap.
  auto matches = [&report](const Incident& inc) {
    switch (report.source) {
      case AnomalySource::kMetricNan:
      case AnomalySource::kMetricSpike:
        return inc.symptom == IncidentSymptom::kNanValue;
      case AnomalySource::kHangSuspect:
        return inc.symptom == IncidentSymptom::kJobHang;
      case AnomalySource::kMfuDecline:
        return inc.symptom == IncidentSymptom::kMfuDecline;
      case AnomalySource::kInspection:
        // Inspection findings name a machine; only incidents implicating that
        // machine qualify.
        if (!report.machines.empty()) {
          return !inc.faulty_machines.empty() &&
                 inc.faulty_machines.front() == report.machines.front();
        }
        return inc.category() == IncidentCategory::kExplicit;
      case AnomalySource::kCrashLog:
        return inc.category() == IncidentCategory::kExplicit;
    }
    return false;
  };
  for (auto it = pending_incidents_.begin(); it != pending_incidents_.end(); ++it) {
    if (matches(*it)) {
      Incident inc = *it;
      pending_incidents_.erase(it);
      return inc;
    }
  }
  if (!pending_incidents_.empty()) {
    Incident inc = pending_incidents_.front();
    pending_incidents_.pop_front();
    return inc;
  }
  // Unattributed anomaly (e.g. a false positive): synthesize a record.
  Incident inc;
  inc.symptom = report.symptom_hint;
  inc.root_cause = RootCause::kInfrastructure;
  inc.inject_time = report.detect_time;
  inc.faulty_machines = report.machines;
  return inc;
}

void RobustController::OnAnomaly(const AnomalyReport& report) {
  if (episode_.has_value() && episode_->restart_in_progress) {
    return;  // already mid-recovery; new signals are the same storm
  }
  if (episode_.has_value() && episode_->debounce_pending &&
      report.source == AnomalySource::kInspection &&
      report.symptom_hint == IncidentSymptom::kInfinibandError && !report.high_confidence) {
    // Sibling alerts of one correlated network event (a domain fault flips
    // every machine under a spine in the same inspection pass): widen the
    // pending hold-off to cover them instead of escalating per machine, so
    // the post-debounce recheck judges — and, if persistent, evicts — the
    // whole blast radius at once.
    for (MachineId m : report.machines) {
      if (std::find(episode_->debounce_machines.begin(), episode_->debounce_machines.end(),
                    m) == episode_->debounce_machines.end()) {
        episode_->debounce_machines.push_back(m);
      }
    }
    return;
  }
  // Any anomaly invalidates outstanding stability checks: the episode is not
  // allowed to close as resolved while new handling is in flight.
  ++stability_epoch_;
  if (!episode_.has_value()) {
    Episode ep;
    ep.incident = TakeGroundTruth(report);
    ep.first_source = report.source;
    ep.first_symptom = report.symptom_hint;
    ep.detect_time = report.detect_time;
    episode_ = ep;
    BR_LOG_INFO("controller", "episode open: %s via %s", ep.incident.ToString().c_str(),
                AnomalySourceName(report.source));
    RouteFresh(report);
    return;
  }

  // Episode already open and restart finished: decide recurrence vs new
  // incident. If a freshly injected incident matching this anomaly is queued,
  // this is a *different* failure arriving mid-episode — the previous action
  // evidently held for the old one.
  bool new_incident_queued = false;
  for (const Incident& pending : pending_incidents_) {
    const bool category_match =
        (report.source == AnomalySource::kMetricNan &&
         pending.symptom == IncidentSymptom::kNanValue) ||
        (report.source == AnomalySource::kHangSuspect &&
         pending.symptom == IncidentSymptom::kJobHang) ||
        (report.source == AnomalySource::kMfuDecline &&
         pending.symptom == IncidentSymptom::kMfuDecline) ||
        ((report.source == AnomalySource::kCrashLog ||
          report.source == AnomalySource::kInspection) &&
         pending.category() == IncidentCategory::kExplicit);
    if (category_match) {
      new_incident_queued = true;
      break;
    }
  }
  if (new_incident_queued) {
    CloseEpisode(true);
    OnAnomaly(report);
    return;
  }

  // Same anomaly family => the failure survived our action.
  const bool same_family =
      report.source == episode_->first_source ||
      (CategoryOf(episode_->first_symptom) == IncidentCategory::kExplicit &&
       (report.source == AnomalySource::kCrashLog || report.source == AnomalySource::kInspection));
  if (same_family) {
    BR_LOG_INFO("controller", "failure recurred after %s; escalating",
                MechanismName(episode_->last_mechanism));
    Escalate(report);
  } else {
    // Different failure class: the previous action evidently held.
    CloseEpisode(true);
    OnAnomaly(report);
  }
}

void RobustController::RouteFresh(const AnomalyReport& report) {
  switch (report.source) {
    case AnomalySource::kInspection: {
      if (report.symptom_hint == IncidentSymptom::kInfinibandError && !report.high_confidence) {
        // Tolerate network alerts briefly: NIC and switch flaps often
        // self-recover (Sec. 4.1). Re-check after the debounce hold-off;
        // sibling alerts arriving meanwhile widen the rechecked set
        // (OnAnomaly above).
        episode_->debounce_pending = true;
        episode_->debounce_machines = report.machines;
        job_->Stop();
        sim_->Schedule(config_.network_debounce, [this] { RecheckNetworkDebounce(); });
        return;
      }
      // Machine-pinpointing inspection signals evict directly (step 1), with
      // high-confidence events skipping every further check.
      EvictAndRestart(report.machines, ResolutionMechanism::kAutoFtEvictRestart, 0);
      return;
    }
    case AnomalySource::kCrashLog: {
      // User-space errors traceable to code modules roll back directly
      // (step 2).
      if (episode_->incident.root_cause == RootCause::kUserCode &&
          rng_.Bernoulli(config_.log_attribution_recall)) {
        RollbackRestart(0);
        return;
      }
      // Explicit infrastructure failures usually name the faulty host in the
      // error messages (Sec. 2.2: detection ~60 s, localization 2-15 min);
      // evict directly without stop-time diagnostics.
      if (episode_->incident.root_cause == RootCause::kInfrastructure &&
          !episode_->incident.faulty_machines.empty() &&
          rng_.Bernoulli(config_.log_attribution_recall)) {
        EvictAndRestart(episode_->incident.faulty_machines,
                        ResolutionMechanism::kAutoFtEvictRestart, Minutes(3));
        return;
      }
      // No clear culprit: suspend training for stop-time checks (step 3).
      RunStopTimeChecks(/*nan_suite=*/false);
      return;
    }
    case AnomalySource::kMetricNan:
    case AnomalySource::kMetricSpike:
      RunStopTimeChecks(/*nan_suite=*/true);
      return;
    case AnomalySource::kHangSuspect:
      RunAggregationAnalysis();
      return;
    case AnomalySource::kMfuDecline:
      RunFailSlowVoting(0, std::make_shared<FailSlowVoter>(config_.failslow_rounds));
      return;
  }
}

void RobustController::RecheckNetworkDebounce() {
  if (!episode_.has_value() || !episode_->debounce_pending) {
    return;  // the episode moved on (e.g. closed for a different incident)
  }
  episode_->debounce_pending = false;
  const std::vector<MachineId> machines = std::move(episode_->debounce_machines);
  episode_->debounce_machines.clear();
  bool still_bad = false;
  for (MachineId m : machines) {
    const Machine& machine = cluster_->machine(m);
    if (cluster_->SlotOfMachine(m) >= 0 &&
        (!machine.host().nic_up || !machine.host().switch_reachable ||
         machine.host().packet_loss_rate > config_.debounce_packet_loss_threshold)) {
      still_bad = true;
    }
  }
  if (still_bad) {
    EvictAndRestart(machines, ResolutionMechanism::kAutoFtEvictRestart, 0);
  } else {
    ReattemptRestart(0);  // the flap healed itself
  }
}

void RobustController::Escalate(const AnomalyReport& report) {
  (void)report;
  ++episode_->escalation;
  if (!episode_->tried_stop_time) {
    RunStopTimeChecks(episode_->first_symptom == IncidentSymptom::kNanValue);
    return;
  }
  if (!episode_->tried_rollback) {
    RollbackRestart(0);
    return;
  }
  if (!episode_->tried_replay) {
    RunDualPhaseReplay();
    return;
  }
  GiveUpToHumans();
}

void RobustController::EvictAndRestart(std::vector<MachineId> machines,
                                       ResolutionMechanism mechanism, SimDuration localization) {
  job_->Stop();
  episode_->restart_in_progress = true;
  episode_->tried_eviction = true;
  episode_->localize_done_time = sim_->Now() + localization;

  // Keep only machines actually serving the job.
  std::vector<int> slots;
  for (MachineId m : machines) {
    const int slot = cluster_->SlotOfMachine(m);
    if (slot >= 0) {
      slots.push_back(slot);
    }
  }
  const int k = static_cast<int>(slots.size());
  evictions_total_ += k;

  std::vector<MachineId> replacements = standby_pool_->Claim(k);
  const int shortfall = k - static_cast<int>(replacements.size());
  for (int i = 0; i < shortfall; ++i) {
    // Reschedule path. Reserve the fresh machine (kStandbySleep keeps it out
    // of IdleMachines()) so no standby pool adopts it before the deferred
    // ReplaceSlot below installs it.
    const MachineId fresh = cluster_->AddMachine();
    cluster_->machine(fresh).set_state(MachineState::kStandbySleep);
    replacements.push_back(fresh);
  }

  const int scale = cluster_->num_training_slots();
  SimDuration scheduling =
      shortfall > 0 ? config_.restart_costs.RescheduleTime(scale, shortfall)
                    : config_.restart_costs.StandbyWakeTime(k);
  if (k == 0) {
    scheduling = config_.restart_costs.HotUpdateTime(scale);  // nothing to swap
  }
  const SimDuration failover =
      scheduling + ckpt_->LoadTime(!config_.local_checkpoint_restore);

  sim_->Schedule(localization, [this, slots, replacements, mechanism, failover] {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      cluster_->ReplaceSlot(slots[i], replacements[i]);
    }
    standby_pool_->Replenish(standby_pool_->TargetSize(cluster_->num_training_slots()));
    RestartJob(failover, mechanism);
  });
}

void RobustController::ReattemptRestart(SimDuration localization) {
  job_->Stop();
  episode_->restart_in_progress = true;
  episode_->tried_reattempt = true;
  episode_->localize_done_time = sim_->Now() + localization;
  const SimDuration failover =
      config_.restart_costs.HotUpdateTime(cluster_->num_training_slots()) +
      ckpt_->LoadTime(!config_.local_checkpoint_restore);
  sim_->Schedule(localization, [this, failover] {
    RestartJob(failover, ResolutionMechanism::kReattempt);
  });
}

void RobustController::RollbackRestart(SimDuration localization) {
  job_->Stop();
  episode_->restart_in_progress = true;
  episode_->tried_rollback = true;
  episode_->localize_done_time = sim_->Now() + localization;
  const SimDuration failover =
      config_.restart_costs.HotUpdateTime(cluster_->num_training_slots()) +
      ckpt_->LoadTime(!config_.local_checkpoint_restore);
  sim_->Schedule(localization, [this, failover] {
    job_->RollbackCodeVersion();
    RestartJob(failover, ResolutionMechanism::kRollback);
  });
}

void RobustController::RunStopTimeChecks(bool nan_suite) {
  job_->Stop();
  episode_->restart_in_progress = true;
  episode_->tried_stop_time = true;
  // The suite consumes simulated time before the verdict lands; evaluate the
  // cluster at verdict time so transient faults that healed meanwhile come
  // back clean and flow into the reattempt path (step 5).
  const SimDuration probe =
      nan_suite ? diagnoser_->config().eud_duration + diagnoser_->config().intra_machine_duration +
                      diagnoser_->config().inter_machine_duration +
                      diagnoser_->config().bitwise_alignment_duration
                : diagnoser_->config().eud_duration + diagnoser_->config().intra_machine_duration;
  sim_->Schedule(probe, [this, nan_suite] {
    const DiagnosisResult result =
        nan_suite ? diagnoser_->RunNanSuite(*cluster_) : diagnoser_->RunNcclSuite(*cluster_);
    BR_LOG_INFO("controller", "stop-time checks ran %zu tests, %zu suspects",
                result.tests_run.size(), result.suspects.size());
    if (result.HasSuspects()) {
      EvictAndRestart(result.suspects, ResolutionMechanism::kAutoFtEvictRestart, 0);
    } else {
      ReattemptRestart(0);
    }
  });
}

void RobustController::RunAggregationAnalysis() {
  sim_->Schedule(config_.aggregation_latency, [this] {
    const Rank culprit = job_->hang_culprit();
    if (culprit < 0) {
      RunStopTimeChecks(false);
      return;
    }
    HangSite site = HangSite::kTensorCollective;
    // Topology "machines" are training slots; translate to the cluster
    // machine currently serving that slot.
    const int culprit_slot = job_->topology().MachineOfRank(culprit);
    if (episode_->incident.root_cause == RootCause::kUserCode) {
      site = HangSite::kDataLoader;
    } else {
      const Machine& m = cluster_->machine(cluster_->MachineAtSlot(culprit_slot));
      for (int g = 0; g < m.num_gpus(); ++g) {
        if (m.gpu(g).comm_defect) {
          site = HangSite::kPipelineP2p;
        }
      }
    }
    const auto stacks = SynthesizeFullPodStacks(job_->topology(), culprit, site);
    const AggregationResult result = analyzer_.Analyze(stacks, job_->topology());
    if (result.machines_to_evict.empty()) {
      RunStopTimeChecks(false);
      return;
    }
    std::vector<MachineId> machines;
    machines.reserve(result.machines_to_evict.size());
    for (MachineId slot : result.machines_to_evict) {
      machines.push_back(cluster_->MachineAtSlot(slot));
    }
    BR_LOG_INFO("controller", "aggregation isolated %zu machines (%s group)", machines.size(),
                result.found_group ? GroupKindName(result.isolated_group.kind) : "no");
    EvictAndRestart(machines, ResolutionMechanism::kAnalyzerEvictRestart, 0);
  });
}

void RobustController::RunFailSlowVoting(int round, std::shared_ptr<FailSlowVoter> voter) {
  sim_->Schedule(config_.failslow_round_interval, [this, round, voter] {
    // Ground truth for the synthesized snapshot: the slowest serving machine.
    // A machine absent from the suspect index is provably nominal (clock
    // ratio 1.0, never below the 0.95 gate), so scanning only suspects finds
    // exactly what a full serving scan would.
    MachineId slow = -1;
    double slowest = 0.95;
    for (MachineId id : cluster_->SuspectServingMachines()) {
      const Machine& m = cluster_->machine(id);
      for (int g = 0; g < m.num_gpus(); ++g) {
        if (m.gpu(g).clock_ratio < slowest) {
          slowest = m.gpu(g).clock_ratio;
          slow = id;
        }
      }
    }
    AggregationResult result;
    if (slow >= 0) {
      result = analyzer_.Analyze(
          SynthesizeFailSlowStacks(job_->topology(), cluster_->SlotOfMachine(slow),
                                   static_cast<std::uint64_t>(sim_->Now() + round)),
          job_->topology());
    }
    voter->AddRound(result);
    if (!voter->Ready()) {
      RunFailSlowVoting(round + 1, voter);
      return;
    }
    GroupKind kind;
    int index;
    if (!voter->Decide(&kind, &index)) {
      ReattemptRestart(0);
      return;
    }
    // Over-evict the flagged group's machines.
    if (index < 0 || index >= job_->topology().NumGroups(kind)) {
      ReattemptRestart(0);
      return;
    }
    std::vector<MachineId> machines = job_->topology().GroupMachines(kind, index);
    for (MachineId& slot : machines) {
      slot = cluster_->MachineAtSlot(slot);
    }
    EvictAndRestart(machines, ResolutionMechanism::kAnalyzerEvictRestart, 0);
  });
}

void RobustController::RunDualPhaseReplay() {
  job_->Stop();
  episode_->restart_in_progress = true;
  episode_->tried_replay = true;
  const int z = cluster_->num_training_slots();
  const ParallelismConfig& par = job_->config().parallelism;
  const int m = PickReplayGroupSize(z, par.pp);
  DualPhaseReplay replay(z, m);

  auto oracle = [this](const std::vector<MachineId>& slots) {
    for (MachineId slot : slots) {
      const Machine& machine = cluster_->machine(cluster_->MachineAtSlot(slot));
      // Replaying the reduced job on a group containing the faulty machine
      // reproduces the failure (probabilistically, for SDC).
      bool bad = machine.HasSdc() || machine.state() == MachineState::kFaulty ||
                 machine.state() == MachineState::kDegraded;
      for (int g = 0; g < machine.num_gpus(); ++g) {
        bad = bad || machine.gpu(g).comm_defect || !machine.gpu(g).hbm_ok;
      }
      if (bad && rng_.Bernoulli(config_.replay_reproduce_prob)) {
        return true;
      }
    }
    return false;
  };
  const ReplayOutcome outcome = replay.Locate(oracle, config_.replay_duration);
  sim_->Schedule(outcome.elapsed, [this, outcome] {
    if (outcome.found) {
      std::vector<MachineId> machines;
      for (MachineId slot : outcome.suspects) {
        machines.push_back(cluster_->MachineAtSlot(slot));
      }
      BR_LOG_INFO("controller", "dual-phase replay isolated %zu suspects", machines.size());
      EvictAndRestart(machines, ResolutionMechanism::kDualPhaseReplay, 0);
    } else {
      GiveUpToHumans();
    }
  });
}

void RobustController::GiveUpToHumans() {
  // No automated conclusion (Fig. 5 "No Conclusion -> Human"). Humans run
  // long offline stress testing (the paper cites 1.5 h of manual diagnosis
  // and 8+ h for one SDC) and eventually isolate the true faulty machines.
  job_->Stop();
  const SimDuration manual_diagnosis = Hours(1.5);
  const std::vector<MachineId> machines = episode_->incident.faulty_machines;
  if (machines.empty()) {
    sim_->Schedule(manual_diagnosis, [this] {
      job_->RollbackCodeVersion();
      RestartJob(config_.restart_costs.HotUpdateTime(cluster_->num_training_slots()),
                 ResolutionMechanism::kUnresolvedHuman);
    });
  } else {
    EvictAndRestart(machines, ResolutionMechanism::kUnresolvedHuman, manual_diagnosis);
  }
}

void RobustController::RestartJob(SimDuration failover, ResolutionMechanism mechanism) {
  episode_->restart_in_progress = true;
  episode_->last_mechanism = mechanism;
  if (episode_->localize_done_time == 0) {
    episode_->localize_done_time = sim_->Now();
  }
  sim_->Schedule(failover, [this, mechanism] { FinishRestart(mechanism); });
}

void RobustController::FinishRestart(ResolutionMechanism mechanism) {
  // Lazy hot updates ride along with the recovery (Sec. 6.1).
  for (const CodeVersion& v : hot_updates_->TakePending(/*merged_into_recovery=*/true)) {
    job_->ApplyCodeVersion(v);
    IncidentResolution manual;
    manual.incident.symptom = IncidentSymptom::kCodeDataAdjustment;
    manual.incident.root_cause = RootCause::kUserCode;
    manual.incident.inject_time = sim_->Now();
    manual.mechanism = ResolutionMechanism::kAutoFtHotUpdate;
    manual.detect_time = sim_->Now();
    manual.localize_done_time = sim_->Now();
    manual.restart_done_time = sim_->Now();
    manual.resolved = true;
    log_.Add(manual);
  }

  job_->RollbackToStep(std::min(ckpt_->RestorableResumeStep(), job_->max_step_reached()));
  job_->Start();
  monitor_->OnJobRestart();
  if (episode_.has_value()) {
    episode_->restart_in_progress = false;
    episode_->last_restart_time = sim_->Now();
    episode_->last_mechanism = mechanism;
    if (mechanism == ResolutionMechanism::kUnresolvedHuman) {
      // Human intervention is the terminal rung of the ladder: the episode
      // closes immediately (humans isolated the fault offline).
      CloseEpisode(true);
    } else {
      ScheduleStabilityCheck();
    }
  }
  if (restart_listener_) {
    restart_listener_(mechanism);
  }
}

void RobustController::ScheduleStabilityCheck() {
  const std::uint64_t epoch = ++stability_epoch_;
  sim_->Schedule(config_.stable_window, [this, epoch] {
    if (!episode_.has_value() || episode_->restart_in_progress || epoch != stability_epoch_) {
      return;
    }
    if (sim_->Now() - episode_->last_restart_time >= config_.stable_window) {
      CloseEpisode(true);
    }
  });
}

void RobustController::CloseEpisode(bool resolved) {
  if (!episode_.has_value()) {
    return;
  }
  IncidentResolution res;
  res.incident = episode_->incident;
  res.mechanism = episode_->last_mechanism;
  res.inject_time = episode_->incident.inject_time;
  res.detect_time = episode_->detect_time;
  res.localize_done_time = std::max(episode_->localize_done_time, episode_->detect_time);
  res.restart_done_time = std::max(episode_->last_restart_time, res.localize_done_time);
  res.escalations = episode_->escalation;
  res.resolved = resolved;
  log_.Add(res);
  BR_LOG_INFO("controller", "episode closed (%s, %s, unproductive=%s)",
              MechanismName(res.mechanism), resolved ? "resolved" : "unresolved",
              FormatDuration(res.TotalUnproductive()).c_str());
  episode_.reset();
}

void RobustController::RequestHotUpdateRestart() {
  if (episode_.has_value()) {
    return;  // pending updates will merge into the in-flight recovery
  }
  job_->Stop();
  const SimDuration failover =
      config_.restart_costs.HotUpdateTime(cluster_->num_training_slots()) +
      ckpt_->LoadTime(!config_.local_checkpoint_restore);
  sim_->Schedule(failover, [this] {
    for (const CodeVersion& v : hot_updates_->TakePending(/*merged_into_recovery=*/false)) {
      job_->ApplyCodeVersion(v);
      IncidentResolution manual;
      manual.incident.symptom = IncidentSymptom::kCodeDataAdjustment;
      manual.incident.root_cause = RootCause::kUserCode;
      manual.incident.inject_time = sim_->Now();
      manual.mechanism = ResolutionMechanism::kAutoFtHotUpdate;
      manual.detect_time = sim_->Now();
      manual.localize_done_time = sim_->Now();
      manual.restart_done_time = sim_->Now();
      manual.resolved = true;
      log_.Add(manual);
    }
    job_->RollbackToStep(std::min(ckpt_->RestorableResumeStep(), job_->max_step_reached()));
    job_->Start();
    monitor_->OnJobRestart();
    if (restart_listener_) {
      restart_listener_(ResolutionMechanism::kAutoFtHotUpdate);
    }
  });
}

}  // namespace byterobust
