// The data-plane Monitor: runs inspection threads at per-category intervals,
// watches training metrics, and reports anomalies to the robust controller
// (paper Sec. 4.1).
//
// Quiescent monitoring (the default): inspection passes and the hang/crash
// watchdog stay on the same fixed time grid as the periodic reference path
// (anchor + k * interval), but stop re-arming while they provably cannot find
// anything — inspections while Cluster::SuspectServingMachines() is empty,
// the watchdog while the job is progressing and no hang can fire before
// last_progress + hang_grace. The cluster's health-epoch waker and a TrainJob
// state observer re-arm them on demand, so monitoring event traffic is
// proportional to incidents, not simulated time, and the batched step loop
// runs unimpeded between incidents. MonitorConfig::quiescent = false pins the
// periodic reference path (the CLI sets it from BYTEROBUST_QUIESCENT_MONITOR=0);
// campaign JSON is byte-identical either way.

#ifndef SRC_MONITOR_MONITOR_H_
#define SRC_MONITOR_MONITOR_H_

#include <map>
#include <set>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/monitor/anomaly.h"
#include "src/monitor/inspection.h"
#include "src/monitor/metrics_rules.h"
#include "src/sim/simulator.h"
#include "src/training/train_job.h"

namespace byterobust {

struct MonitorConfig {
  InspectionIntervals intervals;
  MetricsRulesConfig metrics;

  // Crash detection latency through log/exit-code scraping (~60 s, Sec. 2.2).
  SimDuration log_scrape_interval = Seconds(60);

  // Hang watchdog: declare a hang suspect when no step completed within
  // max(hang_grace, hang_step_factor x expected step time). This models the
  // "zero RDMA traffic within 10 minutes" rule of Sec. 4.1.
  SimDuration hang_grace = Minutes(10);
  double hang_step_factor = 4.0;
  SimDuration watchdog_interval = Seconds(30);

  // Consecutive unresponsive-switch events required before alerting.
  int switch_event_threshold = 2;

  // Quiescence-driven scheduling (see the file comment).
  bool quiescent = true;
};

class Monitor {
 public:
  Monitor(const MonitorConfig& config, Simulator* sim, Cluster* cluster, TrainJob* job);

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  void SetAnomalyHandler(AnomalyHandler handler) { handler_ = std::move(handler); }

  // Starts the recurring inspection + watchdog events.
  void Start();
  void Stop();
  bool running() const { return running_; }

  // True when this monitor runs the quiescent schedule.
  bool quiescent() const { return quiescent_; }

  // Clears per-run state (outstanding alerts, metric baselines) after the
  // controller restarts the job.
  void OnJobRestart();

  // Feeds a run of completed steps to the metric rules and emits what fires
  // (no-op while stopped). The owner wires it to TrainJob's run stream, and
  // QuietPrefix to the job's run splitting; the constructor does neither.
  void OnRun(const StepRun& run);

  // Leading steps of `run` on which no metric rule fires (all while stopped).
  std::int64_t QuietPrefix(const StepRun& run) const {
    return running_ ? rules_.QuietPrefix(run) : run.count;
  }

  // Number of anomaly reports emitted.
  std::uint64_t reports_emitted() const { return reports_emitted_; }

 private:
  static constexpr int kNumCategories = 3;
  static int CategoryIndex(InspectionCategory category) { return static_cast<int>(category); }

  void RunInspectionPass(InspectionCategory category);
  void RunWatchdog();
  void OnJobStateChange(JobRunState state);
  void Emit(AnomalyReport report);

  // -- quiescent scheduling helpers ------------------------------------------

  // First grid tick (anchor + k * interval, k >= 1) strictly after / at-or-
  // after `t`. The grid is what the periodic chain would have fired on, so a
  // re-armed pass lands exactly where the reference path's pass would.
  SimTime NextTickAfter(SimTime t, SimDuration interval) const;
  SimTime NextTickAtOrAfter(SimTime t, SimDuration interval) const;

  // Re-arms the pass for `category` (quiescent: only while suspects exist,
  // else parks on the cluster's mutation waker).
  void ArmInspection(InspectionCategory category);
  void ArmAllInspections();
  // Registers the one-shot cluster mutation waker (idempotent).
  void EnsureMutationWake();
  // (Re)computes when the watchdog must next run and (re)schedules the single
  // armed watchdog event accordingly; disarms when no predicate can fire
  // without an intervening state change.
  void ArmWatchdog();

  MonitorConfig config_;
  Simulator* sim_;
  Cluster* cluster_;
  TrainJob* job_;
  AnomalyHandler handler_;

  bool running_ = false;
  bool quiescent_ = true;
  std::uint64_t reports_emitted_ = 0;
  // De-duplication: (machine, symptom) pairs already reported this run.
  std::set<std::pair<MachineId, int>> outstanding_;
  std::map<MachineId, int> switch_event_counts_;
  MetricsRules rules_;
  bool crash_reported_ = false;
  bool hang_reported_ = false;

  // Quiescent-mode state. The anchor pins the periodic grid at Start() time.
  SimTime anchor_ = 0;
  bool inspection_armed_[kNumCategories] = {false, false, false};
  bool wake_requested_ = false;
  EventId watchdog_event_ = kInvalidEventId;
  SimTime watchdog_due_ = 0;
  // Why the armed wake exists. A crash-armed wake is enqueued by the crash
  // transition itself, so it sits *behind* any same-tick inspection passes
  // (armed moments earlier by the same incident's mutation waker) — exactly
  // where the periodic watchdog's crash check effectively lands, because a
  // same-tick pass that stops the job pre-empts it. A hang-armed wake was
  // enqueued long before the crash and would jump that queue, so it must not
  // evaluate the crash branch; discovering a pending crash, it re-arms a
  // same-timestamp crash wake at the back of the bucket instead.
  bool watchdog_crash_armed_ = false;
};

}  // namespace byterobust

#endif  // SRC_MONITOR_MONITOR_H_
