// Quiescence-driven monitoring: the quiescent schedule must report exactly
// what the periodic reference path reports (same sources, same detect times,
// same machines) while dispatching far fewer simulator events, and the
// cluster's one-shot mutation waker must re-arm parked passes on demand.

#include <gtest/gtest.h>

#include <vector>

#include "src/monitor/monitor.h"

namespace byterobust {
namespace {

JobConfig SmallJob() {
  JobConfig cfg;
  cfg.parallelism.tp = 2;
  cfg.parallelism.pp = 2;
  cfg.parallelism.dp = 2;
  cfg.parallelism.gpus_per_machine = 2;
  cfg.base_step_time = Seconds(10);
  return cfg;
}

MonitorConfig MakeConfig(bool quiescent) {
  MonitorConfig cfg;
  cfg.hang_grace = Minutes(10);
  cfg.quiescent = quiescent;
  return cfg;
}

struct Fixture {
  explicit Fixture(bool quiescent, const JobConfig& job_config = SmallJob())
      : cluster(4, 2, 1),
        job(job_config, &sim, &cluster, 1),
        monitor(MakeConfig(quiescent), &sim, &cluster, &job) {
    monitor.SetAnomalyHandler([this](const AnomalyReport& r) { reports.push_back(r); });
    job.SetQuietPrefix([this](const StepRun& run) { return monitor.QuietPrefix(run); });
    job.AddRunObserver([this](const StepRun& run) { monitor.OnRun(run); });
  }

  Simulator sim;
  Cluster cluster;
  TrainJob job;
  Monitor monitor;
  std::vector<AnomalyReport> reports;
};

// One incident script covering an inspection find, a heal, a crash+restart
// and a hang, applied identically to both fixtures.
void RunIncidentScript(Fixture& f) {
  f.monitor.Start();
  f.job.Start();
  f.sim.Schedule(Seconds(5), [&f] { f.cluster.machine(2).gpu(1).available = false; });
  f.sim.Schedule(Seconds(95), [&f] {
    f.cluster.machine(2).ResetHealth();
    f.cluster.machine(2).set_state(MachineState::kActive);
  });
  f.sim.Schedule(Seconds(120), [&f] { f.job.Crash(); });
  f.sim.Schedule(Seconds(300), [&f] {
    f.job.Start();
    f.monitor.OnJobRestart();
  });
  f.sim.Schedule(Seconds(400), [&f] { f.job.Hang(0); });
  f.sim.RunUntil(Minutes(25));
}

void ExpectSameReports(const Fixture& periodic, const Fixture& quiescent) {
  ASSERT_EQ(periodic.reports.size(), quiescent.reports.size());
  for (std::size_t i = 0; i < periodic.reports.size(); ++i) {
    EXPECT_EQ(periodic.reports[i].source, quiescent.reports[i].source) << "report " << i;
    EXPECT_EQ(periodic.reports[i].detect_time, quiescent.reports[i].detect_time)
        << "report " << i;
    EXPECT_EQ(periodic.reports[i].machines, quiescent.reports[i].machines) << "report " << i;
    EXPECT_EQ(periodic.reports[i].symptom_hint, quiescent.reports[i].symptom_hint)
        << "report " << i;
  }
}

TEST(QuiescentMonitorTest, ReportsMatchPeriodicReferenceExactly) {
  Fixture periodic(false);
  Fixture quiescent(true);
  RunIncidentScript(periodic);
  RunIncidentScript(quiescent);

  ExpectSameReports(periodic, quiescent);
  // The script yields an inspection hit, a crash-log report and a hang.
  ASSERT_GE(quiescent.reports.size(), 3u);
  EXPECT_EQ(quiescent.reports[0].source, AnomalySource::kInspection);
  EXPECT_EQ(quiescent.reports[1].source, AnomalySource::kCrashLog);
  EXPECT_EQ(quiescent.reports.back().source, AnomalySource::kHangSuspect);
}

// While the job runs steps no longer than hang_grace the hang predicate
// cannot fire, so the quiescent watchdog never wakes; the periodic one wakes
// every watchdog_interval.
TEST(QuiescentMonitorTest, RunningJobDispatchesNoWatchdogEvents) {
  Fixture periodic(false);
  Fixture quiescent(true);
  for (Fixture* f : {&periodic, &quiescent}) {
    f->monitor.Start();
    f->job.Start();
    f->sim.RunUntil(Hours(24));
    EXPECT_TRUE(f->reports.empty());
  }
  EXPECT_EQ(quiescent.monitor.watchdog_wakes(), 0u);
  EXPECT_EQ(periodic.monitor.watchdog_wakes(),
            static_cast<std::uint64_t>(Hours(24) / MonitorConfig{}.watchdog_interval));
}

// Steps longer than hang_grace are the running state in which the hang
// predicate can fire: a step slowed by a throttled GPU outlives the threshold
// once a heal shortens the current step time. The job announces such steps
// to its state observers, so the quiescent watchdog is armed for them even
// after a stretch of short steps had disarmed it.
TEST(QuiescentMonitorTest, LongStepsMatchPeriodicReference) {
  JobConfig job_config = SmallJob();
  job_config.base_step_time = Minutes(15);  // > hang_grace (10 min)
  Fixture periodic(false, job_config);
  Fixture quiescent(true, job_config);
  for (Fixture* f : {&periodic, &quiescent}) {
    f->monitor.Start();
    f->job.Start();
    // 2x faster code: 7.5 min steps, below hang_grace.
    f->sim.Schedule(Hours(1), [f] {
      f->job.ApplyCodeVersion(CodeVersion{1, 2.0, false, 0, false, "2x"});
    });
    // A throttled GPU stretches the next step to 75 min; the heal shortens
    // the current step time (threshold 30 min) while that step is in flight.
    f->sim.Schedule(Hours(3), [f] { f->cluster.machine(0).gpu(0).clock_ratio = 0.1; });
    f->sim.Schedule(Hours(3) + Minutes(20), [f] { f->cluster.machine(0).ResetHealth(); });
    f->sim.Schedule(Hours(5), [f] {
      f->job.Stop();
      f->job.Start();
      f->monitor.OnJobRestart();
    });
    f->sim.Schedule(Hours(6), [f] { f->job.Hang(0); });
    f->sim.RunUntil(Hours(8));
  }
  ExpectSameReports(periodic, quiescent);
  int hangs = 0;
  for (const AnomalyReport& r : quiescent.reports) {
    hangs += r.source == AnomalySource::kHangSuspect ? 1 : 0;
  }
  EXPECT_EQ(hangs, 2);  // the slow step, then the real hang
}

TEST(QuiescentMonitorTest, HealthyRunDispatchesFarFewerEvents) {
  Fixture periodic(false);
  Fixture quiescent(true);
  for (Fixture* f : {&periodic, &quiescent}) {
    f->monitor.Start();
    f->job.Start();
    f->sim.RunUntil(Hours(2));
  }
  EXPECT_TRUE(periodic.reports.empty());
  EXPECT_TRUE(quiescent.reports.empty());
  // Periodic: host passes alone tick every 2 s. Quiescent: the initial passes
  // and no watchdog wake.
  EXPECT_GT(periodic.sim.events_dispatched(), quiescent.sim.events_dispatched() * 20);
}

TEST(QuiescentMonitorTest, MutationWakeRearmsParkedInspections) {
  Fixture f(true);
  f.monitor.Start();
  f.job.Start();
  // Long healthy stretch: every inspection pass is parked on the waker.
  f.sim.RunUntil(Hours(1));
  ASSERT_TRUE(f.reports.empty());
  f.sim.Schedule(Seconds(1), [&f] { f.cluster.machine(1).host().os_kernel_ok = false; });
  f.sim.RunUntil(Hours(1) + Seconds(10));
  ASSERT_EQ(f.reports.size(), 1u);
  EXPECT_EQ(f.reports[0].symptom_hint, IncidentSymptom::kOsKernelPanic);
  // Host passes tick every 2 s on the grid: detection within one interval.
  EXPECT_LE(f.reports[0].detect_time, Hours(1) + Seconds(1) + Seconds(2));
}

TEST(QuiescentMonitorTest, ClusterMutationWakeIsOneShot) {
  Cluster cluster(2, 2);
  int fired = 0;
  cluster.RequestMutationWake([&fired] { ++fired; });
  cluster.machine(0).gpu(0).available = false;  // fires and clears the waker
  cluster.machine(1).host().nic_up = false;     // no waker registered anymore
  EXPECT_EQ(fired, 1);
  cluster.RequestMutationWake([&fired] { ++fired; });
  cluster.machine(0).ResetHealth();
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace byterobust
