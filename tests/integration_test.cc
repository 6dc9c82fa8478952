// Integration tests: full campaign runs through the Scenario runner,
// exercising injector -> monitor -> controller -> recovery -> metrics.

#include <gtest/gtest.h>

#include "src/core/scenario.h"

namespace byterobust {
namespace {

ScenarioConfig SmallCampaign(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.system.job.name = "integration";
  cfg.system.job.parallelism.tp = 2;
  cfg.system.job.parallelism.pp = 4;
  cfg.system.job.parallelism.dp = 4;
  cfg.system.job.parallelism.gpus_per_machine = 2;
  cfg.system.job.base_step_time = Seconds(15);
  cfg.system.job.model_params_b = 0.7;
  cfg.system.seed = seed;
  cfg.system.spare_machines = 24;
  cfg.system.monitor = CampaignMonitorConfig();
  cfg.system.monitor.hang_grace = Minutes(5);
  cfg.system.standby.provision_time = Minutes(10);
  cfg.duration = Days(3);
  // A 16-machine job fails rarely; crank the rate so a 3-day window sees a
  // representative incident mix.
  cfg.injector.reference_mtbf = Hours(2.0);
  cfg.injector.reference_machines = 16;
  cfg.planned_updates = 6;
  cfg.final_efficiency = 1.25;
  return cfg;
}

TEST(ScenarioIntegrationTest, CampaignRunsAndRecovers) {
  Scenario scenario(SmallCampaign(11));
  scenario.Run();
  ByteRobustSystem& sys = scenario.system();

  // Dozens of incidents were injected and training still progresses.
  EXPECT_GT(scenario.stats().incidents_injected, 10);
  EXPECT_GT(sys.job().max_step_reached(), 1000);

  // The controller resolved incidents across multiple mechanisms.
  const ResolutionLog& log = sys.controller().log();
  EXPECT_GT(log.size(), 5u);
  int resolved = 0;
  for (const auto& r : log.entries()) {
    if (r.resolved) {
      ++resolved;
    }
  }
  EXPECT_GT(resolved, 0);
  EXPECT_GE(static_cast<double>(resolved) / static_cast<double>(log.size()), 0.9);
}

TEST(ScenarioIntegrationTest, EttrStaysHigh) {
  Scenario scenario(SmallCampaign(12));
  scenario.Run();
  ByteRobustSystem& sys = scenario.system();
  const double ettr = sys.ettr().CumulativeEttr(sys.sim().Now());
  // The paper sustains ~0.97 at production fault rates; with our deliberately
  // cranked fault rate the campaign should still stay clearly productive.
  EXPECT_GT(ettr, 0.75);
  EXPECT_LE(ettr, 1.0);
}

TEST(ScenarioIntegrationTest, HotUpdatesRaiseMfu) {
  Scenario scenario(SmallCampaign(13));
  scenario.Run();
  ByteRobustSystem& sys = scenario.system();
  EXPECT_GT(scenario.stats().updates_submitted, 0);
  // All submitted updates eventually applied (possibly minus a rollback).
  EXPECT_GE(sys.hot_updates().applied_count(), scenario.stats().updates_submitted - 1);
  // Relative MFU improved over the campaign (Fig. 11's staircase).
  const std::vector<MfuSample> samples = sys.mfu_series().Samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_GT(samples.back().mfu, samples.front().mfu);
}

TEST(ScenarioIntegrationTest, DeterministicForFixedSeed) {
  Scenario a(SmallCampaign(42));
  a.Run();
  Scenario b(SmallCampaign(42));
  b.Run();
  EXPECT_EQ(a.stats().incidents_injected, b.stats().incidents_injected);
  EXPECT_EQ(a.system().job().max_step_reached(), b.system().job().max_step_reached());
  EXPECT_EQ(a.system().controller().log().size(), b.system().controller().log().size());
  EXPECT_DOUBLE_EQ(a.system().ettr().CumulativeEttr(a.system().sim().Now()),
                   b.system().ettr().CumulativeEttr(b.system().sim().Now()));
}

TEST(ScenarioIntegrationTest, DifferentSeedsDiverge) {
  Scenario a(SmallCampaign(1));
  a.Run();
  Scenario b(SmallCampaign(2));
  b.Run();
  // Not bitwise-identical campaigns (fault times differ).
  EXPECT_NE(a.system().job().max_step_reached(), b.system().job().max_step_reached());
}

TEST(ScenarioIntegrationTest, BlacklistedMachinesNeverServeAgain) {
  Scenario scenario(SmallCampaign(21));
  scenario.Run();
  ByteRobustSystem& sys = scenario.system();
  for (MachineId m : sys.cluster().ServingMachines()) {
    EXPECT_FALSE(sys.cluster().IsBlacklisted(m));
    // The campaign may end mid-incident (a serving machine can be kFaulty
    // while its episode is being handled), but an evicted machine must never
    // still hold a slot.
    EXPECT_NE(sys.cluster().machine(m).state(), MachineState::kEvicted);
  }
}

TEST(ScenarioIntegrationTest, RecomputeIsBoundedByEveryStepCheckpointing) {
  Scenario scenario(SmallCampaign(31));
  scenario.Run();
  ByteRobustSystem& sys = scenario.system();
  // With every-step in-memory checkpointing, lost work per incident is at
  // most ~2 steps; across the whole campaign recompute stays tiny relative
  // to productive time.
  EXPECT_LT(static_cast<double>(sys.ettr().recompute_time()),
            0.02 * static_cast<double>(sys.ettr().productive_time()));
}

}  // namespace
}  // namespace byterobust
