// Unit + property tests for checkpointing: size model, Table 8 cost model,
// cross-parallel-group backup strategy (Fig. 9) and the runtime manager.

#include <gtest/gtest.h>

#include <set>

#include "src/ckpt/backup_strategy.h"
#include "src/ckpt/ckpt_manager.h"
#include "src/ckpt/cost_model.h"
#include "src/ckpt/size_model.h"
#include "src/training/job_config.h"

namespace byterobust {
namespace {

TEST(SizeModelTest, ShardingArithmetic) {
  const JobConfig cfg = Table5Job70B(128);  // TP=8 PP=8 DP=32, 2048 GPUs
  // Model: 70e9 * 2 B / 64 shards ~ 2.19 GB per rank.
  EXPECT_NEAR(CheckpointSizeModel::ModelBytesPerRank(cfg) / 1e9, 2.19, 0.01);
  // Optimizer (ZeRO-1): 70e9 * 12 B / 2048 ~ 0.41 GB per rank.
  EXPECT_NEAR(CheckpointSizeModel::OptimizerBytesPerRank(cfg) / 1e9, 0.41, 0.01);
  EXPECT_NEAR(CheckpointSizeModel::TotalBytesPerRank(cfg) / 1e9, 2.60, 0.02);
  // Whole job: 14 B/param -> ~980 GB.
  EXPECT_NEAR(CheckpointSizeModel::TotalJobBytes(cfg) / 1e9, 980.0, 1.0);
}

TEST(CostModelTest, Table8OrderingHolds) {
  CheckpointCostModel model;
  for (auto scale : {128, 256}) {
    const JobConfig cfg = Table5Job70B(scale);
    const SimDuration step = Seconds(4.3);
    const CkptCost megatron = model.Evaluate(CkptApproach::kMegatronSave, cfg, step);
    const CkptCost memory = model.Evaluate(CkptApproach::kMemorySave, cfg, step);
    const CkptCost ours = model.Evaluate(CkptApproach::kByteRobustSave, cfg, step);
    EXPECT_GT(megatron.blocking_per_step, memory.blocking_per_step);
    EXPECT_GT(memory.blocking_per_step, ours.blocking_per_step);
    EXPECT_LT(megatron.relative_mfu, memory.relative_mfu);
    EXPECT_LT(memory.relative_mfu, ours.relative_mfu);
    // Headline claims: ByteRobust save keeps MFU >= 99% and blocks < 0.1 s.
    EXPECT_GE(ours.relative_mfu, 0.99);
    EXPECT_LE(ToSeconds(ours.blocking_per_step), 0.1);
  }
}

TEST(CostModelTest, MegatronBlockingMatchesPaperMagnitude) {
  CheckpointCostModel model;
  // Paper Table 8: 6.77 s blocking for the 70B job at 128 machines.
  const CkptCost c = model.Evaluate(CkptApproach::kMegatronSave, Table5Job70B(128), Seconds(4.3));
  EXPECT_NEAR(ToSeconds(c.blocking_per_step), 6.5, 1.0);
  // ~13 s for the 256B job (paper: 13.02 s).
  const CkptCost c2 =
      model.Evaluate(CkptApproach::kMegatronSave, Table5Job256B(512), Seconds(9.8));
  EXPECT_NEAR(ToSeconds(c2.blocking_per_step), 11.0, 2.5);
}

TEST(CostModelTest, HiddenWorkFitsWithinTheStep) {
  CheckpointCostModel model;
  const JobConfig cfg = Table5Job256B(1024);
  const SimDuration step = Seconds(9.8);
  const CkptCost ours = model.Evaluate(CkptApproach::kByteRobustSave, cfg, step);
  // The overlap story only holds if the async D2H and backup sends fit in a
  // step; otherwise saves would pile up.
  EXPECT_LT(ours.hidden_d2h, step);
  EXPECT_LT(ours.hidden_backup_send, step);
}

TEST(CostModelTest, ApproachNames) {
  EXPECT_STREQ(CkptApproachName(CkptApproach::kMegatronSave), "Megatron save");
  EXPECT_STREQ(CkptApproachName(CkptApproach::kByteRobustSave), "ByteRobust save");
}

// ---- Backup strategy -------------------------------------------------------

Topology Fig9Topology() {
  ParallelismConfig cfg;
  cfg.tp = 2;
  cfg.pp = 4;
  cfg.dp = 2;
  cfg.gpus_per_machine = 2;
  return Topology(cfg);
}

TEST(BackupPlanTest, Fig9Assignments) {
  const Topology topo = Fig9Topology();
  BackupPlan plan(topo);
  EXPECT_TRUE(plan.cross_group());
  EXPECT_EQ(plan.TargetOf(8), 2);
  EXPECT_EQ(plan.TargetOf(9), 3);
  EXPECT_TRUE(plan.SatisfiesCrossGroupInvariant(topo));
}

TEST(BackupPlanTest, SurvivesEveryGroupEviction) {
  const Topology topo = Fig9Topology();
  BackupPlan plan(topo);
  for (GroupKind kind : {GroupKind::kTensor, GroupKind::kPipeline, GroupKind::kData}) {
    for (const ParallelGroup& g : topo.Groups(kind)) {
      EXPECT_TRUE(plan.SurvivesGroupEviction(topo, g))
          << "shards lost when evicting " << GroupKindName(kind) << " group " << g.index;
    }
  }
}

TEST(BackupPlanTest, DetectsLossWhenEvictingPartnerPairs) {
  const Topology topo = Fig9Topology();
  BackupPlan plan(topo);
  // Evicting a rank's machine AND its backup target's machine loses a shard.
  const Rank owner = 8;
  const MachineId m1 = topo.MachineOfRank(owner);
  const MachineId m2 = topo.MachineOfRank(plan.TargetOf(owner));
  EXPECT_FALSE(plan.SurvivesEviction(topo, {m1, m2}));
}

TEST(BackupPlanTest, DegenerateConfigFallsBackToNeighbor) {
  ParallelismConfig cfg;
  cfg.tp = 1;
  cfg.pp = 1;
  cfg.dp = 8;  // pure ZeRO-style data parallelism
  cfg.gpus_per_machine = 2;
  const Topology topo(cfg);
  BackupPlan plan(topo);
  EXPECT_FALSE(plan.cross_group());
  EXPECT_FALSE(plan.SatisfiesCrossGroupInvariant(topo));
  // Neighbor backup: rank 0 (machine 0) backs up on machine 1, same local slot.
  EXPECT_EQ(plan.TargetOf(0), 2);
  // Single-machine eviction still survives.
  EXPECT_TRUE(plan.SurvivesEviction(topo, {0}));
}

struct PlanCase {
  int tp, pp, dp, gpm;
};

class BackupPlanProperty : public ::testing::TestWithParam<PlanCase> {};

TEST_P(BackupPlanProperty, CrossGroupInvariantAndPpEvictionSafety) {
  const auto& c = GetParam();
  ParallelismConfig cfg;
  cfg.tp = c.tp;
  cfg.pp = c.pp;
  cfg.dp = c.dp;
  cfg.gpus_per_machine = c.gpm;
  const Topology topo(cfg);
  BackupPlan plan(topo);
  if (c.pp >= 2 && c.dp >= 2) {
    EXPECT_TRUE(plan.SatisfiesCrossGroupInvariant(topo));
    // The motivating case: over-evicting any whole PP group (Sec. 5) must
    // never lose a shard.
    for (const ParallelGroup& g : topo.Groups(GroupKind::kPipeline)) {
      EXPECT_TRUE(plan.SurvivesGroupEviction(topo, g));
    }
  }
  // Single-machine evictions are always safe.
  for (MachineId m = 0; m < topo.num_machines(); ++m) {
    EXPECT_TRUE(plan.SurvivesEviction(topo, {m}));
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, BackupPlanProperty,
                         ::testing::Values(PlanCase{2, 4, 2, 2}, PlanCase{2, 4, 4, 2},
                                           PlanCase{8, 8, 4, 16}, PlanCase{4, 2, 2, 4},
                                           PlanCase{1, 4, 4, 2}, PlanCase{2, 2, 8, 8},
                                           PlanCase{1, 1, 8, 2}, PlanCase{8, 16, 4, 16}));

// The pre-bitmask algorithm, kept as a reference: build the owner's forbidden
// machine sets with std::set and walk the same (tier, j, k) candidate order.
// The optimized constructor must pick byte-for-byte identical targets.
Rank ReferenceCrossGroupTarget(const Topology& topo, Rank r) {
  const ParallelismConfig& cfg = topo.config();
  const RankCoord c = topo.CoordOf(r);
  std::set<MachineId> pp_machines;
  for (Rank peer : topo.PipelineGroupOf(r)) {
    pp_machines.insert(topo.MachineOfRank(peer));
  }
  std::set<MachineId> all_machines = pp_machines;
  for (Rank peer : topo.DataGroupOf(r)) {
    all_machines.insert(topo.MachineOfRank(peer));
  }
  for (Rank peer : topo.TensorGroupOf(r)) {
    all_machines.insert(topo.MachineOfRank(peer));
  }
  for (const std::set<MachineId>* forbidden : {&all_machines, &pp_machines}) {
    for (int j = 1; j < cfg.pp; ++j) {
      for (int k = 1; k < cfg.dp; ++k) {
        RankCoord pc = c;
        pc.pp = (c.pp + j) % cfg.pp;
        pc.dp = (c.dp + k) % cfg.dp;
        const Rank candidate = topo.RankOf(pc);
        if (forbidden->count(topo.MachineOfRank(candidate)) == 0) {
          return candidate;
        }
      }
    }
  }
  return -1;  // caller falls back to the neighbor rule
}

TEST_P(BackupPlanProperty, MatchesSetBasedReferenceImplementation) {
  const auto& c = GetParam();
  ParallelismConfig cfg;
  cfg.tp = c.tp;
  cfg.pp = c.pp;
  cfg.dp = c.dp;
  cfg.gpus_per_machine = c.gpm;
  const Topology topo(cfg);
  if (cfg.pp < 2 || cfg.dp < 2) {
    GTEST_SKIP() << "degenerate config: both implementations use the neighbor rule";
  }
  BackupPlan plan(topo);
  for (Rank r = 0; r < topo.world_size(); ++r) {
    const Rank want = ReferenceCrossGroupTarget(topo, r);
    if (want >= 0) {
      EXPECT_EQ(plan.TargetOf(r), want) << "rank " << r;
    }
  }
}

// ---- Runtime manager -------------------------------------------------------

JobConfig SmallJob() {
  JobConfig cfg;
  cfg.parallelism.tp = 2;
  cfg.parallelism.pp = 2;
  cfg.parallelism.dp = 2;
  cfg.parallelism.gpus_per_machine = 2;
  cfg.base_step_time = Seconds(10);
  cfg.model_params_b = 0.7;  // tiny model: 8 ranks hold realistic shard sizes
  return cfg;
}

class CkptManagerTest : public ::testing::Test {
 protected:
  CkptManagerTest()
      : cluster_(4, 2, 1),
        job_(SmallJob(), &sim_, &cluster_, 1),
        mgr_(CkptManagerConfig{}, &sim_, &job_) {
    job_.AddRunObserver([this](const StepRun& run) { mgr_.OnRun(run); });
  }

  Simulator sim_;
  Cluster cluster_;
  TrainJob job_;
  CheckpointManager mgr_;
};

TEST_F(CkptManagerTest, NothingDurableBeforeFirstSave) {
  EXPECT_EQ(mgr_.durable_step(), -1);
  EXPECT_EQ(mgr_.RestorableResumeStep(), 0);
}

TEST_F(CkptManagerTest, EveryStepSaveTracksProgress) {
  job_.Start();
  sim_.RunUntil(Seconds(45));  // 4 steps; saves have sub-second latency
  EXPECT_GE(mgr_.saves_completed(), 3);
  EXPECT_GE(mgr_.durable_step(), 2);
  EXPECT_LE(mgr_.RestorableResumeStep(), job_.resume_step());
  // The unsaved interval is at most the in-flight step (every-step ckpt).
  EXPECT_GE(mgr_.RestorableResumeStep(), job_.resume_step() - 2);
}

TEST_F(CkptManagerTest, SaveLatencyIsSmallVsStep) {
  EXPECT_LT(mgr_.SaveLatency(), Seconds(10) / 4);
}

TEST_F(CkptManagerTest, LocalRestoreBeatsRemote) {
  const SimDuration local = mgr_.LoadTime(/*from_remote=*/false);
  const SimDuration remote = mgr_.LoadTime(/*from_remote=*/true);
  EXPECT_LT(local, remote);
  EXPECT_GT(static_cast<double>(remote) / static_cast<double>(local), 10.0);
}

TEST_F(CkptManagerTest, EvictionSurvivability) {
  EXPECT_TRUE(mgr_.CanRestoreAfterEviction({0}));
  // Machines {0, 1} form a PP group's machines (dp=0 column): the
  // over-eviction-aware plan survives losing the whole group.
  EXPECT_TRUE(mgr_.CanRestoreAfterEviction({0, 1}));
  // Arbitrary machine pairs that pair every primary with its backup are not
  // covered by the guarantee; {1, 2} contains rank 2's primary (machine 1)
  // and its backup target rank 4 (machine 2).
  EXPECT_FALSE(mgr_.CanRestoreAfterEviction({0, 1, 2, 3}));
}

TEST_F(CkptManagerTest, SavesScheduleNoSimulatorEvents) {
  job_.Start();
  sim_.RunUntil(Seconds(45));  // 4 steps; each starts a save
  // Save durability is folded lazily at query time: no completion events sit
  // in the queue capping the batched step loop (only the next step pends).
  EXPECT_LE(sim_.pending_events(), 2u);
  EXPECT_GE(mgr_.saves_started(), 4);
  EXPECT_GE(mgr_.saves_completed(), 3);
  EXPECT_LE(mgr_.in_flight(), 2);
}

TEST_F(CkptManagerTest, SaveEveryNSteps) {
  CkptManagerConfig cfg;
  cfg.save_every_steps = 2;
  CheckpointManager sparse(cfg, &sim_, &job_);
  job_.AddRunObserver([&sparse](const StepRun& run) { sparse.OnRun(run); });
  job_.Start();
  sim_.RunUntil(Seconds(45));  // steps 0..3 complete
  EXPECT_EQ(sparse.saves_started(), 2);  // steps 0 and 2 only
}

// Frozen campaign template: one immutable BackupPlan per parallelism config,
// identical in content to a freshly built plan.
TEST(BackupPlanTest, SharedBackupPlanCachesPerConfig) {
  ParallelismConfig cfg;
  cfg.tp = 2;
  cfg.pp = 4;
  cfg.dp = 2;
  cfg.gpus_per_machine = 2;
  const auto topo = SharedTopology(cfg);
  const auto a = SharedBackupPlan(*topo);
  const auto b = SharedBackupPlan(*topo);
  EXPECT_EQ(a.get(), b.get());

  const BackupPlan fresh(*topo);
  ASSERT_EQ(a->assignments().size(), fresh.assignments().size());
  for (std::size_t i = 0; i < fresh.assignments().size(); ++i) {
    EXPECT_EQ(a->assignments()[i].target, fresh.assignments()[i].target);
  }
  EXPECT_EQ(a->cross_group(), fresh.cross_group());

  ParallelismConfig other = cfg;
  other.dp = 4;
  const auto c = SharedBackupPlan(*SharedTopology(other));
  EXPECT_NE(a.get(), c.get());
}

}  // namespace
}  // namespace byterobust
