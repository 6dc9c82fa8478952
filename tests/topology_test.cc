// Unit + property tests for the 3D-parallel topology. The concrete expectations
// come straight from the paper's figures: Fig. 7 (TP=2, PP=4, DP=4 on 16
// two-GPU machines) and Fig. 9 (TP=2, PP=4, DP=2 backup exchange).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/common/rng.h"
#include "src/topology/parallelism.h"

namespace byterobust {
namespace {

ParallelismConfig Fig7Config() {
  ParallelismConfig cfg;
  cfg.tp = 2;
  cfg.pp = 4;
  cfg.dp = 4;
  cfg.gpus_per_machine = 2;
  return cfg;
}

ParallelismConfig Fig9Config() {
  ParallelismConfig cfg;
  cfg.tp = 2;
  cfg.pp = 4;
  cfg.dp = 2;
  cfg.gpus_per_machine = 2;
  return cfg;
}

TEST(ParallelismConfigTest, Validity) {
  EXPECT_TRUE(Fig7Config().Valid());
  ParallelismConfig bad = Fig7Config();
  bad.gpus_per_machine = 3;  // 32 % 3 != 0
  EXPECT_FALSE(bad.Valid());
  bad = Fig7Config();
  bad.tp = 0;
  EXPECT_FALSE(bad.Valid());
  EXPECT_THROW(Topology{bad}, std::invalid_argument);
}

TEST(TopologyTest, Fig7MachinePlacement) {
  Topology topo(Fig7Config());
  EXPECT_EQ(topo.world_size(), 32);
  EXPECT_EQ(topo.num_machines(), 16);
  // Machine 15 hosts ranks 30, 31 (the last pipeline stage of dp group 3).
  EXPECT_EQ(topo.RanksOnMachine(15), (std::vector<Rank>{30, 31}));
  EXPECT_EQ(topo.MachineOfRank(30), 15);
}

TEST(TopologyTest, Fig7PipelineGroupSpansMachines12To15) {
  Topology topo(Fig7Config());
  // Rank 30 = (tp=0, pp=3, dp=3); its PP group walks pp = 0..3 at dp=3.
  const std::vector<Rank> pp_group = topo.PipelineGroupOf(30);
  EXPECT_EQ(pp_group, (std::vector<Rank>{24, 26, 28, 30}));
  std::set<MachineId> machines;
  for (Rank r : pp_group) {
    machines.insert(topo.MachineOfRank(r));
  }
  EXPECT_EQ(machines, (std::set<MachineId>{12, 13, 14, 15}));
}

TEST(TopologyTest, CoordRoundTripFig7) {
  Topology topo(Fig7Config());
  const RankCoord c = topo.CoordOf(30);
  EXPECT_EQ(c.tp, 0);
  EXPECT_EQ(c.pp, 3);
  EXPECT_EQ(c.dp, 3);
  EXPECT_EQ(topo.RankOf(c), 30);
}

TEST(TopologyTest, Fig9BackupPartnerIsRanks8To2) {
  Topology topo(Fig9Config());
  // Paper: "ranks 8 and 9 exchange their optimizer states with ranks 2 and 3,
  // ensuring that none share the same PP, DP, or TP groups."
  EXPECT_EQ(topo.BackupPartnerOf(8), 2);
  EXPECT_EQ(topo.BackupPartnerOf(9), 3);
  EXPECT_FALSE(topo.SharesAnyGroup(8, 2));
  EXPECT_FALSE(topo.SharesAnyGroup(9, 3));
}

TEST(TopologyTest, GroupIndexingIsDense) {
  Topology topo(Fig7Config());
  for (GroupKind kind : {GroupKind::kTensor, GroupKind::kPipeline, GroupKind::kData}) {
    const int n = topo.NumGroups(kind);
    std::set<int> seen;
    for (Rank r = 0; r < topo.world_size(); ++r) {
      const int idx = topo.GroupIndexOf(r, kind);
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, n);
      seen.insert(idx);
    }
    EXPECT_EQ(static_cast<int>(seen.size()), n);
  }
}

TEST(TopologyTest, GroupsPartitionTheWorld) {
  Topology topo(Fig7Config());
  for (GroupKind kind : {GroupKind::kTensor, GroupKind::kPipeline, GroupKind::kData}) {
    std::set<Rank> covered;
    for (const ParallelGroup& g : topo.Groups(kind)) {
      for (Rank r : g.ranks) {
        EXPECT_TRUE(covered.insert(r).second) << "rank in two groups of same kind";
      }
    }
    EXPECT_EQ(static_cast<int>(covered.size()), topo.world_size());
  }
}

TEST(TopologyTest, FindCoveringGroupPrefersPipeline) {
  Topology topo(Fig7Config());
  // Machines 12-15 are exactly one PP group (see Fig. 7).
  ParallelGroup group;
  ASSERT_TRUE(topo.FindCoveringGroup({12, 13, 14, 15}, &group));
  EXPECT_EQ(group.kind, GroupKind::kPipeline);
  EXPECT_EQ(topo.MachinesOfGroup(group), (std::vector<MachineId>{12, 13, 14, 15}));
}

TEST(TopologyTest, FindCoveringGroupSingleMachine) {
  Topology topo(Fig7Config());
  ParallelGroup group;
  ASSERT_TRUE(topo.FindCoveringGroup({5}, &group));
  const std::vector<MachineId> machines = topo.MachinesOfGroup(group);
  EXPECT_NE(std::find(machines.begin(), machines.end(), 5), machines.end());
}

TEST(TopologyTest, FindCoveringGroupFailsAcrossUnrelatedMachines) {
  Topology topo(Fig7Config());
  ParallelGroup group;
  // Machines 0 and 15 share no single TP/PP/DP group (different tp columns,
  // different dp, different pp rows at machine granularity).
  EXPECT_FALSE(topo.FindCoveringGroup({0, 5, 10, 15}, &group));
}

TEST(TopologyTest, OutOfRangeThrows) {
  Topology topo(Fig7Config());
  EXPECT_THROW(topo.CoordOf(-1), std::out_of_range);
  EXPECT_THROW(topo.CoordOf(32), std::out_of_range);
  EXPECT_THROW(topo.MachineOfRank(32), std::out_of_range);
  EXPECT_THROW(topo.RanksOnMachine(16), std::out_of_range);
}

// ---- Parameterized properties over a spread of configurations -------------

struct TopoCase {
  int tp, pp, dp, gpm;
};

class TopologyProperty : public ::testing::TestWithParam<TopoCase> {
 protected:
  Topology MakeTopo() const {
    const auto& c = GetParam();
    ParallelismConfig cfg;
    cfg.tp = c.tp;
    cfg.pp = c.pp;
    cfg.dp = c.dp;
    cfg.gpus_per_machine = c.gpm;
    return Topology(cfg);
  }
};

TEST_P(TopologyProperty, CoordRoundTripsForAllRanks) {
  Topology topo = MakeTopo();
  for (Rank r = 0; r < topo.world_size(); ++r) {
    EXPECT_EQ(topo.RankOf(topo.CoordOf(r)), r);
  }
}

TEST_P(TopologyProperty, GroupSizesMatchDegrees) {
  Topology topo = MakeTopo();
  const auto& cfg = topo.config();
  for (Rank r = 0; r < topo.world_size(); ++r) {
    EXPECT_EQ(topo.TensorGroupOf(r).size(), static_cast<std::size_t>(cfg.tp));
    EXPECT_EQ(topo.PipelineGroupOf(r).size(), static_cast<std::size_t>(cfg.pp));
    EXPECT_EQ(topo.DataGroupOf(r).size(), static_cast<std::size_t>(cfg.dp));
  }
}

TEST_P(TopologyProperty, BackupPartnerCrossesAllGroupsWhenNonDegenerate) {
  Topology topo = MakeTopo();
  const auto& cfg = topo.config();
  if (cfg.pp < 2 || cfg.dp < 2) {
    GTEST_SKIP() << "degenerate config uses neighbor fallback";
  }
  for (Rank r = 0; r < topo.world_size(); ++r) {
    const Rank partner = topo.BackupPartnerOf(r);
    EXPECT_NE(partner, r);
    EXPECT_FALSE(topo.SharesAnyGroup(r, partner))
        << "rank " << r << " backs up into its own parallel group";
  }
}

TEST_P(TopologyProperty, MachineMappingIsContiguousAndComplete) {
  Topology topo = MakeTopo();
  std::set<Rank> all;
  for (MachineId m = 0; m < topo.num_machines(); ++m) {
    for (Rank r : topo.RanksOnMachine(m)) {
      EXPECT_EQ(topo.MachineOfRank(r), m);
      all.insert(r);
    }
  }
  EXPECT_EQ(static_cast<int>(all.size()), topo.world_size());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TopologyProperty,
    ::testing::Values(TopoCase{2, 4, 4, 2}, TopoCase{2, 4, 2, 2}, TopoCase{8, 8, 4, 16},
                      TopoCase{4, 2, 8, 8}, TopoCase{1, 4, 4, 4}, TopoCase{2, 1, 8, 4},
                      TopoCase{8, 1, 1, 8}, TopoCase{1, 1, 16, 8}, TopoCase{8, 16, 4, 16},
                      // The Sec. 8.1 production shapes: 9,600-GPU dense and MoE.
                      TopoCase{8, 8, 150, 8}, TopoCase{8, 10, 120, 8}));

// The constructor-time lookup tables must answer exactly what the closed-form
// expressions answered before the precomputation refactor.
TEST_P(TopologyProperty, TableLookupsMatchFormulas) {
  Topology topo = MakeTopo();
  const auto& cfg = topo.config();
  for (Rank r = 0; r < topo.world_size(); ++r) {
    const RankCoord c = topo.CoordOf(r);
    EXPECT_EQ(c.tp, r % cfg.tp);
    EXPECT_EQ(c.pp, (r / cfg.tp) % cfg.pp);
    EXPECT_EQ(c.dp, r / (cfg.tp * cfg.pp));
    EXPECT_EQ(topo.MachineOfRank(r), r / cfg.gpus_per_machine);

    std::vector<Rank> want_pp;
    for (int p = 0; p < cfg.pp; ++p) {
      want_pp.push_back(topo.RankOf({c.tp, p, c.dp}));
    }
    EXPECT_EQ(topo.PipelineGroupOf(r), want_pp);
    std::vector<Rank> want_dp;
    for (int d = 0; d < cfg.dp; ++d) {
      want_dp.push_back(topo.RankOf({c.tp, c.pp, d}));
    }
    EXPECT_EQ(topo.DataGroupOf(r), want_dp);
    std::vector<Rank> want_tp;
    for (int t = 0; t < cfg.tp; ++t) {
      want_tp.push_back(topo.RankOf({t, c.pp, c.dp}));
    }
    EXPECT_EQ(topo.TensorGroupOf(r), want_tp);
  }
}

// The precomputed machine lists and bitmasks must agree with a direct
// recomputation from group membership.
TEST_P(TopologyProperty, GroupMachineTablesMatchDirectComputation) {
  Topology topo = MakeTopo();
  for (GroupKind kind : {GroupKind::kTensor, GroupKind::kPipeline, GroupKind::kData}) {
    for (const ParallelGroup& g : topo.AllGroups(kind)) {
      std::set<MachineId> want;
      for (Rank r : g.ranks) {
        want.insert(topo.MachineOfRank(r));
      }
      const std::vector<MachineId> expect(want.begin(), want.end());
      EXPECT_EQ(topo.MachinesOfGroup(g), expect);
      EXPECT_EQ(topo.GroupMachines(kind, g.index), expect);
      const MachineSet& mask = topo.GroupMachineSet(kind, g.index);
      EXPECT_EQ(mask.Count(), static_cast<int>(want.size()));
      for (MachineId m = 0; m < topo.num_machines(); ++m) {
        EXPECT_EQ(mask.Contains(m), want.count(m) > 0);
      }
    }
  }
}

// Brute force over every group: the first kind (PP, DP, TP) with a group
// covering all targets wins; within it, fewest machines, then lowest index.
bool BruteForceCoveringGroup(const Topology& topo, const std::vector<MachineId>& targets,
                             ParallelGroup* out) {
  if (targets.empty()) {
    return false;
  }
  for (GroupKind kind : {GroupKind::kPipeline, GroupKind::kData, GroupKind::kTensor}) {
    const ParallelGroup* best = nullptr;
    for (const ParallelGroup& g : topo.AllGroups(kind)) {
      const std::vector<MachineId> machines = topo.MachinesOfGroup(g);
      const bool covers = std::all_of(targets.begin(), targets.end(), [&](MachineId m) {
        return std::find(machines.begin(), machines.end(), m) != machines.end();
      });
      if (covers && (best == nullptr || machines.size() < topo.MachinesOfGroup(*best).size())) {
        best = &g;
      }
    }
    if (best != nullptr) {
      *out = *best;
      return true;
    }
  }
  return false;
}

TEST_P(TopologyProperty, FindCoveringGroupMatchesBruteForce) {
  Topology topo = MakeTopo();
  Rng rng(static_cast<std::uint64_t>(topo.world_size()));
  const auto random_machine = [&] {
    return static_cast<MachineId>(rng.UniformInt(0, topo.num_machines() - 1));
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<MachineId> targets;
    const int n = static_cast<int>(rng.UniformInt(1, 4));
    if (trial % 2 == 0) {
      // Machines drawn from one random group: some group always covers them.
      const GroupKind kind = static_cast<GroupKind>(rng.UniformInt(0, 2));
      const int index = static_cast<int>(rng.UniformInt(0, topo.NumGroups(kind) - 1));
      const std::vector<MachineId>& machines = topo.GroupMachines(kind, index);
      for (int i = 0; i < n; ++i) {
        targets.push_back(machines[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(machines.size()) - 1))]);
      }
    } else {
      for (int i = 0; i < n; ++i) {
        targets.push_back(random_machine());
      }
    }
    if (trial % 25 == 1) {
      targets.push_back(rng.Bernoulli(0.5) ? -1 : topo.num_machines());  // foreign
    }
    ParallelGroup want{GroupKind::kTensor, -1, {}};
    ParallelGroup got{GroupKind::kTensor, -1, {}};
    const bool found = BruteForceCoveringGroup(topo, targets, &want);
    ASSERT_EQ(topo.FindCoveringGroup(targets, &got), found) << "trial " << trial;
    if (found) {
      EXPECT_EQ(got.kind, want.kind) << "trial " << trial;
      EXPECT_EQ(got.index, want.index) << "trial " << trial;
      EXPECT_EQ(got.ranks, want.ranks) << "trial " << trial;
    }
  }
}

TEST(TopologyTest, MachinesOfGroupHandlesForeignGroups) {
  Topology topo(Fig7Config());
  // A hand-built group (index does not correspond to its ranks) still gets a
  // correct, deduplicated, sorted machine list via the fallback path.
  ParallelGroup custom;
  custom.kind = GroupKind::kPipeline;
  custom.index = 0;
  custom.ranks = {31, 0, 1, 30};
  EXPECT_EQ(topo.MachinesOfGroup(custom), (std::vector<MachineId>{0, 15}));
}

// Frozen campaign template: equal configs share one immutable instance;
// distinct configs get distinct instances with the right tables.
TEST(TopologyTest, SharedTopologyCachesPerConfig) {
  ParallelismConfig cfg;
  cfg.tp = 2;
  cfg.pp = 4;
  cfg.dp = 4;
  cfg.gpus_per_machine = 2;
  const auto a = SharedTopology(cfg);
  const auto b = SharedTopology(cfg);
  EXPECT_EQ(a.get(), b.get());  // one frozen instance per config

  ParallelismConfig other = cfg;
  other.dp = 8;
  const auto c = SharedTopology(other);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(c->world_size(), 64);

  // The shared instance answers exactly like a freshly built topology.
  const Topology fresh(cfg);
  for (Rank r = 0; r < fresh.world_size(); ++r) {
    EXPECT_EQ(a->MachineOfRank(r), fresh.MachineOfRank(r));
    EXPECT_TRUE(a->CoordOf(r) == fresh.CoordOf(r));
  }
}

}  // namespace
}  // namespace byterobust
