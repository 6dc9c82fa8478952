// Unit + property tests for the 3D-parallel topology. The concrete expectations
// come straight from the paper's figures: Fig. 7 (TP=2, PP=4, DP=4 on 16
// two-GPU machines) and Fig. 9 (TP=2, PP=4, DP=2 backup exchange).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

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
                      // gpus_per_machine not dividing tp, and tp > gpus_per_machine.
                      TopoCase{3, 2, 2, 4}, TopoCase{6, 2, 3, 4}, TopoCase{8, 3, 2, 2},
                      TopoCase{4, 1, 3, 3},
                      // The Sec. 8.1 production shapes: 9,600-GPU dense and MoE.
                      TopoCase{8, 8, 150, 8}, TopoCase{8, 10, 120, 8}));

// Random valid configs (fixed seed) over small degrees and machine sizes.
std::vector<TopoCase> RandomCases() {
  Rng rng(0x70901067);
  std::vector<TopoCase> cases;
  const int gpms[] = {1, 2, 3, 4, 6, 8, 16};
  while (cases.size() < 24) {
    const TopoCase c{static_cast<int>(rng.UniformInt(1, 8)), static_cast<int>(rng.UniformInt(1, 6)),
                     static_cast<int>(rng.UniformInt(1, 8)), gpms[rng.UniformInt(0, 6)]};
    if ((c.tp * c.pp * c.dp) % c.gpm == 0) {
      cases.push_back(c);
    }
  }
  return cases;
}
INSTANTIATE_TEST_SUITE_P(Random, TopologyProperty, ::testing::ValuesIn(RandomCases()));

constexpr GroupKind kKinds[] = {GroupKind::kTensor, GroupKind::kPipeline, GroupKind::kData};

// The oracle: the rank grid enumerated coordinate by coordinate (TP
// innermost, then PP, then DP), ranks dealt out to machines gpus_per_machine
// at a time, and every group found as the set of ranks agreeing on the other
// two coordinates, numbered in order of its lowest rank.
struct RankTable {
  std::vector<RankCoord> coord;                            // rank -> coordinate
  std::vector<MachineId> machine;                          // rank -> machine
  std::vector<std::vector<std::vector<Rank>>> groups;      // kind -> index -> ranks
  std::vector<std::vector<int>> index_of;                  // kind -> rank -> index

  explicit RankTable(const ParallelismConfig& cfg) : groups(3), index_of(3) {
    for (int d = 0; d < cfg.dp; ++d) {
      for (int p = 0; p < cfg.pp; ++p) {
        for (int t = 0; t < cfg.tp; ++t) {
          coord.push_back({t, p, d});
        }
      }
    }
    for (MachineId m = 0; static_cast<int>(machine.size()) < cfg.world_size(); ++m) {
      machine.insert(machine.end(), static_cast<std::size_t>(cfg.gpus_per_machine), m);
    }
    for (std::size_t k = 0; k < 3; ++k) {
      std::map<std::pair<int, int>, std::vector<Rank>> by_key;  // other two coords
      for (Rank r = 0; r < static_cast<Rank>(coord.size()); ++r) {
        const RankCoord& c = coord[static_cast<std::size_t>(r)];
        const std::pair<int, int> key = k == 0 ? std::pair{c.pp, c.dp}
                                        : k == 1 ? std::pair{c.tp, c.dp}
                                                 : std::pair{c.tp, c.pp};
        by_key[key].push_back(r);
      }
      for (auto& [key, ranks] : by_key) {
        groups[k].push_back(ranks);
      }
      std::sort(groups[k].begin(), groups[k].end());  // by lowest rank
      index_of[k].resize(coord.size());
      for (std::size_t i = 0; i < groups[k].size(); ++i) {
        for (Rank r : groups[k][i]) {
          index_of[k][static_cast<std::size_t>(r)] = static_cast<int>(i);
        }
      }
    }
  }

  std::vector<MachineId> MachinesOf(const std::vector<Rank>& ranks) const {
    std::set<MachineId> machines;
    for (Rank r : ranks) {
      machines.insert(machine[static_cast<std::size_t>(r)]);
    }
    return {machines.begin(), machines.end()};
  }

  bool SharesAnyGroup(Rank a, Rank b) const {
    for (std::size_t k = 0; k < 3; ++k) {
      if (index_of[k][static_cast<std::size_t>(a)] == index_of[k][static_cast<std::size_t>(b)]) {
        return true;
      }
    }
    return false;
  }

  // The first kind (PP, DP, TP) with a group covering all targets wins;
  // within it, fewest machines, then lowest index.
  bool CoveringGroup(const std::vector<MachineId>& targets, int num_machines, GroupKind* kind,
                     int* index) const {
    if (targets.empty() ||
        std::any_of(targets.begin(), targets.end(),
                    [&](MachineId m) { return m < 0 || m >= num_machines; })) {
      return false;
    }
    for (GroupKind k : {GroupKind::kPipeline, GroupKind::kData, GroupKind::kTensor}) {
      const auto& kind_groups = groups[static_cast<std::size_t>(k)];
      int best = -1;
      std::size_t best_size = 0;
      for (std::size_t i = 0; i < kind_groups.size(); ++i) {
        const std::vector<MachineId> machines = MachinesOf(kind_groups[i]);
        const bool covers = std::all_of(targets.begin(), targets.end(), [&](MachineId m) {
          return std::binary_search(machines.begin(), machines.end(), m);
        });
        if (covers && (best < 0 || machines.size() < best_size)) {
          best = static_cast<int>(i);
          best_size = machines.size();
        }
      }
      if (best >= 0) {
        *kind = k;
        *index = best;
        return true;
      }
    }
    return false;
  }
};

TEST_P(TopologyProperty, RankQueriesMatchBruteForceTable) {
  Topology topo = MakeTopo();
  const RankTable table(topo.config());
  ASSERT_EQ(static_cast<int>(table.coord.size()), topo.world_size());
  ASSERT_EQ(table.machine.back() + 1, topo.num_machines());
  for (Rank r = 0; r < topo.world_size(); ++r) {
    const auto ri = static_cast<std::size_t>(r);
    EXPECT_EQ(topo.CoordOf(r), table.coord[ri]) << "rank " << r;
    EXPECT_EQ(topo.RankOf(table.coord[ri]), r);
    EXPECT_EQ(topo.MachineOfRank(r), table.machine[ri]);
    for (GroupKind kind : kKinds) {
      const auto k = static_cast<std::size_t>(kind);
      EXPECT_EQ(topo.GroupIndexOf(r, kind), table.index_of[k][ri]);
      EXPECT_EQ(topo.GroupOf(r, kind), table.groups[k][static_cast<std::size_t>(table.index_of[k][ri])]);
    }
  }
}

TEST_P(TopologyProperty, GroupFootprintsMatchBruteForceTable) {
  Topology topo = MakeTopo();
  const RankTable table(topo.config());
  for (GroupKind kind : kKinds) {
    const auto& kind_groups = table.groups[static_cast<std::size_t>(kind)];
    ASSERT_EQ(topo.NumGroups(kind), static_cast<int>(kind_groups.size()));
    for (int i = 0; i < topo.NumGroups(kind); ++i) {
      const std::vector<Rank>& ranks = kind_groups[static_cast<std::size_t>(i)];
      const std::vector<MachineId> want = table.MachinesOf(ranks);
      const ParallelGroup group = topo.Group(kind, i);
      EXPECT_EQ(group.ranks, ranks);
      EXPECT_EQ(topo.MachinesOfGroup(group), want);
      EXPECT_EQ(topo.GroupMachines(kind, i), want);
      EXPECT_EQ(topo.GroupMachineCount(kind, i), static_cast<int>(want.size()));
      for (MachineId m = -1; m <= topo.num_machines(); ++m) {
        EXPECT_EQ(topo.GroupHostsMachine(kind, i, m),
                  std::binary_search(want.begin(), want.end(), m))
            << GroupKindName(kind) << " group " << i << " machine " << m;
      }
    }
    EXPECT_THROW(topo.Group(kind, topo.NumGroups(kind)), std::out_of_range);
  }
}

TEST_P(TopologyProperty, SharesAnyGroupMatchesBruteForceTable) {
  Topology topo = MakeTopo();
  const RankTable table(topo.config());
  Rng rng(static_cast<std::uint64_t>(topo.world_size()));
  const bool exhaustive = topo.world_size() <= 256;
  const int pairs = exhaustive ? topo.world_size() * topo.world_size() : 20000;
  for (int i = 0; i < pairs; ++i) {
    const Rank a = exhaustive ? i / topo.world_size()
                              : static_cast<Rank>(rng.UniformInt(0, topo.world_size() - 1));
    const Rank b = exhaustive ? i % topo.world_size()
                              : static_cast<Rank>(rng.UniformInt(0, topo.world_size() - 1));
    EXPECT_EQ(topo.SharesAnyGroup(a, b), table.SharesAnyGroup(a, b)) << a << " vs " << b;
  }
}

TEST_P(TopologyProperty, FindCoveringGroupMatchesBruteForceTable) {
  Topology topo = MakeTopo();
  const RankTable table(topo.config());
  Rng rng(static_cast<std::uint64_t>(topo.world_size()));
  const auto random_machine = [&] {
    return static_cast<MachineId>(rng.UniformInt(0, topo.num_machines() - 1));
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<MachineId> targets;
    const int n = static_cast<int>(rng.UniformInt(1, 4));
    if (trial % 2 == 0) {
      // Machines drawn from one random group: some group always covers them.
      const auto& kind_groups = table.groups[static_cast<std::size_t>(rng.UniformInt(0, 2))];
      const std::vector<MachineId> machines = table.MachinesOf(
          kind_groups[static_cast<std::size_t>(
              rng.UniformInt(0, static_cast<std::int64_t>(kind_groups.size()) - 1))]);
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
    GroupKind want_kind = GroupKind::kTensor;
    int want_index = -1;
    ParallelGroup got{GroupKind::kTensor, -1, {}};
    const bool found = table.CoveringGroup(targets, topo.num_machines(), &want_kind, &want_index);
    ASSERT_EQ(topo.FindCoveringGroup(targets, &got), found) << "trial " << trial;
    if (found) {
      EXPECT_EQ(got.kind, want_kind) << "trial " << trial;
      EXPECT_EQ(got.index, want_index) << "trial " << trial;
      EXPECT_EQ(got.ranks, table.groups[static_cast<std::size_t>(want_kind)]
                               [static_cast<std::size_t>(want_index)])
          << "trial " << trial;
    }
  }
}

TEST(TopologyTest, MachinesOfGroupHandlesForeignGroups) {
  Topology topo(Fig7Config());
  // A hand-built group (index does not correspond to its ranks) still gets a
  // correct, deduplicated, sorted machine list.
  ParallelGroup custom;
  custom.kind = GroupKind::kPipeline;
  custom.index = 0;
  custom.ranks = {31, 0, 1, 30};
  EXPECT_EQ(topo.MachinesOfGroup(custom), (std::vector<MachineId>{0, 15}));
}

}  // namespace
}  // namespace byterobust
