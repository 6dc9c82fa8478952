// Unit tests for the runtime analyzer: aggregation analysis and fail-slow
// voting (paper Sec. 5, Fig. 7).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "src/analyzer/aggregation.h"
#include "src/tracer/stack_synth.h"

namespace byterobust {
namespace {

Topology Fig7Topology() {
  ParallelismConfig cfg;
  cfg.tp = 2;
  cfg.pp = 4;
  cfg.dp = 4;
  cfg.gpus_per_machine = 2;
  return Topology(cfg);
}

TEST(AggregationTest, Fig7HangIsolatesThePipelineGroup) {
  const Topology topo = Fig7Topology();
  const auto stacks = SynthesizeHangStacks(topo, 30, HangSite::kTensorCollective);
  AggregationAnalyzer analyzer;
  const AggregationResult result = analyzer.Analyze(stacks, topo);

  // Outliers: machines 12, 13 (irecv), 14 (isend), 15 (all-gather).
  EXPECT_EQ(result.outlier_machines, (std::vector<MachineId>{12, 13, 14, 15}));
  ASSERT_TRUE(result.found_group);
  EXPECT_EQ(result.isolated_group.kind, GroupKind::kPipeline);
  EXPECT_EQ(result.machines_to_evict, (std::vector<MachineId>{12, 13, 14, 15}));
  // The dominant group is the 24 healthy reduce-scatter ranks.
  EXPECT_TRUE(result.groups.front().healthy);
  EXPECT_TRUE(result.groups.front().complement);
  EXPECT_EQ(result.groups.front().size, 24u);
}

TEST(AggregationTest, SubprocessOutliersAreDetected) {
  const Topology topo = Fig7Topology();
  const auto stacks = SynthesizeFullPodStacks(topo, 6, HangSite::kDataLoader);
  AggregationAnalyzer analyzer;
  const AggregationResult result = analyzer.Analyze(stacks, topo);
  // Rank 6 lives on machine 3; its wedged dataloader makes the machine an
  // outlier even though most of its processes look healthy.
  const MachineId culprit_machine = topo.MachineOfRank(6);
  bool found = false;
  for (MachineId m : result.outlier_machines) {
    if (m == culprit_machine) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(result.machines_to_evict.empty());
}

TEST(AggregationTest, AllHealthyYieldsNothing) {
  const Topology topo = Fig7Topology();
  PodStackSnapshot stacks;
  stacks.SetDominant(ProcessKind::kTrainer, HealthyGradSyncStack());
  AggregationAnalyzer analyzer;
  const AggregationResult result = analyzer.Analyze(stacks, topo);
  EXPECT_TRUE(result.outlier_machines.empty());
  EXPECT_TRUE(result.machines_to_evict.empty());
  EXPECT_FALSE(result.found_group);
}

TEST(AggregationTest, EmptyInputIsSafe) {
  const Topology topo = Fig7Topology();
  AggregationAnalyzer analyzer;
  const AggregationResult result = analyzer.Analyze({}, topo);
  EXPECT_TRUE(result.groups.empty());
  EXPECT_TRUE(result.machines_to_evict.empty());
}

TEST(AggregationTest, DominantFractionControlsHealthyCutoff) {
  const Topology topo = Fig7Topology();
  // Two groups of similar size: with dominant_fraction 0.5 both count as
  // healthy; with 0.95 the smaller one becomes an outlier.
  PodStackSnapshot stacks;
  stacks.SetDominant(ProcessKind::kTrainer, HealthyGradSyncStack());
  for (Rank r = 20; r < topo.world_size(); ++r) {  // 20 vs 12 split
    stacks.Add(ProcessKind::kTrainer, r, TensorCollectiveStack());
  }
  AggregationAnalyzer loose(AggregationConfig{0.5});
  EXPECT_TRUE(loose.Analyze(stacks, topo).outlier_machines.empty());
  AggregationAnalyzer strict(AggregationConfig{0.95});
  EXPECT_FALSE(strict.Analyze(stacks, topo).outlier_machines.empty());
}

TEST(FailSlowVoterTest, VotingSeesThroughSamplingNoise) {
  const Topology topo = Fig7Topology();
  AggregationAnalyzer analyzer;
  FailSlowVoter voter(5);
  // Machine 7 is the true degrader; the synthesized rounds add a noisy false
  // outlier every ~3rd round.
  for (int round = 0; round < 5; ++round) {
    const auto stacks = SynthesizeFailSlowStacks(topo, 7, static_cast<std::uint64_t>(round));
    voter.AddRound(analyzer.Analyze(stacks, topo));
  }
  ASSERT_TRUE(voter.Ready());
  GroupKind kind;
  int index;
  ASSERT_TRUE(voter.Decide(&kind, &index));
  // The winning group must contain machine 7.
  bool contains = false;
  for (const ParallelGroup& g : topo.Groups(kind)) {
    if (g.index != index) {
      continue;
    }
    for (MachineId m : topo.MachinesOfGroup(g)) {
      if (m == 7) {
        contains = true;
      }
    }
  }
  EXPECT_TRUE(contains);
}

TEST(FailSlowVoterTest, NotReadyBeforeEnoughRounds) {
  FailSlowVoter voter(5);
  AggregationResult empty;
  EXPECT_FALSE(voter.AddRound(empty));
  EXPECT_FALSE(voter.Ready());
  EXPECT_EQ(voter.rounds_seen(), 1);
}

TEST(FailSlowVoterTest, UndecidedWithoutFlags) {
  FailSlowVoter voter(2);
  AggregationResult empty;
  voter.AddRound(empty);
  voter.AddRound(empty);
  ASSERT_TRUE(voter.Ready());
  GroupKind kind;
  int index;
  EXPECT_FALSE(voter.Decide(&kind, &index));
}

TEST(AggregationTest, DeterministicGroupOrdering) {
  const Topology topo = Fig7Topology();
  const auto stacks = SynthesizeHangStacks(topo, 30, HangSite::kTensorCollective);
  AggregationAnalyzer analyzer;
  const auto a = analyzer.Analyze(stacks, topo);
  const auto b = analyzer.Analyze(stacks, topo);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].key, b.groups[i].key);
  }
}

// Per-rank reference for the group-level analysis: classifies every
// (rank, process) of the pod on its own, groups the stacks by canonical key
// in an ordered map, and applies the same healthy cutoff and covering-group
// search. O(ranks) by design.
using Classifier = std::function<const StackTrace&(Rank, ProcessKind)>;

AggregationResult ReferenceAnalyze(const Topology& topo, const std::vector<ProcessKind>& kinds,
                                   const Classifier& classify) {
  std::map<std::string, std::vector<Rank>> by_key;
  for (ProcessKind kind : kinds) {
    for (Rank r = 0; r < topo.world_size(); ++r) {
      const std::string key = std::string(ProcessKindName(kind)) + "|" + classify(r, kind).Key();
      by_key[key].push_back(r);
    }
  }
  AggregationResult result;
  for (const auto& [key, ranks] : by_key) {
    StackGroup& g = result.groups.emplace_back();
    g.key = key;
    g.size = ranks.size();
    g.ranks = ranks;
    std::set<MachineId> machines;
    for (Rank r : ranks) {
      machines.insert(topo.MachineOfRank(r));
    }
    g.machines.assign(machines.begin(), machines.end());
  }
  std::stable_sort(result.groups.begin(), result.groups.end(),
                   [](const StackGroup& a, const StackGroup& b) { return a.size > b.size; });
  std::set<MachineId> outliers;
  for (StackGroup& g : result.groups) {
    g.healthy = static_cast<double>(g.size) >=
                AggregationConfig{}.dominant_fraction *
                    static_cast<double>(result.groups.front().size);
    if (!g.healthy) {
      outliers.insert(g.machines.begin(), g.machines.end());
    }
  }
  result.outlier_machines.assign(outliers.begin(), outliers.end());
  if (!outliers.empty()) {
    result.found_group = topo.FindCoveringGroup(result.outlier_machines, &result.isolated_group);
    result.machines_to_evict = result.found_group ? topo.MachinesOfGroup(result.isolated_group)
                                                  : result.outlier_machines;
  }
  return result;
}

void ExpectSameAnalysis(const AggregationResult& actual, const AggregationResult& reference,
                        const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(actual.groups.size(), reference.groups.size());
  for (std::size_t i = 0; i < actual.groups.size(); ++i) {
    const StackGroup& a = actual.groups[i];
    const StackGroup& r = reference.groups[i];
    EXPECT_EQ(a.key, r.key);
    EXPECT_EQ(a.size, r.size);
    EXPECT_EQ(a.healthy, r.healthy);
    if (!a.complement) {
      EXPECT_EQ(a.ranks, r.ranks);
      EXPECT_EQ(a.machines, r.machines);
    }
  }
  EXPECT_EQ(actual.outlier_machines, reference.outlier_machines);
  EXPECT_EQ(actual.found_group, reference.found_group);
  if (actual.found_group && reference.found_group) {
    EXPECT_EQ(actual.isolated_group.kind, reference.isolated_group.kind);
    EXPECT_EQ(actual.isolated_group.index, reference.isolated_group.index);
  }
  EXPECT_EQ(actual.machines_to_evict, reference.machines_to_evict);
}

// Fig. 7 hang propagation, one (rank, process) at a time.
const StackTrace& ReferenceHangStack(const Topology& topo, Rank rank, ProcessKind kind,
                                     Rank culprit, HangSite site) {
  if (kind == ProcessKind::kDataLoader) {
    return site == HangSite::kDataLoader && rank == culprit ? DataLoaderStuckStack()
                                                            : DataLoaderIdleStack();
  }
  if (kind == ProcessKind::kCheckpointWriter) {
    return site == HangSite::kCheckpointWriter && rank == culprit ? CkptWriterStuckStack()
                                                                  : CkptWriterIdleStack();
  }
  const RankCoord rc = topo.CoordOf(rank);
  const RankCoord cc = topo.CoordOf(culprit);
  if (rank == culprit) {
    switch (site) {
      case HangSite::kDataLoader:
        return DataLoaderWaitStack();
      case HangSite::kCheckpointWriter:
        return CkptFlushWaitStack();
      case HangSite::kPipelineP2p:
        return PipelineIrecvStack();
      case HangSite::kTensorCollective:
        return TensorCollectiveStack();
    }
  }
  if (rc.pp == cc.pp && rc.dp == cc.dp) {
    return TensorCollectiveStack();
  }
  if (rc.dp == cc.dp && rc.pp < cc.pp) {
    return rc.pp == cc.pp - 1 ? PipelineIsendStack() : PipelineIrecvStack();
  }
  return HealthyGradSyncStack();
}

constexpr HangSite kAllSites[] = {HangSite::kTensorCollective, HangSite::kPipelineP2p,
                                  HangSite::kDataLoader, HangSite::kCheckpointWriter};

void ExpectHangMatchesReference(const Topology& topo, Rank culprit, HangSite site) {
  const AggregationAnalyzer analyzer;
  const auto classify = [&](Rank r, ProcessKind kind) -> const StackTrace& {
    return ReferenceHangStack(topo, r, kind, culprit, site);
  };
  const std::string label = topo.config().ToString() + " culprit " + std::to_string(culprit) +
                            " site " + std::to_string(static_cast<int>(site));
  ExpectSameAnalysis(analyzer.Analyze(SynthesizeHangStacks(topo, culprit, site), topo),
                     ReferenceAnalyze(topo, {ProcessKind::kTrainer}, classify),
                     label + " trainers");
  ExpectSameAnalysis(analyzer.Analyze(SynthesizeFullPodStacks(topo, culprit, site), topo),
                     ReferenceAnalyze(topo,
                                      {ProcessKind::kTrainer, ProcessKind::kDataLoader,
                                       ProcessKind::kCheckpointWriter},
                                      classify),
                     label + " full pod");
}

TEST(GroupLevelAnalysisTest, HangMatchesPerRankReferenceOnSmallTopologies) {
  // Fig. 7's shape, plus single-column shapes where the listed stacks can
  // outnumber the dominant one (an outlier complement group).
  std::vector<ParallelismConfig> configs(3);
  configs[0] = Fig7Topology().config();
  configs[1].tp = 1;
  configs[1].pp = 8;
  configs[1].dp = 1;
  configs[1].gpus_per_machine = 1;
  configs[2].tp = 2;
  configs[2].pp = 4;
  configs[2].dp = 1;
  configs[2].gpus_per_machine = 2;
  for (const ParallelismConfig& cfg : configs) {
    const Topology topo(cfg);
    for (HangSite site : kAllSites) {
      for (Rank culprit = 0; culprit < topo.world_size(); ++culprit) {
        ExpectHangMatchesReference(topo, culprit, site);
      }
    }
  }
}

TEST(GroupLevelAnalysisTest, HangMatchesPerRankReferenceOnDenseTopology) {
  ParallelismConfig cfg;  // the 9,600-GPU dense production job
  cfg.tp = 8;
  cfg.pp = 8;
  cfg.dp = 150;
  cfg.gpus_per_machine = 8;
  const Topology topo(cfg);
  for (Rank culprit : {0, 63, 3200, 5555, 9599}) {
    for (HangSite site : kAllSites) {
      ExpectHangMatchesReference(topo, culprit, site);
    }
  }
}

TEST(GroupLevelAnalysisTest, FailSlowMatchesPerRankReferenceForEverySlowJitterPair) {
  const Topology topo = Fig7Topology();
  const AggregationAnalyzer analyzer;
  // One round seed per jitter outcome: a clean round (-1) and each machine.
  std::map<MachineId, std::uint64_t> seed_of_noise;
  for (std::uint64_t seed = 0;
       seed_of_noise.size() < static_cast<std::size_t>(topo.num_machines()) + 1 && seed < 100000;
       ++seed) {
    seed_of_noise.emplace(FailSlowNoiseMachine(seed, topo.num_machines()), seed);
  }
  ASSERT_EQ(seed_of_noise.size(), static_cast<std::size_t>(topo.num_machines()) + 1);
  for (MachineId slow = 0; slow < topo.num_machines(); ++slow) {
    for (const auto& [noisy, seed] : seed_of_noise) {
      const auto classify = [&](Rank r, ProcessKind) -> const StackTrace& {
        const MachineId m = topo.MachineOfRank(r);
        return m == slow || m == noisy ? ComputeKernelStack() : HealthyGradSyncStack();
      };
      ExpectSameAnalysis(analyzer.Analyze(SynthesizeFailSlowStacks(topo, slow, seed), topo),
                         ReferenceAnalyze(topo, {ProcessKind::kTrainer}, classify),
                         "slow " + std::to_string(slow) + " noisy " + std::to_string(noisy));
    }
  }
}

}  // namespace
}  // namespace byterobust
