// Unit tests for the tracer: process trees and stack synthesis (Fig. 7).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>

#include "src/tracer/process_tree.h"
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

TEST(StackTraceTest, KeyIsCanonicalAndDistinct) {
  EXPECT_EQ(HealthyGradSyncStack().Key(), HealthyGradSyncStack().Key());
  EXPECT_NE(HealthyGradSyncStack().Key(), TensorCollectiveStack().Key());
  EXPECT_NE(PipelineIsendStack().Key(), PipelineIrecvStack().Key());
  EXPECT_NE(HealthyGradSyncStack().ToString(), "");
}

TEST(ProcessTreeTest, PodTreeShape) {
  const ProcessTree tree = ProcessTree::BuildPodTree(5, 8);
  EXPECT_EQ(tree.machine(), 5);
  // root + launcher + robust agent + 8 x (trainer + dataloader + ckpt writer)
  EXPECT_EQ(tree.nodes().size(), 3u + 24u);
  EXPECT_EQ(tree.TrainingProcesses().size(), 24u);
  const ProcessNode* trainer = tree.TrainerFor(3);
  ASSERT_NE(trainer, nullptr);
  EXPECT_EQ(trainer->kind, ProcessKind::kTrainer);
  // Each trainer forks exactly a dataloader and a ckpt writer.
  const auto children = tree.ChildrenOf(trainer->pid);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0]->kind, ProcessKind::kDataLoader);
  EXPECT_EQ(children[1]->kind, ProcessKind::kCheckpointWriter);
  EXPECT_EQ(tree.TrainerFor(99), nullptr);
}

// The listed ranks of the `kind` group showing `stack`, or nullopt when the
// snapshot has no such group.
std::optional<std::vector<Rank>> ListedRanks(const PodStackSnapshot& snapshot, ProcessKind kind,
                                             const StackTrace& stack) {
  for (const StackSnapshotGroup& g : snapshot.groups()) {
    if (g.kind == kind && g.stack == stack) {
      return g.ranks;
    }
  }
  return std::nullopt;
}

std::vector<MachineId> MachinesOf(const Topology& topo, const std::vector<Rank>& ranks) {
  std::set<MachineId> machines;
  for (Rank r : ranks) {
    machines.insert(topo.MachineOfRank(r));
  }
  return {machines.begin(), machines.end()};
}

// Processes of `kind` that the snapshot lists one by one.
std::size_t ListedCount(const PodStackSnapshot& snapshot, ProcessKind kind) {
  std::size_t n = 0;
  for (const StackSnapshotGroup& g : snapshot.groups()) {
    n += g.kind == kind ? g.ranks.size() : 0;
  }
  return n;
}

TEST(StackSynthTest, Fig7BackwardHangPattern) {
  // Culprit: rank 30 (tp=0, pp=3, dp=3) on machine 15, stuck in the TP
  // all-gather. Expect exactly the Fig. 7 groups:
  //   machines 0-11 (24 ranks): healthy reduce-scatter stacks
  //   machine 15 (ranks 30, 31): all_gather_into_tensor
  //   machine 14 (pp=2, dp=3): isend
  //   machines 12-13 (pp=0..1, dp=3): irecv
  const Topology topo = Fig7Topology();
  const auto stacks = SynthesizeHangStacks(topo, 30, HangSite::kTensorCollective);
  ASSERT_EQ(stacks.groups().size(), 4u);

  const StackSnapshotGroup& healthy = stacks.groups().front();
  EXPECT_TRUE(healthy.complement);
  EXPECT_EQ(healthy.stack, HealthyGradSyncStack());
  EXPECT_EQ(topo.world_size() - ListedCount(stacks, ProcessKind::kTrainer), 24u);

  const auto collective = ListedRanks(stacks, ProcessKind::kTrainer, TensorCollectiveStack());
  const auto isend = ListedRanks(stacks, ProcessKind::kTrainer, PipelineIsendStack());
  const auto irecv = ListedRanks(stacks, ProcessKind::kTrainer, PipelineIrecvStack());
  ASSERT_TRUE(collective && isend && irecv);
  EXPECT_EQ(*collective, (std::vector<Rank>{30, 31}));
  EXPECT_EQ(*isend, (std::vector<Rank>{28, 29}));
  EXPECT_EQ(*irecv, (std::vector<Rank>{24, 25, 26, 27}));
  EXPECT_EQ(MachinesOf(topo, *collective), (std::vector<MachineId>{15}));
  EXPECT_EQ(MachinesOf(topo, *isend), (std::vector<MachineId>{14}));
  EXPECT_EQ(MachinesOf(topo, *irecv), (std::vector<MachineId>{12, 13}));
}

TEST(StackSynthTest, MidPipelineCulpritOnlyStallsEarlierStages) {
  const Topology topo = Fig7Topology();
  // Culprit rank 10 = (tp=0, pp=1, dp=1): stage 0 of that column starves;
  // stages 2-3 already finished their backward sends and park in grad sync.
  const auto stacks = SynthesizeHangStacks(topo, 10, HangSite::kTensorCollective);
  EXPECT_EQ(ListedRanks(stacks, ProcessKind::kTrainer, TensorCollectiveStack()),
            (std::vector<Rank>{10, 11}));  // culprit TP pair
  EXPECT_EQ(ListedRanks(stacks, ProcessKind::kTrainer, PipelineIsendStack()),
            (std::vector<Rank>{8, 9}));  // pp=0 machine (adjacent)
  EXPECT_FALSE(ListedRanks(stacks, ProcessKind::kTrainer, PipelineIrecvStack()));
  EXPECT_EQ(topo.world_size() - ListedCount(stacks, ProcessKind::kTrainer), 28u);
}

TEST(StackSynthTest, PipelineP2pSiteMarksCulpritInIrecv) {
  const Topology topo = Fig7Topology();
  const auto stacks = SynthesizeHangStacks(topo, 30, HangSite::kPipelineP2p);
  const auto irecv = ListedRanks(stacks, ProcessKind::kTrainer, PipelineIrecvStack());
  ASSERT_TRUE(irecv);
  EXPECT_EQ(std::count(irecv->begin(), irecv->end(), 30), 1);
  // Its TP peer still waits in the collective.
  EXPECT_EQ(ListedRanks(stacks, ProcessKind::kTrainer, TensorCollectiveStack()),
            (std::vector<Rank>{31}));
}

TEST(StackSynthTest, FullPodStacksIncludeSubprocesses) {
  const Topology topo = Fig7Topology();
  const auto stacks = SynthesizeFullPodStacks(topo, 6, HangSite::kDataLoader);
  int complements = 0;
  for (const StackSnapshotGroup& g : stacks.groups()) {
    complements += g.complement ? 1 : 0;
  }
  EXPECT_EQ(complements, 3);  // one dominant stack per process kind
  EXPECT_EQ(ListedRanks(stacks, ProcessKind::kDataLoader, DataLoaderStuckStack()),
            (std::vector<Rank>{6}));
  EXPECT_EQ(ListedRanks(stacks, ProcessKind::kTrainer, DataLoaderWaitStack()),
            (std::vector<Rank>{6}));
  EXPECT_EQ(ListedCount(stacks, ProcessKind::kCheckpointWriter), 0u);
}

TEST(StackSynthTest, CheckpointWriterSiteBlocksOptimizerStep) {
  const Topology topo = Fig7Topology();
  const auto stacks = SynthesizeFullPodStacks(topo, 9, HangSite::kCheckpointWriter);
  EXPECT_EQ(ListedRanks(stacks, ProcessKind::kCheckpointWriter, CkptWriterStuckStack()),
            (std::vector<Rank>{9}));
  EXPECT_EQ(ListedRanks(stacks, ProcessKind::kTrainer, CkptFlushWaitStack()),
            (std::vector<Rank>{9}));
  EXPECT_EQ(ListedCount(stacks, ProcessKind::kDataLoader), 0u);
}

TEST(StackSynthTest, FailSlowLaggardShowsComputeStack) {
  const Topology topo = Fig7Topology();
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const auto stacks = SynthesizeFailSlowStacks(topo, 7, seed);
    const auto compute = ListedRanks(stacks, ProcessKind::kTrainer, ComputeKernelStack());
    ASSERT_TRUE(compute);
    const std::vector<MachineId> machines = MachinesOf(topo, *compute);
    EXPECT_EQ(std::count(machines.begin(), machines.end(), 7), 1)
        << "laggard machine must look busy";
    EXPECT_GE(compute->size(), 2u);
    EXPECT_LE(compute->size(), 4u);  // at most one extra noisy machine
  }
}

TEST(StackSynthTest, FailSlowNoiseIsDeterministicPerSeed) {
  const Topology topo = Fig7Topology();
  const auto a = SynthesizeFailSlowStacks(topo, 3, 42);
  const auto b = SynthesizeFailSlowStacks(topo, 3, 42);
  ASSERT_EQ(a.groups().size(), b.groups().size());
  for (std::size_t i = 0; i < a.groups().size(); ++i) {
    EXPECT_EQ(a.groups()[i].stack, b.groups()[i].stack);
    EXPECT_EQ(a.groups()[i].ranks, b.groups()[i].ranks);
  }
}

// The snapshot lists only the culprit's DP column: a 9,600-rank pod holds
// exactly as many groups and listed ranks as a one-column (64-rank) pod with
// the same TP x PP shape, for every hang site.
TEST(StackSynthTest, HangSnapshotSizeIsIndependentOfWorldSize) {
  ParallelismConfig column;
  column.tp = 8;
  column.pp = 8;
  column.dp = 1;
  column.gpus_per_machine = 8;
  ParallelismConfig dense = column;
  dense.dp = 150;
  const Topology small(column);
  const Topology large(dense);
  ASSERT_EQ(large.world_size(), 9600);
  for (HangSite site : {HangSite::kTensorCollective, HangSite::kPipelineP2p,
                        HangSite::kDataLoader, HangSite::kCheckpointWriter}) {
    // Last pipeline stage: the deepest upstream starvation, most ranks listed.
    const auto a = SynthesizeFullPodStacks(small, small.RankOf({3, 7, 0}), site);
    const auto b = SynthesizeFullPodStacks(large, large.RankOf({3, 7, 97}), site);
    ASSERT_EQ(a.groups().size(), b.groups().size());
    EXPECT_LE(b.groups().size(), 8u);
    std::size_t listed = 0;
    for (std::size_t i = 0; i < a.groups().size(); ++i) {
      EXPECT_EQ(a.groups()[i].ranks.size(), b.groups()[i].ranks.size());
      listed += b.groups()[i].ranks.size();
    }
    EXPECT_LE(listed, 64u + 2u);  // one DP column plus a wedged subprocess
  }
}

TEST(PodStackSnapshotTest, DominantStackIsNeverListed) {
  PodStackSnapshot snapshot;
  snapshot.SetDominant(ProcessKind::kTrainer, HealthyGradSyncStack());
  snapshot.Add(ProcessKind::kTrainer, 4, HealthyGradSyncStack());
  snapshot.Add(ProcessKind::kTrainer, 5, ComputeKernelStack());
  snapshot.Add(ProcessKind::kTrainer, 6, ComputeKernelStack());
  ASSERT_EQ(snapshot.groups().size(), 2u);
  EXPECT_TRUE(snapshot.groups()[0].ranks.empty());
  EXPECT_EQ(snapshot.groups()[1].ranks, (std::vector<Rank>{5, 6}));
  // A second dominant stack for the same kind would make the complement
  // ambiguous.
  EXPECT_THROW(snapshot.SetDominant(ProcessKind::kTrainer, ComputeKernelStack()),
               std::logic_error);
  EXPECT_NO_THROW(snapshot.SetDominant(ProcessKind::kDataLoader, DataLoaderIdleStack()));
}

}  // namespace
}  // namespace byterobust
