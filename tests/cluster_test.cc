// Unit tests for the cluster / machine model.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/topology/fault_domains.h"

namespace byterobust {
namespace {

TEST(MachineTest, StartsHealthy) {
  Machine m(3, 8);
  EXPECT_EQ(m.id(), 3);
  EXPECT_EQ(m.num_gpus(), 8);
  EXPECT_EQ(m.state(), MachineState::kActive);
  EXPECT_TRUE(m.InService());
  EXPECT_FALSE(m.HasSdc());
  EXPECT_TRUE(m.host().nic_up);
}

TEST(MachineTest, ResetHealthClearsFlags) {
  Machine m(0, 4);
  m.gpu(2).sdc = true;
  m.gpu(1).available = false;
  m.host().nic_up = false;
  EXPECT_TRUE(m.HasSdc());
  m.ResetHealth();
  EXPECT_FALSE(m.HasSdc());
  EXPECT_TRUE(m.gpu(1).available);
  EXPECT_TRUE(m.host().nic_up);
}

TEST(MachineTest, DegradedIsInService) {
  Machine m(0, 4);
  m.set_state(MachineState::kDegraded);
  EXPECT_TRUE(m.InService());
  m.set_state(MachineState::kFaulty);
  EXPECT_FALSE(m.InService());
}

TEST(MachineTest, GpuIndexOutOfRangeThrows) {
  Machine m(0, 4);
  EXPECT_THROW(m.gpu(4), std::out_of_range);
}

TEST(ClusterTest, InitialLayout) {
  Cluster cluster(8, 16, 2);
  EXPECT_EQ(cluster.num_training_slots(), 8);
  EXPECT_EQ(cluster.total_machines(), 10u);
  EXPECT_EQ(cluster.ServingMachines().size(), 8u);
  for (int s = 0; s < 8; ++s) {
    EXPECT_EQ(cluster.MachineAtSlot(s), s);
  }
  // Spares start outside the job as unprovisioned idle machines.
  EXPECT_EQ(cluster.machine(8).state(), MachineState::kIdle);
  EXPECT_EQ(cluster.IdleMachines().size(), 2u);
}

TEST(ClusterTest, RejectsBadDimensions) {
  EXPECT_THROW(Cluster(0, 8), std::invalid_argument);
  EXPECT_THROW(Cluster(4, 0), std::invalid_argument);
  EXPECT_THROW(Cluster(4, 8, -1), std::invalid_argument);
}

TEST(ClusterTest, ReplaceSlotEvictsAndInstalls) {
  Cluster cluster(4, 8, 1);
  cluster.machine(4).set_state(MachineState::kStandbySleep);
  cluster.ReplaceSlot(2, 4);
  EXPECT_EQ(cluster.MachineAtSlot(2), 4);
  EXPECT_TRUE(cluster.IsBlacklisted(2));
  EXPECT_EQ(cluster.machine(2).state(), MachineState::kEvicted);
  EXPECT_EQ(cluster.machine(4).state(), MachineState::kActive);
  EXPECT_EQ(cluster.SlotOfMachine(4), 2);
  EXPECT_EQ(cluster.SlotOfMachine(2), -1);
}

TEST(ClusterTest, ReplaceSlotResetsIncomingHealth) {
  Cluster cluster(2, 8, 1);
  cluster.machine(2).gpu(0).sdc = true;
  cluster.ReplaceSlot(0, 2);
  EXPECT_FALSE(cluster.machine(2).HasSdc());
}

TEST(ClusterTest, ReplaceSlotRejectsBlacklistedOrServing) {
  Cluster cluster(4, 8, 1);
  cluster.Blacklist(4);
  EXPECT_THROW(cluster.ReplaceSlot(0, 4), std::invalid_argument);
  // Machine 1 is serving slot 1; cannot also take slot 0.
  EXPECT_THROW(cluster.ReplaceSlot(0, 1), std::invalid_argument);
  EXPECT_THROW(cluster.ReplaceSlot(-1, 4), std::out_of_range);
  EXPECT_THROW(cluster.ReplaceSlot(4, 4), std::out_of_range);
}

TEST(ClusterTest, AddMachineGrowsPool) {
  Cluster cluster(2, 8);
  const MachineId id = cluster.AddMachine();
  EXPECT_EQ(id, 2);
  EXPECT_EQ(cluster.total_machines(), 3u);
  EXPECT_EQ(cluster.machine(id).state(), MachineState::kIdle);
}

TEST(ClusterTest, UnhealthyServingCount) {
  Cluster cluster(4, 8);
  EXPECT_EQ(cluster.UnhealthyServingCount(), 0);
  cluster.machine(1).set_state(MachineState::kFaulty);
  cluster.machine(3).set_state(MachineState::kDegraded);
  EXPECT_EQ(cluster.UnhealthyServingCount(), 2);
}

TEST(ClusterTest, HealthEpochBumpsOnEveryMutationPath) {
  Cluster cluster(4, 2, 1);
  const std::uint64_t e0 = cluster.health_epoch();
  cluster.machine(0).gpu(1).clock_ratio = 0.5;  // mutable health access
  EXPECT_GT(cluster.health_epoch(), e0);
  const std::uint64_t e1 = cluster.health_epoch();
  cluster.machine(0).set_state(MachineState::kDegraded);
  EXPECT_GT(cluster.health_epoch(), e1);
  const std::uint64_t e2 = cluster.health_epoch();
  cluster.machine(0).ResetHealth();
  EXPECT_GT(cluster.health_epoch(), e2);
  const std::uint64_t e3 = cluster.health_epoch();
  cluster.machine(4).set_state(MachineState::kStandbySleep);
  cluster.ReplaceSlot(1, 4);
  EXPECT_GT(cluster.health_epoch(), e3);
  // Const reads do not bump.
  const std::uint64_t e4 = cluster.health_epoch();
  const Cluster& ccluster = cluster;
  (void)ccluster.machine(0).gpu(1).clock_ratio;
  (void)ccluster.machine(0).host().nic_up;
  EXPECT_EQ(cluster.health_epoch(), e4);
}

TEST(ClusterTest, SuspectIndexTracksDirtyServingMachines) {
  Cluster cluster(4, 2, 1);
  EXPECT_TRUE(cluster.SuspectServingMachines().empty());
  EXPECT_EQ(cluster.UnhealthyServingCount(), 0);

  cluster.machine(2).gpu(0).available = false;  // dirty, state still active
  cluster.machine(1).host().nic_up = false;
  cluster.machine(1).set_state(MachineState::kFaulty);
  ASSERT_EQ(cluster.SuspectServingMachines().size(), 2u);
  // Slot order, not mutation order.
  EXPECT_EQ(cluster.SuspectServingMachines()[0], 1);
  EXPECT_EQ(cluster.SuspectServingMachines()[1], 2);
  EXPECT_TRUE(cluster.SuspectServingSet().Contains(1));
  EXPECT_TRUE(cluster.SuspectServingSet().Contains(2));
  EXPECT_FALSE(cluster.SuspectServingSet().Contains(0));
  EXPECT_EQ(cluster.UnhealthyServingCount(), 1);

  // Healing clears the dirty bit and drops the machine from the index.
  cluster.machine(1).ResetHealth();
  cluster.machine(1).set_state(MachineState::kActive);
  ASSERT_EQ(cluster.SuspectServingMachines().size(), 1u);
  EXPECT_EQ(cluster.SuspectServingMachines()[0], 2);

  // Eviction replaces the dirty machine with a clean standby.
  cluster.machine(4).set_state(MachineState::kStandbySleep);
  cluster.ReplaceSlot(2, 4);
  EXPECT_TRUE(cluster.SuspectServingMachines().empty());
}

TEST(MachineTest, StandaloneMachineTracksDirtyWithoutCluster) {
  Machine m(0, 4);
  EXPECT_FALSE(m.health_dirty());
  m.gpu(2).sdc = true;
  EXPECT_TRUE(m.health_dirty());
  m.ResetHealth();
  EXPECT_FALSE(m.health_dirty());
}

TEST(ClusterTest, IdleExcludesBlacklisted) {
  Cluster cluster(2, 8, 2);
  EXPECT_EQ(cluster.IdleMachines().size(), 2u);
  cluster.Blacklist(2);
  EXPECT_EQ(cluster.IdleMachines().size(), 1u);
}

// ---- Incremental health index against a from-scratch rescan ---------------

// Every view's index (suspects, unhealthy count, congestion, machine -> slot)
// and the shared idle set must equal what a full rescan computes.
void ExpectIndexMatchesRescan(const Cluster& c) {
  std::vector<MachineId> suspects;
  int unhealthy = 0;
  for (MachineId id : c.serving_slots()) {
    const Machine& m = c.machine(id);
    if (m.health_dirty()) {
      suspects.push_back(id);
    }
    unhealthy += m.state() == MachineState::kFaulty || m.state() == MachineState::kDegraded;
  }
  EXPECT_EQ(c.SuspectServingMachines(), suspects);
  EXPECT_EQ(c.UnhealthyServingCount(), unhealthy);

  std::vector<MachineId> idle;
  for (MachineId id = 0; id < static_cast<MachineId>(c.total_machines()); ++id) {
    const auto it = std::find(c.serving_slots().begin(), c.serving_slots().end(), id);
    const int slot =
        it == c.serving_slots().end() ? -1 : static_cast<int>(it - c.serving_slots().begin());
    EXPECT_EQ(c.SlotOfMachine(id), slot) << "machine " << id;
    EXPECT_EQ(c.SuspectServingSet().Contains(id),
              std::find(suspects.begin(), suspects.end(), id) != suspects.end())
        << "machine " << id;
    if (c.machine(id).state() == MachineState::kIdle && !c.IsBlacklisted(id)) {
      idle.push_back(id);
    }
  }
  EXPECT_EQ(c.IdleMachines(), idle);

  const FaultDomains* domains = c.fault_domains();
  const double congestion = domains != nullptr && domains->AnyImpaired()
                                ? domains->CongestionFactorFor(c.serving_slots())
                                : 1.0;
  EXPECT_EQ(c.CongestionFactor(), congestion);
}

// Applies random mutations through every path that can move the index —
// machine health writes, resets and state changes, slot replacement and
// detachment, new machines, blacklisting and domain impairment — to the
// views of one core, checking every view after every step.
void RunRandomMutations(std::vector<Cluster*> views, std::uint64_t seed, int steps) {
  Rng rng(seed);
  // Uniform index in [0, n).
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto pick_int = [&pick](int n) {
    return static_cast<int>(pick(static_cast<std::size_t>(n)));
  };
  Cluster& any = *views.front();
  const auto serving_anywhere = [&views](MachineId id) {
    return std::any_of(views.begin(), views.end(), [id](const Cluster* v) {
      const auto& slots = v->serving_slots();
      return std::find(slots.begin(), slots.end(), id) != slots.end();
    });
  };
  // Machines a view may install: not serving any view, not blacklisted.
  const auto free_machines = [&] {
    std::vector<MachineId> out;
    for (MachineId id = 0; id < static_cast<MachineId>(any.total_machines()); ++id) {
      if (!serving_anywhere(id) && !any.IsBlacklisted(id) && !any.machine(id).InService()) {
        out.push_back(id);
      }
    }
    return out;
  };
  const MachineState serving_states[] = {MachineState::kActive, MachineState::kDegraded,
                                         MachineState::kFaulty};
  const MachineState spare_states[] = {MachineState::kIdle, MachineState::kStandbySleep,
                                       MachineState::kStandbyInit};

  for (int step = 0; step < steps; ++step) {
    Cluster& view = *views[pick(views.size())];
    const MachineId machine = static_cast<MachineId>(pick(any.total_machines()));
    switch (rng.UniformInt(0, 9)) {
      case 0:
        any.machine(machine).gpu(pick_int(2)).clock_ratio = rng.Uniform(0.2, 1.0);
        break;
      case 1:
        any.machine(machine).host().nic_up = rng.Bernoulli(0.5);
        break;
      case 2:
        any.machine(machine).ResetHealth();
        break;
      case 3:
        any.machine(machine).set_state(serving_anywhere(machine) ? serving_states[pick(3)]
                                                                 : spare_states[pick(3)]);
        break;
      case 4:
      case 5: {
        const std::vector<MachineId> free = free_machines();
        if (view.num_training_slots() == 0 || free.empty()) {
          break;
        }
        const int slot = pick_int(view.num_training_slots());
        const MachineId replacement = free[pick(free.size())];
        if (rng.Bernoulli(0.5)) {
          view.ReplaceSlot(slot, replacement);
        } else {
          view.DetachSlotMachine(slot, replacement);
        }
        break;
      }
      case 6:
        any.AddMachine();
        break;
      case 7:
        if (!serving_anywhere(machine)) {
          any.Blacklist(machine);
        }
        break;
      default:
        if (FaultDomains* domains = any.fault_domains()) {
          const DomainId id = pick_int(domains->num_domains());
          if (rng.Bernoulli(0.4)) {
            domains->Heal(id, step);
          } else {
            domains->SetState(id, rng.Bernoulli(0.5) ? DomainState::kDegraded : DomainState::kDown,
                              rng.Uniform(0.3, 1.0), step);
          }
        }
        break;
    }
    for (const Cluster* v : views) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step);
      ExpectIndexMatchesRescan(*v);
    }
    if (testing::Test::HasFailure()) {
      return;
    }
  }
}

TEST(ClusterIndexProperty, SingleJobClusterMatchesRescan) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Cluster cluster(12, 2, 6);
    RunRandomMutations({&cluster}, seed, 300);
  }
}

TEST(ClusterIndexProperty, FleetViewsWithDomainsMatchRescan) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Cluster pool(kFleetPool, 48, 2);
    FaultDomainConfig domains;
    domains.machines_per_tor = 4;
    domains.tors_per_spine = 2;
    domains.spines_per_pod = 2;
    pool.AttachFaultDomains(domains);
    Cluster a(pool, 14);
    RunRandomMutations({&pool, &a}, seed, 100);
    // A view carved mid-sequence, from whatever the pool has left idle.
    Cluster b(pool, std::min<int>(10, static_cast<int>(pool.IdleMachines().size())));
    RunRandomMutations({&pool, &a, &b}, seed + 100, 300);
  }
}

TEST(ClusterTest, StateNames) {
  EXPECT_STREQ(MachineStateName(MachineState::kActive), "active");
  EXPECT_STREQ(MachineStateName(MachineState::kEvicted), "evicted");
  EXPECT_STREQ(MachineStateName(MachineState::kStandbySleep), "standby-sleep");
}

}  // namespace
}  // namespace byterobust
