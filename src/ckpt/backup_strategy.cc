#include "src/ckpt/backup_strategy.h"

#include <algorithm>
#include <set>

namespace byterobust {

namespace {

// Neighbor-machine fallback (paper: "the system defaults to backup in
// neighboring machines" for single-group parallelism).
Rank NeighborTarget(const Topology& topology, Rank r) {
  const ParallelismConfig& cfg = topology.config();
  const MachineId m = topology.MachineOfRank(r);
  const MachineId neighbor = (m + 1) % topology.num_machines();
  const int local = r % cfg.gpus_per_machine;
  return neighbor * cfg.gpus_per_machine + local;
}

}  // namespace

BackupPlan::BackupPlan(const Topology& topology) {
  const ParallelismConfig& cfg = topology.config();
  cross_group_ = cfg.pp >= 2 && cfg.dp >= 2;
  assignments_.reserve(static_cast<std::size_t>(topology.world_size()));
  const GroupKind kinds[] = {GroupKind::kPipeline, GroupKind::kData, GroupKind::kTensor};
  for (Rank r = 0; r < topology.world_size(); ++r) {
    BackupAssignment a;
    a.owner = r;
    if (cross_group_) {
      // Start from the paper's partner (pp+1, dp+1) and walk pp/dp offsets
      // until the partner's machine lies outside every machine set that an
      // over-eviction of one of the owner's groups would take down. One
      // machine can host several pipeline stages or DP columns (when
      // gpus_per_machine exceeds TP or TP*PP), in which case the naive
      // partner would die with the owner. Tier 1 avoids the machines of all
      // three of the owner's groups (PP, DP, TP); tier 2 relaxes to the PP
      // group only (the kind the analyzer actually over-evicts) for
      // topologies where a DP group spans every machine.
      const RankCoord c = topology.CoordOf(r);
      int groups[3];
      bool spans_all[3];  // the group hosts every machine
      for (int g = 0; g < 3; ++g) {
        groups[g] = topology.GroupIndexOf(c, kinds[g]);
        spans_all[g] = topology.GroupMachineCount(kinds[g], groups[g]) == topology.num_machines();
      }
      Rank chosen = -1;
      for (const int tier_groups : {3, 1}) {
        if (std::any_of(spans_all, spans_all + tier_groups, [](bool b) { return b; })) {
          continue;  // every candidate is forbidden; no point scanning pp x dp
        }
        for (int j = 1; j < cfg.pp && chosen < 0; ++j) {
          for (int k = 1; k < cfg.dp && chosen < 0; ++k) {
            const Rank candidate =
                topology.RankOf({c.tp, (c.pp + j) % cfg.pp, (c.dp + k) % cfg.dp});
            const MachineId m = topology.MachineOfRank(candidate);
            bool forbidden = false;
            for (int g = 0; g < tier_groups && !forbidden; ++g) {
              forbidden = topology.GroupHostsMachine(kinds[g], groups[g], m);
            }
            if (!forbidden) {
              chosen = candidate;
            }
          }
        }
        if (chosen >= 0) {
          break;
        }
      }
      a.target = chosen >= 0 ? chosen : NeighborTarget(topology, r);
    } else {
      a.target = NeighborTarget(topology, r);
    }
    assignments_.push_back(a);
  }
}

bool BackupPlan::SatisfiesCrossGroupInvariant(const Topology& topology) const {
  if (!cross_group_) {
    return false;
  }
  for (const BackupAssignment& a : assignments_) {
    if (a.owner == a.target || topology.SharesAnyGroup(a.owner, a.target)) {
      return false;
    }
  }
  return true;
}

bool BackupPlan::SurvivesEviction(const Topology& topology,
                                  const std::vector<MachineId>& machines) const {
  const std::set<MachineId> evicted(machines.begin(), machines.end());
  for (const BackupAssignment& a : assignments_) {
    const bool primary_lost = evicted.count(topology.MachineOfRank(a.owner)) > 0;
    const bool backup_lost = evicted.count(topology.MachineOfRank(a.target)) > 0;
    if (primary_lost && backup_lost) {
      return false;
    }
  }
  return true;
}

bool BackupPlan::SurvivesGroupEviction(const Topology& topology,
                                       const ParallelGroup& group) const {
  return SurvivesEviction(topology, topology.MachinesOfGroup(group));
}

}  // namespace byterobust
