// Cross-parallel-group backup strategy (paper Sec. 6.3, Fig. 9).
//
// Each rank backs up its sharded optimizer/model states on a peer outside all
// of its 3D parallel groups, so that over-evicting an entire parallel group
// (Sec. 5) never destroys both the primary and the backup copy of any shard.
// Degenerate configs (single parallel group, e.g. pure ZeRO) fall back to
// neighbor-machine backup.

#ifndef SRC_CKPT_BACKUP_STRATEGY_H_
#define SRC_CKPT_BACKUP_STRATEGY_H_

#include <vector>

#include "src/topology/parallelism.h"

namespace byterobust {

struct BackupAssignment {
  Rank owner = 0;   // the rank whose shard is being protected
  Rank target = 0;  // the rank holding the backup copy
};

class BackupPlan {
 public:
  explicit BackupPlan(const Topology& topology);

  // Backup target for `rank`.
  Rank TargetOf(Rank rank) const { return assignments_[static_cast<std::size_t>(rank)].target; }

  const std::vector<BackupAssignment>& assignments() const { return assignments_; }

  // True when the plan used the cross-group rule (vs the neighbor fallback).
  bool cross_group() const { return cross_group_; }

  // Verifies the Sec. 6.3 invariant: no rank's backup target shares any of
  // its TP/PP/DP groups. Always false for degenerate (fallback) plans.
  bool SatisfiesCrossGroupInvariant(const Topology& topology) const;

  // Checks shard availability after evicting `machines`: every rank's state
  // must survive on at least one non-evicted machine (its own, or its backup
  // target's). This is the property the over-eviction-aware design buys.
  bool SurvivesEviction(const Topology& topology, const std::vector<MachineId>& machines) const;

  // Convenience: survivability under over-eviction of one whole group.
  bool SurvivesGroupEviction(const Topology& topology, const ParallelGroup& group) const;

 private:
  std::vector<BackupAssignment> assignments_;
  bool cross_group_ = false;
};

}  // namespace byterobust

#endif  // SRC_CKPT_BACKUP_STRATEGY_H_
