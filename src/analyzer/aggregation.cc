#include "src/analyzer/aggregation.h"

#include <algorithm>

namespace byterobust {

namespace {

// Machines hosting a `kind` process that no group of the snapshot lists: the
// members of that kind's complement group. O(ranks), so only an outlier
// complement group asks for it — a degenerate case where listed stacks
// outnumber the dominant one.
std::vector<MachineId> ComplementMachines(const PodStackSnapshot& snapshot, ProcessKind kind,
                                          const Topology& topology) {
  std::vector<bool> listed(static_cast<std::size_t>(topology.world_size()), false);
  for (const StackSnapshotGroup& g : snapshot.groups()) {
    if (g.kind == kind) {
      for (Rank r : g.ranks) {
        listed[static_cast<std::size_t>(r)] = true;
      }
    }
  }
  std::vector<MachineId> machines;
  for (Rank r = 0; r < topology.world_size(); ++r) {
    const MachineId m = topology.MachineOfRank(r);
    if (!listed[static_cast<std::size_t>(r)] && (machines.empty() || machines.back() != m)) {
      machines.push_back(m);  // ranks ascend, so machines do too
    }
  }
  return machines;
}

}  // namespace

AggregationResult AggregationAnalyzer::Analyze(const PodStackSnapshot& snapshot,
                                               const Topology& topology) const {
  AggregationResult result;

  // Step 2: the snapshot is already grouped by exact (kind, frames) match.
  // Subprocess stacks participate too; a wedged dataloader on one machine
  // forms its own singleton group. A complement group holds what its kind's
  // listed groups leave of the world.
  for (const StackSnapshotGroup& g : snapshot.groups()) {
    std::size_t size = g.ranks.size();
    if (g.complement) {
      size = static_cast<std::size_t>(topology.world_size());
      for (const StackSnapshotGroup& other : snapshot.groups()) {
        if (other.kind == g.kind) {
          size -= other.ranks.size();
        }
      }
    }
    if (size == 0) {
      continue;  // every process of the kind is listed elsewhere
    }
    StackGroup& group = result.groups.emplace_back();
    group.kind = g.kind;
    group.key = std::string(ProcessKindName(g.kind)) + "|" + g.stack.Key();
    group.representative = g.stack;
    group.size = size;
    group.complement = g.complement;
    group.ranks = g.ranks;
    for (Rank r : g.ranks) {
      group.machines.push_back(topology.MachineOfRank(r));
    }
    std::sort(group.machines.begin(), group.machines.end());
    group.machines.erase(std::unique(group.machines.begin(), group.machines.end()),
                         group.machines.end());
  }
  if (result.groups.empty()) {
    return result;
  }
  std::sort(result.groups.begin(), result.groups.end(),
            [](const StackGroup& a, const StackGroup& b) {
              if (a.size != b.size) {
                return a.size > b.size;
              }
              return a.key < b.key;  // deterministic tie-break
            });

  // Dominant groups are healthy; subprocess groups covering every machine
  // (idle loaders/writers) are dominant by construction. A machine is an
  // outlier if *any* of its processes shows an outlier stack, even if other
  // processes on it look healthy.
  const std::size_t max_size = result.groups.front().size;
  std::vector<MachineId>& outliers = result.outlier_machines;
  for (StackGroup& g : result.groups) {
    g.healthy = static_cast<double>(g.size) >=
                config_.dominant_fraction * static_cast<double>(max_size);
    if (!g.healthy) {
      const std::vector<MachineId> machines =
          g.complement ? ComplementMachines(snapshot, g.kind, topology) : g.machines;
      outliers.insert(outliers.end(), machines.begin(), machines.end());
    }
  }
  std::sort(outliers.begin(), outliers.end());
  outliers.erase(std::unique(outliers.begin(), outliers.end()), outliers.end());
  if (result.outlier_machines.empty()) {
    return result;
  }

  // Step 3: shared parallel group of the outliers.
  result.found_group = topology.FindCoveringGroup(result.outlier_machines,
                                                  &result.isolated_group);
  if (result.found_group) {
    result.machines_to_evict = topology.MachinesOfGroup(result.isolated_group);
  } else {
    result.machines_to_evict = result.outlier_machines;
  }
  return result;
}

bool FailSlowVoter::AddRound(const AggregationResult& result) {
  ++rounds_seen_;
  if (result.found_group) {
    const auto key = std::make_pair(static_cast<int>(result.isolated_group.kind),
                                    result.isolated_group.index);
    ++flags_[key];
  }
  return Ready();
}

bool FailSlowVoter::Decide(GroupKind* kind, int* index) const {
  if (flags_.empty()) {
    return false;
  }
  auto best = flags_.begin();
  for (auto it = flags_.begin(); it != flags_.end(); ++it) {
    if (it->second > best->second) {
      best = it;
    }
  }
  *kind = static_cast<GroupKind>(best->first.first);
  *index = best->first.second;
  return true;
}

}  // namespace byterobust
