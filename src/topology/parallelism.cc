#include "src/topology/parallelism.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <stdexcept>

namespace byterobust {

bool ParallelismConfig::Valid() const {
  if (tp < 1 || pp < 1 || dp < 1 || gpus_per_machine < 1) {
    return false;
  }
  return world_size() % gpus_per_machine == 0;
}

std::string ParallelismConfig::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "TP=%d, PP=%d, DP=%d (%d GPUs on %d machines)", tp, pp, dp,
                world_size(), num_machines());
  return buf;
}

const char* GroupKindName(GroupKind kind) {
  switch (kind) {
    case GroupKind::kTensor:
      return "TP";
    case GroupKind::kPipeline:
      return "PP";
    case GroupKind::kData:
      return "DP";
  }
  return "??";
}

int MachineSet::Count() const {
  int count = 0;
  for (std::uint64_t w : words_) {
    count += std::popcount(w);
  }
  return count;
}

std::vector<MachineId> MachineSet::Members() const {
  std::vector<MachineId> members;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
      members.push_back(static_cast<MachineId>(w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
    }
  }
  return members;
}

Topology::Topology(const ParallelismConfig& config) : config_(config) {
  if (!config.Valid()) {
    throw std::invalid_argument("invalid parallelism config: " + config.ToString());
  }
  const int world = world_size();
  coords_.resize(static_cast<std::size_t>(world));
  machine_of_.resize(static_cast<std::size_t>(world));
  for (Rank r = 0; r < world; ++r) {
    RankCoord c;
    c.tp = r % config_.tp;
    c.pp = (r / config_.tp) % config_.pp;
    c.dp = r / (config_.tp * config_.pp);
    coords_[static_cast<std::size_t>(r)] = c;
    machine_of_[static_cast<std::size_t>(r)] = r / config_.gpus_per_machine;
  }

  for (GroupKind kind : {GroupKind::kTensor, GroupKind::kPipeline, GroupKind::kData}) {
    const std::size_t k = KindIndex(kind);
    const int n = NumGroups(kind);
    groups_[k].resize(static_cast<std::size_t>(n));
    group_machines_[k].resize(static_cast<std::size_t>(n));
    group_machine_sets_[k].assign(static_cast<std::size_t>(n), MachineSet(num_machines()));
    for (Rank r = 0; r < world; ++r) {
      const std::size_t idx = static_cast<std::size_t>(GroupIndexOf(r, kind));
      ParallelGroup& g = groups_[k][idx];
      if (g.ranks.empty()) {
        g.kind = kind;
        g.index = static_cast<int>(idx);
      }
      // Rank iteration order is increasing coordinate order within a group.
      g.ranks.push_back(r);
      group_machine_sets_[k][idx].Insert(machine_of_[static_cast<std::size_t>(r)]);
    }
    for (int i = 0; i < n; ++i) {
      std::vector<MachineId>& machines = group_machines_[k][static_cast<std::size_t>(i)];
      for (Rank r : groups_[k][static_cast<std::size_t>(i)].ranks) {
        machines.push_back(machine_of_[static_cast<std::size_t>(r)]);
      }
      std::sort(machines.begin(), machines.end());
      machines.erase(std::unique(machines.begin(), machines.end()), machines.end());
    }
  }
}

void Topology::CheckRank(Rank rank) const {
  if (rank < 0 || rank >= world_size()) {
    throw std::out_of_range("rank out of range");
  }
}

RankCoord Topology::CoordOf(Rank rank) const {
  CheckRank(rank);
  return coords_[static_cast<std::size_t>(rank)];
}

Rank Topology::RankOf(const RankCoord& coord) const {
  return coord.tp + config_.tp * (coord.pp + config_.pp * coord.dp);
}

MachineId Topology::MachineOfRank(Rank rank) const {
  CheckRank(rank);
  return machine_of_[static_cast<std::size_t>(rank)];
}

std::vector<Rank> Topology::RanksOnMachine(MachineId machine) const {
  if (machine < 0 || machine >= num_machines()) {
    throw std::out_of_range("machine out of range");
  }
  std::vector<Rank> ranks(static_cast<std::size_t>(config_.gpus_per_machine));
  for (int i = 0; i < config_.gpus_per_machine; ++i) {
    ranks[static_cast<std::size_t>(i)] = machine * config_.gpus_per_machine + i;
  }
  return ranks;
}

std::vector<Rank> Topology::GroupOf(Rank rank, GroupKind kind) const {
  CheckRank(rank);
  const std::size_t idx = static_cast<std::size_t>(GroupIndexOf(rank, kind));
  return groups_[KindIndex(kind)][idx].ranks;
}

std::vector<Rank> Topology::TensorGroupOf(Rank rank) const {
  return GroupOf(rank, GroupKind::kTensor);
}
std::vector<Rank> Topology::PipelineGroupOf(Rank rank) const {
  return GroupOf(rank, GroupKind::kPipeline);
}
std::vector<Rank> Topology::DataGroupOf(Rank rank) const { return GroupOf(rank, GroupKind::kData); }

int Topology::GroupIndexOf(Rank rank, GroupKind kind) const {
  CheckRank(rank);
  const RankCoord& c = coords_[static_cast<std::size_t>(rank)];
  switch (kind) {
    case GroupKind::kTensor:
      return c.pp + config_.pp * c.dp;
    case GroupKind::kPipeline:
      return c.tp + config_.tp * c.dp;
    case GroupKind::kData:
      return c.tp + config_.tp * c.pp;
  }
  return -1;
}

int Topology::NumGroups(GroupKind kind) const {
  switch (kind) {
    case GroupKind::kTensor:
      return config_.pp * config_.dp;
    case GroupKind::kPipeline:
      return config_.tp * config_.dp;
    case GroupKind::kData:
      return config_.tp * config_.pp;
  }
  return 0;
}

std::vector<ParallelGroup> Topology::Groups(GroupKind kind) const {
  return groups_[KindIndex(kind)];
}

const std::vector<ParallelGroup>& Topology::AllGroups(GroupKind kind) const {
  return groups_[KindIndex(kind)];
}

std::vector<MachineId> Topology::MachinesOfGroup(const ParallelGroup& group) const {
  // Groups handed out by this topology resolve to their precomputed machine
  // list; hand-built groups (foreign index or edited ranks) fall back to a
  // direct computation so the answer is always correct.
  const std::size_t k = KindIndex(group.kind);
  if (group.index >= 0 && static_cast<std::size_t>(group.index) < groups_[k].size() &&
      groups_[k][static_cast<std::size_t>(group.index)].ranks == group.ranks) {
    return group_machines_[k][static_cast<std::size_t>(group.index)];
  }
  std::vector<MachineId> machines;
  machines.reserve(group.ranks.size());
  for (Rank r : group.ranks) {
    machines.push_back(MachineOfRank(r));
  }
  std::sort(machines.begin(), machines.end());
  machines.erase(std::unique(machines.begin(), machines.end()), machines.end());
  return machines;
}

const std::vector<MachineId>& Topology::GroupMachines(GroupKind kind, int index) const {
  return group_machines_[KindIndex(kind)].at(static_cast<std::size_t>(index));
}

const MachineSet& Topology::GroupMachineSet(GroupKind kind, int index) const {
  return group_machine_sets_[KindIndex(kind)].at(static_cast<std::size_t>(index));
}

Rank Topology::BackupPartnerOf(Rank rank) const {
  RankCoord c = CoordOf(rank);
  RankCoord partner = c;
  partner.pp = (c.pp + 1) % config_.pp;
  partner.dp = (c.dp + 1) % config_.dp;
  return RankOf(partner);
}

bool Topology::SharesAnyGroup(Rank a, Rank b) const {
  CheckRank(a);
  CheckRank(b);
  const RankCoord& ca = coords_[static_cast<std::size_t>(a)];
  const RankCoord& cb = coords_[static_cast<std::size_t>(b)];
  const bool same_tp_group = ca.pp == cb.pp && ca.dp == cb.dp;
  const bool same_pp_group = ca.tp == cb.tp && ca.dp == cb.dp;
  const bool same_dp_group = ca.tp == cb.tp && ca.pp == cb.pp;
  return same_tp_group || same_pp_group || same_dp_group;
}

bool Topology::FindCoveringGroup(const std::vector<MachineId>& machines,
                                 ParallelGroup* out) const {
  if (machines.empty()) {
    return false;
  }
  for (MachineId m : machines) {
    if (m < 0 || m >= num_machines()) {
      return false;  // a foreign machine can never be covered
    }
  }

  // Prefer pipeline groups: the paper over-evicts whole PP groups (Sec. 9),
  // then fall back to DP / TP groups if a smaller kind covers. A covering
  // group hosts the first machine, so only the groups of that machine's
  // ranks are tried (a group may come up once per rank it has there).
  const GroupKind order[] = {GroupKind::kPipeline, GroupKind::kData, GroupKind::kTensor};
  const Rank first_rank = machines.front() * config_.gpus_per_machine;
  for (GroupKind kind : order) {
    const std::size_t k = KindIndex(kind);
    const ParallelGroup* best = nullptr;
    std::size_t best_machines = 0;
    for (Rank r = first_rank; r < first_rank + config_.gpus_per_machine; ++r) {
      const std::size_t idx = static_cast<std::size_t>(GroupIndexOf(r, kind));
      const MachineSet& gm = group_machine_sets_[k][idx];
      if (!std::all_of(machines.begin(), machines.end(),
                       [&gm](MachineId m) { return gm.Contains(m); })) {
        continue;
      }
      // Fewest machines, then lowest index.
      const std::size_t count = group_machines_[k][idx].size();
      if (best == nullptr || count < best_machines ||
          (count == best_machines && groups_[k][idx].index < best->index)) {
        best = &groups_[k][idx];
        best_machines = count;
      }
    }
    if (best != nullptr) {
      *out = *best;  // groups of the preferred kind cover; do not widen further
      return true;
    }
  }
  return false;
}

std::shared_ptr<const Topology> SharedTopology(const ParallelismConfig& config) {
  return FrozenByConfig<Topology>(config,
                                  [&] { return std::make_shared<const Topology>(config); });
}

}  // namespace byterobust
