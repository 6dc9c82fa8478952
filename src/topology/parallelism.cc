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
}

void Topology::CheckRank(Rank rank) const {
  if (rank < 0 || rank >= world_size()) {
    throw std::out_of_range("rank out of range");
  }
}

RankCoord Topology::CoordOf(Rank rank) const {
  CheckRank(rank);
  const int column = rank / config_.tp;  // pp + PP * dp
  return {rank - column * config_.tp, column % config_.pp, column / config_.pp};
}

Rank Topology::RankOf(const RankCoord& coord) const {
  return coord.tp + config_.tp * (coord.pp + config_.pp * coord.dp);
}

MachineId Topology::MachineOfRank(Rank rank) const {
  CheckRank(rank);
  return rank / config_.gpus_per_machine;
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
  return Members(GroupRanksAt(CoordOf(rank), kind));
}

std::vector<Rank> Topology::TensorGroupOf(Rank rank) const {
  return GroupOf(rank, GroupKind::kTensor);
}
std::vector<Rank> Topology::PipelineGroupOf(Rank rank) const {
  return GroupOf(rank, GroupKind::kPipeline);
}
std::vector<Rank> Topology::DataGroupOf(Rank rank) const { return GroupOf(rank, GroupKind::kData); }

int Topology::GroupIndexOf(Rank rank, GroupKind kind) const {
  return GroupIndexOf(CoordOf(rank), kind);
}

int Topology::GroupIndexOf(const RankCoord& c, GroupKind kind) const {
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

Topology::Progression Topology::GroupRanks(GroupKind kind, int index) const {
  if (index < 0 || index >= NumGroups(kind)) {
    throw std::out_of_range("group index out of range");
  }
  const int tp = config_.tp;
  switch (kind) {
    case GroupKind::kTensor:  // index = pp + PP * dp
      return {tp * index, 1, tp};
    case GroupKind::kPipeline:  // index = tp + TP * dp
      return {index % tp + tp * config_.pp * (index / tp), tp, config_.pp};
    case GroupKind::kData:  // index = tp + TP * pp
      return {index, tp * config_.pp, config_.dp};
  }
  return {0, 1, 0};
}

Topology::Progression Topology::GroupRanksAt(const RankCoord& c, GroupKind kind) const {
  const Rank rank = RankOf(c);
  const int tp = config_.tp;
  switch (kind) {
    case GroupKind::kTensor:  // one contiguous block
      return {rank - c.tp, 1, tp};
    case GroupKind::kPipeline:  // one rank per stage
      return {rank - tp * c.pp, tp, config_.pp};
    case GroupKind::kData:  // one rank per DP replica
      return {rank - tp * config_.pp * c.dp, tp * config_.pp, config_.dp};
  }
  return {0, 1, 0};
}

std::vector<Rank> Topology::Members(const Progression& group) {
  std::vector<Rank> ranks(static_cast<std::size_t>(group.size));
  for (int j = 0; j < group.size; ++j) {
    ranks[static_cast<std::size_t>(j)] = group.first + j * group.stride;
  }
  return ranks;
}

ParallelGroup Topology::Group(GroupKind kind, int index) const {
  return {kind, index, Members(GroupRanks(kind, index))};
}

std::vector<ParallelGroup> Topology::Groups(GroupKind kind) const {
  std::vector<ParallelGroup> groups;
  groups.reserve(static_cast<std::size_t>(NumGroups(kind)));
  for (int i = 0; i < NumGroups(kind); ++i) {
    groups.push_back(Group(kind, i));
  }
  return groups;
}

std::vector<MachineId> Topology::MachinesOfGroup(const ParallelGroup& group) const {
  std::vector<MachineId> machines;
  machines.reserve(group.ranks.size());
  for (Rank r : group.ranks) {
    machines.push_back(MachineOfRank(r));
  }
  std::sort(machines.begin(), machines.end());
  machines.erase(std::unique(machines.begin(), machines.end()), machines.end());
  return machines;
}

std::vector<MachineId> Topology::GroupMachines(GroupKind kind, int index) const {
  const Progression p = GroupRanks(kind, index);
  std::vector<MachineId> machines;
  for (int j = 0; j < p.size; ++j) {
    const MachineId m = (p.first + j * p.stride) / config_.gpus_per_machine;
    if (machines.empty() || machines.back() != m) {
      machines.push_back(m);
    }
  }
  return machines;
}

int Topology::GroupMachineCount(GroupKind kind, int index) const {
  return MachineCount(GroupRanks(kind, index));
}

bool Topology::GroupHostsMachine(GroupKind kind, int index, MachineId machine) const {
  return Hosts(GroupRanks(kind, index), machine);
}

int Topology::MachineCount(const Progression& group) const {
  const int gpm = config_.gpus_per_machine;
  // A stride of at least one machine puts every rank on its own machine; a
  // shorter stride advances at most one machine per rank, so the footprint
  // is the contiguous range from the first rank's machine to the last's.
  if (group.stride >= gpm) {
    return group.size;
  }
  return (group.first + (group.size - 1) * group.stride) / gpm - group.first / gpm + 1;
}

bool Topology::Hosts(const Progression& group, MachineId machine) const {
  const Rank lo = machine * config_.gpus_per_machine;
  // The first member at or past the machine's first rank must exist and lie
  // on the machine.
  const int j = lo <= group.first ? 0 : (lo - group.first + group.stride - 1) / group.stride;
  return j < group.size && group.first + j * group.stride < lo + config_.gpus_per_machine;
}

Rank Topology::BackupPartnerOf(Rank rank) const {
  RankCoord c = CoordOf(rank);
  RankCoord partner = c;
  partner.pp = (c.pp + 1) % config_.pp;
  partner.dp = (c.dp + 1) % config_.dp;
  return RankOf(partner);
}

bool Topology::SharesAnyGroup(Rank a, Rank b) const {
  const RankCoord ca = CoordOf(a);
  const RankCoord cb = CoordOf(b);
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
  // ranks are tried, each once: at its first member there.
  const GroupKind order[] = {GroupKind::kPipeline, GroupKind::kData, GroupKind::kTensor};
  const Rank first_rank = machines.front() * config_.gpus_per_machine;
  for (GroupKind kind : order) {
    Progression best{0, 1, 0};
    int best_index = -1;
    int best_machines = 0;
    RankCoord c = CoordOf(first_rank);
    for (Rank r = first_rank; r < first_rank + config_.gpus_per_machine; ++r) {
      const Progression p = GroupRanksAt(c, kind);
      const bool tried = r != p.first && r - p.stride >= first_rank;
      if (!tried && std::all_of(machines.begin(), machines.end(),
                                [&](MachineId m) { return Hosts(p, m); })) {
        // Fewest machines, then lowest index.
        const int count = MachineCount(p);
        const int index = GroupIndexOf(c, kind);
        if (best_index < 0 || count < best_machines ||
            (count == best_machines && index < best_index)) {
          best = p;
          best_index = index;
          best_machines = count;
        }
      }
      // Step to the next rank's coordinate (TP innermost, then PP, then DP).
      if (++c.tp == config_.tp) {
        c.tp = 0;
        if (++c.pp == config_.pp) {
          c.pp = 0;
          ++c.dp;
        }
      }
    }
    if (best_index >= 0) {
      *out = {kind, best_index, Members(best)};  // the preferred kind covers; do not widen
      return true;
    }
  }
  return false;
}

}  // namespace byterobust
