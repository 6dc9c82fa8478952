// 3D-parallel training topology: rank <-> (tp, pp, dp) coordinates, machine
// placement, and parallel-group enumeration (paper Sec. 2.1, Figs. 7 and 9).
//
// Rank layout: rank = tp + TP * (pp + PP * dp), i.e. TP innermost, PP middle,
// DP outermost. This matches the paper's figures: with TP=2, PP=4, DP=4 and
// 2 GPUs/machine, the PP group at dp=3 spans machines {12, 13, 14, 15}
// (Fig. 7), and with TP=2, PP=4, DP=2 the cross-group backup partner of ranks
// {8, 9} is {2, 3} (Fig. 9).
//
// The topology holds no tables: every group is the arithmetic progression
// first + j * stride (j < size) of ranks, so coordinates, machines, group
// members and group footprints are computed on demand in O(1) or O(group).
// Because rank order is machine order, a group's machines come out ascending,
// their count has a closed form, and "does this group host machine m" is one
// division. Constructing a Topology only validates its config.

#ifndef SRC_TOPOLOGY_PARALLELISM_H_
#define SRC_TOPOLOGY_PARALLELISM_H_

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace byterobust {

using Rank = int;
using MachineId = int;

// Static parallelism configuration of a training job.
struct ParallelismConfig {
  int tp = 1;  // tensor-parallel size
  int pp = 1;  // pipeline-parallel size
  int dp = 1;  // data-parallel size
  int gpus_per_machine = 8;

  int world_size() const { return tp * pp * dp; }
  int num_machines() const { return world_size() / gpus_per_machine; }

  // True when world_size is a positive multiple of gpus_per_machine and all
  // degrees are >= 1.
  bool Valid() const;

  std::string ToString() const;

  bool operator==(const ParallelismConfig&) const = default;
};

// Position of a rank in the 3D grid.
struct RankCoord {
  int tp = 0;
  int pp = 0;
  int dp = 0;

  bool operator==(const RankCoord&) const = default;
};

// The kind of communication group a set of ranks forms.
enum class GroupKind {
  kTensor,    // varies tp; same (pp, dp)
  kPipeline,  // varies pp; same (tp, dp)
  kData,      // varies dp; same (tp, pp)
};

const char* GroupKindName(GroupKind kind);

// A concrete parallel group: its kind, its index among groups of that kind,
// and its member ranks in increasing coordinate order.
struct ParallelGroup {
  GroupKind kind;
  int index = 0;
  std::vector<Rank> ranks;
};

// Fixed-universe bitmask over machine ids [0, num_machines). The cluster keeps
// its idle and suspect machine sets in it.
class MachineSet {
 public:
  MachineSet() = default;
  explicit MachineSet(int num_machines)
      : words_(static_cast<std::size_t>((num_machines + 63) / 64), 0) {}

  void Insert(MachineId m) {
    const std::size_t w = static_cast<std::size_t>(m) >> 6;
    if (m < 0 || w >= words_.size()) {
      throw std::out_of_range("machine id outside MachineSet universe");
    }
    words_[w] |= std::uint64_t{1} << (m & 63);
  }

  void Erase(MachineId m) {
    const std::size_t w = static_cast<std::size_t>(m) >> 6;
    if (m >= 0 && w < words_.size()) {
      words_[w] &= ~(std::uint64_t{1} << (m & 63));
    }
  }

  // Widens the universe to at least [0, num_machines), keeping the members.
  void Grow(int num_machines) {
    words_.resize(std::max(words_.size(), static_cast<std::size_t>((num_machines + 63) / 64)), 0);
  }

  bool Contains(MachineId m) const {
    const std::size_t w = static_cast<std::size_t>(m) >> 6;
    return w < words_.size() && (words_[w] >> (m & 63)) & 1;
  }

  // The members in ascending id order.
  std::vector<MachineId> Members() const;

 private:
  std::vector<std::uint64_t> words_;
};

class Topology {
 public:
  // Throws std::invalid_argument unless config.Valid().
  explicit Topology(const ParallelismConfig& config);

  const ParallelismConfig& config() const { return config_; }
  int world_size() const { return config_.world_size(); }
  int num_machines() const { return config_.num_machines(); }

  RankCoord CoordOf(Rank rank) const;
  Rank RankOf(const RankCoord& coord) const;

  MachineId MachineOfRank(Rank rank) const;
  std::vector<Rank> RanksOnMachine(MachineId machine) const;

  // Member ranks of the group containing `rank`, for each kind.
  std::vector<Rank> TensorGroupOf(Rank rank) const;
  std::vector<Rank> PipelineGroupOf(Rank rank) const;
  std::vector<Rank> DataGroupOf(Rank rank) const;
  std::vector<Rank> GroupOf(Rank rank, GroupKind kind) const;

  // Index of the group of `kind` that `rank` (at `coord`) belongs to. Groups
  // of a kind are numbered densely from 0.
  int GroupIndexOf(Rank rank, GroupKind kind) const;
  int GroupIndexOf(const RankCoord& coord, GroupKind kind) const;
  int NumGroups(GroupKind kind) const;

  // The group with this kind and dense index (std::out_of_range otherwise).
  ParallelGroup Group(GroupKind kind, int index) const;

  // All groups of a given kind, materialized.
  std::vector<ParallelGroup> Groups(GroupKind kind) const;

  // Machines hosting at least one rank of the given group, ascending. Works
  // for hand-built groups too (any rank order).
  std::vector<MachineId> MachinesOfGroup(const ParallelGroup& group) const;

  // Footprint of the group with this kind and dense index: its machines
  // (ascending), their count, and whether it hosts `machine`. The count and
  // the hosting test are O(1).
  std::vector<MachineId> GroupMachines(GroupKind kind, int index) const;
  int GroupMachineCount(GroupKind kind, int index) const;
  bool GroupHostsMachine(GroupKind kind, int index, MachineId machine) const;

  // Cross-parallel-group backup partner (paper Sec. 6.3): the rank at
  // pp' = (pp+1) mod PP, dp' = (dp+1) mod DP, same tp. Whenever PP >= 2 and
  // DP >= 2 the partner shares none of the rank's TP/PP/DP groups. For
  // degenerate configs (PP == 1 or DP == 1, e.g. pure ZeRO parallelism) the
  // caller should fall back to neighbor-machine backup; SharesAnyGroup tells
  // it whether the fallback is needed.
  Rank BackupPartnerOf(Rank rank) const;

  // True if a and b are in the same TP, PP, or DP group.
  bool SharesAnyGroup(Rank a, Rank b) const;

  // Smallest single parallel group (by machine count, then lowest index,
  // preferring PP, then DP, then TP) whose machines cover every machine in
  // `machines`; returns false if no single group covers them. Used by the
  // runtime analyzer for over-eviction. Only the groups of the first
  // machine's ranks are candidates.
  bool FindCoveringGroup(const std::vector<MachineId>& machines, ParallelGroup* out) const;

 private:
  // The ranks of one group: first + j * stride for j in [0, size).
  struct Progression {
    Rank first;
    int stride;
    int size;
  };

  // The group with this kind and dense index (std::out_of_range otherwise).
  Progression GroupRanks(GroupKind kind, int index) const;
  // The group of `kind` holding the rank at `coord`.
  Progression GroupRanksAt(const RankCoord& coord, GroupKind kind) const;
  int MachineCount(const Progression& group) const;
  bool Hosts(const Progression& group, MachineId machine) const;
  static std::vector<Rank> Members(const Progression& group);
  void CheckRank(Rank rank) const;

  ParallelismConfig config_;
};

}  // namespace byterobust

#endif  // SRC_TOPOLOGY_PARALLELISM_H_
