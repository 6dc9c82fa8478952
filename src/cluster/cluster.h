// Cluster model: the set of machines serving one or more training jobs plus
// the blacklist of evicted machines. Warm-standby pool management lives in
// src/recovery; the cluster only tracks membership and health.
//
// Fleet mode (PR 5): machines, the blacklist and the health epoch live in a
// shared core so several Cluster objects can host concurrent jobs on one
// physical pool. The classic single-job constructor builds a root cluster
// that owns its core and all training slots; a *view* constructor carves a
// job-sized slot table out of a parent cluster's idle machines while sharing
// the parent's machine records, blacklist and health epoch. Components
// (TrainJob, Monitor, Diagnoser, RobustController) keep taking a plain
// `Cluster*` — a job handed its view sees only its own serving slots, while
// health mutations anywhere in the shared pool keep a single fleet-wide
// epoch, so cross-job phenomena (a ToR fault degrading machines of two jobs)
// are observable by both monitors.
//
// Threading model: a cluster core and every view carved from it belong to
// one campaign worker thread (the simulator that drives them is
// single-threaded; fleet-mode "sharing" is between jobs interleaved on that
// one thread, never between OS threads). Mutation wakers fire synchronously
// on the owning thread. Nothing here is locked, and the determinism lint +
// TSan gates exist to keep cross-thread state out of this layer.

#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "src/cluster/machine.h"
#include "src/topology/parallelism.h"

namespace byterobust {

class FaultDomains;
struct FaultDomainConfig;

// Tag type selecting the fleet-pool constructor: all machines start idle and
// the root owns no training slots (jobs carve views out of it).
struct FleetPoolTag {};
inline constexpr FleetPoolTag kFleetPool{};

class Cluster {
 public:
  // Creates `num_machines` active machines with `gpus_per_machine` GPUs each,
  // plus `num_spares` machines that start life outside the job (used to
  // refill training slots after evictions). The cluster owns its core and all
  // `num_machines` training slots (the classic single-job layout).
  Cluster(int num_machines, int gpus_per_machine, int num_spares = 0);

  // Fleet pool root: `total_machines` idle machines, zero training slots.
  // Job views carve their slot tables out of this pool.
  Cluster(FleetPoolTag, int total_machines, int gpus_per_machine);

  // Job view: shares `parent`'s machines/blacklist/health epoch and claims
  // `num_slots` idle machines (in id order) as its training slots. Throws if
  // the parent pool cannot supply that many idle machines.
  Cluster(Cluster& parent, int num_slots);

  ~Cluster();

  // Machines hold raw hooks into this cluster's health epoch, so the cluster
  // must never relocate.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_training_slots() const { return num_training_slots_; }
  int gpus_per_machine() const { return core_->gpus_per_machine; }
  std::size_t total_machines() const { return core_->machines.size(); }

  Machine& machine(MachineId id) { return *core_->machines.at(static_cast<std::size_t>(id)); }
  const Machine& machine(MachineId id) const {
    return *core_->machines.at(static_cast<std::size_t>(id));
  }

  // Machine currently serving training slot `slot` (slot indices are what the
  // Topology maps ranks onto; view slots are numbered from 0 within the
  // view). After a replacement, the slot points at the standby machine that
  // took over.
  MachineId MachineAtSlot(int slot) const { return slot_to_machine_.at(static_cast<std::size_t>(slot)); }
  // -1 if not serving *this* cluster. O(1): a machine -> slot table.
  int SlotOfMachine(MachineId id) const {
    const std::size_t i = static_cast<std::size_t>(id);
    return id >= 0 && i < slot_of_.size() ? slot_of_[i] : -1;
  }

  // Evicts the machine at `slot` (blacklists it) and installs `replacement`
  // into the slot. The replacement must not be blacklisted or in service.
  void ReplaceSlot(int slot, MachineId replacement);

  // Preemption support (fleet spare arbiter): removes the machine at `slot`
  // WITHOUT blacklisting it — the machine is healthy and is being transferred
  // to another job — and installs `replacement`. Returns the detached
  // machine, left in kIdle state for the claimant to install.
  MachineId DetachSlotMachine(int slot, MachineId replacement);

  // Marks a machine blacklisted without installing a replacement yet.
  void Blacklist(MachineId id);
  bool IsBlacklisted(MachineId id) const { return core_->blacklist.count(id) > 0; }
  const std::set<MachineId>& blacklist() const { return core_->blacklist; }

  // Adds a brand-new machine record (e.g. freshly provisioned standby);
  // returns its id.
  MachineId AddMachine();

  // Machines not serving, not blacklisted (candidates for standby pool or
  // rescheduling), in id order. Shared across views: a machine serving any
  // job is not idle. Read from a set kept up to date on state and blacklist
  // transitions.
  std::vector<MachineId> IdleMachines() const { return core_->idle.Members(); }

  // All machines currently serving this cluster's job, in slot order.
  std::vector<MachineId> ServingMachines() const { return slot_to_machine_; }

  // Same membership as ServingMachines() without the copy; hot paths (perf
  // model, inspections, fault sampling) iterate this instead.
  const std::vector<MachineId>& serving_slots() const { return slot_to_machine_; }

  // Count of serving machines whose state is kFaulty or kDegraded, from the
  // health index below.
  int UnhealthyServingCount() const { return unhealthy_serving_; }

  // -- health epoch + suspect index -----------------------------------------
  //
  // Every health mutation (fault injection, heal, slot swap, eviction,
  // restart, or any mutable Machine::gpu()/host() access) bumps a
  // monotonically increasing epoch shared by every view of the core, naming
  // the machine it touched. Consumers key caches on the epoch (the perf
  // model's slowest-clock scan). Each view keeps its health index — suspect
  // list and set, unhealthy count — up to date from the touched machine's
  // id alone; it is built from scratch only when the view is created. A
  // fault-domain transition (a bump naming no machine) only marks the
  // congestion factor stale: health flags do not depend on domain state.

  std::uint64_t health_epoch() const { return core_->health_epoch.value; }

  // Registers a one-shot callback fired by the next health mutation (any
  // epoch bump, whichever view's machine mutated). The quiescent monitor uses
  // it to stop re-arming periodic inspection passes while the cluster is
  // provably healthy: instead of polling, it parks here and is re-armed on
  // demand. Single consumer *per view* — a new request replaces any pending
  // one on the same view; in a fleet each job's monitor parks on its own
  // view. The callback runs synchronously inside the mutating call (possibly
  // mid-mutation), so it must only *schedule* work, never read health
  // attributes directly.
  void RequestMutationWake(std::function<void()> waker) {
    mutation_waker_ = std::move(waker);
  }

  // Serving machines of *this* cluster whose health may deviate from nominal
  // (health_dirty()), in slot order. Machines absent from this list are
  // guaranteed nominal, so inspections iterate only these instead of the
  // whole cluster.
  const std::vector<MachineId>& SuspectServingMachines() const { return suspect_serving_; }

  // Bitmask over the same suspects, for word-parallel membership queries.
  const MachineSet& SuspectServingSet() const { return suspect_set_; }

  // -- hierarchical fault domains -------------------------------------------

  // Builds the NIC -> ToR -> spine -> pod domain graph over the core's
  // current machine set and assigns every machine its domain path. Call once
  // on the root/pool cluster before carving views; a no-op when
  // `config.enabled` is false. Attaching is epoch-neutral (a healthy graph
  // changes nothing observable), so flat campaigns stay byte-identical.
  void AttachFaultDomains(const FaultDomainConfig& config);

  // The shared graph, or nullptr on flat-topology clusters. Shared by every
  // view of the core, like the blacklist.
  FaultDomains* fault_domains() { return core_->domains.get(); }
  const FaultDomains* fault_domains() const { return core_->domains.get(); }

  // Congestion term for this view's serving set: the minimum degradation
  // factor over impaired domains whose machine band the serving set crosses
  // (see FaultDomains::CongestionFactorFor). 1.0 without a graph or without
  // impairment. Recomputed only after the serving set or a domain changed.
  double CongestionFactor() const;

 private:
  // State shared by a root cluster and every view carved from it.
  struct Core {
    int gpus_per_machine = 0;
    std::vector<std::unique_ptr<Machine>> machines;
    std::set<MachineId> blacklist;
    // Machines in kIdle that are not blacklisted.
    MachineSet idle;
    // Bumped by Cluster mutators and (through the bound hooks) by every
    // Machine state/health mutation; updates the idle set and each member
    // view's health index, then dispatches each view's one-shot waker.
    HealthEpoch health_epoch;
    // Root + views sharing this core, in registration order (root first).
    std::vector<Cluster*> members;
    // Hierarchical fault-domain graph (nullptr = flat legacy topology).
    std::unique_ptr<FaultDomains> domains;

    ~Core();  // defined in cluster.cc, where FaultDomains is complete
  };

  // Per-slot health index flags.
  static constexpr std::uint8_t kSuspectFlag = 1;
  static constexpr std::uint8_t kUnhealthyFlag = 2;

  void RegisterWithCore();
  void AddCoreMachine(MachineState state);
  // Health-epoch dispatch: the machine `id` changed state or health, or, for
  // kAnyMachine, a fault domain changed.
  void OnMachineTouched(MachineId id);
  void InstallSlotMachine(int slot, MachineId replacement);
  // Points `slot` at `id`, moving the machine -> slot table and the health
  // index from the outgoing machine to `id`.
  void SetSlotMachine(int slot, MachineId id);
  // Re-reads the flags of the machine serving `slot` (`serving` false: the
  // machine is leaving the slot) and applies the difference to the index.
  void IndexSlot(int slot, bool serving);
  void RebuildHealthIndex();

  std::shared_ptr<Core> core_;
  int num_training_slots_;
  std::vector<MachineId> slot_to_machine_;
  std::vector<int> slot_of_;  // machine id -> slot in this view, or -1
  std::function<void()> mutation_waker_;  // one-shot, per view

  // Health index over this view's serving slots.
  std::vector<std::uint8_t> slot_flags_;
  std::vector<MachineId> suspect_serving_;  // slot order
  MachineSet suspect_set_;
  int unhealthy_serving_ = 0;
  mutable bool congestion_stale_ = true;
  mutable double congestion_factor_ = 1.0;
};

}  // namespace byterobust

#endif  // SRC_CLUSTER_CLUSTER_H_
