#include "src/cluster/cluster.h"

#include <algorithm>
#include <stdexcept>

#include "src/topology/fault_domains.h"

namespace byterobust {

Cluster::Core::~Core() = default;

void Cluster::RegisterWithCore() {
  core_->members.push_back(this);
  if (!core_->health_epoch.on_bump) {
    Core* core = core_.get();
    core_->health_epoch.on_bump = [core](MachineId id) {
      if (id != HealthEpoch::kAnyMachine) {
        const Machine& m = *core->machines[static_cast<std::size_t>(id)];
        if (m.state() == MachineState::kIdle && core->blacklist.count(id) == 0) {
          core->idle.Insert(id);
        } else {
          core->idle.Erase(id);
        }
      }
      // Update every member view's index before any waker runs. Then fire
      // each view's one-shot waker: move-out before invoking so a waker that
      // itself mutates health (recursive bump) or re-parks sees a clean slot;
      // iterate by index because a waker may add a view.
      for (Cluster* member : core->members) {
        member->OnMachineTouched(id);
      }
      for (std::size_t i = 0; i < core->members.size(); ++i) {
        Cluster* member = core->members[i];
        if (member->mutation_waker_) {
          std::function<void()> w = std::move(member->mutation_waker_);
          member->mutation_waker_ = nullptr;
          w();
        }
      }
    };
  }
}

void Cluster::AddCoreMachine(MachineState state) {
  const MachineId id = static_cast<MachineId>(core_->machines.size());
  core_->machines.push_back(std::make_unique<Machine>(id, core_->gpus_per_machine));
  core_->idle.Grow(static_cast<int>(core_->machines.size()));
  core_->machines.back()->BindHealthEpoch(&core_->health_epoch);
  if (state != MachineState::kActive) {
    core_->machines.back()->set_state(state);
  }
}

Cluster::Cluster(int num_machines, int gpus_per_machine, int num_spares)
    : core_(std::make_shared<Core>()), num_training_slots_(num_machines) {
  if (num_machines <= 0 || gpus_per_machine <= 0 || num_spares < 0) {
    throw std::invalid_argument("invalid cluster dimensions");
  }
  core_->gpus_per_machine = gpus_per_machine;
  RegisterWithCore();
  core_->machines.reserve(static_cast<std::size_t>(num_machines + num_spares));
  for (int i = 0; i < num_machines + num_spares; ++i) {
    AddCoreMachine(i < num_machines ? MachineState::kActive : MachineState::kIdle);
  }
  slot_to_machine_.resize(static_cast<std::size_t>(num_machines));
  for (int i = 0; i < num_machines; ++i) {
    slot_to_machine_[static_cast<std::size_t>(i)] = i;
  }
  RebuildHealthIndex();
}

Cluster::Cluster(FleetPoolTag, int total_machines, int gpus_per_machine)
    : core_(std::make_shared<Core>()), num_training_slots_(0) {
  if (total_machines <= 0 || gpus_per_machine <= 0) {
    throw std::invalid_argument("invalid fleet pool dimensions");
  }
  core_->gpus_per_machine = gpus_per_machine;
  RegisterWithCore();
  core_->machines.reserve(static_cast<std::size_t>(total_machines));
  for (int i = 0; i < total_machines; ++i) {
    AddCoreMachine(MachineState::kIdle);
  }
  RebuildHealthIndex();
}

Cluster::Cluster(Cluster& parent, int num_slots)
    : core_(parent.core_), num_training_slots_(num_slots) {
  if (num_slots <= 0) {
    throw std::invalid_argument("view needs at least one training slot");
  }
  // Select before mutating anything: a failed carve must leave no trace — a
  // throwing constructor never runs its destructor, so registering with the
  // core (or flipping machines kActive) first would leave a dangling member
  // pointer behind the exception.
  std::vector<MachineId> idle = core_->idle.Members();
  if (idle.size() < static_cast<std::size_t>(num_slots)) {
    throw std::invalid_argument("fleet pool cannot supply the job's machine demand");
  }
  idle.resize(static_cast<std::size_t>(num_slots));
  slot_to_machine_ = std::move(idle);
  RegisterWithCore();
  for (MachineId id : slot_to_machine_) {
    core_->machines[static_cast<std::size_t>(id)]->set_state(MachineState::kActive);
  }
  RebuildHealthIndex();
}

Cluster::~Cluster() {
  auto& members = core_->members;
  members.erase(std::remove(members.begin(), members.end(), this), members.end());
}

void Cluster::InstallSlotMachine(int slot, MachineId replacement) {
  if (slot < 0 || slot >= num_training_slots_) {
    throw std::out_of_range("slot out of range");
  }
  if (IsBlacklisted(replacement)) {
    throw std::invalid_argument("replacement machine is blacklisted");
  }
  Machine& incoming = machine(replacement);
  if (incoming.InService()) {
    throw std::invalid_argument("replacement machine already in service");
  }
  incoming.ResetHealth();
  incoming.set_state(MachineState::kActive);
  SetSlotMachine(slot, replacement);
}

void Cluster::SetSlotMachine(int slot, MachineId id) {
  const std::size_t s = static_cast<std::size_t>(slot);
  const std::size_t outgoing = static_cast<std::size_t>(slot_to_machine_[s]);
  IndexSlot(slot, false);
  slot_of_[outgoing] = -1;
  slot_to_machine_[s] = id;
  if (static_cast<std::size_t>(id) >= slot_of_.size()) {
    slot_of_.resize(core_->machines.size(), -1);
    suspect_set_.Grow(static_cast<int>(core_->machines.size()));
  }
  slot_of_[static_cast<std::size_t>(id)] = slot;
  IndexSlot(slot, true);
  congestion_stale_ = true;
}

void Cluster::ReplaceSlot(int slot, MachineId replacement) {
  // Validate before evicting the old machine so a bad replacement leaves the
  // slot untouched; InstallSlotMachine re-checks harmlessly.
  if (slot < 0 || slot >= num_training_slots_) {
    throw std::out_of_range("slot out of range");
  }
  if (IsBlacklisted(replacement)) {
    throw std::invalid_argument("replacement machine is blacklisted");
  }
  if (machine(replacement).InService()) {
    throw std::invalid_argument("replacement machine already in service");
  }
  const MachineId old = slot_to_machine_[static_cast<std::size_t>(slot)];
  Blacklist(old);
  machine(old).set_state(MachineState::kEvicted);
  InstallSlotMachine(slot, replacement);
  core_->health_epoch.Bump(replacement);  // serving membership changed
}

MachineId Cluster::DetachSlotMachine(int slot, MachineId replacement) {
  if (slot < 0 || slot >= num_training_slots_) {
    throw std::out_of_range("slot out of range");
  }
  const MachineId detached = slot_to_machine_[static_cast<std::size_t>(slot)];
  InstallSlotMachine(slot, replacement);
  machine(detached).set_state(MachineState::kIdle);
  core_->health_epoch.Bump(replacement);  // serving membership changed
  return detached;
}

void Cluster::Blacklist(MachineId id) {
  core_->blacklist.insert(id);
  machine(id).set_state(MachineState::kEvicted);
}

MachineId Cluster::AddMachine() {
  AddCoreMachine(MachineState::kIdle);
  const MachineId id = static_cast<MachineId>(core_->machines.size() - 1);
  if (core_->domains != nullptr) {
    // Late-provisioned machines clamp into the graph's outermost bands.
    core_->machines.back()->set_domain_path(core_->domains->PathOfMachine(id));
  }
  return id;
}

void Cluster::AttachFaultDomains(const FaultDomainConfig& config) {
  if (!config.enabled) {
    return;
  }
  core_->domains =
      std::make_unique<FaultDomains>(config, static_cast<int>(core_->machines.size()));
  core_->domains->BindHealthEpoch(&core_->health_epoch);
  for (const auto& m : core_->machines) {
    m->set_domain_path(core_->domains->PathOfMachine(m->id()));
  }
  for (Cluster* member : core_->members) {
    member->congestion_stale_ = true;
  }
}

double Cluster::CongestionFactor() const {
  if (core_->domains == nullptr) {
    return 1.0;
  }
  if (congestion_stale_) {
    congestion_factor_ = core_->domains->AnyImpaired()
                             ? core_->domains->CongestionFactorFor(slot_to_machine_)
                             : 1.0;
    congestion_stale_ = false;
  }
  return congestion_factor_;
}

void Cluster::OnMachineTouched(MachineId id) {
  if (id == HealthEpoch::kAnyMachine) {
    // A fault domain changed: congestion may have, health flags did not.
    congestion_stale_ = true;
    return;
  }
  const int slot = SlotOfMachine(id);
  if (slot >= 0) {
    IndexSlot(slot, true);
  }
}

void Cluster::IndexSlot(int slot, bool serving) {
  const std::size_t s = static_cast<std::size_t>(slot);
  const MachineId id = slot_to_machine_[s];
  std::uint8_t flags = 0;
  if (serving) {
    const Machine& m = machine(id);
    if (m.health_dirty()) {
      flags |= kSuspectFlag;
    }
    if (m.state() == MachineState::kFaulty || m.state() == MachineState::kDegraded) {
      flags |= kUnhealthyFlag;
    }
  }
  const std::uint8_t changed = flags ^ slot_flags_[s];
  slot_flags_[s] = flags;
  if ((changed & kUnhealthyFlag) != 0) {
    unhealthy_serving_ += (flags & kUnhealthyFlag) != 0 ? 1 : -1;
  }
  if ((changed & kSuspectFlag) == 0) {
    return;
  }
  // Suspects are few; keep them in slot order by binary search on slot.
  const auto pos = std::lower_bound(
      suspect_serving_.begin(), suspect_serving_.end(), slot,
      [this](MachineId suspect, int target) { return SlotOfMachine(suspect) < target; });
  if ((flags & kSuspectFlag) != 0) {
    suspect_serving_.insert(pos, id);
    suspect_set_.Insert(id);
  } else {
    suspect_serving_.erase(pos);
    suspect_set_.Erase(id);
  }
}

void Cluster::RebuildHealthIndex() {
  slot_of_.assign(core_->machines.size(), -1);
  for (std::size_t s = 0; s < slot_to_machine_.size(); ++s) {
    slot_of_[static_cast<std::size_t>(slot_to_machine_[s])] = static_cast<int>(s);
  }
  slot_flags_.assign(slot_to_machine_.size(), 0);
  suspect_serving_.clear();
  suspect_set_ = MachineSet(static_cast<int>(core_->machines.size()));
  unhealthy_serving_ = 0;
  for (std::size_t s = 0; s < slot_to_machine_.size(); ++s) {
    IndexSlot(static_cast<int>(s), true);
  }
  congestion_stale_ = true;
}

}  // namespace byterobust
