#include "src/faults/domain_injector.h"

#include <stdexcept>

namespace byterobust {

const char* DomainFaultKindName(DomainFaultKind kind) {
  switch (kind) {
    case DomainFaultKind::kSpineFlap:
      return "spine-flap";
    case DomainFaultKind::kPowerLoss:
      return "power-loss";
    case DomainFaultKind::kLinkFailSlow:
      return "link-failslow";
    case DomainFaultKind::kSwitchStorm:
      return "switch-storm";
  }
  return "unknown";
}

DomainLevel DomainFaultLevel(DomainFaultKind kind) {
  switch (kind) {
    case DomainFaultKind::kSpineFlap:
      return DomainLevel::kSpine;
    case DomainFaultKind::kPowerLoss:
      return DomainLevel::kPod;
    case DomainFaultKind::kLinkFailSlow:
    case DomainFaultKind::kSwitchStorm:
      return DomainLevel::kTor;
  }
  return DomainLevel::kTor;
}

IncidentSymptom DomainFaultSymptom(DomainFaultKind kind) {
  switch (kind) {
    case DomainFaultKind::kSpineFlap:
    case DomainFaultKind::kSwitchStorm:
      return IncidentSymptom::kInfinibandError;
    case DomainFaultKind::kPowerLoss:
      return IncidentSymptom::kOsKernelPanic;
    case DomainFaultKind::kLinkFailSlow:
      return IncidentSymptom::kMfuDecline;
  }
  return IncidentSymptom::kInfinibandError;
}

DomainFaultEffect DomainInjector::ApplyToDomain(DomainFaultKind kind, DomainId id,
                                                double degradation_factor,
                                                Cluster* cluster, SimTime now) {
  FaultDomains* domains = cluster->fault_domains();
  if (domains == nullptr) {
    throw std::logic_error("cluster has no fault-domain graph attached");
  }
  DomainFaultEffect effect;
  effect.domain = id;

  if (kind == DomainFaultKind::kLinkFailSlow) {
    // Pure link degradation: congestion backpressure through the perf model,
    // no machine-visible signal (the hallmark gray failure of Sec. 5).
    domains->SetState(id, DomainState::kDegraded, degradation_factor, now);
    return effect;
  }

  domains->SetState(id, kind == DomainFaultKind::kPowerLoss ? DomainState::kDown
                                                            : DomainState::kDegraded,
                    1.0, now);
  const MachineId end = domains->machine_end(id);
  for (MachineId m = domains->machine_begin(id); m < end; ++m) {
    if (cluster->IsBlacklisted(m)) {
      continue;
    }
    Machine& machine = cluster->machine(m);
    switch (kind) {
      case DomainFaultKind::kSpineFlap:
      case DomainFaultKind::kSwitchStorm: {
        HostHealth& host = machine.host();  // one health-epoch bump
        host.switch_reachable = false;
        host.packet_loss_rate = 0.3;
        if (machine.state() == MachineState::kActive) {
          machine.set_state(MachineState::kDegraded);  // gray fault, still serving
        }
        break;
      }
      case DomainFaultKind::kPowerLoss:
        machine.host().os_kernel_ok = false;
        if (machine.InService()) {
          machine.set_state(MachineState::kFaulty);
        }
        break;
      case DomainFaultKind::kLinkFailSlow:
        break;  // handled above
    }
    effect.affected.push_back(m);
  }
  return effect;
}

void DomainInjector::HealDomain(DomainFaultKind kind, DomainId id, Cluster* cluster,
                                SimTime now) {
  FaultDomains* domains = cluster->fault_domains();
  if (domains == nullptr) {
    throw std::logic_error("cluster has no fault-domain graph attached");
  }
  domains->Heal(id, now);
  if (kind == DomainFaultKind::kLinkFailSlow) {
    return;  // no machine state was touched
  }
  // Mirror FaultInjector::ClearFromCluster's semantics per machine: nominal
  // health again, and still-serving degraded/faulty machines return to
  // active. Evicted (blacklisted) machines stay out.
  const MachineId end = domains->machine_end(id);
  for (MachineId m = domains->machine_begin(id); m < end; ++m) {
    if (cluster->IsBlacklisted(m)) {
      continue;
    }
    Machine& machine = cluster->machine(m);
    machine.ResetHealth();
    if (machine.state() == MachineState::kFaulty ||
        machine.state() == MachineState::kDegraded) {
      machine.set_state(MachineState::kActive);
    }
  }
}

std::vector<MachineId> DomainInjector::ServingUnder(const Cluster& view, DomainId id) {
  const FaultDomains* domains = view.fault_domains();
  if (domains == nullptr) {
    return {};
  }
  std::vector<MachineId> serving;
  const MachineId end = domains->machine_end(id);
  for (MachineId m = domains->machine_begin(id); m < end; ++m) {
    if (view.SlotOfMachine(m) >= 0) {
      serving.push_back(m);
    }
  }
  return serving;
}

}  // namespace byterobust
