#include "src/fleet/fleet.h"

#include <algorithm>
#include <stdexcept>

#include "src/common/log.h"
#include "src/faults/fault_injector.h"

namespace byterobust {

Fleet::Fleet(const FleetConfig& config)
    : config_(config), storm_rng_(config.seed ^ 0xF1EE7F1EE7ULL) {
  if (config_.jobs.empty()) {
    throw std::invalid_argument("fleet needs at least one job");
  }
  const int gpus = config_.jobs.front().scenario.system.job.parallelism.gpus_per_machine;
  int demand = 0;
  for (const FleetJobSpec& spec : config_.jobs) {
    if (spec.scenario.system.job.parallelism.gpus_per_machine != gpus) {
      throw std::invalid_argument("fleet jobs must share gpus_per_machine");
    }
    demand += spec.scenario.system.job.parallelism.num_machines();
  }
  pool_ = std::make_unique<Cluster>(kFleetPool, demand + config_.shared_spares, gpus);
  if (config_.fault_domains.enabled) {
    pool_->AttachFaultDomains(config_.fault_domains);
  }
  arbiter_ = std::make_unique<SpareArbiter>(config_.arbiter, &sim_, pool_.get());

  // Register every job first (the arbiter needs the full priority table),
  // then build the per-job stacks in spec order: each system carves its slot
  // table from the pool's lowest idle machine ids, so allocations are
  // rack-contiguous and a storm band can straddle two adjacent jobs.
  std::vector<SparePool*> clients;
  clients.reserve(config_.jobs.size());
  for (const FleetJobSpec& spec : config_.jobs) {
    clients.push_back(arbiter_->RegisterJob(spec.name, spec.priority));
  }
  for (std::size_t i = 0; i < config_.jobs.size(); ++i) {
    const FleetJobSpec& spec = config_.jobs[i];
    FleetMemberWiring wiring;
    wiring.sim = &sim_;
    wiring.pool = pool_.get();
    wiring.spares = clients[i];
    wiring.ettr_origin = spec.start_time;
    systems_.push_back(std::make_unique<ByteRobustSystem>(spec.scenario.system, wiring));
    arbiter_->AttachJobRuntime(static_cast<int>(i), &systems_.back()->cluster(),
                               &systems_.back()->job());
    // The per-job scenario spreads its updates over the job's own span.
    ScenarioConfig scenario_cfg = spec.scenario;
    scenario_cfg.duration = std::max<SimDuration>(config_.duration - spec.start_time, 1);
    scenarios_.push_back(std::make_unique<Scenario>(scenario_cfg, systems_.back().get()));
  }
}

void Fleet::Run() {
  // Warm the shared pool from t=0 so early claims find ready spares.
  arbiter_->Replenish();
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    const FleetJobSpec& spec = config_.jobs[i];
    if (spec.start_time >= config_.duration) {
      continue;  // never launches inside this campaign
    }
    Scenario* scenario = scenarios_[i].get();
    sim_.ScheduleAt(spec.start_time, [scenario] { scenario->Begin(); });
  }
  if (config_.storm.mean_gap > 0) {
    ScheduleNextStorm();
  }
  sim_.RunUntil(config_.duration);
}

void Fleet::ScheduleNextStorm() {
  const SimDuration delay = static_cast<SimDuration>(
      storm_rng_.Exponential(static_cast<double>(config_.storm.mean_gap)));
  sim_.Schedule(delay, [this] { InjectStorm(); });
}

void Fleet::InjectStorm() {
  // Storm band: a ToR domain of the fault-domain graph when one is attached,
  // else the legacy flat band math. Graph ToR bands are constructed with the
  // same contiguous division, so with machines_per_tor == machines_per_switch
  // both paths draw from the same band count and land on identical bands —
  // the cli_fault_domain_equivalence gate and the fleet_test.cc band-layout
  // assertion pin that migration.
  // Band width comes from the graph's ToR span when one is attached, else
  // from the legacy storm knob. Band count and ranges are always computed
  // over the *current* pool size with the same contiguous division the graph
  // uses: the pool grows as standbys provision, and machines past the graph's
  // construction-time range fall into overflow bands exactly like the legacy
  // math placed them (the graph clamps those machines into its outermost
  // domains only for path/congestion purposes).
  const FaultDomains* domains = pool_->fault_domains();
  const int total = static_cast<int>(pool_->total_machines());
  const int per = std::max(
      domains != nullptr ? domains->config().machines_per_tor
                         : config_.storm.machines_per_switch,
      1);
  const int num_bands = (total + per - 1) / per;
  const int s = static_cast<int>(storm_rng_.UniformInt(0, num_bands - 1));
  const MachineId lo = s * per;
  const MachineId hi = std::min<MachineId>(lo + per, total);
  const bool transient = storm_rng_.Bernoulli(config_.storm.transient_fraction);
  const std::uint64_t storm_id = next_storm_id_++;

  // Everything under the dead ToR loses the switch — serving machines of any
  // job, idle spares, provisioning standbys alike. (Spares re-validate and
  // reset health when provisioned/installed, so a healed or replaced band
  // returns to service clean.) Deliberately per-machine flags only, no domain
  // state change: storms must stay byte-identical across the legacy and
  // graph-driven paths, and a domain-state bump exists only on the latter.
  int machines_hit = 0;
  for (MachineId id = lo; id < hi; ++id) {
    Machine& m = pool_->machine(id);
    if (pool_->IsBlacklisted(id)) {
      continue;
    }
    ++machines_hit;
    m.host().switch_reachable = false;
    m.host().packet_loss_rate = 0.3;
    if (m.state() == MachineState::kActive) {
      m.set_state(MachineState::kDegraded);  // gray network fault, still serving
    }
  }

  int jobs_hit = 0;
  for (std::size_t j = 0; j < systems_.size(); ++j) {
    Cluster& view = systems_[j]->cluster();
    std::vector<MachineId> mine;
    for (MachineId id = lo; id < hi; ++id) {
      if (view.SlotOfMachine(id) >= 0) {
        mine.push_back(id);
      }
    }
    if (mine.empty()) {
      continue;
    }
    ++jobs_hit;
    for (MachineId id : mine) {
      ++pool_->machine(id).incident_count;
    }
    Incident inc;
    // Storm incident ids live far above the per-job injectors' ranges; one id
    // per (storm, job) so each controller attributes its own share.
    inc.id = 5000000 + storm_id * 64 + static_cast<std::uint64_t>(j);
    inc.symptom = IncidentSymptom::kInfinibandError;
    inc.root_cause = transient ? RootCause::kTransient : RootCause::kInfrastructure;
    inc.faulty_machines = std::move(mine);
    inc.inject_time = sim_.Now();
    scenarios_[j]->InjectExternal(inc);
  }
  // Radius-0 storms (band covered only spares/backfills) still count: the
  // machines were degraded and the distribution should not be silently
  // conditioned on radius >= 1.
  ++storms_injected_;
  ++blast_radius_counts_[jobs_hit];
  if (domains != nullptr) {
    domain_blast_.RecordInjection(DomainLevel::kTor, DomainFaultKind::kSwitchStorm,
                                  machines_hit, jobs_hit, transient, sim_.Now());
  }
  BR_LOG_INFO("fleet", "switch storm #%llu on machines [%d, %d) hit %d job(s)%s",
              static_cast<unsigned long long>(storm_id), lo, hi, jobs_hit,
              transient ? " (transient)" : "");
  ScheduleNextStorm();
}

int Fleet::cross_job_storms() const {
  int count = 0;
  for (const auto& [radius, storms] : blast_radius_counts_) {
    if (radius >= 2) {
      count += storms;
    }
  }
  return count;
}

double Fleet::EffectiveGpuTimeRatio() const {
  double productive_gpu_s = 0.0;
  double scheduled_gpu_s = 0.0;
  for (std::size_t i = 0; i < systems_.size(); ++i) {
    const FleetJobSpec& spec = config_.jobs[i];
    const SimDuration span = config_.duration > spec.start_time
                                 ? config_.duration - spec.start_time
                                 : 0;
    const double world = spec.scenario.system.job.parallelism.world_size();
    productive_gpu_s += ToSeconds(systems_[i]->ettr().productive_time()) * world;
    scheduled_gpu_s += ToSeconds(span) * world;
  }
  return scheduled_gpu_s > 0.0 ? productive_gpu_s / scheduled_gpu_s : 0.0;
}

SpareOccupancySummary Fleet::OccupancySummary() const {
  SpareOccupancySummary summary;
  const std::vector<SpareOccupancySample>& samples = arbiter_->occupancy();
  summary.samples = static_cast<int>(samples.size());
  if (samples.empty()) {
    return summary;
  }
  summary.min_ready = summary.max_ready = samples.front().ready;
  double weighted = 0.0;
  // The pool starts empty at t=0; each sample holds until the next one.
  SimTime prev_time = 0;
  int prev_ready = 0;
  for (const SpareOccupancySample& s : samples) {
    weighted += ToSeconds(s.time - prev_time) * prev_ready;
    prev_time = s.time;
    prev_ready = s.ready;
    summary.min_ready = std::min(summary.min_ready, s.ready);
    summary.max_ready = std::max(summary.max_ready, s.ready);
  }
  weighted += ToSeconds(config_.duration - prev_time) * prev_ready;
  const double total = ToSeconds(config_.duration);
  summary.mean_ready = total > 0.0 ? weighted / total : 0.0;
  return summary;
}

}  // namespace byterobust
