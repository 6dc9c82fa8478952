#include "src/campaign/scenarios.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/production_presets.h"
#include "src/faults/fault_injector.h"
#include "src/fleet/fleet.h"
#include "src/fleet/fleet_presets.h"
#include "src/obs/dashboard.h"
#include "src/recovery/was_model.h"
#include "src/topology/fault_domains.h"

namespace byterobust {

const std::vector<ScenarioSpec>& Specs() {
  static const std::vector<ScenarioSpec> specs = {
      {"quickstart", "16-machine 7B job with the full Table 1 fault mix", false,
       IncidentSymptom::kCudaError, 0.5},
      {"dense", "9,600-GPU dense 70+B production campaign (Sec. 8.1)", false,
       IncidentSymptom::kCudaError, 7.0},
      {"dense-month", "30-day 9,600-GPU dense robustness campaign (month scale)", false,
       IncidentSymptom::kCudaError, 30.0},
      {"moe", "9,600-GPU MoE 200+B production campaign (Sec. 8.1)", false,
       IncidentSymptom::kCudaError, 7.0},
      {"fig2", "1,000-GPU job with heavy manual adjustment (Fig. 2)", false,
       IncidentSymptom::kCudaError, 10.0},
      {"gpu-fault", "targeted kGpuUnavailable injection campaign", true,
       IncidentSymptom::kGpuUnavailable, 0.5},
      {"nic-fault", "targeted kInfinibandError injection campaign", true,
       IncidentSymptom::kInfinibandError, 0.5},
      {"cuda-error", "targeted kCudaError injection campaign", true,
       IncidentSymptom::kCudaError, 0.5},
      {"job-hang", "targeted kJobHang injection campaign", true,
       IncidentSymptom::kJobHang, 0.5},
      {"nan-loss", "targeted kNanValue injection campaign", true,
       IncidentSymptom::kNanValue, 0.5},
      {"spine-flap", "correlated spine flaps: gray network faults over whole sub-trees", false,
       IncidentSymptom::kInfinibandError, 0.5, true, DomainFaultKind::kSpineFlap},
      {"power-domain", "pod power-domain losses killing every machine beneath", false,
       IncidentSymptom::kOsKernelPanic, 0.5, true, DomainFaultKind::kPowerLoss},
      {"link-failslow", "silent ToR fail-slow: congestion backpressure, MFU-only signal", false,
       IncidentSymptom::kMfuDecline, 0.5, true, DomainFaultKind::kLinkFailSlow},
  };
  return specs;
}

const ScenarioSpec* FindSpec(const std::string& name) {
  for (const ScenarioSpec& s : Specs()) {
    if (name == s.name) {
      return &s;
    }
  }
  return nullptr;
}

const std::vector<FleetSpec>& FleetSpecs() {
  static const std::vector<FleetSpec> specs = {
      {"fleet-mixed",
       "three heterogeneous jobs (priorities, staggered starts) on one shared spare pool",
       &FleetMixedConfig, 0.5},
      {"fleet-contention",
       "four jobs, one shared spare, accelerated faults: claims preempt and queue",
       &FleetContentionConfig, 0.5},
      {"fleet-switch-storm",
       "two rack-adjacent jobs under ToR switch storms whose bands span both",
       &FleetSwitchStormConfig, 1.0},
  };
  return specs;
}

const FleetSpec* FindFleetSpec(const std::string& name) {
  for (const FleetSpec& s : FleetSpecs()) {
    if (name == s.name) {
      return &s;
    }
  }
  return nullptr;
}

namespace {

// Trailing retention window for per-run ETTR-span / MFU-sample compaction.
// Two hours sits comfortably above the 1 h sliding-ETTR window, so campaign
// metrics are bit-identical windowed or not (BatchedStepTest checks this
// against unbounded retention) while month-scale runs hold O(window) metric
// state instead of O(steps).
constexpr SimDuration kCampaignMetricsRetention = Hours(2);

// The one place runtime knobs reach a model config. The switches can only
// pin a reference path: a preset that turned a fast path off keeps it off.
SystemConfig WithKnobs(SystemConfig system, const RuntimeKnobs& knobs) {
  system.job.batched_stepping = knobs.step_batching;
  system.monitor.quiescent = system.monitor.quiescent && knobs.quiescent_monitor;
  system.fault_domains.enabled = system.fault_domains.enabled && knobs.fault_domains;
  system.metrics_retention = kCampaignMetricsRetention;
  return system;
}

FleetConfig WithKnobs(FleetConfig fleet, const RuntimeKnobs& knobs) {
  fleet.fault_domains.enabled = fleet.fault_domains.enabled && knobs.fault_domains;
  for (FleetJobSpec& job : fleet.jobs) {
    job.scenario.system = WithKnobs(job.scenario.system, knobs);
  }
  return fleet;
}

SystemConfig QuickstartSystem(std::uint64_t seed) {
  SystemConfig config;
  config.job.name = "quickstart-7B";
  config.job.model_params_b = 7.0;
  config.job.parallelism.tp = 2;
  config.job.parallelism.pp = 4;
  config.job.parallelism.dp = 4;
  config.job.parallelism.gpus_per_machine = 2;
  config.job.base_step_time = Seconds(10);
  config.seed = seed;
  config.spare_machines = 4;
  return config;
}

ScenarioConfig MixedConfig(const std::string& name, double days, std::uint64_t seed) {
  if (name == "dense" || name == "dense-month") {
    return DenseCampaignConfig(days, seed);
  }
  if (name == "moe") {
    return MoeCampaignConfig(days, seed);
  }
  if (name == "fig2") {
    ScenarioConfig cfg = Fig2CampaignConfig(seed);
    cfg.duration = Days(days);
    return cfg;
  }
  // quickstart: small cluster, accelerated fault clock so a half-day run
  // still sees a handful of incidents.
  ScenarioConfig cfg;
  cfg.system = QuickstartSystem(seed);
  cfg.duration = Days(days);
  cfg.injector.reference_mtbf = Hours(1.0);
  cfg.injector.reference_machines = 64;
  cfg.planned_updates = 2;
  return cfg;
}

// Correlated fault-domain campaigns: the quickstart cluster with the domain
// stream dominant and the Table 1 background mix throttled way down, so the
// blast-radius metrics reflect the correlated faults rather than the mix.
ScenarioConfig DomainConfig(const ScenarioSpec& spec, double days, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.system = QuickstartSystem(seed);
  cfg.duration = Days(days);
  // Quickstart has 20 machines (16 serving + 4 spares); the default 6/4 tree
  // would collapse to a single spine covering everything. 4 machines per ToR
  // and 2 ToRs per spine gives 5 ToRs / 3 spines / 2 pods, so domain faults
  // strike proper sub-trees instead of the whole cluster.
  cfg.system.fault_domains.machines_per_tor = 4;
  cfg.system.fault_domains.tors_per_spine = 2;
  cfg.injector.reference_mtbf = Hours(6.0);
  cfg.injector.reference_machines = 64;
  cfg.planned_updates = 0;
  cfg.domain_faults.kind = spec.domain_kind;
  cfg.domain_faults.mean_gap = Minutes(45);
  switch (spec.domain_kind) {
    case DomainFaultKind::kPowerLoss:
      // Power loss never self-heals inside a debounce; every event is a
      // persistent whole-pod outage (shortened so a half-day run recovers).
      cfg.domain_faults.transient_fraction = 0.0;
      cfg.domain_faults.persistent_hold = Hours(1);
      break;
    case DomainFaultKind::kLinkFailSlow:
      cfg.domain_faults.transient_fraction = 0.5;
      cfg.domain_faults.persistent_hold = Hours(1);
      cfg.domain_faults.degradation_factor = 0.55;
      break;
    default:
      break;  // spine-flap: default 70% transient, healing inside the debounce
  }
  return cfg;
}

LatencyStats Summarize(const std::vector<double>& xs) {
  LatencyStats s;
  s.count = static_cast<int>(xs.size());
  for (double x : xs) {
    s.mean_s += x;
    s.max_s = std::max(s.max_s, x);
  }
  if (s.count > 0) {
    s.mean_s /= s.count;
  }
  return s;
}

// Weighted-average scheduling time at this scale under the Sec. 6.2 binomial
// failure model (the Fig. 12 methodology, src/recovery/was_model.h).
void ComputeWas(int machines, RunResult* r) {
  const WasEstimate est = EstimateWas(machines);
  r->was_byterobust_s = est.byterobust_s;
  r->was_requeue_s = est.requeue_s;
}

// Fills the system-derived fields of *r and, under --dashboard, records the
// job's sliding ETTR/MFU series as "<scenario> seed <seed>[/<job>]".
void CollectSystemMetrics(ByteRobustSystem& sys, std::uint64_t seed, int ordinal,
                          const char* job, RunResult* r) {
  r->machines = sys.config().job.parallelism.num_machines();
  r->world_size = sys.config().job.parallelism.world_size();
  r->steps = sys.job().max_step_reached();
  r->runs = sys.job().run_count();
  r->evictions = sys.controller().evictions_total();
  r->ettr_cumulative = sys.ettr().CumulativeEttr(sys.sim().Now());
  r->productive_s = ToSeconds(sys.ettr().productive_time());
  r->recompute_s = ToSeconds(sys.ettr().recompute_time());
  r->final_mfu = sys.job().CurrentMfu();

  std::vector<double> detect;
  std::vector<double> localize;
  std::vector<double> failover;
  std::vector<double> total;
  for (const IncidentResolution& res : sys.controller().log().entries()) {
    detect.push_back(ToSeconds(res.DetectionTime()));
    localize.push_back(ToSeconds(res.LocalizationTime()));
    failover.push_back(ToSeconds(res.FailoverTime()));
    total.push_back(ToSeconds(res.TotalUnproductive()));
    if (res.resolved) {
      ++r->incidents_resolved;
    }
    ++r->mechanisms[MechanismName(res.mechanism)];
  }
  r->detection = Summarize(detect);
  r->localization = Summarize(localize);
  r->failover = Summarize(failover);
  r->resolution = Summarize(total);
  ComputeWas(r->machines, r);
  if (obs::DashboardEnabled()) {
    std::string label = r->scenario + " seed " + std::to_string(seed);
    if (job != nullptr) {
      label += "/";
      label += job;
    }
    obs::RecordDashboardJob(obs::SampleDashboardJob(label, seed, ordinal, sys.ettr(),
                                                    sys.mfu_series(), sys.sim().Now()));
  }
}

RunResult RunMixed(const ScenarioSpec& spec, double days, std::uint64_t seed,
                   const RuntimeKnobs& knobs) {
  RunResult r;
  r.scenario = spec.name;
  r.seed = seed;
  r.days = days;
  ScenarioConfig cfg =
      spec.domain ? DomainConfig(spec, days, seed) : MixedConfig(spec.name, days, seed);
  cfg.system = WithKnobs(cfg.system, knobs);
  Scenario scenario(cfg);
  scenario.Run();
  r.incidents_injected = scenario.stats().incidents_injected;
  r.refails = scenario.stats().refails;
  r.updates_submitted = scenario.stats().updates_submitted;
  r.domain_faults_injected = scenario.stats().domain_faults_injected;
  r.domain_blast = scenario.domain_blast();
  CollectSystemMetrics(scenario.system(), seed, /*ordinal=*/0, /*job=*/nullptr, &r);
  return r;
}

// A targeted campaign: one symptom, injected at exponential intervals onto a
// random serving machine, with the infrastructure root cause (the controller
// must evict the machine to clear it).
class TargetedCampaign {
 public:
  TargetedCampaign(const ScenarioSpec& spec, double days, std::uint64_t seed,
                   const RuntimeKnobs& knobs)
      : spec_(spec),
        sys_(WithKnobs(QuickstartSystem(seed), knobs)),
        rng_(seed ^ 0xF00DULL),
        duration_(Days(days)),
        mean_gap_(Minutes(40)) {}

  int Run() {
    sys_.Start();
    ScheduleNext();
    sys_.sim().RunUntil(duration_);
    return injected_;
  }

  ByteRobustSystem& system() { return sys_; }

 private:
  void ScheduleNext() {
    const SimDuration delay =
        static_cast<SimDuration>(rng_.Exponential(static_cast<double>(mean_gap_)));
    sys_.sim().Schedule(delay, [this] { Inject(); });
  }

  void Inject() {
    if (sys_.job().state() != JobRunState::kRunning) {
      sys_.sim().Schedule(Minutes(2), [this] { Inject(); });
      return;
    }
    // Same slot-ordered membership as ServingMachines(), without the
    // per-incident copy.
    const std::vector<MachineId>& serving = sys_.cluster().serving_slots();
    if (serving.empty()) {
      return;
    }
    Incident inc;
    inc.id = static_cast<std::uint64_t>(++injected_);
    inc.symptom = spec_.symptom;
    inc.root_cause = RootCause::kInfrastructure;
    inc.faulty_machines = {serving[static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(serving.size()) - 1))]};
    inc.gpu_index = spec_.symptom == IncidentSymptom::kGpuUnavailable
                        ? static_cast<int>(rng_.UniformInt(
                              0, sys_.config().job.parallelism.gpus_per_machine - 1))
                        : -1;
    inc.inject_time = sys_.sim().Now();
    FaultInjector::ApplyToCluster(inc, &sys_.cluster());
    sys_.controller().NotifyIncidentInjected(inc);
    switch (inc.symptom) {
      case IncidentSymptom::kJobHang: {
        const Topology& topo = sys_.job().topology();
        const int slot = sys_.cluster().SlotOfMachine(inc.faulty_machines.front());
        sys_.job().Hang(std::max(slot, 0) * topo.config().gpus_per_machine);
        break;
      }
      case IncidentSymptom::kNanValue:
        sys_.job().SetNanLoss(true);
        break;
      case IncidentSymptom::kMfuDecline:
        break;  // monitor picks up the degraded clock on the next step
      default:
        sys_.job().Crash();
        break;
    }
    ScheduleNext();
  }

  ScenarioSpec spec_;
  ByteRobustSystem sys_;
  Rng rng_;
  SimDuration duration_;
  SimDuration mean_gap_;
  int injected_ = 0;
};

RunResult RunTargeted(const ScenarioSpec& spec, double days, std::uint64_t seed,
                      const RuntimeKnobs& knobs) {
  RunResult r;
  r.scenario = spec.name;
  r.seed = seed;
  r.days = days;
  TargetedCampaign campaign(spec, days, seed, knobs);
  r.incidents_injected = campaign.Run();
  CollectSystemMetrics(campaign.system(), seed, /*ordinal=*/0, /*job=*/nullptr, &r);
  return r;
}

// ---------------------------------------------------------------------------
// JSON emission.
// ---------------------------------------------------------------------------
void WriteLatency(JsonWriter* w, const std::string& key, const LatencyStats& s) {
  w->Key(key);
  w->BeginObject();
  w->Field("mean_s", s.mean_s);
  w->Field("max_s", s.max_s);
  w->Field("count", s.count);
  w->EndObject();
}

// Per-domain-level blast-radius block, shared by campaign runs and the fleet
// seed element. Only emitted when at least one domain fault fired, so flat
// (or fault-domain-free) campaigns keep their original byte layout.
void WriteDomainBlast(JsonWriter* w, const std::string& key, const DomainBlastStats& stats) {
  w->Key(key);
  w->BeginObject();
  w->Field("events", static_cast<int>(stats.events().size()));
  w->Key("levels");
  w->BeginObject();
  for (const auto& [level, s] : stats.SummaryByLevel()) {
    w->Key(DomainLevelName(static_cast<DomainLevel>(level)));
    w->BeginObject();
    w->Field("events", s.events);
    w->Field("transient", s.transient_events);
    w->Field("healed", s.healed_events);
    w->Field("mean_ettr_delta", s.MeanEttrDelta());
    w->Key("machines_hist");
    w->BeginObject();
    for (const auto& [machines, count] : s.machines_hist) {
      w->Field(std::to_string(machines), count);
    }
    w->EndObject();
    w->Key("jobs_hist");
    w->BeginObject();
    for (const auto& [jobs, count] : s.jobs_hist) {
      w->Field(std::to_string(jobs), count);
    }
    w->EndObject();
    w->EndObject();
  }
  w->EndObject();
  w->EndObject();
}

void WriteRunFields(JsonWriter* w, const RunResult& r) {
  w->Field("scenario", r.scenario);
  w->Field("seed", r.seed);
  w->Field("days", r.days);
  w->Field("machines", r.machines);
  w->Field("world_size", r.world_size);
  w->Field("steps", r.steps);
  w->Field("runs", r.runs);
  w->Field("evictions", r.evictions);
  w->Key("incidents");
  w->BeginObject();
  w->Field("injected", r.incidents_injected);
  w->Field("resolved", r.incidents_resolved);
  w->Field("refails", r.refails);
  w->Field("updates_submitted", r.updates_submitted);
  w->EndObject();
  w->Key("ettr");
  w->BeginObject();
  w->Field("cumulative", r.ettr_cumulative);
  w->Field("productive_s", r.productive_s);
  w->Field("recompute_s", r.recompute_s);
  w->EndObject();
  WriteLatency(w, "detection_s", r.detection);
  WriteLatency(w, "localization_s", r.localization);
  WriteLatency(w, "failover_s", r.failover);
  WriteLatency(w, "resolution_s", r.resolution);
  w->Key("was_s");
  w->BeginObject();
  w->Field("byterobust", r.was_byterobust_s);
  w->Field("requeue", r.was_requeue_s);
  w->EndObject();
  w->Field("final_mfu", r.final_mfu);
  w->Key("mechanisms");
  w->BeginObject();
  for (const auto& [name, count] : r.mechanisms) {
    w->Field(name, count);
  }
  w->EndObject();
  if (!r.domain_blast.empty()) {
    w->Field("domain_faults_injected", r.domain_faults_injected);
    WriteDomainBlast(w, "fault_domains", r.domain_blast);
  }
}

// Campaign aggregate slots: one source of truth for the pairing between the
// per-seed summary vector (CampaignSummaryOf) and the emitted labels
// (WriteCampaignAggregates) — reordering one without the other cannot happen.
enum CampaignAggSlot : std::size_t {
  kCampaignAggEttr = 0,
  kCampaignAggDetection,
  kCampaignAggResolution,
  kCampaignAggFailover,
  kCampaignAggIncidents,
  kCampaignAggEvictions,
  kCampaignAggCount,
};

std::vector<double> CampaignSummaryOf(const RunResult& r) {
  std::vector<double> s(kCampaignAggCount);
  s[kCampaignAggEttr] = r.ettr_cumulative;
  s[kCampaignAggDetection] = r.detection.mean_s;
  s[kCampaignAggResolution] = r.resolution.mean_s;
  s[kCampaignAggFailover] = r.failover.mean_s;
  s[kCampaignAggIncidents] = static_cast<double>(r.incidents_injected);
  s[kCampaignAggEvictions] = static_cast<double>(r.evictions);
  return s;
}

// One "runs" array element, byte-identical to the same element rendered
// inline by the full-document writer (leading newline + indent, no comma).
std::string RenderRunElement(const RunResult& r) {
  JsonWriter w(/*depth=*/2, /*need_comma=*/false);
  WriteRun(&w, r);
  return w.Take();
}

void WriteCampaignAggregates(JsonWriter* w, const std::vector<std::vector<double>>& summaries) {
  w->Key("aggregate");
  w->BeginObject();
  WriteAggregate(w, "ettr_cumulative", FoldAggregateAt(summaries, kCampaignAggEttr));
  WriteAggregate(w, "detection_mean_s", FoldAggregateAt(summaries, kCampaignAggDetection));
  WriteAggregate(w, "resolution_mean_s", FoldAggregateAt(summaries, kCampaignAggResolution));
  WriteAggregate(w, "failover_mean_s", FoldAggregateAt(summaries, kCampaignAggFailover));
  WriteAggregate(w, "incidents_injected", FoldAggregateAt(summaries, kCampaignAggIncidents));
  WriteAggregate(w, "evictions", FoldAggregateAt(summaries, kCampaignAggEvictions));
  w->EndObject();
}

// ---------------------------------------------------------------------------
// Fleet emission: N concurrent jobs on one shared pool (src/fleet).
// ---------------------------------------------------------------------------

// Fleet aggregate slots: same single-sourcing as the campaign slots above.
enum FleetAggSlot : std::size_t {
  kFleetAggGpuRatio = 0,
  kFleetAggPreemptions,
  kFleetAggQueuedClaims,
  kFleetAggStorms,
  kFleetAggCrossJobStorms,
  kFleetAggIncidents,
  kFleetAggEvictions,
  kFleetAggCount,
};

void WriteFleetAggregates(JsonWriter* w, const std::vector<std::vector<double>>& summaries) {
  w->Key("aggregate");
  w->BeginObject();
  WriteAggregate(w, "effective_gpu_time_ratio", FoldAggregateAt(summaries, kFleetAggGpuRatio));
  WriteAggregate(w, "preemptions", FoldAggregateAt(summaries, kFleetAggPreemptions));
  WriteAggregate(w, "queued_claims", FoldAggregateAt(summaries, kFleetAggQueuedClaims));
  WriteAggregate(w, "storms_injected", FoldAggregateAt(summaries, kFleetAggStorms));
  WriteAggregate(w, "cross_job_storms", FoldAggregateAt(summaries, kFleetAggCrossJobStorms));
  WriteAggregate(w, "incidents_injected", FoldAggregateAt(summaries, kFleetAggIncidents));
  WriteAggregate(w, "evictions", FoldAggregateAt(summaries, kFleetAggEvictions));
  w->EndObject();
}

// Runs one fleet seed and renders its "runs" element: fleet-level metrics
// (effective GPU-time ratio, spare-pool occupancy timeline, blast radius)
// plus one per-job block reusing the campaign RunResult schema extended with
// priority / start time / spare-claim counters.
SeedOutcome RunFleetSeed(const FleetSpec& spec, double days, std::uint64_t seed,
                         const RuntimeKnobs& knobs) {
  const FleetConfig cfg = WithKnobs(spec.make(days, seed), knobs);
  Fleet fleet(cfg);
  fleet.Run();

  int incidents_total = 0;
  int evictions_total = 0;
  JsonWriter w(/*depth=*/2, /*need_comma=*/false);
  w.BeginObject();
  w.Field("scenario", spec.name);
  w.Field("seed", seed);
  w.Field("days", days);
  w.Field("num_jobs", fleet.num_jobs());
  w.Key("fleet");
  w.BeginObject();
  w.Field("machines_total", static_cast<int>(fleet.pool().total_machines()));
  w.Field("effective_gpu_time_ratio", fleet.EffectiveGpuTimeRatio());
  w.Field("storms_injected", fleet.storms_injected());
  w.Field("cross_job_storms", fleet.cross_job_storms());
  w.Key("blast_radius");
  w.BeginObject();
  for (const auto& [radius, count] : fleet.blast_radius_counts()) {
    w.Field(std::to_string(radius), count);
  }
  w.EndObject();
  if (!fleet.domain_blast().empty()) {
    WriteDomainBlast(&w, "domain_blast", fleet.domain_blast());
  }
  const SpareOccupancySummary occ = fleet.OccupancySummary();
  w.Key("spare_pool");
  w.BeginObject();
  w.Field("preemptions", fleet.arbiter().preemptions_total());
  w.Field("queued_claims", fleet.arbiter().queued_claims_total());
  w.Field("ready_mean", occ.mean_ready);
  w.Field("ready_min", occ.min_ready);
  w.Field("ready_max", occ.max_ready);
  w.Field("occupancy_samples", occ.samples);
  // Occupancy timeline: every pool mutation up to a fixed emission cap.
  const std::vector<SpareOccupancySample>& timeline = fleet.arbiter().occupancy();
  constexpr std::size_t kTimelineCap = 256;
  w.Field("timeline_truncated", timeline.size() > kTimelineCap);
  w.Key("timeline");
  w.BeginArray();
  for (std::size_t i = 0; i < timeline.size() && i < kTimelineCap; ++i) {
    w.BeginObject();
    w.Field("t_s", ToSeconds(timeline[i].time));
    w.Field("ready", timeline[i].ready);
    w.Field("provisioning", timeline[i].provisioning);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();  // spare_pool
  w.EndObject();  // fleet
  w.Key("jobs");
  w.BeginArray();
  for (int i = 0; i < fleet.num_jobs(); ++i) {
    const FleetJobSpec& job_spec = fleet.spec(i);
    RunResult r;
    r.scenario = spec.name;
    r.seed = fleet.system(i).config().seed;
    r.days = ToDays(std::max<SimDuration>(cfg.duration - job_spec.start_time, 0));
    r.incidents_injected = fleet.scenario(i).stats().incidents_injected;
    r.refails = fleet.scenario(i).stats().refails;
    r.updates_submitted = fleet.scenario(i).stats().updates_submitted;
    CollectSystemMetrics(fleet.system(i), seed, /*ordinal=*/i, job_spec.name.c_str(), &r);
    if (fleet.system(i).job().run_count() == 0) {
      // A job that never launched inside the campaign window has no
      // availability to report; CumulativeEttr's zero-wall convention would
      // otherwise claim a perfect 1.0 for it.
      r.ettr_cumulative = 0.0;
    }
    incidents_total += r.incidents_injected;
    evictions_total += r.evictions;
    const SpareJobStats& spares = fleet.arbiter().job_stats(i);
    w.BeginObject();
    w.Field("name", job_spec.name);
    w.Field("priority", job_spec.priority);
    w.Field("start_day", ToDays(job_spec.start_time));
    WriteRunFields(&w, r);
    w.Key("spares");
    w.BeginObject();
    w.Field("claims", spares.claims);
    w.Field("machines_requested", spares.machines_requested);
    w.Field("machines_granted", spares.machines_granted);
    w.Field("preemptions_gained", spares.preemptions_gained);
    w.Field("preemptions_lost", spares.preemptions_lost);
    w.Field("queued_claims", spares.queued_claims);
    w.Field("shortfall_machines", spares.shortfall_machines);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  SeedOutcome outcome;
  outcome.element = w.Take();
  outcome.summary.resize(kFleetAggCount);
  outcome.summary[kFleetAggGpuRatio] = fleet.EffectiveGpuTimeRatio();
  outcome.summary[kFleetAggPreemptions] = fleet.arbiter().preemptions_total();
  outcome.summary[kFleetAggQueuedClaims] = fleet.arbiter().queued_claims_total();
  outcome.summary[kFleetAggStorms] = fleet.storms_injected();
  outcome.summary[kFleetAggCrossJobStorms] = fleet.cross_job_storms();
  outcome.summary[kFleetAggIncidents] = incidents_total;
  outcome.summary[kFleetAggEvictions] = evictions_total;
  return outcome;
}

}  // namespace

RunResult RunOne(const ScenarioSpec& spec, double days, std::uint64_t seed,
                 const RuntimeKnobs& knobs) {
  return spec.targeted ? RunTargeted(spec, days, seed, knobs)
                       : RunMixed(spec, days, seed, knobs);
}

void WriteRun(JsonWriter* w, const RunResult& r) {
  w->BeginObject();
  WriteRunFields(w, r);
  w->EndObject();
}

void WriteRunSetHeaderFields(JsonWriter* w, const char* command, const char* scenario,
                             int seeds, std::uint64_t base_seed, double days) {
  w->Field("tool", "byterobust");
  w->Field("command", command);
  w->Field("scenario", scenario);
  w->Field("seeds", seeds);
  w->Field("base_seed", base_seed);
  w->Field("days", days);
}

bool BuildCampaignEngineSpec(const CampaignRequest& req, CampaignEngineSpec* spec,
                             std::string* error) {
  const bool is_fleet = req.command == "fleet";
  const ScenarioSpec* scenario = nullptr;
  const FleetSpec* fleet = nullptr;
  double default_days = 0.0;
  const char* scenario_name = nullptr;
  if (is_fleet) {
    fleet = FindFleetSpec(req.scenario);
    if (fleet == nullptr) {
      *error = "unknown fleet scenario '" + req.scenario + "' (try: byterobust list)";
      return false;
    }
    default_days = fleet->default_days;
    scenario_name = fleet->name;
  } else {
    scenario = FindSpec(req.scenario);
    if (scenario == nullptr) {
      *error = "unknown scenario '" + req.scenario + "' (try: byterobust list)";
      return false;
    }
    default_days = scenario->default_days;
    scenario_name = scenario->name;
  }
  if (req.seeds < 1) {
    *error = "--seeds must be >= 1";
    return false;
  }
  const double days = req.days > 0.0 ? req.days : default_days;
  const char* command = is_fleet ? "fleet" : "campaign";
  const std::uint64_t base_seed = req.base_seed;
  const int seeds = req.seeds;

  spec->seeds = seeds;
  spec->jobs = req.jobs;
  spec->stream = req.stream;
  spec->out_path = req.out_path;
  spec->label = std::string(command) + ":" + scenario_name;
  spec->identity = {command, scenario_name, seeds, base_seed, days, {}};
  spec->journal_path = req.journal_path;
  spec->resume_path = req.resume_path;
  spec->retries_override = req.retries;
  spec->journal_sync = req.journal_sync;
  spec->knobs = req.knobs;
  // Everything below captures by value (registry entries have static storage
  // duration), so the spec is self-contained: serve keeps it alive across the
  // request's worker pool long after the request struct is gone.
  if (is_fleet) {
    spec->run_seed = [fleet, days, base_seed, knobs = req.knobs](int i) {
      return RunFleetSeed(*fleet, days, base_seed + static_cast<std::uint64_t>(i), knobs);
    };
    spec->aggregates = [](JsonWriter* w, const std::vector<std::vector<double>>& summaries) {
      WriteFleetAggregates(w, summaries);
    };
  } else {
    spec->run_seed = [scenario, days, base_seed, knobs = req.knobs](int i) {
      const RunResult r =
          RunOne(*scenario, days, base_seed + static_cast<std::uint64_t>(i), knobs);
      return SeedOutcome{RenderRunElement(r), CampaignSummaryOf(r), false};
    };
    spec->aggregates = [](JsonWriter* w, const std::vector<std::vector<double>>& summaries) {
      WriteCampaignAggregates(w, summaries);
    };
  }
  spec->header_fields = [command, scenario_name, seeds, base_seed, days](JsonWriter* w) {
    WriteRunSetHeaderFields(w, command, scenario_name, seeds, base_seed, days);
  };
  return true;
}

}  // namespace byterobust
